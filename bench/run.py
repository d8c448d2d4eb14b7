"""midostc benchmark: one workload per process, outputs checked, metrics named.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Workloads (see bench/README.md for why each was chosen):

  wer_operating_point  simulate_wer for C2, C3, C5 at 15 dB, plus C2 on a
                       two-worker pool
  oracle_verify        C2 at 10 dB, every instance decoded by the exhaustive
                       oracle and the conditional decoder
  certify_catalog      the certification CLI subcommands in-process, plus
                       exact determinant denominators for entries 1-3

Each workload repeats a fixed round of work until ``--seconds`` have
passed and reports medians over rounds.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` the run
spends half its time untraced and half traced, adds one small round of
every other workload, and carries the per-layer metrics.  The line before
the last is a JSON report with provenance, sample counts, percentiles,
unscaled times and the failed checks.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
# One BLAS thread, set before numpy loads: otherwise OpenBLAS spreads the
# large products (the exhaustive oracle's, C5's conditioned GEMM) over
# every core, and its spinning workers make run-to-run times swing.  The
# two-worker pool pass is then the only load on more than one core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

try:
    import numpy as np
    import midostc
    from midostc import algebra, channel, cli, codebook, fastdecode
except ImportError as exc:
    sys.exit(f"bench: cannot import midostc from {ROOT / 'src'}: {exc}")
if not Path(midostc.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"bench: midostc came from {midostc.__file__}, not from {ROOT / 'src'}")

import tracer as tracing
from timing import CANDIDATES, MIX, PHILOX, Clock

PAM = fastdecode.pam_levels(2)
# (catalog entry, basis, variant) per code name, on top of the CLI's
# shortcuts: B1 is entry 1 over basis B1, En is entry n over B2.
CODES = {**cli.CODE_SHORTCUTS, "B1": (1, "B1", "plain"),
         "E2": (2, "B2", "plain"), "E3": (3, "B2", "plain")}
EXPECTED = HERE / "expected"

CERT_ARGVS = (
    *(("construct", "--example", str(n)) for n in range(1, 6)),
    ("division-table",),
    *(("analyze", "--code", c) for c in ("C2", "C3", "C4", "C5")),
    ("analyze", "--example", "1", "--basis", "B1"),
    *(("mindet", "--code", c) for c in ("C2", "C3", "C4", "C5")),
    ("mindet", "--example", "1", "--basis", "B1"),
    ("mindet", "--example", "2"),
    ("mindet", "--example", "3"),
)
DET_STEP = 12              # exact determinants timed as one step
POOL_PASSES = 5


@dataclass(frozen=True)
class Sizes:
    """Fixed work per round.  FULL is the benchmark; TINY is for probes and tests."""

    wer_trials: tuple = (("C2", 128), ("C3", 128), ("C5", 64))
    pool_trials: int = 512         # per pool pass, C2 on one and on two processes
    oracle_block: int = 16
    cert_argvs: tuple = CERT_ARGVS
    cert_dets: int = 72            # exact determinants per catalog entry 1-3
    setup_repeats: int = 5


FULL = Sizes()
TINY = Sizes(wer_trials=(("C2", 32), ("C3", 32), ("C5", 16)), pool_trials=256,
             oracle_block=2, cert_dets=24, setup_repeats=1,
             cert_argvs=(("construct", "--example", "1"), ("division-table",),
                         ("analyze", "--code", "C2"), ("analyze", "--example", "1", "--basis", "B1"),
                         ("mindet", "--code", "C2")))


class Checks:
    """Every check is one attempted operation; every miss is one failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses = []

    def __call__(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(what)
        return ok


def _span(tr, name, tag):
    return tr.span(name, tag) if tr else contextlib.nullcontext()


def _round_seed(seed, r):
    return seed * 1_000_003 + r


def build_codes(names, clock):
    """Set-up, one step per code: catalog entry, code, coupling matrix, groups."""
    out = {}
    for name in names:
        entry, basis, variant = CODES[name]
        with clock.step():
            code = codebook.build_code(algebra.catalog_entry(entry), basis)
            if variant == "C4":
                code = codebook.c4_transform(code)
            out[name] = (code, fastdecode.detect_groups(fastdecode.hurwitz_radon(code)))
    return out


# ----------------------------------------------------------------------
# workloads: round() does a fixed amount of work in clock steps and
# returns its operation count; finish() runs the untimed passes and, for
# a full-size run, the checks that need every round.


class WerOperatingPoint:
    name = "wer_operating_point"
    headline = ("trials_per_s", "1/s")
    reference = PHILOX
    codes = ("C2", "C3", "C5")
    snr_db = 15.0

    def __init__(self, built, seed, sizes, checks):
        self.built, self.seed, self.sizes, self.checks = built, seed, sizes, checks
        self.totals = {name: [0, 0] for name, _ in sizes.wer_trials}   # errors, trials
        self.pool_rates = []      # (one process, two processes) trials/s
        for name, expo in (("C2", 10), ("C3", 10), ("C5", 14)):
            checks(built[name][1].exponent == expo, f"{name} exponent is not {expo}")

    def _simulate(self, name, seed, trials, threads):
        code, gs = self.built[name]
        try:
            rec = channel.simulate_wer(code, gs, [self.snr_db], seed=seed,
                                       min_errors=trials + 1, max_trials=trials,
                                       threads=threads)[0]
        except fastdecode.StructureInvalidError as exc:
            self.checks(False, f"{name} threads={threads}: {exc}")
            return None
        self.checks(rec.trials == trials, f"{name}: {rec.trials} trials, asked {trials}")
        return rec

    def round(self, r, clock, tr=None):
        seed = _round_seed(self.seed, r)
        for name, trials in self.sizes.wer_trials:
            with clock.step(), _span(tr, "bench.pass", name):
                rec = self._simulate(name, seed, trials, 1)
            if rec:
                self.totals[name][0] += rec.word_errors
                self.totals[name][1] += rec.trials
        return sum(trials for _, trials in self.sizes.wer_trials)

    def pool_passes(self):
        """C2 on one process, then on two, for the same seeds; records must match.

        Kept apart from the timed rounds: forking the pool makes the
        parent's next pass pay copy-on-write faults.
        """
        n = self.sizes.pool_trials
        for k in range(POOL_PASSES):
            seed = _round_seed(self.seed, 1_000_000 + k)   # past any timed round
            rates = []
            recs = []
            for threads in (1, 2):
                t0 = time.perf_counter()
                recs.append(self._simulate("C2", seed, n, threads))
                rates.append(n / (time.perf_counter() - t0))
            self.pool_rates.append(tuple(rates))
            if all(recs):
                self.checks(recs[0] == recs[1], f"pool pass {k}: threads=2 record differs from threads=1")

    def finish(self, full=True):
        self.pool_passes()
        if not full:
            return
        ci = {name: channel.wilson_interval(e, t) for name, (e, t) in self.totals.items() if t}
        if not self.checks(len(ci) == 3, "a code produced no WER record"):
            return
        self.checks(ci["C3"][1] < ci["C2"][0],
                    f"C3 Wilson upper {ci['C3'][1]:.4g} not below C2 lower {ci['C2'][0]:.4g}")
        e5, t5 = self.totals["C5"]
        self.checks(e5 / t5 <= ci["C2"][1],
                    f"C5 WER {e5 / t5:.4g} above C2 Wilson upper {ci['C2'][1]:.4g}")

    def details(self):
        out = {name: {"word_errors": e, "trials": t, "wer": e / t,
                      "wilson95": channel.wilson_interval(e, t)}
               for name, (e, t) in self.totals.items() if t}
        if self.pool_rates:
            out["c2_one_process_trials_per_s"] = summarize([a for a, _ in self.pool_rates])
            out["pool2_trials_per_s"] = summarize([b for _, b in self.pool_rates])
        return out

    def pool_metrics(self):
        one = statistics.median(a for a, _ in self.pool_rates)
        two = statistics.median(b for _, b in self.pool_rates)
        n = len(self.pool_rates)
        return {"channel.pool2_trials_per_s": (two, "1/s", n),
                "channel.pool2_speedup": (two / one, "ratio", n)}


class OracleVerify:
    name = "oracle_verify"
    headline = ("verified_per_s", "1/s")
    reference = CANDIDATES
    codes = ("C2",)
    snr_db = 10.0

    def __init__(self, built, seed, sizes, checks):
        self.built, self.seed, self.sizes, self.checks = built, seed, sizes, checks
        self.sigma2 = channel.snr_to_sigma2(self.snr_db)
        self.worst_gap = 0.0
        checks(built["C2"][1].exponent == 10, "C2 exponent is not 10")

    def verify(self, trial):
        """One instance, drawn exactly as ``midostc decode-verify`` draws it."""
        code, gs = self.built["C2"]
        rng = channel._trial_rng(self.seed, 0, trial)
        s0 = rng.integers(0, 2, 16) * 2.0 - 1.0
        X = np.einsum("i,ijk->jk", s0, code.generators)
        inst = channel.ChannelInstance(channel.sample_channel(rng), self.sigma2)
        y = fastdecode.stack_real(channel.transmit(X, inst, rng))
        ch = fastdecode.real_channel(code, inst.H)
        r_ml = fastdecode.ml_exhaustive(y, ch, PAM)
        try:
            r_cg = fastdecode.conditional_group_decode(y, ch, gs, PAM)
        except fastdecode.StructureInvalidError as exc:
            self.checks(False, f"trial {trial}: {exc}")
            return
        gap = abs(r_ml.metric - r_cg.metric)
        self.worst_gap = max(self.worst_gap, gap)
        self.checks(gap <= 1e-9 and r_cg.visits == 4096 and r_ml.visits == 65536,
                    f"trial {trial}: gap {gap:.3e}, visits {r_cg.visits}/{r_ml.visits}")

    def round(self, r, clock, tr=None):
        n = self.sizes.oracle_block
        with clock.step(), _span(tr, "bench.block", "C2"):
            for trial in range(r * n, (r + 1) * n):
                self.verify(trial)
        return n

    def finish(self, full=True):
        pass

    def details(self):
        return {"worst_metric_gap": self.worst_gap}


def _label(argv):
    """Code name a CLI argv works on: C2, B1 (entry 1 over B1) or E<n>."""
    if "--code" in argv:
        return argv[argv.index("--code") + 1]
    if "--basis" in argv:
        return argv[argv.index("--basis") + 1]
    return f"E{argv[argv.index('--example') + 1]}" if "--example" in argv else ""


class CertifyCatalog:
    name = "certify_catalog"
    headline = ("certify_s", "s")
    reference = MIX
    codes = ("C2", "C3", "C4", "C5", "B1", "E2", "E3")
    exponents = {"C2": 10, "C3": 10, "C4": 14, "C5": 14, "B1": 12}
    nvd_labels = ("C2", "C3", "C4", "B1", "E2", "E3")   # codes of catalog entries 1-3

    def __init__(self, built, seed, sizes, checks):
        self.seed, self.sizes, self.checks = seed, sizes, checks
        self.entries = {n: built[name][0] for n, name in ((1, "C2"), (2, "E2"), (3, "E3"))}
        self.expected = {f"E{n}": json.loads((EXPECTED / f"construct_{n}.json").read_text())
                         for n in range(1, 6)}
        self.expected_table = (EXPECTED / "division_table.csv").read_text()
        self.min_dets = {}
        self.cli_share = []       # share of each round's raw time spent in the CLI

    def _cli(self, argv, clock, tr):
        buf = io.StringIO()
        with clock.step("cli"), _span(tr, "cli.main", argv[0]), contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        out = buf.getvalue()
        what = " ".join(argv)
        if not self.checks(rc == 0, f"{what}: exit code {rc}"):
            return
        label = _label(argv)
        if argv[0] == "construct":
            self.checks(json.loads(out) == self.expected[label], f"{what}: JSON differs from expected")
        elif argv[0] == "division-table":
            self.checks(out == self.expected_table, f"{what}: table differs from expected")
        elif argv[0] == "analyze":
            expo = json.loads(out)["exponent"]
            want = self.exponents[label]
            self.checks(expo == want, f"{what}: exponent {expo}, expected {want}")
        elif argv[0] == "mindet":
            row = out.splitlines()[1].split(",")
            candidates, min_det = int(row[2]), float(row[3])
            self.min_dets[label] = min_det
            ok = candidates == 39360 and (label not in self.nvd_labels or min_det >= 0.5)
            self.checks(ok, f"{what}: {candidates} candidates, min |det| {min_det}")

    def _denominators(self, r, clock):
        rng = random.Random(_round_seed(self.seed, r))
        for n, code in self.entries.items():
            p, basis = code.params, code.basis
            wp = p.ctx.omega_prime()
            lcm = 1
            for start in range(0, self.sizes.cert_dets, DET_STEP):
                with clock.step("dets"):
                    for _ in range(min(DET_STEP, self.sizes.cert_dets - start)):
                        s = [rng.randint(-2, 2) for _ in range(16)]
                        xs = tuple((s[4 * j] + s[4 * j + 1] * wp) * basis.beta1
                                   + (s[4 * j + 2] + s[4 * j + 3] * wp) * basis.beta2
                                   for j in range(4))
                        den = algebra.representation_det_exact(p, xs).denominator
                        self.checks(den in (1, 2), f"entry {n}: determinant denominator {den}")
                        lcm = lcm * den // math.gcd(lcm, den)
            self.checks(lcm == 2, f"entry {n}: determinant denominators have lcm {lcm}, expected 2")

    def round(self, r, clock, tr=None):
        for argv in self.sizes.cert_argvs:
            self._cli(argv, clock, tr)
        self._denominators(r, clock)
        self.cli_share.append(clock.raw["cli"] / clock.raw_total)
        return 1

    def finish(self, full=True):
        pass

    def details(self):
        return {"min_abs_det": self.min_dets, "cli_share": summarize(self.cli_share)}


WORKLOADS = {cls.name: cls for cls in (WerOperatingPoint, OracleVerify, CertifyCatalog)}


# ----------------------------------------------------------------------
# running and reporting


def summarize(values):
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n}
    if n >= 20:
        q = math.floor(100 * (n - 10) / n)
        out[f"p{q}"] = vals[min(n - 1, math.ceil(q / 100 * n) - 1)]
    return out


def time_imports(repeats):
    """Seconds from process start through ``import midostc``, in fresh interpreters.

    Not scaled: the reference kernels do not track process start-up.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import midostc"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def setup(cls, sizes, tr=None):
    """Build the workload's codes ``setup_repeats`` times; the clocks of each."""
    clocks = []
    for _ in range(sizes.setup_repeats):
        clocks.append(Clock(MIX, tr))
        built = build_codes(cls.codes, clocks[-1])
    return built, clocks


def timed_rounds(wl, seconds, r0=0, tr=None):
    """Rounds until ``seconds`` have passed (at least one); (ops, Clock) each."""
    deadline = time.perf_counter() + seconds
    rounds = []
    r = r0
    while True:
        clock = Clock(wl.reference, tr)
        rounds.append((wl.round(r, clock, tr), clock))
        r += 1
        if time.perf_counter() >= deadline:
            return rounds, r


def _per_op(rounds, raw=False):
    return [(c.raw_total if raw else c.scaled) / ops for ops, c in rounds]


def _git_sha():
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def provenance(seed, loadavg):
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "midostc_version": midostc.__version__,
        "rng_scheme": channel.RNG_SCHEME,
        "seed": seed,
        "blas_threads": int(BLAS_THREADS),
    }


def run_untraced(name, seed, seconds, sizes=FULL):
    """End-to-end metrics: name -> (value, unit, samples), plus report details."""
    cls = WORKLOADS[name]
    checks = Checks()
    import_s = time_imports(sizes.setup_repeats)
    built, setup_clocks = setup(cls, sizes)
    wl = cls(built, seed, sizes, checks)
    rounds, _ = timed_rounds(wl, seconds)
    wl.finish()
    per_op = _per_op(rounds)
    median_op = statistics.median(per_op)
    setup_s = [c.scaled for c in setup_clocks]
    metrics = {
        "setup_s": (statistics.median(import_s) + statistics.median(setup_s), "s", len(setup_s)),
        "ops_per_s": (1.0 / median_op, "1/s", len(per_op)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    headline, unit = cls.headline
    details = {
        headline: {"value": median_op if unit == "s" else 1.0 / median_op, "unit": unit},
        "op_ms": summarize([t * 1e3 for t in per_op]),
        "raw_op_ms": summarize([t * 1e3 for t in _per_op(rounds, raw=True)]),
        "reference": {"kernel": cls.reference.name, "nominal_ms": cls.reference.nominal_s * 1e3,
                      "measured_ms": summarize([t * 1e3 for _, c in rounds for t in c.refs])},
        "import_s": import_s,
        "setup_repeats_s": {"scaled": setup_s, "raw": [c.raw_total for c in setup_clocks]},
        **wl.details(),
    }
    return checks, metrics, details


def run_traced(name, seed, seconds, sizes=FULL):
    """Per-layer metrics from spans: the workload half untraced, half traced,
    then one untraced and one traced round of every other workload."""
    tr = tracing.Tracer()
    checks = Checks()
    extra = {}
    bases = {}        # numerator and denominator of each ratio metric
    for wname, cls in sorted(WORKLOADS.items(), key=lambda kv: kv[0] != name):
        main = wname == name
        wsizes = sizes if main else TINY
        with tr.installed():
            built, _ = setup(cls, wsizes, tr)
        wl = cls(built, seed, wsizes, checks)
        untraced, r = timed_rounds(wl, seconds / 2 if main else 0)
        with tr.installed():
            traced, _ = timed_rounds(wl, seconds / 2 if main else 0, r, tr)
        wl.finish(full=main)
        if main:
            op_ms = {"traced_op_ms": statistics.median(_per_op(traced)) * 1e3,
                     "untraced_op_ms": statistics.median(_per_op(untraced)) * 1e3}
            ratio = op_ms["traced_op_ms"] / op_ms["untraced_op_ms"]
            extra["bench.tracing_overhead_ratio"] = (ratio, "ratio", len(traced))
            bases["bench.tracing_overhead_ratio"] = op_ms
        if isinstance(wl, WerOperatingPoint):
            extra.update(wl.pool_metrics())
            bases["channel.pool2_speedup"] = {k: v for k, v in wl.details().items()
                                              if k.endswith("trials_per_s")}
    # The tracer's own cost, scaled like the workload's steps.
    clock = Clock(WORKLOADS[name].reference)
    with clock.step():
        costs = tracing.outside_costs()
    costs = {k: v * clock.scaled / clock.raw_total for k, v in costs.items()}
    metrics = {**tracing.layer_metrics(tr.spans, costs), **extra}
    for metric, (value, _, _) in metrics.items():
        checks(value is not None, f"no spans behind {metric}")
    bases["fastdecode.visit_ratio"] = tracing.visit_ratio_base(tr.spans)
    bases["channel.trial_unaccounted_us"] = tracing.unaccounted_base(tr.spans, costs)
    details = {"spans": len(tr.spans), "bases": bases}
    return checks, metrics, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be non-negative and --seconds positive")
    loadavg = os.getloadavg()
    run = run_traced if args.trace else run_untraced
    checks, metrics, details = run(args.workload, args.seed, args.seconds)
    report = {
        "workload": args.workload, "trace": args.trace,
        "provenance": provenance(args.seed, loadavg),
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "details": details,
        "misses": checks.misses,
    }
    print(json.dumps({"report": report}, default=float))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v if v is not None else 0.0, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
