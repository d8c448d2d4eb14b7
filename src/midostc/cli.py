"""Command line interface.

Subcommands:

  construct       derive and certify algebra parameters (JSON)
  division-table  the reference division verdict grid (CSV)
  analyze         quadratic-form matrix, detected groups, exponent (JSON)
  mindet          minimum determinant search (CSV)
  decode-verify   conditional decoder vs exhaustive ML oracle (text)
  simulate        word error rate curves (CSV)

All floating point output is rounded to 12 significant digits and exact
rationals are printed as fractions, so reruns are byte identical.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from . import algebra, channel, codebook, fastdecode
from .numberfield import FieldContext

# Short names for the simulated codes: (catalog entry, basis, variant).
CODE_SHORTCUTS = {
    "C2": (1, "B2", "plain"),
    "C3": (1, "B3", "plain"),
    "C4": (1, "B2", "C4"),
    "C5": (5, "B2", "plain"),
}
# Values of the options that may be left out.
OPTION_DEFAULTS = {"basis": "B2", "variant": "plain", "k": "1", "lprime": "1",
                   "samples": 1000, "seed": 0}
# Least values of the integer options (0: non-negative).
OPTION_MINIMA = {"seed": 0, "samples": 1, "trials": 1, "min_errors": 1, "max_trials": 1, "threads": 1}
# Options that a given option (the key) would silently override.
OVERRIDDEN = {"code": ("example", "basis", "variant", "c", "cprime", "u", "k", "lprime"),
              "example": ("c", "cprime", "u", "k", "lprime")}
# Points an SNR range may expand to.
MAX_SNR_POINTS = 1000


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _round_floats(obj):
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, output: str | None) -> None:
    _emit(json.dumps(_round_floats(obj), indent=2) + "\n", output)


def _parse_rational(option: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--{option} needs a finite rational such as 3, -1/2 or 0.25, got {text!r}") from None


def _parse_rational_vector(option: str, text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"--{option} needs four comma-separated rationals, got {len(parts)}")
    return tuple(_parse_rational(option, p) for p in parts)


def _resolve_options(args) -> None:
    """Refuse options that another given option would override, expand --code
    into --example, --basis and --variant, then fill in the defaults."""
    def given(names):
        return [f"--{n}" for n in names if getattr(args, n, None) is not None]

    refused = [(option, given(overridden)) for option, overridden in OVERRIDDEN.items()
               if getattr(args, option, None) is not None]
    if getattr(args, "strategy", "random") != "random":
        refused.append(("strategy", given(("samples", "seed"))))
    for option, clash in refused:
        if clash:
            raise ValueError(f"--{option} {getattr(args, option) or repr('')} cannot be combined with {', '.join(clash)}")
    if getattr(args, "code", None) is not None:
        if args.code.upper() not in CODE_SHORTCUTS:
            raise ValueError(f"unknown code shortcut {args.code!r}, known: {sorted(CODE_SHORTCUTS)}")
        args.example, args.basis, args.variant = CODE_SHORTCUTS[args.code.upper()]
    for name, value in OPTION_DEFAULTS.items():
        if getattr(args, name, value) is None:
            setattr(args, name, value)
    for name, least in OPTION_MINIMA.items():
        if getattr(args, name, least) < least:
            raise ValueError(f"--{name.replace('_', '-')} must be {f'at least {least}' if least else 'non-negative'}, "
                             f"got {getattr(args, name)}")


def _params_from_args(args) -> algebra.CodeParams:
    if args.example is not None:
        return algebra.catalog_entry(args.example)
    if args.c is None or args.cprime is None or args.u is None:
        raise ValueError("either --example or all of --c, --cprime, --u are required")
    ctx = FieldContext(args.c, args.cprime)
    u = ctx.element(*_parse_rational_vector("u", args.u))
    return algebra.build_params(ctx, u, k=_parse_rational("k", args.k),
                                lprime=_parse_rational("lprime", args.lprime))


# ----------------------------------------------------------------------
# subcommands


def cmd_construct(args) -> int:
    params = _params_from_args(args)
    doc = algebra.params_to_json(params)
    if params.division.is_division is False and params.conditions.ok:
        doc["note"] = "not a division algebra (no nonvanishing determinant certificate); " \
                      "unit parameters of this kind give good shaping"
    _emit_json(doc, args.output)
    return 0 if params.conditions.ok else 1


def cmd_division_table(args) -> int:
    lines = ["c,minus_cprime,is_division,witness"]
    for c, mcp, verdict, witness in algebra.division_table():
        lines.append(f"{c},{mcp},{'yes' if verdict else 'no'},{witness or ''}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_analyze(args) -> int:
    code = codebook.build_code(_params_from_args(args), args.basis, args.variant)
    b = fastdecode.hurwitz_radon(code)
    if args.target is not None and not 0 <= args.target < len(b):
        raise ValueError(f"--target must be in 0..{len(b) - 1}, got {args.target}")
    gs = fastdecode.detect_groups(b, args.target)
    doc = {
        "code": code.name,
        "b_matrix": np.where(fastdecode.adjacency(b) | np.eye(len(b), dtype=bool), b, 0.0).tolist(),
        "conditioned": [i + 1 for i in gs.conditioned],
        "groups": [[i + 1 for i in g] for g in gs.groups],
        "exponent": gs.exponent,
        "trivial": gs.trivial,
        "symbol_indexing": "1-based, four symbols per field coefficient",
    }
    _emit_json(doc, args.output)
    return 0


def cmd_mindet(args) -> int:
    code = codebook.build_code(_params_from_args(args), args.basis, args.variant)
    res = codebook.min_det_search(code, args.strategy, n=args.samples, seed=args.seed)
    lines = [
        "code,strategy,candidates,min_abs_det,energy_scale,witness",
        f"{code.name},{res.strategy},{res.candidates},{res.min_abs_det:.12g},"
        f"{code.energy_scale:.12g},{' '.join(str(v) for v in res.witness)}",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_decode_verify(args) -> int:
    sigma2 = channel.snr_to_sigma2(args.snr_db, "--snr-db")
    code = codebook.build_code(_params_from_args(args), args.basis, args.variant)
    gs = fastdecode.detect_groups(fastdecode.hurwitz_radon(code))
    pam = fastdecode.pam_levels(2)
    matches = 0
    worst = 0.0
    # one slice of BATCH_SIZE trials at a time keeps memory flat in --trials
    for lo in range(0, args.trials, channel.BATCH_SIZE):
        _, y, G = channel.draw_trials(args.seed, 0, lo, min(lo + channel.BATCH_SIZE, args.trials),
                                      code.generators, sigma2)
        r_cg = fastdecode.conditional_group_decode(y, G, gs, pam)
        for i in range(len(y)):
            r_ml = fastdecode.ml_exhaustive(y[i], G[i], pam)
            gap = abs(r_ml.metric - r_cg.metric[i])
            worst = max(worst, gap)
            if np.array_equal(r_ml.symbols, r_cg.symbols[i]) or gap <= 1e-9:
                matches += 1
    print(f"code: {code.name}")
    print(f"structure: conditioned={len(gs.conditioned)} groups={[len(g) for g in gs.groups]} "
          f"exponent={gs.exponent}")
    print(f"visits: conditional={r_cg.visits} exhaustive={r_ml.visits}")
    print(f"config: trials={args.trials} snr_db={_sig12(args.snr_db)} seed={args.seed} rng={channel.RNG_SCHEME}")
    print(f"oracle agreement: {matches}/{args.trials} (worst metric gap {worst:.3e})")
    if matches != args.trials:
        print("MISMATCH against the exhaustive oracle", file=sys.stderr)
        return 1
    return 0


def _parse_snr_list(text: str):
    def number(part):
        try:
            return float(part)
        except ValueError:
            raise ValueError(f"--snr needs numbers in dB, got {part!r} in {text!r}") from None

    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"--snr range form is start:stop:step, got {text!r}")
        start, stop, step = map(number, parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"--snr range {text!r} needs a finite start, stop and step")
        if step <= 0 or start > stop + 1e-9:
            raise ValueError(f"--snr range {text!r} needs a positive step and start <= stop")
        out = []
        v = start
        while v <= stop + 1e-9:
            if len(out) == MAX_SNR_POINTS:
                raise ValueError(f"--snr range {text!r} has more than {MAX_SNR_POINTS} points")
            out.append(round(v, 9))
            v += step
        return out
    return [number(p) for p in text.split(",")]


def cmd_simulate(args) -> int:
    code = codebook.build_code(_params_from_args(args), args.basis, args.variant)
    gs = fastdecode.detect_groups(fastdecode.hurwitz_radon(code))
    snrs = _parse_snr_list(args.snr)
    for snr_db in snrs:
        channel.snr_to_sigma2(snr_db, "--snr")
    records = channel.simulate_wer(code, gs, snrs, seed=args.seed,
                                   min_errors=args.min_errors, max_trials=args.max_trials,
                                   threads=args.threads)
    buf = io.StringIO()
    channel.write_wer_csv(records, buf, code_name=code.name, basis=code.basis.id,
                          variant=code.variant, seed=args.seed,
                          min_errors=args.min_errors, max_trials=args.max_trials,
                          threads=args.threads)
    _emit(buf.getvalue(), args.output)
    return 0


# ----------------------------------------------------------------------
# argument wiring


def _add_params_args(sp, with_basis=True, with_code=True):
    sp.add_argument("--example", type=int, choices=(1, 2, 3, 4, 5),
                    help="catalog entry number")
    sp.add_argument("--c", type=int, help="squarefree c in w^2 = -c")
    sp.add_argument("--cprime", type=int, help="squarefree c' in w'^2 = -c'")
    sp.add_argument("--u", help="norm-one unit as four comma-separated rationals "
                               "over the basis {1, w', w, w'w}; write --u=-1/2,... "
                               "(equals form) when the first coefficient is negative")
    sp.add_argument("--k", help="rational scale on the first generator square (default 1)")
    sp.add_argument("--lprime", help="rational scale on the second generator square (default 1)")
    if with_basis:
        sp.add_argument("--basis", choices=("B1", "B2", "B3"), help="symbol basis (default B2)")
        sp.add_argument("--variant", choices=("plain", "C4"), help="code variant (default plain)")
    if with_code:
        sp.add_argument("--code", help="shortcut name: " + ", ".join(sorted(CODE_SHORTCUTS)))


@cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="midostc",
                                 description="Full-rate 4x2 space-time codes from crossed-product "
                                             "algebras: construction, certification, decoding, simulation")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="derive and certify algebra parameters")
    _add_params_args(sp, with_basis=False, with_code=False)
    sp.add_argument("--output", help="write JSON here instead of stdout")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("division-table", help="reference division verdicts (CSV)")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_division_table)

    sp = sub.add_parser("analyze", help="coupling matrix and decoding groups (JSON)")
    _add_params_args(sp)
    sp.add_argument("--target", type=int, help="conditioning set size (default: scan)")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("mindet", help="minimum determinant search (CSV)")
    _add_params_args(sp)
    sp.add_argument("--strategy", default="sparse_exhaustive",
                    choices=("sparse_exhaustive", "random"))
    sp.add_argument("--samples", type=int, help="sample count for the random strategy (default 1000)")
    sp.add_argument("--seed", type=int, help="seed for the random strategy (default 0)")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_mindet)

    sp = sub.add_parser("decode-verify", help="conditional decoder against the exhaustive oracle")
    _add_params_args(sp)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--snr-db", type=float, default=10.0, help="operating SNR in dB")
    sp.set_defaults(func=cmd_decode_verify)

    sp = sub.add_parser("simulate", help="word error rate simulation (CSV)")
    _add_params_args(sp)
    sp.add_argument("--snr", required=True,
                    help="SNR points in dB: comma list \"8,10,12\" or range \"8:16:2\"")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--min-errors", type=int, default=100)
    sp.add_argument("--max-trials", type=int, default=10 ** 6)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_simulate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_options(args)
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
