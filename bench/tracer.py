"""Spans around calls into the midostc layers, recorded from outside.

The tracer patches public (and the few module-level private) functions of
the package with thin wrappers while it is installed, so the package
itself carries no timing code.  Each span is kept in memory as

    (name, tag, parent index, start, end, count, scale)

where ``tag`` is inherited from the enclosing span unless given (the code
name "C2", or the CLI subcommand), ``count`` is a number read off the
call's result (decoder visits, search candidates, simulated trials), and
``scale`` is the machine-speed factor of the benchmark step the span ran
in (see ``run.Clock``); durations are reported multiplied by it.

``layer_metrics`` turns the spans into the per-layer metrics that
BENCHMARK.json lists.  ``outside_costs`` measures the tracer's own work
that falls between spans, so that it can be taken out of the time of
``simulate_wer`` that no child span covers.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

from midostc import algebra, channel, codebook, fastdecode
from midostc.numberfield import FieldElement

NAME, TAG, PARENT, START, END, COUNT, SCALE = range(7)

_visits = lambda r: r.visits
_candidates = lambda r: r.candidates
_trials = lambda records: sum(r.trials for r in records)

# (owner, attribute, span name, count read off the result).  A function
# imported by name into another module is patched in both namespaces.
TARGETS = (
    (FieldElement, "__mul__", "numberfield.mul", None),
    (FieldElement, "__rmul__", "numberfield.mul", None),
    (algebra, "catalog_entry", "algebra.catalog_entry", None),
    (algebra, "representation_det_exact", "algebra.representation_det_exact", None),
    (algebra, "division_table", "algebra.division_table", None),
    (codebook, "build_code", "codebook.build_code", None),
    (codebook, "c4_transform", "codebook.c4_transform", None),
    (codebook, "min_det_search", "codebook.min_det_search", _candidates),
    (fastdecode, "hurwitz_radon", "fastdecode.hurwitz_radon", None),
    (fastdecode, "detect_groups", "fastdecode.detect_groups", None),
    (fastdecode, "_real_channel", "fastdecode.real_channel", None),
    (channel, "_real_channel", "fastdecode.real_channel", None),
    (fastdecode, "conditional_group_decode", "fastdecode.conditional_group_decode", _visits),
    (channel, "conditional_group_decode", "fastdecode.conditional_group_decode", _visits),
    (fastdecode, "ml_exhaustive", "fastdecode.ml_exhaustive", _visits),
    (channel, "sample_channel", "channel.draw.channel", None),
    (channel, "transmit", "channel.draw.noise", None),
    (channel, "simulate_wer", "channel.simulate_wer", _trials),
)

# The four spans that make up one trial's draw, in draw order.
DRAW_SPANS = ("channel.draw.generator", "channel.draw.symbols",
              "channel.draw.channel", "channel.draw.noise")


class _TimedGenerator:
    """Generator proxy whose symbol draw (``integers``) is a span."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def integers(self, *args, **kwargs):
        with self._tracer.span("channel.draw.symbols"):
            return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.scale = 1.0
        self._stack = []

    def _open(self, name, tag):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if tag is None and parent >= 0:
            tag = self.spans[parent][TAG]
        self.spans.append([name, tag, parent, time.perf_counter(), None, None, self.scale])
        self._stack.append(idx)
        return idx

    def _close(self, idx, count=None):
        self._stack.pop()
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[COUNT] = count

    @contextmanager
    def span(self, name, tag=None):
        idx = self._open(name, tag)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, count(result) if count and result is not None else None)
        return traced

    def _trial_rng(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span("channel.draw.generator"):
                rng = fn(*args, **kwargs)
            return _TimedGenerator(rng, self)
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        wrappers = {}
        try:
            for owner, attr, name, count in TARGETS:
                fn = owner.__dict__[attr]
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, name, count)
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])
            saved.append((channel, "_trial_rng", channel._trial_rng))
            channel._trial_rng = self._trial_rng(channel._trial_rng)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


# ----------------------------------------------------------------------
# turning spans into metrics


def _duration(s):
    return (s[END] - s[START]) * s[SCALE]


def _durations(spans, name, tag=None):
    return [_duration(s) for s in spans
            if s[NAME] == name and (tag is None or s[TAG] == tag)]


def _counts(spans, name, tag=None):
    return [s[COUNT] for s in spans
            if s[NAME] == name and s[COUNT] is not None and (tag is None or s[TAG] == tag)]


def _child_time(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += _duration(s)
    return child


def _child_cost(spans, costs):
    """Per span, the tracer's work between its direct children (see outside_costs)."""
    cost = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            cost[s[PARENT]] += costs.get(s[NAME], costs["call"])
    return cost


class _NoRng:
    def integers(self, *args):
        return None


def _noop(*args):
    return None


def outside_costs() -> dict:
    """Seconds of tracer work per span that fall outside the span itself but
    inside its parent: the wrapper's frame and the bookkeeping before the
    clock starts and after it stops.  Keyed by span name, with "call" for
    every wrapped function.

    Each cost is the median over five repeats of a parent span around
    2000 traced no-ops, less their own spans and the bare loop.
    """
    calls = 2000

    def measure(make):
        tr = Tracer()
        fn = make(tr)
        t0 = time.perf_counter()
        for _ in range(calls):
            pass
        loop = time.perf_counter() - t0
        with tr.span("parent"):
            for _ in range(calls):
                fn()
        inside = sum(_duration(s) for s in tr.spans[1:])
        return (_duration(tr.spans[0]) - inside - loop) / calls

    patterns = {
        "call": lambda tr: tr._wrap(_noop, "call", None),
        "channel.draw.generator": lambda tr: tr._trial_rng(_NoRng),
        "channel.draw.symbols": lambda tr: _TimedGenerator(_NoRng(), tr).integers,
    }
    return {name: statistics.median(measure(make) for _ in range(5))
            for name, make in patterns.items()}


def _median(values, scale=1.0):
    return (statistics.median(values) * scale, len(values)) if values else (None, 0)


def layer_metrics(spans, costs) -> dict:
    """Per-layer metrics as name -> (value, unit, samples behind the median).

    Times are medians of per-call scaled durations.  ``costs`` are scaled
    ``outside_costs``.  A metric whose layer never ran in the traced spans
    has value None.
    """
    m = {}

    def per_call(metric, span, unit, tag=None):
        value, n = _median(_durations(spans, span, tag), 1e6 if unit == "us" else 1e3)
        m[metric] = (value, unit, n)

    per_call("numberfield.mul_us", "numberfield.mul", "us")
    for metric, span in (("algebra.catalog_entry_ms", "algebra.catalog_entry"),
                         ("codebook.build_code_ms", "codebook.build_code"),
                         ("fastdecode.hurwitz_radon_ms", "fastdecode.hurwitz_radon"),
                         ("fastdecode.detect_groups_ms", "fastdecode.detect_groups"),
                         ("algebra.representation_det_exact_ms", "algebra.representation_det_exact"),
                         ("algebra.division_table_ms", "algebra.division_table"),
                         ("codebook.c4_transform_ms", "codebook.c4_transform"),
                         ("codebook.min_det_search_ms", "codebook.min_det_search")):
        per_call(metric, span, "ms")
    value, n = _median(_counts(spans, "codebook.min_det_search"))
    m["codebook.min_det_candidates"] = (value, "count", n)
    for cmd in ("construct", "division-table", "analyze", "mindet"):
        per_call(f"cli.main_ms.{cmd}", "cli.main", "ms", tag=cmd)

    parts = [_durations(spans, name) for name in DRAW_SPANS]
    value, n = _median([sum(t) for t in zip(*parts)], 1e6)
    m["channel.draw_us"] = (value, "us", n)
    per_call("fastdecode.real_channel_us", "fastdecode.real_channel", "us")
    for code in ("C2", "C3", "C5"):
        per_call(f"fastdecode.conditional_group_decode_us.{code}",
                 "fastdecode.conditional_group_decode", "us", tag=code)
    per_call("fastdecode.ml_exhaustive_us", "fastdecode.ml_exhaustive", "us")

    split = _trial_split(spans, costs)
    for code in ("C2", "C3", "C5"):
        value, n = _median(split[code], 1e6)
        m[f"channel.simulate_wer_us_per_trial.{code}"] = (value, "us", n)
    value, n = _median(split["unaccounted"], 1e6)
    m["channel.trial_unaccounted_us"] = (value, "us", n)

    for code in ("C2", "C5"):
        value, n = _median(_counts(spans, "fastdecode.conditional_group_decode", code))
        m[f"fastdecode.visits_per_trial.{code}"] = (value, "count", n)
    (cond, n_cond), (exh, n_exh) = _visit_counts(spans)
    m["fastdecode.visit_ratio"] = (cond / exh if cond and exh else None, "ratio", min(n_cond, n_exh))
    return m


def _trial_split(spans, costs):
    """Per ``simulate_wer`` call, seconds per trial: in all (by code), not
    covered by a child span, and of that the tracer's own work."""
    child = _child_time(spans)
    cost = _child_cost(spans, costs)
    split = {"C2": [], "C3": [], "C5": [], "unaccounted": [], "tracer": []}
    for i, s in enumerate(spans):
        if s[NAME] == "channel.simulate_wer" and s[TAG] in split and s[COUNT]:
            split[s[TAG]].append(_duration(s) / s[COUNT])
            split["unaccounted"].append((_duration(s) - child[i] - cost[i]) / s[COUNT])
            split["tracer"].append(cost[i] / s[COUNT])
    return split


def unaccounted_base(spans, costs) -> dict:
    """The tracer's per-trial work taken out of ``channel.trial_unaccounted_us``."""
    split = _trial_split(spans, costs)
    return {"tracer_outside_spans_us": _median(split["tracer"], 1e6)[0],
            "tracer_us_per_span": {k: v * 1e6 for k, v in costs.items()}}


def _visit_counts(spans):
    return (_median(_counts(spans, "fastdecode.conditional_group_decode", "C2")),
            _median(_counts(spans, "fastdecode.ml_exhaustive")))


def visit_ratio_base(spans) -> dict:
    (cond, _), (exh, _) = _visit_counts(spans)
    return {"conditional_visits_C2": cond, "exhaustive_visits": exh}
