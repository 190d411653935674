"""Per-layer tracing of one CLI invocation, from outside the library.

Spans are recorded by rebinding the names a calling module looks up (for
example ``experiments.visible_histogram`` or ``factor.ExtensionField``) to
wrappers; no file of the library changes.  Spans stay in memory and are
written out when the invocation ends.

Run as a script, this file is the child process of a traced run:

    python3 perfbench/tracing.py --mode plain|traced --op N --result FILE -- <cli args>
    python3 perfbench/tracing.py --mode derive --derive-p P --result FILE

``plain`` times ``cli.main`` untraced, ``traced`` times it with every
wrapper installed, and ``derive`` times the grid layers of the levels
workload one by one.  The CLI's stdout goes to this process's stdout.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

# (module whose name is rebound, the name, span name); a span name listed
# under several callers wraps one function and shares its counts
REBINDINGS = (
    ("cli", "main", "cli.main"),
    ("experiments", "level_sweep", "experiments.level_sweep"),
    ("experiments", "concentration_profiles", "experiments.concentration_profiles"),
    ("experiments", "prime_sweep", "experiments.prime_sweep"),
    ("experiments", "visible_histogram", "counting.visible_histogram"),
    ("experiments", "count_visible_direct", "counting.count_visible_direct"),
    ("cli", "count_visible_direct", "counting.count_visible_direct"),
    ("cli", "count_visible_mobius", "counting.count_visible_mobius"),
    ("counting", "count_divisible", "counting.count_divisible"),
    ("cli", "count_level_points", "counting.count_level_points"),
    ("counting", "univariate_roots", "fields.univariate_roots"),
    ("factor", "ExtensionField", "fields.ExtensionField"),
    ("factor", "is_absolutely_irreducible", "factor.is_absolutely_irreducible"),
    ("experiments", "is_absolutely_irreducible", "factor.is_absolutely_irreducible"),
    ("factor", "bad_level_values", "factor.bad_level_values"),
    ("cli", "reduce_mod", "poly.reduce_mod"),
    ("counting", "reduce_mod", "poly.reduce_mod"),
    ("experiments", "reduce_mod", "poly.reduce_mod"),
    ("factor", "reduce_mod", "poly.reduce_mod"),
    ("output", "records_to_json", "output.records_to_json"),
)
#: spans that also record the tracemalloc peak inside the call
MEMORY_SPANS = {"counting.visible_histogram"}
#: spans that record a count taken from their result
RESULT_NOTES = {"factor.bad_level_values": len}

CALLS = (
    "fields.ExtensionField", "fields.univariate_roots", "factor.is_absolutely_irreducible",
    "counting.visible_histogram", "counting.count_visible_direct", "counting.count_divisible",
    "poly.reduce_mod", "cli.main",
)
SELF_TIMES = (
    "fields.ExtensionField", "fields.univariate_roots", "factor.is_absolutely_irreducible",
    "factor.bad_level_values", "counting.visible_histogram", "counting.count_visible_direct",
    "counting.count_visible_mobius", "counting.count_divisible", "counting.count_level_points",
    "experiments.level_sweep", "experiments.concentration_profiles", "experiments.prime_sweep",
    "poly.reduce_mod", "cli.main", "output.records_to_json",
)
DERIVED = ("grid_eval", "coprime_mask", "bincount")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{n}.calls": "count" for n in CALLS}
    units.update({f"{n}.self_s": "s" for n in SELF_TIMES})
    units["counting.visible_histogram.peak_mb"] = "MB"
    units["factor.bad_level_hit_frac"] = "ratio"
    units.update({f"counting.{d}_s": "s" for d in DERIVED})
    units.update({f"counting.{d}.peak_mb": "MB" for d in DERIVED})
    units["trace.overhead_frac"] = "ratio"
    return units


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    thread: int
    start: float
    end: float = 0.0
    peak_mb: float | None = None
    note: int | None = None


class Tracer:
    """Collects spans for one operation (one CLI invocation)."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # created on the main thread: the thread that opens every pool
        self._main_stack = self._local.stack = []

    def _parent(self, stack: list) -> int | None:
        if stack:
            return stack[-1]
        # a pool thread's first span was caused by the main thread's
        # innermost open span, the one that started the pool
        main = self._main_stack
        return main[-1] if main else None

    def wrap(self, fn, name: str):
        mem = name in MEMORY_SPANS
        note = RESULT_NOTES.get(name)

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = Span(next(self._ids), name, self._parent(stack), self.op,
                        threading.get_ident(), 0.0)
            own_mem = mem and not tracemalloc.is_tracing()
            if own_mem:
                tracemalloc.start()
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if own_mem:
                    span.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self.spans.append(span)
            if note is not None:
                span.note = note(result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        wrapped = {}
        for mod, attr, name in REBINDINGS:
            if name not in wrapped:
                wrapped[name] = self.wrap(getattr(modules[mod], attr), name)
            setattr(modules[mod], attr, wrapped[name])


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Each span's duration minus the time its child spans cover.  Children
    on the span's own thread nest inside it; children on pool threads may
    overlap each other, so the covered time is the union of intervals."""
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[(s["op"], s["parent"])].append(s)
    out = {}
    for s in spans:
        inner = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                 for c in kids[(s["op"], s["id"])]]
        out[(s["op"], s["id"])] = s["end"] - s["start"] - _covered(inner)
    return out


def layer_metrics(spans: list[dict], derived: dict | None,
                  plain_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer metrics over the spans of every traced invocation of one
    workload; a layer the workload never calls reads 0."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    m: dict[str, float] = {}
    for n in CALLS:
        m[f"{n}.calls"] = len(by_name[n])
    for n in SELF_TIMES:
        m[f"{n}.self_s"] = sum(selfs[(s["op"], s["id"])] for s in by_name[n])
    m["counting.visible_histogram.peak_mb"] = max(
        (s["peak_mb"] for s in by_name["counting.visible_histogram"]), default=0.0)
    sweeps = {(s["op"], s["id"]) for s in by_name["factor.bad_level_values"]}
    verdicts = sum((s["op"], s["parent"]) in sweeps
                   for s in by_name["factor.is_absolutely_irreducible"])
    found = sum(s["note"] for s in by_name["factor.bad_level_values"])
    m["factor.bad_level_hit_frac"] = found / verdicts if verdicts else 0.0
    for d in DERIVED:
        m[f"counting.{d}_s"] = derived[f"{d}_s"] if derived else 0.0
        m[f"counting.{d}.peak_mb"] = derived[f"{d}.peak_mb"] if derived else 0.0
    m["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    return m


def layer_shares(spans: list[dict]) -> dict[str, dict]:
    """Calls, self time and share of the traced ``cli.main`` time, for
    every span name."""
    selfs = self_times(spans)
    total = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.main")
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for s in spans:
        row = out[s["name"]]
        row["calls"] += 1
        row["self_s"] += selfs[(s["op"], s["id"])]
    for row in out.values():
        row["share"] = row["self_s"] / total if total else 0.0
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))


def _timed(call) -> float:
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def _peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def derive_grid_layers(p: int) -> dict[str, float]:
    """Time and memory of grid evaluation, the coprime mask and the per-level
    bincount on the levels inputs (E on the full box at p), by difference:
    a grid count evaluates the grid, a direct visible count adds the mask,
    and a one-worker histogram adds the bincounts.  Each call is timed
    untraced, then repeated under tracemalloc for its peak."""
    from visiblepoints.counting import (
        CountBox, LevelCurveSpec, count_level_points, count_visible_direct, visible_histogram)
    from visiblepoints.poly import parse_poly

    from oracle import E

    f = parse_poly(E)
    box = CountBox(p, p)
    spec = LevelCurveSpec(f, p, 0)
    calls = (
        lambda: count_level_points(spec, box, strategy="grid"),
        lambda: count_visible_direct(spec, box),
        lambda: visible_histogram(f, p, box, workers=1),
    )
    times = [_timed(c) for c in calls]
    peaks = [_peak_mb(c) for c in calls]
    out = {"grid_eval_s": times[0], "grid_eval.peak_mb": peaks[0]}
    for i, d in enumerate(DERIVED[1:], start=1):
        out[f"{d}_s"] = times[i] - times[i - 1]
        out[f"{d}.peak_mb"] = peaks[i] - peaks[i - 1]
    return out


def _child(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="one traced or untraced CLI invocation")
    ap.add_argument("--mode", choices=("plain", "traced", "derive"), required=True)
    ap.add_argument("--op", type=int, default=0)
    ap.add_argument("--derive-p", type=int, default=None)
    ap.add_argument("--result", required=True)
    ap.add_argument("cli_args", nargs="*")
    args = ap.parse_args(argv)
    if args.mode == "derive":
        Path(args.result).write_text(json.dumps(derive_grid_layers(args.derive_p)))
        return 0

    from visiblepoints import cli, counting, experiments, factor, output

    tracer = None
    if args.mode == "traced":
        tracer = Tracer(args.op)
        tracer.install({"cli": cli, "counting": counting, "experiments": experiments,
                        "factor": factor, "output": output})
    t0 = time.perf_counter()
    rc = cli.main(args.cli_args)
    elapsed = time.perf_counter() - t0
    sys.stdout.flush()
    spans = [asdict(s) for s in tracer.spans] if tracer else []
    Path(args.result).write_text(json.dumps({"rc": rc, "elapsed_s": elapsed, "spans": spans}))
    return rc


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
