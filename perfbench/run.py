"""Benchmark of the visiblepoints CLI.

    python3 perfbench/run.py [--workload levels|primes|curves|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--out PATH]

Each invocation of a workload runs in a fresh process, one after another,
as a user would run it, and its stdout is checked against the committed
golden or the independent oracle.  With ``--trace 0`` the run measures
set-up time, then repeats passes over the workload's invocations for
about ``--seconds`` and reports the median pass.  With ``--trace 1`` it
runs each invocation once untraced and once traced in-process and reports
per-layer metrics instead.

The last line of stdout is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with every metric's quartiles, the sample counts and the environment.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: passes below which a timed run never stops, so its median has quartiles
MIN_PASSES = 3
#: fresh interpreters timed for setup_s before each pass, so the samples
#: spread over the whole run like the passes do
SETUP_PER_PASS = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Outcome:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict[str, str]:
    """The environment of every child: the checkout's library first on the
    path, and no native thread pools beyond the CLI's own workers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str]) -> Outcome:
    """Run one process to completion; its own CPU time and max RSS come
    from wait4, so they cover that process alone."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    err: list[bytes] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    out = proc.stdout.read()
    drain.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(proc.returncode, out, err[0], wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def cli_command(inv: workloads.Invocation) -> list[str]:
    return [sys.executable, "-m", "visiblepoints.cli", *inv.argv]


def report_failure(inv: workloads.Invocation, o: Outcome) -> None:
    sys.stderr.write(f"FAILED {inv.name} (exit {o.returncode}): "
                     f"{o.stderr.decode(errors='replace')[-2000:]}\n")


def run_pass(cases: list[tuple[workloads.Invocation, bytes | dict]]) -> dict:
    """One pass over the invocations, each in a fresh process."""
    cpu, rss, failed = 0.0, 0.0, 0
    t0 = time.perf_counter()
    for inv, expect in cases:
        o = run_child(cli_command(inv))
        cpu += o.cpu_s
        rss = max(rss, o.rss_mb)
        if not workloads.output_ok(expect, o.returncode, o.stdout):
            failed += 1
            report_failure(inv, o)
    return {"wall_s": time.perf_counter() - t0, "cpu_s": cpu, "peak_rss_mb": rss,
            "attempted": len(cases), "failed": failed}


def setup_sample() -> float:
    """Seconds from starting a fresh interpreter through importing the CLI."""
    o = run_child([sys.executable, "-c", "import visiblepoints.cli"])
    if o.returncode != 0:
        raise RuntimeError("importing visiblepoints.cli failed: "
                           + o.stderr.decode(errors="replace"))
    return o.wall_s


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(cases, seconds: float) -> tuple[dict, dict]:
    """Set-up samples and passes, in turns, until the next turn would end
    after ``seconds``.  Returns (contract fields, report)."""
    setup_sample()  # compiles the bytecode caches, which users pay once
    samples = {"setup_s": []}
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        samples["setup_s"] += [setup_sample() for _ in range(SETUP_PER_PASS)]
        passes.append(run_pass(cases))
        turn = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + turn > seconds:
            break
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[key] = [p[key] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    stats = {k: {**summary(v), "unit": END_TO_END_UNITS[k]} for k, v in samples.items()}
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": s["median"], "unit": s["unit"]} for k, s in stats.items()},
    }
    report = {"metrics": stats, "fail_frac": failed / attempted, "samples": samples}
    return result, report


def trace(workload: str, cases, scale: str) -> tuple[dict, dict]:
    """Per-layer metrics: each invocation runs untraced, then traced, each
    in a fresh process so module caches start cold as in timed runs."""
    spans, plain_s, traced_s, failed, attempted = [], 0.0, 0.0, 0, 0
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as work:
        for op, (inv, expect) in enumerate(cases):
            for mode in ("plain", "traced"):
                result = Path(work) / f"{op}-{mode}.json"
                o = run_child([sys.executable, str(HERE / "tracing.py"), "--mode", mode,
                               "--op", str(op), "--result", str(result), "--", *inv.argv])
                attempted += 1
                if not workloads.output_ok(expect, o.returncode, o.stdout):
                    failed += 1
                    report_failure(inv, o)
                    continue
                doc = json.loads(result.read_text())
                if mode == "plain":
                    plain_s += doc["elapsed_s"]
                else:
                    traced_s += doc["elapsed_s"]
                    spans.extend(doc["spans"])
        derived = None
        if workload == "levels":
            result = Path(work) / "derive.json"
            o = run_child([sys.executable, str(HERE / "tracing.py"), "--mode", "derive",
                           "--derive-p", str(workloads.SCALES[scale]["levels_p"]),
                           "--result", str(result)])
            if o.returncode != 0:
                raise RuntimeError("deriving the grid layers failed: "
                                   + o.stderr.decode(errors="replace"))
            derived = json.loads(result.read_text())
    metrics = tracing.layer_metrics(spans, derived, plain_s, traced_s)
    units = tracing.layer_metric_units()
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {"fail_frac": failed / attempted, "plain_s": plain_s, "traced_s": traced_s,
              "layers": tracing.layer_shares(spans)}
    return result, report


def git_sha() -> str:
    try:
        o = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return o.stdout.strip() if o.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "seed": seed}


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 scale: str = "full") -> tuple[dict, dict]:
    invs = workloads.invocations(workload, seed, scale)
    cases = [(inv, workloads.expected(inv)) for inv in invs]
    result, report = trace(workload, cases, scale) if traced else measure(cases, seconds)
    report = {"workload": workload, "trace": int(traced), **report,
              "invocations": [["python3", "-m", "visiblepoints.cli", *inv.argv] for inv in invs]}
    return result, report


def print_summary(report: dict) -> None:
    lines = [f"{report['workload']}:"]
    for name, s in report.get("metrics", {}).items():
        lines.append(f"  {name:<12} {s['median']:.4f} {s['unit']}  "
                     f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
    lines.append(f"  {'fail_frac':<12} {report['fail_frac']:.4f} ratio")
    sys.stderr.write("\n".join(lines) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the report as JSON here")
    args = ap.parse_args(argv)
    if not (SRC / "visiblepoints" / "cli.py").is_file():
        sys.stderr.write(f"no visiblepoints sources under {SRC}; run from a full checkout\n")
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results, reports = {}, []
    for name in names:
        results[name], report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        reports.append(report)
        print_summary(report)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    doc = {"environment": environment(args.seed), "workloads": reports}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({"report": doc}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
