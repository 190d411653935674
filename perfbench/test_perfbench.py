"""Tests of the benchmark itself: smoke-size workloads against the test
suite's brute-force oracles, the tracer's transparency, failure counting
and the metric names in BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import tracing
import workloads

sys.path.insert(0, str(run.ROOT / "tests"))
import oracles  # noqa: E402

E_TERMS = {(0, 2): 1, (3, 0): -1, (1, 0): -1, (0, 0): -1}


def smoke_cases(workload, seed=workloads.DEFAULT_SEED):
    return [(inv, workloads.expected(inv))
            for inv in workloads.invocations(workload, seed, scale="smoke")]


def test_smoke_invocations_have_no_goldens():
    # smoke expectations must come from the oracle, which the tests below check
    for w in workloads.WORKLOADS:
        for inv, expect in smoke_cases(w):
            assert isinstance(expect, dict), inv.name


@pytest.mark.parametrize("p,nx,ny", [(31, 31, 31), (37, 20, 30)])
def test_histograms_match_brute_force(p, nx, ny):
    level, visible = oracle.e_histograms(p, nx, ny)
    for a in range(p):
        assert level[a] == oracles.count_level_brute(E_TERMS, p, a, nx, ny)
        assert visible[a] == oracles.count_visible_brute(E_TERMS, p, a, nx, ny)


@pytest.mark.parametrize("p", [7, 31, 101])
def test_euler_row_count_matches_brute_force(p):
    for a in range(0, p, max(1, p // 7)):
        assert oracle.e_full_box_count(p, a) == oracles.count_level_brute(E_TERMS, p, a, p, p)


def test_primes_match_brute_force():
    assert oracle.primes_between(30, 1000) == oracles.primes_brute(30, 1000)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 5])
def test_smoke_workloads_pass(workload, seed):
    res = run.run_pass(smoke_cases(workload, seed))
    assert res["failed"] == 0
    assert res["attempted"] == len(workloads.invocations(workload, seed, "smoke"))


def test_wrong_golden_counts_as_failure():
    cases = smoke_cases("curves")
    cases[0] = (cases[0][0], b"not the output\n")
    result, report = run.measure(cases, seconds=0)
    passes = report["metrics"]["wall_s"]["n"]
    assert result["attempted"] == 4 * passes
    assert result["failed"] == passes
    assert not result["correct"]
    assert report["fail_frac"] == 0.25


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracer_leaves_stdout_unchanged(workload, tmp_path):
    for inv, _ in smoke_cases(workload):
        direct = run.run_child(run.cli_command(inv))
        for mode in ("plain", "traced"):
            o = run.run_child([sys.executable, str(run.HERE / "tracing.py"), "--mode", mode,
                               "--result", str(tmp_path / "r.json"), "--", *inv.argv])
            assert o.returncode == direct.returncode == 0
            assert o.stdout == direct.stdout


def test_traced_run_shows_the_call_structure():
    result, _ = run.trace("curves", smoke_cases("curves"), "smoke")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert set(m) == set(tracing.layer_metric_units())
    p = workloads.SCALES["smoke"]["curve_p"]
    assert m["fields.univariate_roots.calls"] == p  # one root search per row
    assert m["cli.main.calls"] == 4
    verdicts = sum(q for _, q in workloads.SCALES["smoke"]["badsets"])
    assert m["factor.is_absolutely_irreducible.calls"] == verdicts
    assert m["factor.bad_level_hit_frac"] == 1 / verdicts

    result, _ = run.trace("levels", smoke_cases("levels"), "smoke")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["counting.visible_histogram.calls"] == 2
    assert m["counting.visible_histogram.peak_mb"] > 0
    assert m["counting.grid_eval_s"] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "parent": None, "op": 0, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "op": 0, "start": 1.0, "end": 3.0},
        # two pool threads overlapping each other
        {"id": 3, "parent": 1, "op": 0, "start": 4.0, "end": 7.0},
        {"id": 4, "parent": 1, "op": 0, "start": 6.0, "end": 8.0},
        {"id": 5, "parent": 4, "op": 0, "start": 6.5, "end": 7.5},
        # same ids in another operation are other spans
        {"id": 1, "parent": None, "op": 1, "start": 0.0, "end": 1.0},
    ]
    selfs = tracing.self_times(spans)
    assert selfs[(0, 1)] == pytest.approx(10 - 2 - 4)
    assert selfs[(0, 4)] == pytest.approx(1.0)
    assert selfs[(1, 1)] == pytest.approx(1.0)


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.layer_metric_units()


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    o = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "curves",
                        "--seconds", "1"], cwd=tmp_path, capture_output=True, timeout=180)
    assert o.returncode != 0
    assert b"correct" not in o.stdout
