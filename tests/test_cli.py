import json
import os
import subprocess
import sys
from pathlib import Path

from visiblepoints.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _bodies(path):
    with open(path) as fh:
        return [ln for ln in fh.read().splitlines() if not ln.startswith("#")]


def test_visible_prints_both_routes(capsys):
    assert main(["visible", "-f", "U*V", "-p", "5", "-a", "1", "-X", "5", "-Y", "5"]) == 0
    out = capsys.readouterr().out
    assert "direct=3" in out and "mobius=3" in out and "expected=3.0396" in out


def test_count_command_table_and_json(capsys):
    assert main(["count", "-f", "U*V", "-p", "5", "-a", "1", "-X", "5", "-Y", "5"]) == 0
    assert "count = 4" in capsys.readouterr().out
    assert main(
        ["count", "-f", "U*V", "-p", "5", "-a", "1", "-X", "5", "-Y", "5",
         "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 4 and doc["floor_X"] == 5


def test_irred_output(capsys):
    assert main(["irred", "-f", "U^2+V^2", "-p", "7"]) == 0
    out = capsys.readouterr().out
    assert "irreducible_over_base=true" in out
    assert "absolutely_irreducible=false" in out
    assert "e=2" in out


def test_badset_output(capsys):
    assert main(["badset", "-f", "U*V", "-p", "11", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bad_levels"] == [0] and doc["size"] == 1


def test_irred_reports_the_v_factor_over_a_tiny_field(capsys):
    assert main(["irred", "-f", "U^2*V + V^3 + U*V + V^2", "-p", "2"]) == 0
    assert capsys.readouterr().out.strip().endswith("witness factor: V")


def test_irred_reports_a_one_variable_factor_in_its_own_variable(capsys):
    for text, witness in (("V^2 + 1", "V + 2"), ("U^2 + 1", "U + 2"), ("U^2", "U")):
        assert main(["irred", "-f", text, "-p", "5"]) == 0
        assert capsys.readouterr().out.strip().endswith(f"witness factor: {witness}"), text


def test_badset_at_a_large_prime_runs_only_the_candidates(capsys):
    # one verdict per level would take hours here; the critical values of
    # V^3 - U^3 leave the one candidate 0
    assert main(["badset", "-f", "V^3 - U^3", "-p", "1000003"]) == 0
    assert capsys.readouterr().out.strip().endswith("[0]")


def test_usage_errors_exit_2(capsys):
    assert main(["visible", "-f", "U*V", "-p", "6", "-a", "1", "-X", "5", "-Y", "5"]) == 2
    assert main(["visible", "-f", "3U", "-p", "5", "-a", "1", "-X", "5", "-Y", "5"]) == 2
    assert main(["visible", "-f", "U*V", "-p", "5", "-a", "1", "-X", "9", "-Y", "5"]) == 2
    assert main(["count", "-f", "U*V", "-p", "5", "-a", "1", "-X", "5", "-Y", "5",
                 "--format", "csv"]) == 2
    capsys.readouterr()


def test_exp_p_non_finite_T_is_a_usage_error(capsys):
    for T in ("inf", "nan"):
        assert main(["exp-p", "-f", "V^2 - U^3 - U - 1", "-T", T, "-X", "5", "-Y", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"T = {T} is not finite" in captured.err


def test_hypothesis_violated_exit_3(capsys):
    code = main(["exp-a", "-f", "U*V", "-p", "5", "-X", "5", "-Y", "5"])
    assert code == 3
    assert "hypothesis" in capsys.readouterr().err


def test_degenerate_reduction_exit_4(capsys):
    code = main(["count", "-f", "7*U + 7*V", "-p", "7", "-a", "0", "-X", "7", "-Y", "7"])
    assert code == 4
    capsys.readouterr()


def test_box_too_large_exit_5(capsys):
    code = main(["exp-p", "-f", "V^2-U^3-U-1", "-T", "10", "-X", "6", "-Y", "6"])
    assert code == 5
    capsys.readouterr()


def test_zeros_csv(tmp_path, capsys):
    out = tmp_path / "z.csv"
    assert main(["zeros", "-f", "V^2-U^3", "-X", "100", "-Y", "1000",
                 "--format", "csv", "--out", str(out)]) == 0
    body = _bodies(out)
    assert body[0] == "f,X,Y,n_points,points"
    assert "1:1;4:8" in body[1]
    capsys.readouterr()


def test_exp_a_csv_deterministic(tmp_path, capsys):
    args = ["exp-a", "-f", "V^2-U^3-U-1", "-p", "31", "-X", "31", "-Y", "31",
            "--format", "csv"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--workers", "4"]) == 0
    assert _bodies(out1) == _bodies(out2)
    capsys.readouterr()


def test_exp_a_table_goes_to_out(tmp_path, capsys):
    out = tmp_path / "a.txt"
    assert main(["exp-a", "-f", "V^2-U^3-U-1", "-p", "31", "-X", "31", "-Y", "31",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().splitlines()
    assert lines[0].startswith("[levels] f=") and "p=31" in lines[0]
    assert lines[1].startswith("  sum_abs_dev=")
    assert [ln.split(":")[0] for ln in lines[2:]] == [
        "  within   0.1", "  within  0.25", "  within   0.5"]


def test_exp_a_rejects_bad_delta_in_every_format(capsys):
    for fmt in ("table", "json", "csv"):
        assert main(["exp-a", "-f", "V^2-U^3-U-1", "-p", "31", "-X", "31", "-Y", "31",
                     "--delta", "0", "--format", fmt]) == 2
        assert capsys.readouterr().out == ""


def test_grid_count_above_the_int64_prime_is_exact(capsys):
    # p^2 > 2^63: the grid runs on Python ints and finds the one point (1, 1)
    assert main(["count", "-f", "U - V^2", "-p", str(10**10 + 19), "-a", "0",
                 "-X", "1", "-Y", "5", "--strategy", "grid"]) == 0
    assert capsys.readouterr().out.startswith("count = 1 ")


def test_row_count_above_the_int64_prime_is_exact(capsys):
    # the batched row roots run on Python ints there; "auto" takes rows
    for strategy in ("rows", "auto"):
        assert main(["count", "-f", "U - V^2", "-p", str(10**10 + 19), "-a", "0",
                     "-X", "1", "-Y", "5", "--strategy", strategy]) == 0
        assert capsys.readouterr().out.startswith("count = 1 ")


def test_visible_is_exact_above_the_int64_prime(capsys):
    # (1, 2) is the one point of V^2 - U^3 = 3 in the box; the histogram of
    # exp-a needs p bins per tile and still refuses this prime
    p = str(10**10 + 19)
    assert main(["visible", "-f", "V^2 - U^3", "-p", p, "-a", "3", "-X", "3", "-Y", "3"]) == 0
    assert capsys.readouterr().out.startswith("direct=1 mobius=1 ")
    assert main(["exp-a", "-f", "V^2 - U^3", "-p", p, "-X", "3", "-Y", "3"]) == 2
    assert "bins" in capsys.readouterr().err


def test_sweep_from_csv_replay(tmp_path, capsys):
    src = tmp_path / "src.csv"
    rep = tmp_path / "rep.csv"
    assert main(["exp-p", "-f", "V^2-U^3-U-1", "-T", "40", "-X", "20", "-Y", "20",
                 "--format", "csv", "--out", str(src)]) == 0
    assert main(["sweep", "--from-csv", str(src), "--format", "csv",
                 "--out", str(rep)]) == 0
    assert _bodies(src) == _bodies(rep)
    capsys.readouterr()


def test_zero_set_replay_honours_every_format(tmp_path, capsys):
    src = tmp_path / "z.csv"
    args = ["zeros", "-f", "U - V", "-X", "3", "-Y", "3"]
    assert main(args + ["--format", "csv", "--out", str(src)]) == 0
    for fmt in ("table", "json", "csv"):
        assert main(args + ["--format", fmt]) == 0
        direct = capsys.readouterr().out
        assert main(["sweep", "--from-csv", str(src), "--format", fmt]) == 0
        replay = capsys.readouterr().out
        if fmt == "csv":
            direct, replay = ([ln for ln in t.splitlines() if not ln.startswith("#")]
                              for t in (direct, replay))
        assert direct == replay, fmt
    assert main(["sweep", "--from-csv", str(src), "--format", "table"]) == 0
    assert capsys.readouterr().out == "3 integer zeros: (1,1) (2,2) (3,3)\n"


def test_non_finite_box_sides_exit_2(capsys):
    for argv in (["zeros", "-f", "U - V", "-X", "inf", "-Y", "3"],
                 ["zeros", "-f", "U - V", "-X", "3", "-Y", "nan"],
                 ["exp-p", "-f", "V^2 - U^3 - U - 1", "-T", "40", "-X", "inf", "-Y", "5"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        side = "Y" if "nan" in argv else "X"
        assert f"{side} = {argv[argv.index('-' + side) + 1]} is not finite" in captured.err


def test_sweep_grid(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", "-f", "V^2-U^3-U-1", "--mode", "levels",
                 "--grid", "7,13", "--box-eq-p", "--format", "csv",
                 "--out", str(out)]) == 0
    body = _bodies(out)
    assert len(body) == 3  # header + two records
    assert body[1].startswith("levels,") and ",7," in body[1]
    capsys.readouterr()


def test_sweep_levels_grid_takes_exact_integer_primes(capsys):
    # a float parse would run p = 7 for 7.9 and a 31-digit p for 1e30
    for entry in ("7.9", "1e30"):
        argv = ["sweep", "-f", "V^2-U^3-U-1", "--mode", "levels",
                "--grid", f"7,{entry}", "--box-eq-p"]
        assert main(argv) == 2, entry
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'{entry}' is not an integer p" in captured.err


def test_sweep_with_no_record_exits_with_its_first_failure(capsys):
    # every point fails: the header-only CSV is printed and the exit code is
    # the one main gives the first failure's type (ValueError: usage, 2)
    argv = ["sweep", "-f", "V^2-U^3-U-1", "--mode", "levels", "--grid", "8,0", "--box-eq-p"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "sweep point p=8 failed: ValueError: 8 is not prime",
        "sweep point p=0 failed: ValueError: box sides must be >= 1",
    ]
    assert _csv_body(captured.out) == ["kind,f,p,T,a,X,Y,sum_abs_dev,bound_value,ratio,"
                                       "skipped_primes,box_nontrivial"]
    # a point that fails the hypothesis first: exit 3; a degenerate one: exit 4
    assert main(["sweep", "-f", "V^3-U^3", "--mode", "levels", "--grid", "7,8",
                 "--box-eq-p"]) == 3
    assert main(["sweep", "-f", "7*U+7*V", "--mode", "levels", "--grid", "7",
                 "--box-eq-p"]) == 4
    capsys.readouterr()
    # one record among the failures: exit 0
    assert main(argv[:-2] + ["8,7", "--box-eq-p"]) == 0
    assert len(_csv_body(capsys.readouterr().out)) == 2


def test_sweep_primes_grid(capsys):
    base = ["sweep", "-f", "V^2-U^3-U-1", "--mode", "primes"]
    # T = 3 fails alone; the T = 20 and T = 100 records follow in grid order
    assert main(base + ["--grid", "3,20,100", "-X", "2", "-Y", "2", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert [(r["kind"], r["T"]) for r in json.loads(captured.out)["records"]] == [
        ("primes", 20.0), ("primes", 100.0)]
    assert captured.err == "sweep point T=3.0 failed: ValueError: T must be >= 4\n"
    # the only entry fails with BoxTooLarge: exit 5
    assert main(base + ["--grid", "6", "-X", "4", "-Y", "4"]) == 5
    assert "T=6.0 failed: BoxTooLarge" in capsys.readouterr().err
    # a grid with no entry runs nothing and prints nothing
    assert main(base + ["--grid", ",", "-X", "2", "-Y", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: sweep plan has no entries\n"


def test_exp_a_csv_refuses_delta(capsys):
    # csv prints no concentration column, so fractions asked for there
    # would be dropped without a word
    argv = ["exp-a", "-f", "V^2-U^3-U-1", "-p", "31", "-X", "31", "-Y", "31",
            "--format", "csv", "--delta", "0.25"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "json or table" in captured.err


def test_workers_below_1_are_usage_errors(capsys):
    E = "V^2-U^3-U-1"
    for command in (["exp-a", "-f", E, "-p", "31", "-X", "31", "-Y", "31"],
                    ["exp-p", "-f", E, "-T", "40", "-X", "20", "-Y", "20"],
                    ["sweep", "-f", E, "--mode", "levels", "--grid", "7", "--box-eq-p"]):
        for workers in ("0", "-5", "two"):
            assert main(command + ["--workers", workers]) == 2, (command[0], workers)
            captured = capsys.readouterr()
            assert captured.out == "", (command[0], workers)
            assert captured.err.startswith("usage error: argument --workers: "), captured.err


def _csv_body(text):
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


#: the seed-0 queries of the benchmark's curves workload, with their goldens
GOLDEN_QUERIES = (
    ("visible-p10007-a6311-X2000.json",
     ["visible", "-f", "V^2 - U^3 - U - 1", "-p", "10007", "-a", "6311",
      "-X", "2000", "-Y", "2000", "--format", "json"]),
    ("count-p10007-a6311.json",
     ["count", "-f", "V^2 - U^3 - U - 1", "-p", "10007", "-a", "6311",
      "-X", "10007", "-Y", "10007", "--strategy", "rows", "--format", "json"]),
)


def test_counting_queries_print_the_benchmark_goldens(capsys):
    for name, argv in GOLDEN_QUERIES:
        assert main(argv) == 0, name
        golden = (ROOT / "perfbench" / "goldens" / name).read_text()
        assert capsys.readouterr().out == golden, name


def test_sweep_requires_plan_or_csv(capsys):
    assert main(["sweep", "--format", "csv"]) == 2
    capsys.readouterr()


def test_unopenable_paths_are_usage_errors(tmp_path, capsys):
    missing = tmp_path / "missing"
    for argv in (
        ["sweep", "--from-csv", str(missing / "in.csv")],
        ["irred", "-f", "V^2 - U^3 - U - 1", "-p", "7", "--out", str(missing / "out.txt")],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("usage error: cannot open "), argv
        assert "No such file or directory" in captured.err, argv


def test_counting_goes_through_the_rebindable_cli_names(monkeypatch, capsys):
    # the benchmark's traced mode counts these calls by rebinding the names
    # on the cli module; a handler that looked them up elsewhere would
    # bypass it and its counts would read 0
    from visiblepoints import cli

    calls = []
    for name in ("count_level_points", "count_visible_direct", "count_visible_mobius"):
        def wrapper(*args, _inner=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)
    box = ["-p", "5", "-a", "1", "-X", "5", "-Y", "5"]
    assert main(["count", "-f", "U*V", *box]) == 0
    assert "count = 4" in capsys.readouterr().out
    assert main(["visible", "-f", "U*V", *box]) == 0
    assert "direct=3 mobius=3" in capsys.readouterr().out
    assert calls == ["count_level_points", "count_visible_direct", "count_visible_mobius"]


def test_hostile_inputs_end_without_a_traceback(capsys):
    # tiny fields, a huge exponent, a non-finite T or box side and a non-prime
    # p: each is answered or refused with a documented exit code
    E = "V^2 - U^3 - U - 1"
    for argv in (
        ["irred", "-f", "U^5*V^5 + U + V + 1", "-p", "2"],
        ["badset", "-f", "U^5*V^5 + U + V + 1", "-p", "2"],
        ["badset", "-f", "V^3 - U^3", "-p", "3"],
        ["badset", "-f", E, "-p", "2"],
        ["count", "-f", "U^99999999 + V", "-p", "7", "-a", "0", "-X", "7", "-Y", "7"],
        ["exp-p", "-f", E, "-T", "nan", "-X", "5", "-Y", "5"],
        ["irred", "-f", E, "-p", "9"],
        ["zeros", "-f", "U - V", "-X", "inf", "-Y", "3"],
        ["zeros", "-f", "U - V", "-X", "nan", "-Y", "3"],
    ):
        assert main(argv) in (0, 2, 3, 4, 5), argv
        assert "Traceback" not in capsys.readouterr().err, argv
    assert main(["irred", "-f", "U^5*V^5 + U + V + 1", "-p", "2"]) == 0
    assert "absolutely_irreducible=true" in capsys.readouterr().out
    assert main(["count", "-f", "U^99999999 + V", "-p", "7", "-a", "0",
                 "-X", "7", "-Y", "7"]) == 0
    assert "count = 7" in capsys.readouterr().out


def test_closed_stdout_ends_without_a_traceback():
    # as in `... | head -c 10`: the reader takes 10 bytes of a 150 kB
    # document, more than a pipe buffers, and closes its end
    argv = [sys.executable, "-m", "visiblepoints.cli",
            "zeros", "-f", "U - V", "-X", "3000", "-Y", "3000", "--format", "json"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    full = subprocess.run(argv, capture_output=True, env=env, timeout=120).stdout
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err, err
    assert len(head) == 10 and full.startswith(head)
