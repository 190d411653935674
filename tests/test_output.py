import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from visiblepoints.cli import main
from visiblepoints.counting import CountBox
from visiblepoints.experiments import integer_zero_set, level_sweep, prime_sweep, sweep_profiles
from visiblepoints.output import (
    RECORD_COLUMNS,
    ZEROSET_COLUMNS,
    ZeroSetReport,
    read_csv,
    records_to_csv,
    records_to_json,
    render,
    zero_reports_to_csv,
    zero_reports_to_json,
)
from visiblepoints.poly import parse_poly

E = "V^2 - U^3 - U - 1"
ELLIPTIC = parse_poly(E)


def _records():
    return [
        level_sweep(ELLIPTIC, 13, CountBox(13, 13)),
        prime_sweep(ELLIPTIC, 40, CountBox(20, 20)),
    ]


def test_csv_round_trip_identical_records():
    records = _records()
    text = records_to_csv(records)
    kind, parsed = read_csv(text)
    assert kind == "records"
    assert parsed == records  # per_prime is excluded from comparison


def test_a_replayed_level_record_carries_no_level_counts():
    # the CSV holds no per-level counts, so no profile can be taken from it
    (record,) = read_csv(records_to_csv([level_sweep(ELLIPTIC, 13, CountBox(13, 13))]))[1]
    assert len(record.visible_counts) == 0
    with pytest.raises(ValueError, match="no per-level counts"):
        sweep_profiles(record, (0.5,))


def test_read_csv_refuses_text_it_did_not_write():
    for text, message in (
        ("", "no CSV content found"),
        ("# only a comment\n\n", "no CSV content found"),
        ("kind,f,p\nlevels,U,5\n", "unrecognized CSV header: ['kind', 'f', 'p']"),
        (",".join(RECORD_COLUMNS) + "\nlevels,U,7\n",
         "CSV row ['levels', 'U', '7'] has 3 fields, its header 12"),
    ):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            read_csv(text)


LEVELS_ROW = "levels,U,13,,,13.0,13.0,31.5,228.3,0.14,,true"
PRIMES_ROW = "primes,U,,40.0,0,20.0,20.0,15.4,318.1,0.05,,true"
#: (header, second data row, the error's text), each second row a written
#: row with one cell broken
MALFORMED_CSV = [
    pytest.param(RECORD_COLUMNS, LEVELS_ROW.replace("levels", "bogus"),
                 "column kind: 'bogus' is neither levels nor primes", id="kind"),
    pytest.param(RECORD_COLUMNS, LEVELS_ROW.replace(",13,", ",,"),
                 "column p: a levels row needs p and no T", id="levels without p"),
    pytest.param(RECORD_COLUMNS, PRIMES_ROW.replace("true", "maybe"),
                 "column box_nontrivial: 'maybe' is neither true nor false", id="box_nontrivial"),
    pytest.param(ZEROSET_COLUMNS, "U*V - 1,9.0,9.0,5,1:1",
                 "column n_points: 5, but the points column holds 1", id="n_points"),
    *[pytest.param(ZEROSET_COLUMNS, f"U*V - 2,9.0,9.0,2,1:2;{pair}",
                   f"column points: point '{pair}' is not two integers joined by one colon",
                   id=f"point {pair}") for pair in ("1", "1:1:1", "2:x")],
    # the writers write no non-finite float, and JSON has no place for one
    *[pytest.param(RECORD_COLUMNS, LEVELS_ROW.replace(",13.0,13.0,", f",{x},13.0,"),
                   f"column X: '{x}' is not a finite number", id=f"X {x}")
      for x in ("1e400", "nan")],
    pytest.param(RECORD_COLUMNS, LEVELS_ROW.replace(",31.5,", ",inf,"),
                 "column sum_abs_dev: 'inf' is not a finite number", id="sum_abs_dev inf"),
    pytest.param(RECORD_COLUMNS, PRIMES_ROW.replace(",40.0,", ",-inf,"),
                 "column T: '-inf' is not a finite number", id="T -inf"),
]


@pytest.mark.parametrize("header, row, message", MALFORMED_CSV)
def test_read_csv_names_the_row_and_column_of_a_malformed_cell(header, row, message):
    first = LEVELS_ROW if header == RECORD_COLUMNS else "U*V - 1,9.0,9.0,1,1:1"
    text = "# schema=1\n" + ",".join(header) + f"\n{first}\n{row}\n"
    with pytest.raises(ValueError, match=rf"^CSV data row 2, {re.escape(message)}$"):
        read_csv(text)


def test_a_malformed_replay_exits_2_without_a_traceback(tmp_path):
    path = tmp_path / "zeros.csv"
    path.write_text(",".join(ZEROSET_COLUMNS) + "\nU*V - 1,9.0,9.0,1,1\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--from-csv", str(path)]) == 2
    assert err.getvalue() == ("usage error: CSV data row 1, column points: point '1' is not "
                              "two integers joined by one colon\n")


def test_a_points_field_past_the_csv_field_limit_replays(tmp_path, capsys):
    # csv.reader's default limit is 131072 characters a field; the writers
    # have none, and this field is about 149000
    report = ZeroSetReport("U - 1", 1.0, 20000.0, tuple((1, v) for v in range(1, 20001)))
    text = zero_reports_to_csv([report])
    assert len(text.splitlines()[-1].split(",")[-1]) > 131072
    assert read_csv(text) == ("zero_sets", [report])
    path = tmp_path / "zeros.csv"
    path.write_text(text)
    assert main(["sweep", "--from-csv", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == text.splitlines()[2:]


def test_csv_body_stable_without_timestamp():
    # the timestamp is confined to the second line, so the bodies after it
    # of two runs are equal
    records = _records()
    a, b = records_to_csv(records).splitlines(), records_to_csv(records).splitlines()
    assert a[0] == "# schema=1" and a[1].startswith("# generated=")
    assert a[2:] == b[2:]
    assert a[2].split(",") == RECORD_COLUMNS and len(a) == 2 + 1 + len(records)


def test_json_schema_and_fields():
    records = _records()
    doc = json.loads(records_to_json(records))
    assert doc["schema"] == 1
    assert len(doc["records"]) == 2
    first = doc["records"][0]
    assert first["kind"] == "levels" and first["p"] == 13
    assert set(first) == {
        "kind", "f", "p", "T", "a", "X", "Y",
        "sum_abs_dev", "bound_value", "ratio", "skipped_primes", "box_nontrivial",
    }
    # floats survive exactly through json
    assert doc["records"][0]["sum_abs_dev"] == records[0].sum_abs_dev


def test_zero_report_round_trip():
    reports = [
        integer_zero_set(parse_poly("V^2 - U^3"), CountBox(100, 1000)),
        integer_zero_set(parse_poly("U*V"), CountBox(9, 9)),
    ]
    text = zero_reports_to_csv(reports)
    kind, parsed = read_csv(text)
    assert kind == "zero_sets"
    assert parsed == reports
    doc = json.loads(zero_reports_to_json(reports))
    assert doc["schema"] == 1
    assert doc["zero_sets"][0]["points"][0] == [1, 1]


#: (case, argv) of every record command in every format; a name ending in
#: .csv is a file in the test's directory, written by the two --out cases
RECORD_ARGV = [
    *[(f"exp-a {fmt}", ["exp-a", "-f", E, "-p", "13", "-X", "13", "-Y", "13",
                        "--delta", "0.3", "--format", fmt]) for fmt in ("table", "json")],
    ("exp-a csv", ["exp-a", "-f", E, "-p", "13", "-X", "13", "-Y", "13", "--format", "csv"]),
    *[(f"exp-p {fmt}", ["exp-p", "-f", "31*V^2 - U^3 - U - 1", "-T", "60", "-X", "10",
                        "-Y", "10", "--format", fmt]) for fmt in ("table", "json", "csv")],
    *[(f"zeros {fmt}", ["zeros", "-f", "V^2 - U^3", "-X", "100", "-Y", "1000",
                        "--format", fmt]) for fmt in ("table", "json", "csv")],
    *[(f"sweep {fmt}", ["sweep", "-f", E, "--mode", "levels", "--grid", "7,8,13",
                        "--box-eq-p", "--format", fmt]) for fmt in ("table", "json", "csv")],
    ("sweep --out", ["sweep", "-f", E, "--mode", "levels", "--grid", "7,8,13", "--box-eq-p",
                     "--out", "levels.csv"]),
    ("zeros --out", ["zeros", "-f", "U*V - 6", "-X", "9", "-Y", "9", "--format", "csv",
                     "--out", "zeros.csv"]),
    *[(f"replay {kind} {fmt}", ["sweep", "--from-csv", f"{kind}.csv", "--format", fmt])
      for kind in ("levels", "zeros") for fmt in ("table", "json", "csv")],
]
#: each case's exit code, stdout without its "# generated=" line, and stderr,
#: as the commands wrote them before the record types and the table writers
#: moved into output
RECORD_STDOUT = Path(__file__).with_name("record_stdout.json")


def run_record_argv(tmp_path) -> dict:
    runs = {}
    for case, argv in RECORD_ARGV:
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        stdout = "".join(ln for ln in out.getvalue().splitlines(keepends=True)
                         if not ln.startswith("# generated="))
        runs[case] = [code, stdout, err.getvalue()]
    return runs


def test_every_record_command_writes_the_recorded_bytes(tmp_path):
    assert run_record_argv(tmp_path) == json.loads(RECORD_STDOUT.read_text())


def test_render_refuses_profiles_where_no_format_holds_them():
    record = level_sweep(ELLIPTIC, 13, CountBox(13, 13))
    profiles = sweep_profiles(record, (0.3,))
    assert '"concentration"' in render("records", [record], "json", profiles)
    assert '"concentration"' not in render("records", [record], "json")
    assert render("records", [record], "table", profiles).endswith(
        "  within   0.3: fraction 0.5384615384615384\n")
    report = integer_zero_set(parse_poly("U*V"), CountBox(3, 3))
    for kind, items, fmt in (("records", [record], "csv"), ("zero_sets", [report], "json"),
                             ("zero_sets", [report], "table")):
        with pytest.raises(ValueError, match=rf"^{kind} in {fmt} hold no concentration"):
            render(kind, items, fmt, profiles)
