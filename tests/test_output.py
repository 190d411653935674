import json
import re

import pytest

from visiblepoints.counting import CountBox
from visiblepoints.experiments import integer_zero_set, level_sweep, prime_sweep, sweep_profiles
from visiblepoints.output import (
    read_csv,
    records_to_csv,
    records_to_json,
    zero_reports_to_csv,
    zero_reports_to_json,
)
from visiblepoints.poly import parse_poly

ELLIPTIC = parse_poly("V^2 - U^3 - U - 1")


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
    ):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            read_csv(text)


def test_csv_body_stable_without_timestamp():
    records = _records()
    a = records_to_csv(records, timestamp=False)
    b = records_to_csv(records, timestamp=False)
    assert a == b
    with_stamp = records_to_csv(records)
    body = [ln for ln in with_stamp.splitlines() if not ln.startswith("#")]
    body2 = [ln for ln in a.splitlines() if not ln.startswith("#")]
    assert body == body2
    assert with_stamp.splitlines()[0] == "# schema=1"


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
