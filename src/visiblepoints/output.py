"""Stable CSV and JSON serialization for experiment records.

CSV layout (schema 1): two comment lines (`# schema=1`, `# generated=...`)
followed by a fixed header row and one data row per record.  Floats are
written with ``repr`` so values round-trip exactly and identical runs emit
byte-identical bodies; the timestamp is confined to its comment line.

Discrepancy-record columns:
    kind,f,p,T,a,X,Y,sum_abs_dev,bound_value,ratio,skipped_primes,box_nontrivial

Zero-set-report columns:
    f,X,Y,n_points,points

``skipped_primes`` and ``points`` are semicolon-joined (points as ``u:v``).
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported where read_csv builds them, since experiments loads numpy
    from .experiments import DiscrepancyRecord, ZeroSetReport

SCHEMA_VERSION = 1

RECORD_COLUMNS = [
    "kind",
    "f",
    "p",
    "T",
    "a",
    "X",
    "Y",
    "sum_abs_dev",
    "bound_value",
    "ratio",
    "skipped_primes",
    "box_nontrivial",
]

ZEROSET_COLUMNS = ["f", "X", "Y", "n_points", "points"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(map(str, value))
    return str(value)


def _record_row(r: DiscrepancyRecord) -> list[str]:
    return [_fmt(v) for v in _record_dict(r).values()]


def _zeroset_row(z: ZeroSetReport) -> list[str]:
    return [
        z.f_text,
        _fmt(float(z.X)),
        _fmt(float(z.Y)),
        str(len(z.points)),
        ";".join(f"{u}:{v}" for u, v in z.points),
    ]


def _write_csv(columns, rows, timestamp: bool) -> str:
    buf = io.StringIO()
    buf.write(f"# schema={SCHEMA_VERSION}\n")
    if timestamp:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        buf.write(f"# generated={stamp}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def records_to_csv(records: list[DiscrepancyRecord], timestamp: bool = True) -> str:
    return _write_csv(RECORD_COLUMNS, [_record_row(r) for r in records], timestamp)


def zero_reports_to_csv(reports: list[ZeroSetReport], timestamp: bool = True) -> str:
    return _write_csv(ZEROSET_COLUMNS, [_zeroset_row(z) for z in reports], timestamp)


def _record_dict(r: DiscrepancyRecord) -> dict:
    """The record's fields keyed by ``RECORD_COLUMNS``, in column order: the
    JSON object, and through ``_fmt`` the CSV row."""
    return {
        "kind": r.kind,
        "f": r.f_text,
        "p": r.p,
        "T": r.T,
        "a": r.a,
        "X": float(r.X),
        "Y": float(r.Y),
        "sum_abs_dev": r.sum_abs_dev,
        "bound_value": r.bound_value,
        "ratio": r.ratio,
        "skipped_primes": list(r.skipped_primes),
        "box_nontrivial": r.box_nontrivial,
    }


def records_to_json(records: list[DiscrepancyRecord]) -> str:
    return json.dumps(
        {"schema": SCHEMA_VERSION, "records": [_record_dict(r) for r in records]},
        indent=2,
    )


def zero_reports_to_json(reports: list[ZeroSetReport]) -> str:
    return json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "zero_sets": [
                {
                    "f": z.f_text,
                    "X": float(z.X),
                    "Y": float(z.Y),
                    "points": [[u, v] for u, v in z.points],
                }
                for z in reports
            ],
        },
        indent=2,
    )


def _parse_record(row: dict[str, str]) -> DiscrepancyRecord:
    from .experiments import DiscrepancyRecord

    return DiscrepancyRecord(
        kind=row["kind"],
        f_text=row["f"],
        p=int(row["p"]) if row["p"] else None,
        T=float(row["T"]) if row["T"] else None,
        a=int(row["a"]) if row["a"] else (0 if row["kind"] == "primes" else None),
        X=float(row["X"]),
        Y=float(row["Y"]),
        sum_abs_dev=float(row["sum_abs_dev"]),
        bound_value=float(row["bound_value"]),
        ratio=float(row["ratio"]),
        skipped_primes=tuple(
            int(p) for p in row["skipped_primes"].split(";") if p
        ),
        box_nontrivial=row["box_nontrivial"] == "true",
    )


def _parse_zeroset(row: dict[str, str]) -> ZeroSetReport:
    from .experiments import ZeroSetReport

    points = tuple(
        tuple(int(c) for c in pair.split(":")) for pair in row["points"].split(";") if pair
    )
    return ZeroSetReport(
        f_text=row["f"], X=float(row["X"]), Y=float(row["Y"]), points=points
    )


def read_csv(text: str) -> tuple[str, list]:
    """Parse CSV emitted by this module.

    Returns ("records", [...DiscrepancyRecord]) or ("zero_sets",
    [...ZeroSetReport]) depending on the header row.
    """
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no CSV content found")
    reader = csv.reader(lines)
    header = next(reader)
    rows = [dict(zip(header, row)) for row in reader]
    if header == RECORD_COLUMNS:
        return "records", [_parse_record(r) for r in rows]
    if header == ZEROSET_COLUMNS:
        return "zero_sets", [_parse_zeroset(r) for r in rows]
    raise ValueError(f"unrecognized CSV header: {header}")
