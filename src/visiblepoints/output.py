"""The experiment records, ``DiscrepancyRecord``, ``ConcentrationProfile``
and ``ZeroSetReport``, and every format they are written in: table, CSV and
JSON, all through ``render``.  ``read_csv`` reads the CSV back without numpy,
however long its fields, and refuses a row the writers would not emit, such
as one with a non-finite float.

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
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

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


@dataclass(frozen=True)
class DiscrepancyRecord:
    """One row of an experiment sweep.

    ``sum_abs_dev`` is the measured sum of |N - (6/pi^2) X Y / p|,
    ``bound_value`` the evaluated scaling envelope, ``ratio`` their
    quotient.  ``box_nontrivial`` records whether X*Y >= (p or T)^(3/2),
    the regime where the averaged statements carry content; it is an
    annotation, never a pass/fail.  ``per_prime`` keeps the individual
    (p, N) terms of a prime sweep and ``visible_counts`` the p per-level
    counts N_a of a level sweep, as one contiguous int64 array; neither is
    serialized or compared.
    """

    kind: str  # "levels" or "primes"
    f_text: str
    p: int | None
    T: float | None
    a: int | None
    X: float
    Y: float
    sum_abs_dev: float
    bound_value: float
    ratio: float
    skipped_primes: tuple[int, ...] = ()
    box_nontrivial: bool = False
    per_prime: tuple[tuple[int, int], ...] = field(
        default=(), compare=False, repr=False
    )
    visible_counts: np.ndarray | tuple[()] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class ConcentrationProfile:
    """Fraction of levels a whose visible count sits within a relative
    delta of the expected value."""

    p: int
    X: float
    Y: float
    delta: float
    fraction_within: float


@dataclass(frozen=True)
class ZeroSetReport:
    """Exact integer zeros of f inside the box."""

    f_text: str
    X: float
    Y: float
    points: tuple[tuple[int, int], ...]


def render(kind: str, items, fmt: str, profiles=()) -> str:
    """Discrepancy records or zero sets (``kind`` as ``read_csv`` names
    them) as a "table", "csv" or "json".  A level sweep's concentration
    ``profiles`` follow the records' table and go into their JSON; CSV and
    zero sets have no place for them (ValueError)."""
    if profiles and (kind != "records" or fmt == "csv"):
        raise ValueError(f"{kind} in {fmt} hold no concentration profiles")
    if kind == "zero_sets":
        writers = {"table": _zero_sets_table, "csv": zero_reports_to_csv,
                   "json": zero_reports_to_json}
        return writers[fmt](items)
    if fmt == "csv":
        return records_to_csv(items)
    # looked up when called, as the benchmark's traced mode rebinds it
    return (records_to_json if fmt == "json" else _records_table)(items, profiles)


def _records_table(records, profiles=()) -> str:
    lines = []
    for r in records:
        key = f"p={r.p}" if r.kind == "levels" else f"T={r.T} a={r.a}"
        lines.append(
            f"[{r.kind}] f={r.f_text} {key} X={r.X} (floor {int(r.X)}) "
            f"Y={r.Y} (floor {int(r.Y)})"
        )
        lines.append(
            f"  sum_abs_dev={r.sum_abs_dev!r} bound={r.bound_value!r} "
            f"ratio={r.ratio!r} nontrivial_box={r.box_nontrivial}"
        )
        if r.skipped_primes:
            lines.append("  skipped primes: " + ", ".join(map(str, r.skipped_primes)))
    lines += (f"  within {pr.delta:>5}: fraction {pr.fraction_within!r}" for pr in profiles)
    return "\n".join(lines) + "\n"


def _zero_sets_table(reports) -> str:
    return "\n".join(
        f"{len(r.points)} integer zeros: " + " ".join(f"({u},{v})" for u, v in r.points)
        for r in reports
    )


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


def _write_csv(columns, rows) -> str:
    buf = io.StringIO()
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    buf.write(f"# schema={SCHEMA_VERSION}\n# generated={stamp}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def records_to_csv(records: list[DiscrepancyRecord]) -> str:
    return _write_csv(RECORD_COLUMNS, [_record_row(r) for r in records])


def zero_reports_to_csv(reports: list[ZeroSetReport]) -> str:
    return _write_csv(ZEROSET_COLUMNS, [_zeroset_row(z) for z in reports])


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


def records_to_json(records: list[DiscrepancyRecord], profiles=()) -> str:
    """The records as one JSON document; the "concentration" key is written
    only when profiles are given."""
    doc = {"schema": SCHEMA_VERSION, "records": [_record_dict(r) for r in records]}
    if profiles:
        doc["concentration"] = [{"delta": pr.delta, "fraction_within": pr.fraction_within}
                                for pr in profiles]
    return json.dumps(doc, indent=2)


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


def _cell(row: dict[str, str], column: str, parse):
    """parse(row[column]), any ValueError naming the column."""
    try:
        return parse(row[column])
    except ValueError as exc:
        raise ValueError(f"column {column}: {exc}") from None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"{text!r} is neither true nor false")
    return text == "true"


def _point(pair: str) -> tuple[int, int]:
    try:
        u, v = pair.split(":")  # a ValueError unless one colon
        return int(u), int(v)
    except ValueError:
        raise ValueError(f"point {pair!r} is not two integers joined by one colon") from None


def _parse_record(row: dict[str, str]) -> DiscrepancyRecord:
    kind = row["kind"]
    if kind not in ("levels", "primes"):
        raise ValueError(f"column kind: {kind!r} is neither levels nor primes")
    need, other = ("p", "T") if kind == "levels" else ("T", "p")
    if not row[need] or row[other]:
        column = other if row[need] else need
        raise ValueError(f"column {column}: a {kind} row needs {need} and no {other}")
    return DiscrepancyRecord(
        kind=kind,
        f_text=row["f"],
        p=_cell(row, "p", int) if row["p"] else None,
        T=_cell(row, "T", _finite) if row["T"] else None,
        a=_cell(row, "a", int) if row["a"] else (0 if kind == "primes" else None),
        X=_cell(row, "X", _finite),
        Y=_cell(row, "Y", _finite),
        sum_abs_dev=_cell(row, "sum_abs_dev", _finite),
        bound_value=_cell(row, "bound_value", _finite),
        ratio=_cell(row, "ratio", _finite),
        skipped_primes=_cell(row, "skipped_primes",
                             lambda text: tuple(int(p) for p in text.split(";") if p)),
        box_nontrivial=_cell(row, "box_nontrivial", _flag),
    )


def _parse_zeroset(row: dict[str, str]) -> ZeroSetReport:
    points = _cell(row, "points", lambda text: tuple(map(_point, filter(None, text.split(";")))))
    if _cell(row, "n_points", int) != len(points):
        raise ValueError(f"column n_points: {row['n_points']}, but the points column holds "
                         f"{len(points)}")
    return ZeroSetReport(row["f"], _cell(row, "X", _finite), _cell(row, "Y", _finite), points)


def read_csv(text: str) -> tuple[str, list]:
    """Parse CSV emitted by this module.

    Returns ("records", [...DiscrepancyRecord]) or ("zero_sets",
    [...ZeroSetReport]) depending on the header row.  A row this module
    would not write raises ValueError naming its 1-based data row and the
    column at fault.
    """
    # csv.reader refuses a field longer than its limit, the writers none
    csv.field_size_limit(max(csv.field_size_limit(), len(text)))
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no CSV content found")
    header, *rows = csv.reader(lines)
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"CSV row {row} has {len(row)} fields, its header {len(header)}")
    if header == RECORD_COLUMNS:
        kind, parse = "records", _parse_record
    elif header == ZEROSET_COLUMNS:
        kind, parse = "zero_sets", _parse_zeroset
    else:
        raise ValueError(f"unrecognized CSV header: {header}")
    items = []
    for number, row in enumerate(rows, 1):
        try:
            items.append(parse(dict(zip(header, row))))
        except ValueError as exc:
            raise ValueError(f"CSV data row {number}, {exc}") from None
    return kind, items
