"""Command-line front end.

Subcommands: count, visible, irred, badset, zeros, exp-a, exp-p, sweep.
Polynomials are given with -f in the c*U^i*V^j grammar; X and Y may be
real.  Output formats: table (default), json, and - for the record-emitting
commands zeros/exp-a/exp-p/sweep - csv.

Exit codes: 0 success, 2 usage error (bad flags, malformed polynomial,
non-prime p, box out of range, a path that cannot be opened), 3 hypothesis
violated, 4 degenerate reduction, 5 box too large for the requested T.
sweep parses every --grid entry before it runs any, so a malformed or
empty grid is a usage error that prints nothing.  It then runs the
entries in order; each that fails writes one stderr line, such as
"sweep point p=8 failed: ValueError: 8 is not prime" (T=3.0 for a primes
entry), and the rest still run.  A sweep with at least one record exits
0; one whose entries all fail still prints its (empty) records and exits
with the code of its first failure's error type (1 for a type outside
this list).

count, visible, zeros, exp-a, exp-p and sweep import numpy inside their
handlers (count and visible after parsing -f); irred, badset, --help and
the usage errors of argument parsing and of the prime and box checks run
without it.  The verdict engine (factor) and the record writers (output)
are imported by the handlers that use them, so count and visible load
neither.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arith import is_prime
from .errors import (
    BoxTooLarge,
    DegenerateReduction,
    HypothesisViolated,
    PolynomialParseError,
    UsageError,
)
from .poly import parse_poly, reduce_mod

EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_DEGENERATE = 4
EXIT_BOX = 5


#: error type -> (stderr prefix, exit code), first match wins; main maps
#: an error it catches through this table, and sweep a failed point's type
_EXIT_CODES = (
    ((UsageError, PolynomialParseError), "usage error", EXIT_USAGE),
    (HypothesisViolated, "hypothesis violated", EXIT_HYPOTHESIS),
    (DegenerateReduction, "degenerate reduction", EXIT_DEGENERATE),
    (BoxTooLarge, "box too large", EXIT_BOX),
    (ValueError, "usage error", EXIT_USAGE),
)

#: formats of the record-emitting commands; the others print table or json
_RECORD_FORMATS = ("table", "csv", "json")
#: help of --workers on the sweeping commands
_WORKERS_HELP = ("threads for the grid histogram only, at most one per CPU this process may "
                 "run on; the prime sweep runs in one thread; results never depend on it")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _worker_count(text: str) -> int:
    """The type of --workers: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


def _add_common(sub, formats=("table", "json")):
    sub.add_argument("-f", "--poly", required=True, help="polynomial, e.g. \"V^2 - U^3 - U - 1\"")
    sub.add_argument("--format", choices=formats, default="table")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> _Parser:
    ap = _Parser(prog="visiblepoints", description=__doc__.splitlines()[0])
    sp = ap.add_subparsers(dest="command", required=True)

    c = sp.add_parser("count", help="level-curve point count in a box")
    _add_common(c)
    c.add_argument("-p", type=int, required=True)
    c.add_argument("-a", type=int, required=True)
    c.add_argument("-X", type=float, required=True)
    c.add_argument("-Y", type=float, required=True)
    c.add_argument("--strategy", choices=("auto", "grid", "rows"), default="auto",
                   help="grid: evaluate f at every point; rows: find the roots in V of "
                        "each row f(x, V) - a; auto (default): whichever a cost rule "
                        "fitted to timings of both expects to be cheaper")

    v = sp.add_parser("visible", help="visible-point count by both routes")
    _add_common(v)
    v.add_argument("-p", type=int, required=True)
    v.add_argument("-a", type=int, required=True)
    v.add_argument("-X", type=float, required=True)
    v.add_argument("-Y", type=float, required=True)

    i = sp.add_parser("irred", help="irreducibility verdict modulo p")
    _add_common(i)
    i.add_argument("-p", type=int, required=True)

    b = sp.add_parser("badset", help="levels a where f - a loses absolute irreducibility")
    _add_common(b)
    b.add_argument("-p", type=int, required=True)

    z = sp.add_parser("zeros", help="exact integer zeros of f in the box")
    _add_common(z, _RECORD_FORMATS)
    z.add_argument("-X", type=float, required=True)
    z.add_argument("-Y", type=float, required=True)

    ea = sp.add_parser("exp-a", help="discrepancy summed over all levels a for one prime")
    _add_common(ea, _RECORD_FORMATS)
    ea.add_argument("-p", type=int, required=True)
    ea.add_argument("-X", type=float, required=True)
    ea.add_argument("-Y", type=float, required=True)
    ea.add_argument("--delta", type=float, action="append", default=None,
                    help="also report concentration fractions (repeatable)")
    ea.add_argument("--workers", type=_worker_count, default=1, help=_WORKERS_HELP)

    ep = sp.add_parser("exp-p", help="discrepancy summed over primes in [T/2, T] at level 0")
    _add_common(ep, _RECORD_FORMATS)
    ep.add_argument("-T", type=float, required=True)
    ep.add_argument("-X", type=float, required=True)
    ep.add_argument("-Y", type=float, required=True)
    ep.add_argument("--workers", type=_worker_count, default=1, help=_WORKERS_HELP)

    sw = sp.add_parser("sweep", help="run a series of sweeps, or replay a CSV")
    sw.add_argument("-f", "--poly", required=False, default=None)
    sw.add_argument("--format", choices=_RECORD_FORMATS, default="csv")
    sw.add_argument("--out", default=None)
    sw.add_argument("--mode", choices=("levels", "primes"), default=None)
    sw.add_argument("--grid", default=None,
                    help="comma-separated p values (levels) or T values (primes)")
    sw.add_argument("-X", type=float, default=None)
    sw.add_argument("-Y", type=float, default=None)
    sw.add_argument("--box-eq-p", action="store_true",
                    help="levels mode: use X = Y = p for each grid entry")
    sw.add_argument("--from-csv", default=None, help="re-emit records parsed from a CSV file")
    sw.add_argument("--workers", type=_worker_count, default=1, help=_WORKERS_HELP)
    return ap


def _check_prime(args) -> None:
    if not is_prime(args.p):
        raise UsageError(f"p = {args.p} is not prime")


def _check_box(args) -> None:
    if not (1 <= args.X <= args.p and 1 <= args.Y <= args.p):
        raise UsageError(f"box {args.X} x {args.Y} violates 1 <= X, Y <= p = {args.p}")


def _open(path: str, mode: str = "r"):
    try:
        return open(path, mode)
    except OSError as exc:
        raise UsageError(f"cannot open {path}: {exc.strerror}") from None


def _emit(text: str, path: str | None) -> None:
    if path:
        with _open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_payload(args, payload: dict, table: str) -> None:
    _emit(json.dumps(payload, indent=2) if args.format == "json" else table, args.out)


def _records_table(records) -> str:
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
    return "\n".join(lines) + "\n"


def _zero_sets_table(reports) -> str:
    return "\n".join(
        f"{len(r.points)} integer zeros: " + " ".join(f"({u},{v})" for u, v in r.points)
        for r in reports
    )


def _emit_items(kind: str, items, fmt: str, path: str | None) -> None:
    """Write discrepancy records or zero sets (``kind`` as
    ``output.read_csv`` names them) in the format fmt."""
    from . import output

    writers = {
        "records": {"csv": output.records_to_csv, "json": output.records_to_json,
                    "table": _records_table},
        "zero_sets": {"csv": output.zero_reports_to_csv, "json": output.zero_reports_to_json,
                      "table": _zero_sets_table},
    }
    _emit(writers[kind][fmt](items), path)


def _load_experiments():
    """The experiments module, loaded after factor and output, as when the
    CLI imported those two at its top: loaded after numpy instead, they
    raise the peak RSS of exp-a and exp-p by about 1.4 MB."""
    from . import factor, output  # noqa: F401 - the order of loading only
    from . import experiments

    return experiments


# The benchmark's traced mode rebinds these three names on this module, so
# the handlers call them here; each loads counting, and numpy, when called.
def count_level_points(*args, **kwargs):
    from .counting import count_level_points
    return count_level_points(*args, **kwargs)


def count_visible_direct(*args, **kwargs):
    from .counting import count_visible_direct
    return count_visible_direct(*args, **kwargs)


def count_visible_mobius(*args, **kwargs):
    from .counting import count_visible_mobius
    return count_visible_mobius(*args, **kwargs)


def _cmd_count(args) -> int:
    f = parse_poly(args.poly)
    from .counting import CountBox, LevelCurveSpec

    box = CountBox(args.X, args.Y)
    spec = LevelCurveSpec(f, args.p, args.a)
    n = count_level_points(spec, box, strategy=args.strategy)
    payload = {
        "f": spec.f.text(), "p": args.p, "a": spec.a,
        "X": args.X, "Y": args.Y, "floor_X": box.nx, "floor_Y": box.ny,
        "count": n, "main_term": box.X * box.Y / args.p,
        "in_theorem_scope": spec.in_theorem_scope,
    }
    _emit_payload(
        args, payload,
        f"count = {n} (X*Y/p = {payload['main_term']!r}) on "
        f"[1,{box.nx}]x[1,{box.ny}], degree-in-scope={spec.in_theorem_scope}",
    )
    return 0


def _cmd_visible(args) -> int:
    f = parse_poly(args.poly)
    from .counting import CountBox, LevelCurveSpec, expected_visible

    box = CountBox(args.X, args.Y)
    spec = LevelCurveSpec(f, args.p, args.a)
    direct = count_visible_direct(spec, box)
    mobius = count_visible_mobius(spec, box)
    if direct != mobius:
        sys.stderr.write(
            f"internal error: direct={direct} != mobius={mobius} disagree\n"
        )
        return 1
    expected = expected_visible(box, args.p)
    payload = {
        "f": spec.f.text(), "p": args.p, "a": spec.a, "X": args.X, "Y": args.Y,
        "visible_direct": direct, "visible_mobius": mobius, "expected": expected,
    }
    _emit_payload(args, payload, f"direct={direct} mobius={mobius} expected={expected:.4f}")
    return 0


def _cmd_irred(args) -> int:
    f = parse_poly(args.poly)
    from . import factor

    verdict = factor.is_absolutely_irreducible(reduce_mod(f, args.p))
    payload = {
        "f": f.text(), "p": args.p,
        "irreducible_over_base": verdict.irreducible_over_base,
        "absolutely_irreducible": verdict.absolutely_irreducible,
        "witness": verdict.witness,
    }
    wtxt = ""
    if isinstance(verdict.witness, int):
        wtxt = f", witness e={verdict.witness}"
    elif verdict.witness:
        wtxt = f", witness factor: {verdict.witness}"
    _emit_payload(
        args, payload,
        f"irreducible_over_base={str(verdict.irreducible_over_base).lower()}, "
        f"absolutely_irreducible={str(verdict.absolutely_irreducible).lower()}" + wtxt,
    )
    return 0


def _cmd_badset(args) -> int:
    f = parse_poly(args.poly)
    from . import factor

    bad = sorted(factor.bad_level_values(f, args.p))
    payload = {"f": f.text(), "p": args.p, "bad_levels": bad, "size": len(bad)}
    _emit_payload(args, payload, f"bad levels ({len(bad)}): {bad}")
    return 0


def _cmd_zeros(args) -> int:
    f = parse_poly(args.poly)
    experiments = _load_experiments()
    from .counting import CountBox

    report = experiments.integer_zero_set(f, CountBox(args.X, args.Y))
    _emit_items("zero_sets", [report], args.format, args.out)
    return 0


def _cmd_exp_a(args) -> int:
    if args.delta and args.format == "csv":
        raise UsageError("--delta needs --format json or table; csv prints no fractions")
    experiments = _load_experiments()
    from . import output
    from .counting import CountBox

    box = CountBox(args.X, args.Y)
    deltas = tuple(args.delta) if args.delta else experiments.DEFAULT_DELTAS
    experiments.check_deltas(deltas)
    f = parse_poly(args.poly)
    record = experiments.level_sweep(f, args.p, box, workers=args.workers)
    if args.format == "csv":
        _emit_items("records", [record], "csv", args.out)
        return 0
    profiles = experiments.sweep_profiles(record, deltas)
    if args.format == "json":
        doc = json.loads(output.records_to_json([record]))
        doc["concentration"] = [
            {"delta": pr.delta, "fraction_within": pr.fraction_within}
            for pr in profiles
        ]
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        _emit(_records_table([record]) + "".join(
            f"  within {pr.delta:>5}: fraction {pr.fraction_within!r}\n" for pr in profiles
        ), args.out)
    return 0


def _cmd_exp_p(args) -> int:
    f = parse_poly(args.poly)
    experiments = _load_experiments()
    from .counting import CountBox

    record = experiments.prime_sweep(f, args.T, CountBox(args.X, args.Y))
    _emit_items("records", [record], args.format, args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.from_csv:
        from . import output

        with _open(args.from_csv) as fh:
            kind, items = output.read_csv(fh.read())
        _emit_items(kind, items, args.format, args.out)
        return 0
    if not (args.poly and args.mode and args.grid):
        raise UsageError("sweep needs either --from-csv or -f/--mode/--grid")
    f = parse_poly(args.poly)
    experiments = _load_experiments()
    from .counting import CountBox

    entries = []  # (p, T, X, Y): p for a levels entry, T for a primes entry
    for val in filter(None, args.grid.split(",")):
        if args.mode == "levels":
            try:
                p = int(val)
            except ValueError:
                raise UsageError(f"levels grid entry {val!r} is not an integer p") from None
            if args.box_eq_p:
                X = Y = float(p)
            else:
                if args.X is None or args.Y is None:
                    raise UsageError("levels sweep needs -X/-Y or --box-eq-p")
                X, Y = args.X, args.Y
            entries.append((p, None, X, Y))
        else:
            if args.X is None or args.Y is None:
                raise UsageError("primes sweep needs -X and -Y")
            entries.append((None, float(val), args.X, args.Y))
    if not entries:
        raise UsageError("sweep plan has no entries")
    records, first_failure = [], None
    for p, T, X, Y in entries:
        try:
            box = CountBox(X, Y)
            records.append(experiments.level_sweep(f, p, box, workers=args.workers)
                           if T is None else experiments.prime_sweep(f, T, box))
        except Exception as exc:  # noqa: BLE001 - a failed entry ends only itself
            label = f"p={p}" if T is None else f"T={T}"
            sys.stderr.write(f"sweep point {label} failed: {type(exc).__name__}: {exc}\n")
            first_failure = first_failure or exc
    _emit_items("records", records, args.format, args.out)
    if records or first_failure is None:
        return 0
    return next((code for types, _, code in _EXIT_CODES if isinstance(first_failure, types)), 1)


#: subcommand -> (handler, checks that main runs on the arguments first)
_HANDLERS = {
    "count": (_cmd_count, _check_prime, _check_box),
    "visible": (_cmd_visible, _check_prime, _check_box),
    "irred": (_cmd_irred, _check_prime),
    "badset": (_cmd_badset, _check_prime),
    "zeros": (_cmd_zeros,),
    "exp-a": (_cmd_exp_a, _check_prime, _check_box),
    "exp-p": (_cmd_exp_p,),
    "sweep": (_cmd_sweep,),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler, *checks = _HANDLERS[args.command]
        for check in checks:
            check(args)
        code = handler(args)
        sys.stdout.flush()  # a closed pipe raises here, inside the try
        return code
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into head); point it at
        # devnull so the flush at interpreter exit raises nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        label, code = next((label, code) for types, label, code in _EXIT_CODES
                           if isinstance(exc, types))
        sys.stderr.write(f"{label}: {exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
