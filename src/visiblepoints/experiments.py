"""Measured-discrepancy experiments for visible points on level curves.

Each harness compares exact integer counts against the density heuristic
(6/pi^2) * X * Y / p and reports the accumulated absolute deviation next
to a scaling envelope:

* ``level_sweep``   - sum over all levels a = 0..p-1 for one prime;
  envelope X^(1/2) * Y^(1/2) * p^(3/4) * log p (natural log).
* ``prime_sweep``   - sum over primes p in [T/2, T] at the fixed level
  a = 0; envelope X^(1/2) * Y^(1/2) * T^(3/4).
* ``count_deviation`` - a single curve's raw point count against X*Y/p,
  normalized by p^(1/2) * (log p)^2.

The envelopes carry unknown constant factors, so harnesses report ratios
and never threshold them.  Deviation sums are accumulated with
``math.fsum`` in a fixed order, making every reported float reproducible
bit-for-bit across runs and worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arith import primes_in_range
from .counting import (
    CountBox,
    LevelCurveSpec,
    _sweep,
    count_level_points,
    count_visible_by_prime,
    count_visible_direct,
    expected_visible,
    visible_histogram,
)
from .errors import (
    BoxTooLarge,
    DegenerateReduction,
    GridOverflow,
    HypothesisViolated,
    NonFiniteParameter,
)
from .factor import is_absolutely_irreducible
from .poly import IntBivariatePoly, reduce_mod

#: default relative thresholds for concentration profiles
DEFAULT_DELTAS = (0.1, 0.25, 0.5)


@dataclass(frozen=True)
class DiscrepancyRecord:
    """One row of an experiment sweep.

    ``sum_abs_dev`` is the measured sum of |N - (6/pi^2) X Y / p|,
    ``bound_value`` the evaluated scaling envelope, ``ratio`` their
    quotient.  ``box_nontrivial`` records whether X*Y >= (p or T)^(3/2),
    the regime where the averaged statements carry content; it is an
    annotation, never a pass/fail.  ``per_prime`` keeps the individual
    (p, N) terms of a prime sweep and ``visible_counts`` the p per-level
    counts N_a of a level sweep; neither is serialized or compared.
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
    visible_counts: tuple[int, ...] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class CountDeviation:
    """A single curve's count against the main term X*Y/p."""

    count: int
    main_term: float
    abs_dev: float
    normalized: float


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


def _require_admissible(f: IntBivariatePoly, p: int, a: int | None = None) -> None:
    """Raise HypothesisViolated unless f (or f - a) stays absolutely
    irreducible of total degree > 1 modulo p."""
    fmod = reduce_mod(f, p)  # DegenerateReduction propagates
    if a is not None:
        fmod = fmod.subtract_const(a)
    if fmod.degree <= 1:
        raise HypothesisViolated(
            f"{f.text()} has degree {fmod.degree} <= 1 modulo {p}"
        )
    verdict = is_absolutely_irreducible(fmod)
    if not verdict.absolutely_irreducible:
        what = f.text() if a is None else f"{f.text()} - {a}"
        raise HypothesisViolated(
            f"{what} is not absolutely irreducible modulo {p}"
            + (f" (witness: {verdict.witness})" if verdict.witness is not None else "")
        )


def level_sweep(
    f: IntBivariatePoly, p: int, box: CountBox, workers: int = 1
) -> DiscrepancyRecord:
    """Sum over every level a of |N_a - (6/pi^2) X Y / p| for one prime.

    Requires f itself absolutely irreducible of degree > 1 mod p; one
    ``visible_histogram`` call supplies all p visible counts, by the grid
    or, for f = g(U) + h(V), by convolutions of one-variable histograms.
    """
    _require_admissible(f, p)
    counts = visible_histogram(f, p, box, workers=workers).visible_counts.tolist()
    main = expected_visible(box, p)
    sum_abs_dev = math.fsum(abs(c - main) for c in counts)
    bound = math.sqrt(box.X) * math.sqrt(box.Y) * p**0.75 * math.log(p)
    return DiscrepancyRecord(
        kind="levels",
        f_text=f.text(),
        p=p,
        T=None,
        a=None,
        X=float(box.X),
        Y=float(box.Y),
        sum_abs_dev=sum_abs_dev,
        bound_value=bound,
        ratio=sum_abs_dev / bound,
        box_nontrivial=box.X * box.Y >= p**1.5,
        visible_counts=tuple(counts),
    )


def _admissible_at(f: IntBivariatePoly, p: int) -> bool:
    try:
        _require_admissible(f, p)
    except (HypothesisViolated, DegenerateReduction):
        return False
    return True


def prime_sweep(f: IntBivariatePoly, T: float, box: CountBox) -> DiscrepancyRecord:
    """Sum over primes p in [T/2, T] of |N_p - (6/pi^2) X Y / p| at the
    fixed level a = 0.

    Needs a finite T >= 2*max(X, Y), so the box fits under every prime in
    range; primes where f degenerates or loses absolute irreducibility are
    skipped and listed in the record.  The kept primes' counts N_p come
    from one sweep over the box that evaluates f over Z when
    B = sum |c_ij| X^i Y^j < 2^63, and otherwise from one count modulo
    each prime.  Each is the faster exact route on its side of that test.
    On one core of a 2-core Xeon, the 73 primes of T = 1000 took 0.57 s
    per prime against 0.66 s for one sweep in Python ints for
    U^19 + V^2 - 4*U^3 - 1 on 500 x 500 (B >= 2^63), and 0.49 s per prime
    against 0.02 s for the int64 sweep for V^2 - U^3 - U - 1 on the same
    box (0.46 s for its 560 primes of T = 10^4 on 1000 x 1000).

    Everything runs in the calling thread: the verdicts are pure Python,
    and the int64 sweep and the per-prime counts many short numpy calls,
    so a second thread only waits for the GIL.  On the same machine the 73
    verdicts of V^3 - U^3 - 1 took 1.1 to 1.6x longer on two threads, and
    the int64 sweep of V^2 - U^3 - U - 1 took 19 ms against 26 ms on two
    threads at T = 1000 on 500 x 500, 0.46 s against 0.73 s at T = 10^4 on
    1000 x 1000 (medians).
    """
    if not math.isfinite(T):
        raise NonFiniteParameter(f"T = {T} is not finite")
    if T < 4:
        raise ValueError("T must be >= 4")
    if T < 2 * max(box.X, box.Y):
        raise BoxTooLarge(f"T = {T} < 2*max(X, Y) = {2 * max(box.X, box.Y)}")
    primes = primes_in_range(math.ceil(T / 2), math.floor(T))
    admissible = [_admissible_at(f, p) for p in primes]
    skipped = tuple(p for p, ok in zip(primes, admissible) if not ok)
    kept = [p for p, ok in zip(primes, admissible) if ok]
    try:
        counts = count_visible_by_prime(f, kept, box)
    except GridOverflow:  # B >= 2^63
        counts = [count_visible_direct(LevelCurveSpec(f, p, 0), box) for p in kept]
    per_prime = tuple(zip(kept, counts))
    sum_abs_dev = math.fsum(abs(n - expected_visible(box, p)) for p, n in per_prime)
    bound = math.sqrt(box.X) * math.sqrt(box.Y) * T**0.75
    return DiscrepancyRecord(
        kind="primes",
        f_text=f.text(),
        p=None,
        T=float(T),
        a=0,
        X=float(box.X),
        Y=float(box.Y),
        sum_abs_dev=sum_abs_dev,
        bound_value=bound,
        ratio=sum_abs_dev / bound,
        skipped_primes=skipped,
        box_nontrivial=box.X * box.Y >= T**1.5,
        per_prime=per_prime,
    )


def count_deviation(spec: LevelCurveSpec, box: CountBox) -> CountDeviation:
    """Raw level-curve count against X*Y/p, normalized by the classical
    square-root-of-p envelope p^(1/2) (log p)^2.

    Requires f - a absolutely irreducible of degree > 1 mod p.
    """
    _require_admissible(spec.f, spec.p, spec.a)
    count = count_level_points(spec, box)
    main = box.X * box.Y / spec.p
    abs_dev = abs(count - main)
    return CountDeviation(
        count=count,
        main_term=main,
        abs_dev=abs_dev,
        normalized=abs_dev / (math.sqrt(spec.p) * math.log(spec.p) ** 2),
    )


def check_deltas(deltas) -> None:
    """Raise ValueError unless every concentration threshold lies in (0, 1)."""
    for d in deltas:
        if not 0 < d < 1:
            raise ValueError("every delta must lie in (0, 1)")


def sweep_profiles(record: DiscrepancyRecord, deltas) -> list[ConcentrationProfile]:
    """Profiles at several thresholds from the per-level visible counts a
    ``level_sweep`` record keeps; no further sweep is run."""
    check_deltas(deltas)
    if not record.visible_counts:
        raise ValueError("record carries no per-level counts (not from level_sweep)")
    p, counts = record.p, record.visible_counts
    main = expected_visible(CountBox(record.X, record.Y), p)
    return [
        ConcentrationProfile(p=p, X=record.X, Y=record.Y, delta=d, fraction_within=sum(
            1 for c in counts if abs(c - main) <= d * main) / p)
        for d in deltas
    ]


def concentration_profiles(
    f: IntBivariatePoly,
    p: int,
    box: CountBox,
    deltas: tuple[float, ...] = DEFAULT_DELTAS,
    workers: int = 1,
) -> list[ConcentrationProfile]:
    """Profiles at several thresholds from a single ``level_sweep``: for
    each delta, the fraction of levels a with |N_a - m| <= delta*m, m the
    expected count.

    The fraction is a share of the p levels, so it is capped at 1: once
    every level lies within delta*m it cannot rise further with p, and a
    comparison across primes can be strict only at a delta below the
    largest relative deviation max_a |N_a - m|/m.  The averaged bound of
    the paper controls the level sum ``level_sweep(...).sum_abs_dev``,
    not this fraction directly; it reaches the fraction only through
    Markov's inequality, 1 - fraction_within <= sum_abs_dev / (p*delta*m).
    """
    check_deltas(deltas)
    return sweep_profiles(level_sweep(f, p, box, workers=workers), deltas)


def integer_zero_set(f: IntBivariatePoly, box: CountBox) -> ZeroSetReport:
    """All integer points (u, v) in the box with f(u, v) = 0 exactly, in
    row-major order.

    One sweep evaluates f over Z at every point of the box, exactly: each
    tile in int64 where no value can overflow, in Python ints elsewhere
    (:meth:`IntBivariatePoly.evaluate`).  A row where f vanishes
    identically contributes every v.
    """
    if f.is_zero():
        raise ValueError("zero set of the zero polynomial is the whole box")

    def zeros(xs, ys, vals):
        i, j = divmod((vals == 0).ravel().nonzero()[0], len(ys))
        return zip(xs[i].tolist(), ys[j].tolist())

    tiles = _sweep(f.evaluate, box.nx, box.ny, zeros)
    return ZeroSetReport(
        f_text=f.text(), X=float(box.X), Y=float(box.Y),
        points=tuple(pt for tile in tiles for pt in tile),
    )
