"""Exact counts of lattice points on level curves f(x, y) = a (mod p) in a
box [1, X] x [1, Y], with and without the coprimality (visibility) filter.

Two independent routes compute the visible count: a direct gcd filter over
the level-curve points, and Moebius inclusion-exclusion over the counts
M(d) of points whose coordinate gcd is divisible by d.  They must agree
exactly on every input; the test suite enforces this.

Every grid count is one ``_sweep``: it hands each row block of BLOCK_POINTS
= 2^18 points (max(1, 2^18 // ny) rows) to a block evaluator and a reducer,
and sums the integer block results, so it holds max(2^18, ny) points per
worker and its result does not depend on the worker count.  Evaluation is
the one Horner kernel of poly (Horner in U for each row's coefficients
c_j(x), then Horner in V), with or without the reduction mod p:

* The grid routes pass ``ModBivariatePoly.evaluate``.  In numpy int64 every
  step acc * x + c has all three values below p, so its largest value is
  p(p - 1) < 2^63 for p <= MAX_GRID_PRIME = isqrt(2^63 - 1); above that
  prime they raise GridOverflow (the row strategy, which uses the same
  kernel on Python ints, has no such limit).
* ``count_visible_by_prime`` passes ``IntBivariatePoly.evaluate``: f over Z,
  once per block for every prime at once.  Each partial Horner value is
  bounded by B = sum |c_ij| * X^i * Y^j, so it runs only when B < 2^63
  (checked in Python ints) and raises GridOverflow otherwise.

The visible (gcd = 1) mask of a block is sieved: start from all True and,
for each prime q up to min(ny, largest x), clear the rows x = 0 (mod q) at
the columns y = q, 2q, ...  A single-level count takes gcds only of the
points on the level.  The gcd filter uses the raw integer coordinates,
never the residues.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arith import _prime_flags, is_prime, mobius_sieve
from .errors import GridOverflow
from .fields import PrimeField, univariate_roots
from .poly import IntBivariatePoly, ModBivariatePoly, reduce_mod

#: density of coprime pairs, the constant in the expected count; computed
#: once so every consumer shares the identical float
COPRIME_DENSITY = 6.0 / (math.pi * math.pi)

_ROW_STRATEGY_MAX_DEGV = 4

#: points evaluated per block of a grid sweep
BLOCK_POINTS = 1 << 18

#: largest p for which a product of two residues fits in int64
MAX_GRID_PRIME = math.isqrt(2**63 - 1)


@dataclass(frozen=True)
class CountBox:
    """The rectangle [1, X] x [1, Y]; X and Y may be real and are floored
    for enumeration while formulas keep the real values."""

    X: float
    Y: float

    def __post_init__(self):
        if self.X < 1 or self.Y < 1:
            raise ValueError("box sides must be >= 1")

    @property
    def nx(self) -> int:
        return math.floor(self.X)

    @property
    def ny(self) -> int:
        return math.floor(self.Y)

    def validate_for(self, p: int) -> None:
        if self.X > p or self.Y > p:
            raise ValueError(f"box {self.X} x {self.Y} exceeds p = {p}")


class LevelCurveSpec:
    """One congruence f(x, y) = a (mod p); a is reduced at construction and
    f must stay nonconstant modulo p."""

    __slots__ = ("f", "p", "a", "fmod")

    def __init__(self, f: IntBivariatePoly, p: int, a: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a % p)
        object.__setattr__(self, "fmod", reduce_mod(f, p))  # may raise DegenerateReduction

    def __setattr__(self, *_):
        raise AttributeError("LevelCurveSpec is immutable")

    @property
    def in_theorem_scope(self) -> bool:
        """True when the reduced polynomial keeps total degree > 1, the
        standing hypothesis of the averaged-discrepancy statements."""
        return self.fmod.degree > 1

    def __repr__(self):
        return f"LevelCurveSpec(f={self.f.text()!r}, p={self.p}, a={self.a})"


def parallel_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], in order, spread over ``workers``
    threads when there is more than one; the only place a pool is made."""
    workers = min(max(1, int(workers)), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _sweep(evaluate, nx: int, ny: int, reduce_block, workers: int = 1):
    """Sum of reduce_block(xs, ys, evaluate(xs, ys)) over the row blocks of
    the grid [1, nx] x [1, ny], with xs a column and ys a row of int64; the
    sum is integer, so it does not depend on the block order or the worker
    count."""
    rows = max(1, BLOCK_POINTS // ny)
    ys = np.arange(1, ny + 1, dtype=np.int64)

    def block(lo: int):
        xs = np.arange(lo + 1, min(lo + rows, nx) + 1, dtype=np.int64)
        return reduce_block(xs, ys, evaluate(xs[:, None], ys[None, :]))

    return sum(parallel_map(block, range(0, nx, rows), workers))


def _check_grid_prime(p: int) -> None:
    if p > MAX_GRID_PRIME:
        raise GridOverflow(f"p = {p} > {MAX_GRID_PRIME}: int64 grid evaluation would overflow")


def _sieve_primes(limit: int) -> list[int]:
    """The primes up to limit, ascending; the sieve of the coprime mask."""
    return np.flatnonzero(_prime_flags(limit)).tolist()


def _coprime_mask(xs: np.ndarray, ys: np.ndarray, primes: list[int]) -> np.ndarray:
    """gcd(x, y) == 1 over the block xs x ys, for consecutive xs and ys =
    1..ny; ``primes`` must hold every prime up to min(ny, xs[-1]).

    Row r holds x = xs[0] + r, so the rows divisible by q start at
    (-xs[0]) mod q, and column q - 1 holds y = q.
    """
    mask = np.ones((len(xs), len(ys)), dtype=bool)
    x0, top = int(xs[0]), min(int(xs[-1]), len(ys))
    for q in primes:
        if q > top:
            break
        mask[-x0 % q :: q, q - 1 :: q] = False
    return mask


def _count_grid(fmod: ModBivariatePoly, a: int, nx: int, ny: int, coprime_only: bool) -> int:
    _check_grid_prime(fmod.p)

    def hits(xs, ys, vals):
        if not coprime_only:
            return int(np.count_nonzero(vals == a))
        i, j = np.nonzero(vals == a)
        return int(np.count_nonzero(np.gcd(xs[i], ys[j]) == 1))

    return _sweep(fmod.evaluate, nx, ny, hits)


def _count_rows(spec: LevelCurveSpec, nx: int, ny: int) -> int:
    """Row-by-row count: specialize at each x and pick the roots in V whose
    canonical lift lands in [1, ny].

    Lift convention: residue r in [1, p-1] is the lattice row value r, and
    residue 0 corresponds to y = p, in range only when ny = p.

    Each V-exponent e >= 1 is first folded to 1 + (e - 1) mod (p - 1),
    which changes no value on F_p (y^p = y, and 0^e = 0 for e >= 1), so a
    row has degree below p however large the exponents are.
    """
    p = spec.p
    K = PrimeField(p)
    folded: dict = {}
    for (i, j), c in spec.fmod.subtract_const(spec.a).terms.items():
        key = (i, 1 + (j - 1) % (p - 1) if j else 0)
        folded[key] = folded.get(key, 0) + c
    level = ModBivariatePoly(p, folded)
    total = 0
    for x in range(1, nx + 1):
        g = level.specialize_u(x)
        if not g:
            total += ny  # the whole row satisfies the congruence
            continue
        for r in univariate_roots(g, K):
            y = r if r != 0 else p
            if y <= ny:
                total += 1
    return total


def count_level_points(spec: LevelCurveSpec, box: CountBox, strategy: str = "auto") -> int:
    """Number of points of f(x, y) = a (mod p) in the box (no gcd filter).

    ``strategy`` is "grid" (evaluate everywhere), "rows" (univariate roots
    per row), or "auto" (rows when the full column range is in the box and
    the V-degree is small, or when p is too large for the grid).  Both
    strategies agree exactly.
    """
    box.validate_for(spec.p)
    nx, ny = box.nx, box.ny
    if strategy == "auto":
        strategy = (
            "rows"
            if spec.p > MAX_GRID_PRIME
            or (ny == spec.p and 1 <= spec.fmod.deg_v <= _ROW_STRATEGY_MAX_DEGV)
            else "grid"
        )
    if strategy == "grid":
        return _count_grid(spec.fmod, spec.a, nx, ny, coprime_only=False)
    if strategy == "rows":
        return _count_rows(spec, nx, ny)
    raise ValueError(f"unknown strategy {strategy!r}")


def count_divisible(spec: LevelCurveSpec, box: CountBox, d: int) -> int:
    """M(d): points of the level curve in the box whose coordinate gcd is
    divisible by d; equals the level count of f(d*s, d*t) on the shrunken
    box [1, X/d] x [1, Y/d].  Zero whenever d exceeds min(X, Y)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    box.validate_for(spec.p)
    nx, ny = math.floor(box.X / d), math.floor(box.Y / d)
    if nx <= 0 or ny <= 0:
        return 0
    scaled = spec.fmod.scale_args(d % spec.p)
    return _count_grid(scaled, spec.a, nx, ny, coprime_only=False)


def count_visible_direct(spec: LevelCurveSpec, box: CountBox) -> int:
    """Visible points on the level curve: the gcd(x, y) = 1 filter applied
    directly to every counted point."""
    box.validate_for(spec.p)
    return _count_grid(spec.fmod, spec.a, box.nx, box.ny, coprime_only=True)


def count_visible_mobius(spec: LevelCurveSpec, box: CountBox) -> int:
    """Visible points via inclusion-exclusion: sum of mu(d) * M(d) over
    d up to min(X, Y), where the sum truncates exactly because M(d)
    vanishes beyond that.  Must equal count_visible_direct on every input."""
    box.validate_for(spec.p)
    dmax = min(box.nx, box.ny)  # >= 1, as CountBox sides are
    mu = mobius_sieve(dmax)
    total = 0
    for d in range(1, dmax + 1):
        m = mu[d]
        if m:
            total += m * count_divisible(spec, box, d)
    return total


def expected_visible(box: CountBox, p: int) -> float:
    """The density heuristic (6/pi^2) * X * Y / p for the visible count."""
    return COPRIME_DENSITY * (box.X * box.Y) / p


@dataclass(frozen=True, eq=False)
class VisibleHistogram:
    """Per-level counts from one sweep over the grid: entry a of
    ``level_counts`` is the number of box points with f(x, y) = a (mod p),
    entry a of ``visible_counts`` additionally requires gcd(x, y) = 1."""

    p: int
    box: CountBox
    level_counts: np.ndarray
    visible_counts: np.ndarray

    def total_points(self) -> int:
        return int(self.level_counts.sum())

    def total_visible(self) -> int:
        return int(self.visible_counts.sum())


def visible_histogram(
    f: IntBivariatePoly, p: int, box: CountBox, workers: int = 1
) -> VisibleHistogram:
    """One sweep over the grid accumulating both per-level counts.

    Row blocks may be spread over several workers; the accumulation is
    integer-only, so the result is identical for any worker count.
    """
    fmod = reduce_mod(f, p)  # propagates DegenerateReduction
    box.validate_for(p)
    _check_grid_prime(p)
    primes = _sieve_primes(min(box.nx, box.ny))

    def bincounts(xs, ys, vals):
        coprime = _coprime_mask(xs, ys, primes)
        return np.stack(
            (np.bincount(vals.ravel(), minlength=p), np.bincount(vals[coprime], minlength=p))
        )

    level, visible = _sweep(fmod.evaluate, box.nx, box.ny, bincounts, workers)
    return VisibleHistogram(p=p, box=box, level_counts=level, visible_counts=visible)


def _fits_int64(f: IntBivariatePoly, box: CountBox) -> bool:
    """True when B = sum |c_ij| * X^i * Y^j over the floored box is below
    2^63, so f evaluates over Z in int64 without overflow at every point.

    B is exact in Python ints, but a term whose bit length is at least 63
    is rejected before its powers are formed, so a huge exponent costs
    nothing: c * X^i * Y^j has at least (bits(c) - 1) + i * (bits(X) - 1)
    + j * (bits(Y) - 1) + 1 bits.
    """
    nx, ny = box.nx, box.ny
    bx, by = nx.bit_length() - 1, ny.bit_length() - 1
    total = 0
    for (i, j), c in f.terms.items():
        c = abs(c)
        if c.bit_length() - 1 + i * bx + j * by >= 63:
            return False
        total += c * nx**i * ny**j
        if total >= 1 << 63:
            return False
    return True


def count_visible_by_prime(
    f: IntBivariatePoly, primes: list[int], box: CountBox, a: int = 0, workers: int = 1
) -> list[int]:
    """Visible points of f(x, y) = a (mod p) in the box, for each p in primes.

    One sweep evaluates f over Z in int64 and sieves the coprime mask once
    per row block, then counts v % p == a % p over the visible values for
    every prime (numpy's % with a positive divisor is a floor mod, as
    Python's).  Raises GridOverflow unless ``_fits_int64(f, box)``.  No
    admissibility check is made: f may degenerate modulo some p.
    """
    if not _fits_int64(f, box):
        raise GridOverflow(f"sum of |c_ij| X^i Y^j >= 2^63: {f.text()} overflows int64 on the box")
    if not primes:
        return []
    if max(primes) >= 1 << 63:
        raise GridOverflow(f"p = {max(primes)} does not fit in int64")
    box.validate_for(min(primes))
    sieve = _sieve_primes(min(box.nx, box.ny))
    levels = [(p, a % p) for p in primes]

    def counts(xs, ys, vals):
        visible = vals[_coprime_mask(xs, ys, sieve)]
        return np.array([np.count_nonzero(visible % p == r) for p, r in levels], dtype=np.int64)

    return _sweep(f.evaluate, box.nx, box.ny, counts, workers).tolist()
