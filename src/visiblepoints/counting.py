"""Exact counts of lattice points on level curves f(x, y) = a (mod p) in a
box [1, X] x [1, Y], with and without the coprimality (visibility) filter.

Two independent routes compute the visible count: a direct gcd filter over
the level-curve points, and Moebius inclusion-exclusion over the counts
M(d) of points whose coordinate gcd is divisible by d.  They must agree
exactly on every input; the test suite enforces this.

Every grid count sums integer results over row blocks of BLOCK_POINTS =
2^18 points (max(1, 2^18 // ny) rows), so it holds max(2^18, ny) points per
worker.  A single-level count takes gcds only of the points on the level.
Evaluation is ModBivariatePoly.evaluate in poly: Horner in U gives each
row's coefficients c_j(x), and Horner in V over them gives the block.  In
numpy int64 every step acc * x + c has all three values below p, so its
largest value is p(p - 1) < 2^63 for p <= MAX_GRID_PRIME = isqrt(2^63 - 1);
above that prime grid routes raise GridOverflow (the row strategy, which
uses the same kernel on Python ints, has no such limit).  The gcd filter
uses the raw integer coordinates, never the residues.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arith import is_prime, mobius_sieve
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


def _sweep(fmod: ModBivariatePoly, nx: int, ny: int, reduce_block, workers: int = 1):
    """Sum of reduce_block(xs, ys, values) over the row blocks of the grid
    [1, nx] x [1, ny]; the sum is integer, so it does not depend on the
    block order or the worker count."""
    p = fmod.p
    if p > MAX_GRID_PRIME:
        raise GridOverflow(f"p = {p} > {MAX_GRID_PRIME}: int64 grid evaluation would overflow")
    rows = max(1, BLOCK_POINTS // ny)
    ys = np.arange(1, ny + 1, dtype=np.int64)

    def block(lo: int):
        xs = np.arange(lo + 1, min(lo + rows, nx) + 1, dtype=np.int64)
        return reduce_block(xs, ys, fmod.evaluate(xs[:, None], ys[None, :]))

    return sum(parallel_map(block, range(0, nx, rows), workers))


def _count_grid(fmod: ModBivariatePoly, a: int, nx: int, ny: int, coprime_only: bool) -> int:
    def hits(xs, ys, vals):
        if not coprime_only:
            return int(np.count_nonzero(vals == a))
        i, j = np.nonzero(vals == a)
        return int(np.count_nonzero(np.gcd(xs[i], ys[j]) == 1))

    return _sweep(fmod, nx, ny, hits)


def _count_rows(spec: LevelCurveSpec, nx: int, ny: int) -> int:
    """Row-by-row count: specialize at each x and pick the roots in V whose
    canonical lift lands in [1, ny].

    Lift convention: residue r in [1, p-1] is the lattice row value r, and
    residue 0 corresponds to y = p, in range only when ny = p.
    """
    p = spec.p
    K = PrimeField(p)
    level = spec.fmod.subtract_const(spec.a)
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

    def bincounts(xs, ys, vals):
        coprime = np.gcd.outer(xs, ys) == 1
        return np.stack(
            (np.bincount(vals.ravel(), minlength=p), np.bincount(vals[coprime], minlength=p))
        )

    level, visible = _sweep(fmod, box.nx, box.ny, bincounts, workers)
    return VisibleHistogram(p=p, box=box, level_counts=level, visible_counts=visible)
