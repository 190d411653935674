"""Exact counts of lattice points on level curves f(x, y) = a (mod p) in a
box [1, X] x [1, Y], with and without the coprimality (visibility) filter.

Two independent routes compute the visible count.  The direct route
counts the points of f = a and keeps those with gcd(x, y) = 1.  The
Moebius route sums mu(d) * M(d), where M(d) counts the points of
f(d*s, d*t) = a on the shrunken box [1, X/d] x [1, Y/d], and never takes a
gcd.  They must agree exactly on every input; the test suite enforces
this.  The squarefree d with equal shrunken boxes form runs, about
2 * sqrt(min(X, Y)) of them.

Every single-level count is one function, ``_count``, over a run of d with
a weight each: a level count and the direct count are the run (1), M(d)
the run (d), and the Moebius sum one run per shrunken box, weighted by
mu(d).  It takes the grid or the rows for the whole run by one cost rule,
``_prefers_rows``, fitted to timings of both: the grid costs about
nx * ny * (1 + w) for f with w V-powers, the rows of V-degree k about
log p * (R + nx * k^2), times about 2.5 on the per-row part and log2(nx)
rounds on the fixed part when the roots must be split apart (ny < p, or
the gcd filter).

The per-level histogram, ``visible_histogram``, has two routes.  The grid
evaluates f, sieves the coprime mask and bincounts at every point.  When
the reduced f has no term in both U and V, f = g(U) + h(V), the separable
route may be taken instead: the level counts of each shrunken box are a
cyclic convolution of the histograms of g(d*s) and h(d*t), gathered from
one kernel evaluation of f per axis, by FFT for the few large boxes and
by a bincount of the sums g + h for the rest, and the visible counts are
their Moebius sum.  A cost rule of the same kind, ``_separable_plan``,
picks the route and returns its work as two lists, the d to convolve by
FFT with their Moebius bands and the runs of the other d, which
``_separable_histogram`` adds into one (3, p) accumulator, one row per
band.  The two routes share neither the coprime sieve nor the bivariate
evaluation, so each checks the other.

Every blocked walk cuts its boxes with one generator, ``_pieces``: a box,
or a run of equal shrunken boxes of several d with a weight each, becomes
pieces of at most ``points`` points in d-then-row-major order, whole boxes
together while they fit and a larger box one d at a time, in tiles of
whole rows or of a segment of one row.  ``_sweep`` is the one walk that
evaluates f over a box: it evaluates each piece its caller cut at
(d*s, d*t), one plane per d, and yields each reduced result in order,
which callers sum (the grid counts of ``_count``, histograms, the prime
sweep) or concatenate (zero sets).  The separable histogram streams its
pieces through one buffer of sums.  So memory stays bounded however large
the box is.  Only ``_grid_histogram`` spreads its tiles over threads; it
says when and why.  The count walks and the separable buffer hold
BLOCK_POINTS = 2^15 points, 256 KB per int64 array, an L2-sized working
set; the histogram's tiles hold HISTOGRAM_POINTS = 2^18, as each takes a
bincount of 2p bins, which would dominate smaller tiles at large p.  The
row route alone keeps its own x-tiles (``_rows_per_tile``): their budget
is counted in words per row and coefficient, not in points.

Evaluation is the one kernel of poly, f(x, y) = sum of c_j(x) * y^j: the
row coefficients c_j by Horner in U, the powers y^j from one table per
tile, with or without the reduction mod p.  The kernel alone picks the
element type (``poly._exact``), whatever the numpy integer width of its
arguments: int64 where no value can pass 2^63 - 1, and Python ints (numpy
object arrays) elsewhere, so no caller here converts its arguments.
Modulo p every product is at most (p - 1)^2 and the sum is reduced only
when the next product could pass 2^63 - 1 (for p = 4003, once per point),
so int64 is exact for p <= MAX_GRID_PRIME = isqrt(2^63 - 1).  Over Z it
is exact while each power, row coefficient and partial sum, all at most
B = sum |c_ij| * X^i * Y^j for the largest |x| and |y| of the arguments,
fits in int64 (``poly._fits_int64``).  So grid, direct, Moebius, M(d)
and row counts and zero sets are exact at every prime and every box.  Two
routes refuse what they cannot do exactly: ``visible_histogram`` refuses p >
MAX_GRID_PRIME (GridOverflow), as both its routes need p bins per batch;
``count_visible_by_prime`` refuses B >= 2^63 on the box, as its test needs
int64 values, and there ``prime_sweep`` counts modulo each prime, faster
than one sweep over Z in Python ints.

The row route finds the roots of a whole tile of rows f(x, V) - a at once:
the rows are grouped by V-degree, and each group goes through one
vectorised Cantor-Zassenhaus pass on (rows, degree) arrays: V^p by
square-and-multiply, gcd(g, V^p - V) by pseudo-remainders, and, when the
box does not hold every y or the gcd filter needs the roots, the split by
(V + c)^((p - 1)/2), which keeps each root's row.  A tile's rows are
sized by all of its live intermediates, not only the widest one, and the
element type follows the kernel's rule, so row counts are exact at every
prime too.

The visible (gcd = 1) mask of a tile is sieved: start from all True and,
for each prime q up to min(largest x, largest y), clear the points whose
x and y are both divisible by q.  One vectorised test first keeps the
primes whose first multiple falls inside the tile in both directions,
and only those are looped over.  A single-level count takes gcds only of
the points on the level: the hits of a grid tile, found by their flat
indices, or the lifted roots of the rows.  The gcd filter uses the raw
integer coordinates, never the residues.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .arith import _prime_flags, mobius_sieve
from .errors import GridOverflow, NonFiniteParameter
from .fields import PrimeField, univariate_roots
from .poly import (
    MAX_GRID_PRIME,
    IntBivariatePoly,
    ModBivariatePoly,
    _fits_int64,
    _horner_rows,
    _horner_sparse,
    _mul_pow,
    reduce_mod,
)

#: density of coprime pairs, the constant in the expected count; computed
#: once so every consumer shares the identical float
COPRIME_DENSITY = 6.0 / (math.pi * math.pi)

#: most points in one tile of a count walk: an int64 array of a tile is
#: 256 KB, about one core's share of L2
BLOCK_POINTS = 1 << 15
#: most points in one tile of a histogram walk, whose per-tile bincount of
#: 2p bins would dominate smaller tiles at large p
HISTOGRAM_POINTS = 1 << 18
#: int64 words per row and per coefficient that a tile of the row engine
#: holds at its peak, for rows of V-degree k with k + 1 coefficients: 12 to
#: 15 by tracemalloc for k = 1 to 8, with and without the root split
_ROW_WORDS = 15
#: the run (1) with weight 1, the default of every walk: the box itself
_ONE = np.ones(1, dtype=np.int64)

# Constants of the cost rule (_prefers_rows), in seconds, fitted to
# in-process timings of both strategies on one core: the grid per point and
# V-power; the rows per Cantor-Zassenhaus round and bit of p (the fixed cost
# of its numpy calls), and per row, k^2 and bit of p; the factor the root
# split puts on the per-row part.  Pairs are indexed by p > MAX_GRID_PRIME,
# where both strategies work in Python ints.
_GRID_S = (5e-9, 1e-7)
_ROW_ROUND_S = 1e-4
_ROW_S = (5e-8, 5e-7)
_SPLIT_FACTOR = 2.5
# Constants of the histogram cost rule (_separable_plan), in seconds, fitted
# the same way: the grid per point and V-power; a bincount per bin; the
# fixed cost of a grid tile, a piece of differences or an FFT row; the
# separable route per difference and per L * log2(L) of one FFT row.
_HIST_S = 6e-9
_BIN_S = 4e-9
_PIECE_S = 5e-5
_DIFF_S = 6e-9
_FFT_S = 7e-9


@dataclass(frozen=True)
class CountBox:
    """The rectangle [1, X] x [1, Y]; X and Y may be real and are floored
    for enumeration while formulas keep the real values."""

    X: float
    Y: float

    def __post_init__(self):
        for side, value in (("X", self.X), ("Y", self.Y)):
            if not -math.inf < value < math.inf:  # no float() of a huge int
                raise NonFiniteParameter(f"{side} = {value} is not finite")
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
        fmod = reduce_mod(f, p)  # may raise ValueError or DegenerateReduction
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "p", fmod.p)
        object.__setattr__(self, "a", operator.index(a) % fmod.p)
        object.__setattr__(self, "fmod", fmod)

    def __setattr__(self, *_):
        raise AttributeError("LevelCurveSpec is immutable")

    @property
    def in_theorem_scope(self) -> bool:
        """True when the reduced polynomial keeps total degree > 1, the
        standing hypothesis of the averaged-discrepancy statements."""
        return self.fmod.degree > 1

    def __repr__(self):
        return f"LevelCurveSpec(f={self.f.text()!r}, p={self.p}, a={self.a})"


def _tile_shape(ny: int, points: int) -> tuple[int, int]:
    """Rows and columns of the tiles of at most ``points`` points that cut a
    box of width ny: whole rows while one fits, else segments of a row."""
    return max(1, points // ny), min(ny, points)


def _pieces(n: int, m: int, ds=_ONE, weights=_ONE, points: int | None = None):
    """The one cut of every blocked walk: the boxes [1, n] x [1, m] of the d
    in ds, each d with its weight, cut lazily into pieces (ds, weights, s0,
    s1, t0, t1) of at most ``points`` points (BLOCK_POINTS by default),
    whose d share the s in (s0, s1] and the t in (t0, t1].  The default run
    (1) with weight 1 is the box itself.

    Whole boxes go together while they fit; a larger box is cut, one d at a
    time, into tiles of whole rows or of a segment of one row
    (:func:`_tile_shape`).  The pieces come in d-then-row-major order, so a
    walk that sums or concatenates them in order is deterministic.
    """
    points = BLOCK_POINTS if points is None else points
    if n * m <= points:
        step = points // (n * m)
        for k in range(0, len(ds), step):
            yield ds[k : k + step], weights[k : k + step], 0, n, 0, m
        return
    rows, cols = _tile_shape(m, points)
    for k in range(len(ds)):
        for s0 in range(0, n, rows):
            for t0 in range(0, m, cols):
                yield ds[k : k + 1], weights[k : k + 1], s0, min(s0 + rows, n), t0, min(t0 + cols, m)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS
    reports one, else all of the host's (1 when that is unknown too)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep(evaluate, pieces, reduce_tile):
    """The one walk that evaluates f over a box: reduce_tile(weights, s, t,
    evaluate(d*s, d*t)) for each piece (ds, weights, s0, s1, t0, t1) that
    the caller cut with :func:`_pieces`, yielded in order.  s and t are the
    int64 ranges (s0, s1] and (t0, t1], and the values have shape
    (len(ds), len(s), len(t)), a plane per d.
    """
    for ds, weights, s0, s1, t0, t1 in pieces:
        xs = np.arange(s0 + 1, s1 + 1, dtype=np.int64)
        ys = np.arange(t0 + 1, t1 + 1, dtype=np.int64)
        d = ds[:, None, None]
        yield reduce_tile(weights, xs, ys, evaluate(d * xs[:, None], d * ys[None, :]))


def _sieve_primes(limit: int) -> np.ndarray:
    """The primes up to limit, ascending, as an array; the sieve of the
    coprime mask."""
    return np.flatnonzero(_prime_flags(limit))


def _coprime_mask(xs: np.ndarray, ys: np.ndarray, primes) -> np.ndarray:
    """gcd(x, y) == 1 over the tile xs x ys of consecutive ints; ``primes``
    must hold every prime up to min(xs[-1], ys[-1]), ascending.

    Row r holds x = xs[0] + r, so the rows divisible by q start at
    (-xs[0]) mod q, and likewise the columns at (-ys[0]) mod q.  A prime
    clears points only when both starts fall inside the tile; one
    vectorised test picks those primes, and only they are looped over, so
    a tile costs no Python step per prime that misses it.
    """
    mask = np.ones((len(xs), len(ys)), dtype=bool)
    primes = np.asarray(primes, dtype=np.int64)
    q = primes[: np.searchsorted(primes, min(xs[-1], ys[-1]), side="right")]
    r0, c0 = -xs[0] % q, -ys[0] % q
    hit = (r0 < len(xs)) & (c0 < len(ys))
    for step, r, c in zip(q[hit].tolist(), r0[hit].tolist(), c0[hit].tolist()):
        mask[r::step, c::step] = False
    return mask


def _row_degrees(A: np.ndarray) -> np.ndarray:
    """Degree of each row of A (coefficients ascending), -1 for a zero row."""
    nz = A != 0
    deg = A.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1)
    return np.where(nz.any(axis=1), deg, -1)


def _degrees_in(deg: np.ndarray) -> list[int]:
    """The distinct degrees >= 1 in deg, ascending.  By bincount, since
    np.unique loads numpy.ma on first use, about 15 ms of start-up."""
    return np.flatnonzero(np.bincount(deg[deg >= 1])).tolist()


def _monic(A: np.ndarray, lead: np.ndarray, p: int) -> np.ndarray:
    """The rows of A divided by their nonzero leading coefficients ``lead``,
    through one vectorised Fermat inverse lead^(p - 2)."""
    return A * _mul_pow(lead * 0 + 1, lead, p - 2, p)[:, None] % p


def _reduce_rows(r: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """The rows of r modulo the monic rows of g, which have width e + 1;
    r is overwritten and its first e columns are returned."""
    e = g.shape[1] - 1
    for t in range(r.shape[1] - 1, e - 1, -1):
        r[:, t - e : t] = (r[:, t - e : t] - r[:, t : t + 1] * g[:, :e]) % p
    return r[:, :e]


def _mulmod_rows(a: np.ndarray, b: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """a * b modulo the monic rows g, row by row; a and b have width deg g.
    Each step adds one product below p^2 to a residue, so int64 holds it
    for p <= MAX_GRID_PRIME."""
    e = g.shape[1] - 1
    out = np.zeros((len(a), 2 * e - 1), dtype=a.dtype)
    for i in range(e):
        out[:, i : i + e] = (out[:, i : i + e] + a[:, i : i + 1] * b) % p
    return _reduce_rows(out, g, p)


def _pow_linear_rows(c: int, n: int, g: np.ndarray, p: int) -> np.ndarray:
    """(V + c)^n modulo the monic rows g (deg g >= 1, n >= 1), by
    square-and-multiply; multiplying by V + c is a shift plus one step."""
    e = g.shape[1] - 1

    def times_linear(r):
        wide = np.zeros((len(r), e + 1), dtype=r.dtype)
        wide[:, 1:] = r
        wide[:, :e] = (wide[:, :e] + c * r) % p
        return _reduce_rows(wide, g, p)

    r = np.zeros((len(g), e), dtype=g.dtype)
    r[:, 0] = 1
    r = times_linear(r)
    for bit in bin(n)[3:]:
        r = _mulmod_rows(r, r, g, p)
        if bit == "1":
            r = times_linear(r)
    return r


def _gcd_rows(A: np.ndarray, B: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """gcd(A, B) row by row, up to a nonzero scalar, and its degree; A and B
    have the same width and no row of A is zero.

    Euclid by pseudo-remainders, with no inverses: each step of a row
    replaces A by lc(B) * A - lc(A) * V^(deg A - deg B) * B, which lowers
    deg A, and swaps A and B when deg A < deg B.  Every difference lies
    within +-(p - 1)^2 before it is reduced.
    """
    da, db = _row_degrees(A), _row_degrees(B)
    cols = np.arange(A.shape[1])
    while True:
        swap = (da < db)[:, None]
        A, B = np.where(swap, B, A), np.where(swap, A, B)
        da, db = np.maximum(da, db), np.minimum(da, db)
        live = np.flatnonzero(db >= 0)
        if not len(live):
            return A, da
        a, b, at = A[live], B[live], np.arange(len(live))
        src = cols - (da - db)[live, None]
        shifted = np.where(src >= 0, np.take_along_axis(b, np.maximum(src, 0), axis=1), 0)
        lead_a, lead_b = a[at, da[live]][:, None], b[at, db[live]][:, None]
        A[live] = (lead_b * a - lead_a * shifted) % p
        da[live] = _row_degrees(A[live])


def _split_rows(S: np.ndarray, deg: np.ndarray, p: int) -> list:
    """The roots in F_p of the rows of S, each a product of distinct linear
    factors of degree ``deg`` (possibly 0), as a list of (row indices into
    S, roots) pairs of arrays: root k of the pair lies on row indices[k].

    Cantor-Zassenhaus for odd p with the candidates V + c, c = 0, 1, ...,
    one c per round for every piece still of degree >= 2.  With
    w = (V + c)^((p - 1)/2) mod s, a piece s splits three ways:
    gcd(s, w - 1) holds the roots r with r + c a nonzero square,
    gcd(s, w + 1) those with r + c a non-square, and -c itself is a root
    when s(-c) = 0.  Each round groups the pieces of every row by degree,
    one group per degree, and makes them monic; a linear one gives its
    root.  Every piece is linear by c = p - 1: the squares
    are invariant under no nonzero translation, so some c separates any two
    roots.
    """
    roots: list = []
    pieces = [(S, deg, np.arange(len(S)))]
    c = 0
    while pieces:
        by_degree: dict = {}
        for P, dP, ids in pieces:
            for e in _degrees_in(dP):
                at = dP == e
                by_degree.setdefault(e, []).append((P[at, : e + 1], ids[at]))
        pieces = []
        for e, parts in by_degree.items():
            P, ids = (np.concatenate(part) for part in zip(*parts))
            P = _monic(P, P[:, e], p)
            if e == 1:
                roots.append((ids, -P[:, 0] % p))
                continue
            w, z = _pow_linear_rows(c, (p - 1) // 2, P, p), -c % p
            at_z = _horner_sparse([(j, P[:, j]) for j in range(e, -1, -1)], z, p)
            hit = ids[at_z == 0]
            roots.append((hit, np.full(len(hit), z, dtype=P.dtype)))
            for sign in (1, -1):
                w_sign = np.zeros_like(P)
                w_sign[:, :-1] = w
                w_sign[:, 0] = (w_sign[:, 0] - sign) % p
                pieces.append((*_gcd_rows(P, w_sign, p), ids))
        c += 1
    return roots


def _coprimes_up_to(x: int, ny: int) -> int:
    """#{y in [1, ny] : gcd(x, y) = 1}, by np.gcd over the pieces of the
    row [1, ny] (:func:`_pieces`)."""
    return sum(int(np.count_nonzero(np.gcd(x, np.arange(t0 + 1, t1 + 1)) == 1))
               for *_, t0, t1 in _pieces(1, ny))


def _count_row_tile(level: ModBivariatePoly, xs: np.ndarray, ny: int, coprime_only: bool) -> int:
    """Points of level = 0 in the rows xs (int64), y in [1, ny], by batched
    roots; with ``coprime_only`` only those with gcd(x, y) = 1.

    The rows f(x, V) are grouped by their true V-degree: a zero row counts
    every y in [1, ny] (the coprime ones with the filter) and a constant
    one none.  A group of degree e is made monic and its distinct roots are
    s = gcd(g, V^p - V), with V^p mod g by square-and-multiply.  When
    ny = p and no filter is asked for, every root lifts into the box, so
    deg s is the count; otherwise s is split (:func:`_split_rows`), each
    root lifted, residue 0 to y = p, and the lifts in [1, ny] kept, after
    the gcd filter on (x, y) when asked for.  The row coefficients take the
    element type that the kernel picks for them (``poly._exact``).
    """
    p = level.p
    cs = _horner_rows(level.terms, xs, p)  # xs's dtype serves a zero level
    coeffs = np.zeros((len(xs), max(level.deg_v, 0) + 1), dtype=next(iter(cs.values()), xs).dtype)
    for j, c in cs.items():
        coeffs[:, j] = c
    deg = _row_degrees(coeffs)
    zero = xs[deg < 0].tolist()
    total = sum(_coprimes_up_to(x, ny) for x in zero) if coprime_only else ny * len(zero)
    for e in _degrees_in(deg):
        rows = np.flatnonzero(deg == e)
        g = _monic(coeffs[rows, : e + 1], coeffs[rows, e], p)
        if e == 1:
            s, ds = g, np.ones(len(g), dtype=np.int64)
        else:
            h = np.zeros_like(g)
            h[:, :e] = _pow_linear_rows(0, p, g, p)
            h[:, 1] = (h[:, 1] - 1) % p
            s, ds = _gcd_rows(g, h, p)
        if ny == p and not coprime_only:
            total += int(ds.sum())
            continue
        for at, r in _split_rows(s, ds, p):
            y = np.where(r == 0, p, r)
            keep = y <= ny
            if coprime_only:
                y = y[keep].astype(np.int64)
                keep = np.gcd(xs[rows[at[keep]]], y) == 1
            total += int(np.count_nonzero(keep))
    return total


def _row_level(fmod: ModBivariatePoly, a: int) -> ModBivariatePoly:
    """f - a with each V-exponent e >= 1 folded to 1 + (e - 1) mod (p - 1),
    which changes no value on F_p (y^p = y, and 0^e = 0 for e >= 1), so a
    row has degree k below p however large the exponents are."""
    p = fmod.p
    folded: dict = {}
    for (i, j), c in fmod.subtract_const(a).terms.items():
        key = (i, 1 + (j - 1) % (p - 1) if j else 0)
        folded[key] = folded.get(key, 0) + c
    return ModBivariatePoly(p, folded)


def _count_rows(level: ModBivariatePoly, nx: int, ny: int, coprime_only: bool) -> int:
    """Row count: the roots in V of each row level(x, V), folded by
    :func:`_row_level`, whose canonical lift lands in [1, ny], summed over
    x in [1, nx]; with ``coprime_only`` only the lifts y with gcd(x, y) = 1.

    Lift convention: residue r in [1, p-1] is the lattice row value r, and
    residue 0 corresponds to y = p, in range only when ny = p.

    For odd p the rows go through :func:`_count_row_tile` in tiles of
    :func:`_rows_per_tile` values of x, sized by all the arrays a tile
    keeps live, made lazily and summed, so memory is flat in nx.  At p = 2
    (at most 2 rows) each row goes to ``univariate_roots``, whose splitter
    has the trace split of characteristic 2.
    """
    p = level.p
    if p == 2:
        K, total = PrimeField(p), 0
        for x in range(1, nx + 1):
            g = level.specialize_u(x)
            ys = [r or p for r in univariate_roots(g, K)] if g else range(1, ny + 1)
            total += sum(1 for y in ys if y <= ny and (not coprime_only or math.gcd(x, y) == 1))
        return total
    rows = _rows_per_tile(level.deg_v)
    return sum(
        _count_row_tile(level, np.arange(x0 + 1, min(x0 + rows, nx) + 1), ny, coprime_only)
        for x0 in range(0, nx, rows)
    )


def _rows_per_tile(k: int) -> int:
    """Rows in one tile of the row engine for rows of V-degree k.

    Its arrays have one row per x and about k + 1 columns: the
    coefficients, the monic group, V^p - V, and the swapped copies, shifts
    and products of the pseudo-remainder Euclid, _ROW_WORDS * (k + 1)
    words per row in all.  A tile gets the rows that keep them within
    4 * BLOCK_POINTS words (1 MiB).  Smaller tiles cost time: every tile
    repeats the log p squarings and the split rounds, whose numpy calls
    cost the same for any number of rows, and at a quarter of that (728
    rows of E) a split quartic count ran 1.5 to 2.3 times slower.  These
    are the only tiles not cut by :func:`_pieces`: their budget is counted
    in words per row and coefficient, which the points of a box do not
    measure.
    """
    return max(1, 4 * BLOCK_POINTS // (_ROW_WORDS * (max(k, 0) + 1)))


def _prefers_rows(level: ModBivariatePoly, nx: int, ny: int, split: bool) -> bool:
    """The one cost rule of every single-level count: rows when their
    estimated time is below the grid's, for the level polynomial of
    :func:`_row_level` on [1, nx] x [1, ny].

    The grid evaluates nx * ny points with one product per V-power of f, w
    of them, so it costs about nx * ny * (1 + w).  The rows of V-degree k
    run about log p square-and-multiply steps: a fixed number of numpy
    calls per round in each tile of :func:`_rows_per_tile` rows, and k^2
    products on each of nx rows.  Splitting the roots apart (needed when
    ny < p or for the gcd filter) takes about log2(rows of a tile)
    Cantor-Zassenhaus rounds per tile over ever fewer rows, which costs
    _SPLIT_FACTOR times the per-row part of the first.  Linear rows need
    no powers and no split.  Above MAX_GRID_PRIME both run on Python ints,
    at their own constants.
    """
    p, k = level.p, max(1, level.deg_v)
    w = len({j for _, j in level.terms if j})
    ints = p > MAX_GRID_PRIME
    tile = min(nx, _rows_per_tile(level.deg_v))
    rounds, factor = (tile.bit_length(), _SPLIT_FACTOR) if split and k > 1 else (1, 1)
    rounds *= -(-nx // tile)
    rows = p.bit_length() * (_ROW_ROUND_S * rounds + _ROW_S[ints] * k * k * nx * factor)
    return rows < _GRID_S[ints] * nx * ny * (1 + w)


def _count(fmod: ModBivariatePoly, a: int, nx: int, ny: int, coprime_only: bool,
           strategy: str = "auto", ds=_ONE, weights=_ONE) -> int:
    """The one single-level count: the sum over the d of the run ``ds`` of
    w(d) * #{(s, t) in [1, nx] x [1, ny] : fmod(d*s, d*t) = a}, w(d) in
    ``weights`` (both int64 arrays), of all points or, for the default run
    (1) alone, of those with gcd(s, t) = 1.

    The strategy given, or the one :func:`_prefers_rows` picks once for the
    run, counts every d.  The rows take the roots of f(d*U, d*V) - a
    (``scale_args``), as the row engine needs a polynomial in V; the grid
    evaluates f at (d*s, d*t) over the pieces of the run (:func:`_sweep`),
    the small boxes of several d in one evaluation.  A piece of one d is
    counted flat, as a count along axes is slower on it.
    """
    if strategy not in ("auto", "grid", "rows"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy != "grid":
        level = _row_level(fmod, a)
        if strategy == "rows" or _prefers_rows(level, nx, ny, coprime_only or ny < fmod.p):
            return sum(w * _count_rows(_row_level(fmod.scale_args(d % fmod.p), a), nx, ny,
                                       coprime_only)
                       for d, w in zip(ds.tolist(), weights.tolist()))

    def hits(ws, xs, ys, vals):
        if coprime_only:
            i, j = np.divmod(np.flatnonzero(vals == a), len(ys))
            return int(np.count_nonzero(np.gcd(xs[i], ys[j]) == 1))
        if len(ws) == 1:
            return int(ws[0]) * int(np.count_nonzero(vals == a))
        return int(np.dot(ws, np.count_nonzero(vals == a, axis=(1, 2))))

    return sum(_sweep(fmod.evaluate, _pieces(nx, ny, ds, weights), hits))


def count_level_points(spec: LevelCurveSpec, box: CountBox, strategy: str = "auto") -> int:
    """Number of points of f(x, y) = a (mod p) in the box (no gcd filter).

    ``strategy`` is "grid" (evaluate everywhere), "rows" (the roots in V of
    each row f(x, V) - a, found a tile of rows at a time by
    :func:`_count_rows`), or "auto" (the cheaper of the two by the cost rule
    :func:`_prefers_rows`).  Both strategies agree exactly.
    """
    box.validate_for(spec.p)
    return _count(spec.fmod, spec.a, box.nx, box.ny, False, strategy)


def count_divisible(spec: LevelCurveSpec, box: CountBox, d: int) -> int:
    """M(d): points of the level curve in the box whose coordinate gcd is
    divisible by d; equals the level count of f(d*s, d*t) on the shrunken
    box [1, X/d] x [1, Y/d], the count of the one-element run (d).  Zero
    whenever d exceeds min(X, Y)."""
    d = operator.index(d)
    if d < 1:
        raise ValueError("d must be >= 1")
    box.validate_for(spec.p)
    nx, ny = box.nx // d, box.ny // d
    if nx <= 0 or ny <= 0:
        return 0
    return _count(spec.fmod, spec.a, nx, ny, False, ds=np.array([d], dtype=np.int64))


def count_visible_direct(spec: LevelCurveSpec, box: CountBox) -> int:
    """Visible points on the level curve: the gcd(x, y) = 1 filter applied
    directly to every counted point, found on the grid or by rows as the
    cost rule picks."""
    box.validate_for(spec.p)
    return _count(spec.fmod, spec.a, box.nx, box.ny, True)


def _shrunken_runs(nx: int, ny: int) -> list:
    """The squarefree d up to min(nx, ny), ascending, in runs of consecutive
    d with equal shrunken boxes (nx // d, ny // d): a list of (n, m, ds,
    mus), with the run's d and their mu(d) as int64 arrays.  About
    2 * sqrt(min(nx, ny)) runs exist."""
    mu = mobius_sieve(min(nx, ny)).values  # min >= 1, as CountBox sides are
    ds = np.flatnonzero(mu)
    n, m = nx // ds, ny // ds
    starts = np.flatnonzero(np.r_[True, (n[1:] != n[:-1]) | (m[1:] != m[:-1])]).tolist()
    return [(int(n[lo]), int(m[lo]), ds[lo:hi], mu[ds[lo:hi]].astype(np.int64))
            for lo, hi in zip(starts, starts[1:] + [len(ds)])]


def count_visible_mobius(spec: LevelCurveSpec, box: CountBox) -> int:
    """Visible points via inclusion-exclusion: sum of mu(d) * M(d) over the
    squarefree d up to min(X, Y), where the sum truncates exactly because
    M(d) vanishes beyond that.  Must equal count_visible_direct on every
    input.

    The d with equal shrunken boxes (X // d, Y // d) form a run of
    consecutive squarefree d (:func:`_shrunken_runs`), about
    2 * sqrt(min(X, Y)) of them, and each run is one :func:`_count` with
    the weights mu(d): the rows or the grid for the whole run, the grid
    counting the small boxes of several d in one evaluation, so the per-d
    cost of a small box is one plane of a batch.
    """
    box.validate_for(spec.p)
    return sum(_count(spec.fmod, spec.a, n, m, False, ds=ds, weights=mus)
               for n, m, ds, mus in _shrunken_runs(box.nx, box.ny))


def expected_visible(box: CountBox, p: int) -> float:
    """The density heuristic (6/pi^2) * X * Y / p for the visible count."""
    return COPRIME_DENSITY * (box.X * box.Y) / p


@dataclass(frozen=True, eq=False)
class VisibleHistogram:
    """Per-level counts over the box, by either route of
    :func:`visible_histogram`: entry a of ``level_counts`` is the number of
    box points with f(x, y) = a (mod p), entry a of ``visible_counts``
    additionally requires gcd(x, y) = 1."""

    p: int
    box: CountBox
    level_counts: np.ndarray
    visible_counts: np.ndarray

    def total_visible(self) -> int:
        return int(self.visible_counts.sum())


def _histogram_tiles(nx: int, ny: int) -> int:
    """The tiles of HISTOGRAM_POINTS points that cut [1, nx] x [1, ny]."""
    rows, cols = _tile_shape(ny, HISTOGRAM_POINTS)
    return -(-nx // rows) * -(-ny // cols)


def _grid_histogram(fmod: ModBivariatePoly, box: CountBox,
                    workers: int | None = None) -> VisibleHistogram:
    """Both per-level counts by one sweep over the grid, the one walk of
    the package that makes a thread pool.

    Each tile takes one bincount of 2 * f(x, y) + [gcd(x, y) = 1] over 2p
    bins, formed in place in the tile's values: the odd bins are the
    visible counts, and the even plus the odd ones the level counts.  The
    tiles of HISTOGRAM_POINTS points go to W threads, the least of
    ``workers``, :func:`_usable_cpus` and the tile count: thread k sums
    the bincounts of tiles k, k + W, k + 2W, ... in order, and the W sums
    are added.  The sums are integers, so the counts do not depend on W,
    and memory holds W sums and W tiles.  By default ``workers`` is the
    usable CPUs while 2p <= HISTOGRAM_POINTS (p <= 2^17), else 1, as each
    thread holds a sum and a tile's bincount of 2p bins.

    The tiles' evaluation, mask and bincount are numpy calls long enough
    to run outside the GIL.  Every other walk runs in the calling thread:
    the count walks, the prime sweep and the separable histogram are many
    short numpy calls, which a second thread would only slow down by
    waiting for the GIL.
    """
    p = fmod.p
    if workers is None:
        workers = _usable_cpus() if 2 * p <= HISTOGRAM_POINTS else 1
    threads = min(operator.index(workers), _usable_cpus(), _histogram_tiles(box.nx, box.ny))
    primes = _sieve_primes(min(box.nx, box.ny))

    def bincounts(_, xs, ys, vals):
        vals *= 2
        vals += _coprime_mask(xs, ys, primes)
        return np.bincount(vals.ravel(), minlength=2 * p)

    def share(k):
        pieces = _pieces(box.nx, box.ny, points=HISTOGRAM_POINTS)
        return sum(_sweep(fmod.evaluate, islice(pieces, k, None, threads), bincounts))

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # loaded only for a pool

        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = sum(pool.map(share, range(threads)))
    else:
        counts = share(0)
    visible = counts[1::2]
    return VisibleHistogram(
        p=p, box=box, level_counts=counts[::2] + visible, visible_counts=visible
    )


def _fft_length(p: int) -> int:
    """The smallest power of two >= 2p - 1: a linear convolution of two
    vectors of length p fits in it without wrapping."""
    return 1 << (2 * p - 2).bit_length()


def _fft_error_bound(norms2: int, L: int) -> float:
    """A bound on max |c' - c|, where c is the linear convolution of two
    nonnegative integer vectors x and y zero-padded to length L = 2^k and
    c' = irfft(rfft(x) * rfft(y)) its float64 value; ``norms2`` is the
    exact integer ||x||_2^2 * ||y||_2^2.  The convolution is exact after
    rounding when the bound is below 1/2.

    Percival (Math. Comp. 72 (2003), Thm. 5.1) bounds a convolution by
    radix-2 transforms of length 2^k.  Each of the k butterfly passes is a
    unitary map times sqrt(2), so in the 2-norm it scales the error it
    receives exactly as it scales the signal, and adds at most a relative
    epsilon per addition, sqrt(5) * epsilon per complex product and beta
    per stored root of unity.  Two forward transforms, the pointwise
    product (one more complex product) and the inverse, whose 1/L is a
    power of two and exact, give, with ||F x||_2 = sqrt(L) * ||x||_2,

        max |c' - c| <= ||c' - c||_2
                     <  ||x||_2 ||y||_2 ((1 + e)^(3k) (1 + sqrt(5) e)^(3k + 1) (1 + b)^(3k) - 1).

    At float64, e = 2^-53, and b = e / sqrt(2) for correctly rounded roots.
    numpy's pocketfft is not literally that transform: for L = 2^k it runs
    radix-4 passes (two radix-2 passes merged, so no more rounding than
    two of them) and one radix-2 pass, and rfft adds a packing pass of
    half length.  The bound is taken with e = b = 2^-51, four times the
    unit roundoff, to cover those passes; the sums checked after rounding
    (:func:`_separable_histogram`) back it at run time.  For E at p = 4003
    on the full box the bound is about 6e-10 at d = 1.  Every entry of c
    is at most ||x||_2 ||y||_2 (Cauchy-Schwarz), below 10^13 whenever the
    bound is below 1/2, so float64 holds the counts and their folded sums
    exactly.
    """
    k = L.bit_length() - 1
    e = b = 2.0**-51
    log = 3 * k * math.log1p(e) + (3 * k + 1) * math.log1p(math.sqrt(5) * e) + 3 * k * math.log1p(b)
    return math.sqrt(norms2) * math.expm1(log)


def _grid_histogram_seconds(fmod: ModBivariatePoly, nx: int, ny: int) -> float:
    """Estimated time of :func:`_grid_histogram` on [1, nx] x [1, ny]: per
    point and V-power of f, as in :func:`_prefers_rows`, and per tile, with
    its bincount of 2p bins."""
    w = len({j for _, j in fmod.terms if j})
    tiles = _histogram_tiles(nx, ny)
    return _HIST_S * nx * ny * (1 + w) + (_PIECE_S + _BIN_S * 2 * fmod.p) * tiles


def _separable_plan(fmod: ModBivariatePoly, nx: int, ny: int):
    """The work of :func:`_separable_histogram` on [1, nx] x [1, ny], as two
    lists (ffts, runs), when fmod has no term in both U and V and the
    route's estimated time is below the grid's; None otherwise.

    Each squarefree d up to min(nx, ny) has a band: 0 for d = 1 (the level
    counts), 1 for mu(d) = 1 and 2 for mu(d) = -1.  A d whose shrunken box
    n x m has many points for the FFT length L, _DIFF_S * n * m >
    _PIECE_S + _FFT_S * L * log2(L), is convolved by FFT: ffts lists these
    as pairs (d, band), and runs the runs (n, m, ds, bands) of the other d
    (:func:`_shrunken_runs`), in order, whose differences cost per point,
    per piece (:func:`_pieces`) and per bincount of 6p bins, one per
    BLOCK_POINTS points.  The estimate sums these costs, as
    :func:`_grid_histogram_seconds` does the grid's.  Fitted to in-process
    timings of both routes on 156 cases (4 separable f, p = 31 to 200003,
    boxes 3 x 3 to 2000^2 and 1 x p), the rule picks the slower route in 9,
    each a box of one row or column taking under 2 ms, by at most 1.3x.
    """
    p = fmod.p
    if any(i and j for i, j in fmod.terms):
        return None
    L = _fft_length(p)
    fft_s = _PIECE_S + _FFT_S * L * (L.bit_length() - 1)
    ffts, runs, seconds, points = [], [], 0.0, 0
    for n, m, ds, mus in _shrunken_runs(nx, ny):
        bands = np.where(ds == 1, 0, np.where(mus > 0, 1, 2))
        if fft_s < _DIFF_S * n * m:
            ffts += zip(ds.tolist(), bands.tolist())
            seconds += fft_s * len(ds)
            continue
        runs.append((n, m, ds, bands))
        points += n * m * len(ds)
        seconds += _PIECE_S * sum(1 for _ in _pieces(n, m, ds, bands))
    seconds += _DIFF_S * points + _BIN_S * 6 * p * -(-points // BLOCK_POINTS)
    if seconds >= _grid_histogram_seconds(fmod, nx, ny):
        return None
    return ffts, runs


def _separable_histogram(fmod: ModBivariatePoly, box: CountBox, plan: tuple) -> VisibleHistogram:
    """Both per-level counts of a separable fmod = g(U) + h(V), h(0) = 0,
    from one-variable values, by the Moebius sum over d.

    The level counts of the shrunken box of d are a cyclic convolution of
    two histograms, N_a(d) = #{s <= nx/d, t <= ny/d : f(ds, dt) = a} =
    sum over c of G_d[c] * H_d[a - c], with G_d the histogram of g(d*s) and
    H_d that of h(d*t).  The level counts are N(1) and the visible counts
    sum of mu(d) * N(d), added into one (3, p) int64 accumulator, one row
    per band.  Each (d, band) of the plan's ffts (:func:`_separable_plan`)
    computes N(d) by one rfft/irfft of length L (:func:`_fft_length`),
    rounded and folded to length p, when :func:`_fft_error_bound` of the
    exact norms proves the rounding exact; its counts must then sum to the
    n * m >= 1 points of the box, or the d joins the plan's runs as the run
    (d).  The pieces of the runs (:func:`_pieces`) stream in order into one
    buffer of BLOCK_POINTS sums g(d*s) + h(d*t) + 2p * band, bincounted
    over 6p bins, which fold to the bands, when the next piece would not
    fit and once at the end.  g and h are read from two axis tables, each
    one kernel call: g(s) = f(s, 0) for s <= nx and h(t) = f(0, t) - f(0, 0)
    for t <= ny, reduced mod p, so g(d*s) and h(d*t) are gathers at d*s and
    d*t (a strided slice for a whole box), with one buffer live.
    """
    from numpy import fft  # loaded by this route alone

    ffts, runs = plan[0], list(plan[1])  # a copy, which the rejected d join
    p, nx, ny = fmod.p, box.nx, box.ny
    L = _fft_length(p)
    G = fmod.evaluate(np.arange(nx + 1), 0)
    H = fmod.evaluate(0, np.arange(ny + 1))
    H = (H - H[0]) % p
    bands = np.zeros((3, p), dtype=np.int64)

    for d, band in ffts:
        gd = np.bincount(G[d::d], minlength=p)
        hd = np.bincount(H[d::d], minlength=p)
        if _fft_error_bound(int(gd @ gd) * int(hd @ hd), L) < 0.5:
            spectrum = fft.rfft(gd, L)
            spectrum *= fft.rfft(hd, L)
            conv = np.rint(fft.irfft(spectrum, L))
            folded = (conv[:p] + conv[p : 2 * p]).astype(np.int64)
            if int(folded.sum()) == (nx // d) * (ny // d):
                bands[band] += folded
                continue
        runs.append((nx // d, ny // d, np.array([d]), np.array([band])))

    # One array of sums serves every bincount of the stream: a fresh one
    # per bincount is faulted in anew whenever the allocator has handed its
    # pages back, which made the route for E at p = 4003 take 2000 minor
    # faults and up to twice the time.
    sums, at = np.empty(BLOCK_POINTS, dtype=np.int64), 0
    for n, m, ds, bs in runs:
        for dk, bk, s0, s1, t0, t1 in _pieces(n, m, ds, bs):
            size = len(dk) * (s1 - s0) * (t1 - t0)
            if at + size > BLOCK_POINTS:
                bands += np.bincount(sums[:at], minlength=6 * p).reshape(3, 2, p).sum(axis=1)
                at = 0
            u = G[dk[:, None] * np.arange(s0 + 1, s1 + 1)]
            v = H[dk[:, None] * np.arange(t0 + 1, t1 + 1)] + 2 * p * bk[:, None]
            np.add(u[:, :, None], v[:, None, :],
                   out=sums[at : at + size].reshape(len(dk), s1 - s0, t1 - t0))
            at += size
    if at:
        bands += np.bincount(sums[:at], minlength=6 * p).reshape(3, 2, p).sum(axis=1)
    return VisibleHistogram(p=p, box=box, level_counts=bands[0],
                            visible_counts=bands[0] + bands[1] - bands[2])


def visible_histogram(
    f: IntBivariatePoly, p: int, box: CountBox, workers: int | None = None
) -> VisibleHistogram:
    """Both per-level counts over the box, by the cheaper of two routes.

    The grid (:func:`_grid_histogram`) evaluates f, sieves the coprime mask
    and bincounts at every point.  When the reduction fmod has no term in
    both U and V, the separable route (:func:`_separable_histogram`) takes
    the Moebius sum of convolutions of one-variable histograms instead,
    and :func:`_separable_plan` picks it when its estimated time is below
    the grid's.  The two routes share neither the coprime sieve nor the
    bivariate evaluation, and agree exactly.  ``workers`` goes to the grid
    (:func:`_grid_histogram`), None for its default; a ``workers`` below 1
    raises ValueError on either route.
    """
    if workers is not None and operator.index(workers) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    fmod = reduce_mod(f, p)  # propagates DegenerateReduction
    box.validate_for(p)
    if p > MAX_GRID_PRIME:
        raise GridOverflow(f"p = {p} > {MAX_GRID_PRIME}: a histogram needs p bins per tile")
    plan = _separable_plan(fmod, box.nx, box.ny)
    if plan is not None:
        return _separable_histogram(fmod, box, plan)
    return _grid_histogram(fmod, box, workers)


def _congruence_test(p: int, r: int) -> tuple[np.uint64, np.uint64, np.uint64]:
    """(q, s, w) such that, for p = 2 or odd, 0 <= r < p and every int64 v
    viewed as a uint64, v = r (mod p) exactly when (v * q + s) mod 2^64 <= w.
    Any other even p is refused (ValueError).

    For odd p, q = p^-1 mod 2^64.  An int64 v = r (mod p) is v = r + k * p
    with k_min <= k <= k_max, k_min = -floor((2^63 + r) / p) and
    k_max = floor((2^63 - 1 - r) / p); for such v, v * q = r * q + k, so
    v * q + s = k - k_min lies in [0, w] with s = -r * q - k_min and
    w = k_max - k_min.  Conversely, as v -> v * q is a bijection of the
    integers mod 2^64, each t in [0, w] comes from one such v alone.  For
    p = 2, q = 2^63 moves the low bit to the top and s = r * 2^63 clears
    it exactly when it equals r, so w = 0.  The constants are formed in
    Python ints, then made numpy scalars.
    """
    if p == 2:
        q, s, w = 1 << 63, r << 63, 0
    elif p % 2 == 0:
        raise ValueError(f"p = {p} is even and not 2")
    else:
        q = pow(p, -1, 1 << 64)
        k_min = -((2**63 + r) // p)
        k_max = (2**63 - 1 - r) // p
        s, w = (-r * q - k_min) % (1 << 64), k_max - k_min
    return np.uint64(q), np.uint64(s), np.uint64(w)


def _congruent(values: np.ndarray, test, work: np.ndarray) -> np.ndarray:
    """The mask of the values (uint64 views of int64) that pass ``test``,
    the constants of :func:`_congruence_test`: one multiply, one add and
    one compare per value, with ``work``, a uint64 buffer of their shape,
    holding the products."""
    q, s, w = test
    np.multiply(values, q, out=work)
    np.add(work, s, out=work)
    return work <= w


def count_visible_by_prime(
    f: IntBivariatePoly, primes: list[int], box: CountBox, a: int = 0
) -> list[int]:
    """Visible points of f(x, y) = a (mod p) in the box, for each p in primes.

    One sweep evaluates f over Z in int64 and sieves the coprime mask once
    per tile, then counts, for every prime, the visible values v with
    v = a (mod p) by an exact test on their uint64 views: one multiply by
    the inverse of p modulo 2^64, one add and one compare
    (:func:`_congruent`; Granlund and Montgomery, "Division by invariant
    integers using multiplication", PLDI 1994; Lemire, Kaser and Kurz,
    "Faster remainder by direct computation", SPE 2019).  The test is
    exact for every int64 value, as each is r + k * p for one k in a range
    of fewer than 2^64 / p values, and the inverse maps that range onto
    [0, w].  p = 2 tests the low bit; any other even modulus is refused
    (ValueError).  A tile's values are dropped once masked, and each
    prime's products go into one buffer reused for every prime, so a tile
    holds at most two 8-byte arrays of its BLOCK_POINTS points.  Raises
    GridOverflow unless ``_fits_int64`` holds on the box, as the test needs
    int64 values.  No admissibility check is made: f may degenerate modulo
    some p.
    """
    if not _fits_int64(f.terms, box.nx, box.ny):
        raise GridOverflow(f"sum of |c_ij| X^i Y^j >= 2^63: {f.text()} overflows int64 on the box")
    primes, a = [operator.index(p) for p in primes], operator.index(a)
    if not primes:
        return []
    if max(primes) >= 1 << 63:
        raise GridOverflow(f"p = {max(primes)} does not fit in int64")
    box.validate_for(min(primes))
    sieve = _sieve_primes(min(box.nx, box.ny))
    tests = [_congruence_test(p, a % p) for p in primes]

    def counts(_, xs, ys, vals):
        visible = vals[0][_coprime_mask(xs, ys, sieve)].view(np.uint64)
        del vals
        work = np.empty_like(visible)
        return np.array([np.count_nonzero(_congruent(visible, t, work)) for t in tests],
                        dtype=np.int64)

    return sum(_sweep(f.evaluate, _pieces(box.nx, box.ny), counts)).tolist()
