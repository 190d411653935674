"""Exact counts of lattice points on level curves f(x, y) = a (mod p) in a
box [1, X] x [1, Y], with and without the coprimality (visibility) filter.

Two independent routes compute the visible count.  The direct route
counts the points of f = a and keeps those with gcd(x, y) = 1.  The
Moebius route sums mu(d) * M(d), where M(d) counts the points of
f(d*s, d*t) = a on the shrunken box [1, X/d] x [1, Y/d], and never takes a
gcd.  They must agree exactly on every input; the test suite enforces
this.  The squarefree d with equal shrunken boxes form runs, about
2 * sqrt(min(X, Y)) of them: the small boxes of a run are counted together
in evaluations of shape (d, s, t) of at most BLOCK_POINTS points, and the
few large ones (d <= 10 on 2000^2) one d at a time.

Every single-level count (a level count, the direct count, each M(d) box)
takes the grid or the rows by one cost rule, ``_prefers_rows``, fitted to
timings of both: the grid costs about nx * ny * (1 + w) for f with w
V-powers, the rows of V-degree k about log p * (R + nx * k^2), times about
2.5 on the per-row part and log2(nx) rounds on the fixed part when the
roots must be split apart (ny < p, or the gcd filter).

The per-level histogram, ``visible_histogram``, has two routes.  The grid
evaluates f, sieves the coprime mask and bincounts at every point.  When
the reduced f has no term in both U and V, f = g(U) + h(V), the separable
route may be taken instead: the level counts of each shrunken box are a
cyclic convolution of the histograms of g(d*s) and h(d*t), by FFT for the
few large boxes and by a bincount of the sums g + h for the rest, and the
visible counts are their Moebius sum.  A cost rule of the same kind,
``_separable_plan``, picks the route.  The two share neither the coprime
sieve nor the bivariate evaluation, so each checks the other.

Every walk over the grid of a box is one ``_sweep``.  It cuts the box into
tiles of at most ``points`` points (whole rows while one fits, else
segments of one row), made lazily in row-major order, and yields each
tile's reduced result in order; callers sum them (counts, histograms) or
concatenate them (zero sets) as they arrive.  So memory stays bounded
however large the box is, and integer sums and in-order concatenation do
not depend on the worker count.  ``_sweep`` is the one place that makes a
thread pool: its tiles are whole-array numpy work, which runs outside the
GIL.  Only the grid histogram takes workers, as its tiles are long enough
to gain from them; every other walk, the separable histogram and the whole
prime sweep run in the calling thread, where a second thread only waits
for the GIL.  The tile size follows from what a walk holds.  A count walk
(the grid count, the prime sweep, the zero set) keeps a few arrays of one
tile live, so its tiles have BLOCK_POINTS = 2^15 points, 256 KB per int64
array, an L2-sized working set.  The histogram's tiles have
HISTOGRAM_POINTS = 2^18 points, as each takes a bincount of 2p bins, which
would dominate smaller tiles at large p.  The other walks are not sweeps
but keep the same bounds: the row route takes tiles of rows whose live
arrays hold at most 4 * BLOCK_POINTS coefficients (``_rows_per_tile``),
the Moebius batches have shape (d, s, t) and at most BLOCK_POINTS points,
and the separable histogram's batches of d, one live at a time, hold at
most BLOCK_POINTS values in all their arrays.

Evaluation is the one kernel of poly, f(x, y) = sum of c_j(x) * y^j: the
row coefficients c_j by Horner in U, the powers y^j from one table per
tile, with or without the reduction mod p.  Modulo p every product is at
most (p - 1)^2 and the sum is reduced only when the next product could
pass 2^63 - 1 (for p = 4003, once per point), so int64 is exact for p <=
MAX_GRID_PRIME = isqrt(2^63 - 1); above it the kernel itself works in
Python ints (numpy object arrays).  Over Z the sweep's caller picks the
element type from a bound it knows: each power, row coefficient and
partial sum is at most B = sum |c_ij| * X^i * Y^j, which fits in int64
when ``_fits_int64``.  So grid, direct, Moebius and M(d) counts are exact
at every prime.  Two routes keep their own choice:
``visible_histogram`` refuses p > MAX_GRID_PRIME (GridOverflow), as both
its routes need p bins per batch; ``count_visible_by_prime`` refuses
B >= 2^63, where ``prime_sweep`` counts modulo each prime, faster than one
sweep over Z in Python ints.

The row route finds the roots of a whole tile of rows f(x, V) - a at once:
the rows are grouped by V-degree, and each group goes through one
vectorised Cantor-Zassenhaus pass on (rows, degree) arrays: V^p by
square-and-multiply, gcd(g, V^p - V) by pseudo-remainders, and, when the
box does not hold every y or the gcd filter needs the roots, the split by
(V + c)^((p - 1)/2), which keeps each root's row.  A tile's rows are
sized by all of its live intermediates, not only the widest one, and the
element type follows the sweep's rule, so row counts are exact at every
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
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .arith import _prime_flags, mobius_sieve
from .errors import GridOverflow, NonFiniteParameter
from .fields import PrimeField, univariate_roots
from .poly import (
    MAX_GRID_PRIME,
    IntBivariatePoly,
    ModBivariatePoly,
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
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a % p)
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS
    reports one, else all of the host's (1 when that is unknown too)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep(evaluate, nx: int, ny: int, reduce_tile, workers: int = 1, int64: bool = True,
           points: int | None = None):
    """reduce_tile(xs, ys, evaluate(xs, ys)) for each tile of the grid
    [1, nx] x [1, ny], yielded in row-major order.  xs and ys are int64
    ranges; the evaluator gets them as a column and a row, of int64 when
    ``int64`` and of Python ints otherwise.  Tiles hold at most ``points``
    points: BLOCK_POINTS by default, for the count walks, which keep a few
    tile-sized arrays live; HISTOGRAM_POINTS for the histogram.

    With more than one worker the tiles go to a pool of as many threads as
    the least of ``workers``, the tile count and :func:`_usable_cpus`, with
    at most two tiles per thread submitted and not yet yielded.  This is
    the only place a pool is made, and only :func:`_grid_histogram` asks
    for one: its evaluation, mask and bincount are numpy calls on whole
    tiles of HISTOGRAM_POINTS points, which run outside the GIL long
    enough for threads to pay off.  The count walks take the default of
    one worker.
    """
    rows, cols = _tile_shape(ny, BLOCK_POINTS if points is None else points)
    per_band = -(-ny // cols)  # tiles side by side in one band of rows
    dtype = np.int64 if int64 else object

    def tile(k: int):
        x0, y0 = k // per_band * rows, k % per_band * cols
        xs = np.arange(x0 + 1, min(x0 + rows, nx) + 1, dtype=np.int64)
        ys = np.arange(y0 + 1, min(y0 + cols, ny) + 1, dtype=np.int64)
        u, v = (r.astype(dtype, copy=False) for r in (xs[:, None], ys[None, :]))
        return reduce_tile(xs, ys, evaluate(u, v))

    tiles = range(-(-nx // rows) * per_band)
    workers = min(max(1, int(workers)), len(tiles), _usable_cpus())
    if workers <= 1:
        yield from map(tile, tiles)
        return
    from concurrent.futures import ThreadPoolExecutor  # loaded only for a pool

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for k in tiles:
            pending.append(pool.submit(tile, k))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        yield from (future.result() for future in pending)


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


def _count_grid(fmod: ModBivariatePoly, a: int, nx: int, ny: int, coprime_only: bool) -> int:
    def hits(xs, ys, vals):
        if not coprime_only:
            return int(np.count_nonzero(vals == a))
        i, j = np.divmod(np.flatnonzero(vals == a), len(ys))
        return int(np.count_nonzero(np.gcd(xs[i], ys[j]) == 1))

    return sum(_sweep(fmod.evaluate, nx, ny, hits))


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
    """#{y in [1, ny] : gcd(x, y) = 1}, by np.gcd over segments of at most
    BLOCK_POINTS values of y."""
    return sum(
        int(np.count_nonzero(np.gcd(x, np.arange(y0 + 1, min(y0 + BLOCK_POINTS, ny) + 1)) == 1))
        for y0 in range(0, ny, BLOCK_POINTS)
    )


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
    the gcd filter on (x, y) when asked for.  The row coefficients are
    int64 for p <= MAX_GRID_PRIME and Python ints above it.
    """
    p = level.p
    u = xs if p <= MAX_GRID_PRIME else xs.astype(object)
    coeffs = np.zeros((len(xs), max(level.deg_v, 0) + 1), dtype=u.dtype)
    for j, c in _horner_rows(level.terms, u, p).items():
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
    rows of E) a split quartic count ran 1.5 to 2.3 times slower.
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
           strategy: str = "auto") -> int:
    """Points of fmod = a in [1, nx] x [1, ny], all or only those with
    gcd(x, y) = 1, by the strategy given or the one :func:`_prefers_rows`
    picks."""
    if strategy not in ("auto", "grid", "rows"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy != "grid":
        level = _row_level(fmod, a)
        if strategy == "rows" or _prefers_rows(level, nx, ny, coprime_only or ny < fmod.p):
            return _count_rows(level, nx, ny, coprime_only)
    return _count_grid(fmod, a, nx, ny, coprime_only)


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
    box [1, X/d] x [1, Y/d], by the strategy the cost rule picks.  Zero
    whenever d exceeds min(X, Y)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    box.validate_for(spec.p)
    nx, ny = box.nx // d, box.ny // d
    if nx <= 0 or ny <= 0:
        return 0
    return _count(spec.fmod.scale_args(d % spec.p), spec.a, nx, ny, False)


def count_visible_direct(spec: LevelCurveSpec, box: CountBox) -> int:
    """Visible points on the level curve: the gcd(x, y) = 1 filter applied
    directly to every counted point, found on the grid or by rows as the
    cost rule picks."""
    box.validate_for(spec.p)
    return _count(spec.fmod, spec.a, box.nx, box.ny, True)


def _mobius_batch(fmod: ModBivariatePoly, a: int, ds, mus, n: int, m: int) -> int:
    """sum of mu(d) * #{(s, t) in [1, n] x [1, m] : f(d*s, d*t) = a} over
    the d in ds, in one evaluation of shape (len(ds), n, m)."""
    d = np.asarray(ds, dtype=np.int64)[:, None, None]
    s, t = (np.arange(1, k + 1, dtype=np.int64) for k in (n, m))
    vals = fmod.evaluate(d * s[:, None], d * t[None, :])
    return int(np.dot(mus, np.count_nonzero(vals == a, axis=(1, 2))))


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

    The d with equal shrunken boxes (X // d, Y // d), a run of consecutive
    squarefree d (:func:`_shrunken_runs`), share one count: when the cost
    rule picks the grid for that box and it holds at most BLOCK_POINTS
    points, as many d as fit in BLOCK_POINTS points go through one
    evaluation (:func:`_mobius_batch`); otherwise each d is one
    :func:`count_divisible`.  About 2 * sqrt(min(X, Y)) boxes exist, so the
    per-d cost is one row of a batch.
    """
    box.validate_for(spec.p)
    level = _row_level(spec.fmod, spec.a)
    total = 0
    for n, m, ds, mus in _shrunken_runs(box.nx, box.ny):
        if n * m > BLOCK_POINTS or _prefers_rows(level, n, m, m < spec.p):
            total += sum(mu * count_divisible(spec, box, d)
                         for d, mu in zip(ds.tolist(), mus.tolist()))
            continue
        step = BLOCK_POINTS // (n * m)
        for k in range(0, len(ds), step):
            total += _mobius_batch(spec.fmod, spec.a, ds[k : k + step], mus[k : k + step], n, m)
    return total


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


def _grid_histogram(fmod: ModBivariatePoly, box: CountBox, workers: int = 1) -> VisibleHistogram:
    """Both per-level counts by one sweep over the grid.

    Each tile takes one bincount of 2 * f(x, y) + [gcd(x, y) = 1] over 2p
    bins, formed in place in the tile's values: the odd bins are the
    visible counts, and the even plus the odd ones the level counts.
    Tiles may be spread over several workers; their bincounts are summed as
    they arrive, so the result is identical for any worker count and at
    most 2 * workers tiles' bincounts are held at once.
    """
    p = fmod.p
    primes = _sieve_primes(min(box.nx, box.ny))

    def bincounts(xs, ys, vals):
        vals *= 2
        vals += _coprime_mask(xs, ys, primes)
        return np.bincount(vals.ravel(), minlength=2 * p)

    counts = sum(_sweep(fmod.evaluate, box.nx, box.ny, bincounts, workers,
                        points=HISTOGRAM_POINTS))
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


def _batch_points() -> int:
    """Most values that one batch of the separable route holds in its
    arrays: BLOCK_POINTS, the budget of the count walks' tiles.  The route
    runs one batch at a time, so its working set stays near 256 KB and
    flat in p and in the box, besides one bincount of 6p bins per batch,
    which the cost rule counts (an FFT row longer than the budget is one
    batch of its own)."""
    return max(1, BLOCK_POINTS)


def _points(piece) -> int:
    ds, _, s0, s1, t0, t1 = piece
    return len(ds) * (s1 - s0) * (t1 - t0)


def _difference_pieces(ds, bands, n: int, m: int):
    """The boxes [1, n] x [1, m] of the d in ds cut into pieces of at most
    :func:`_batch_points` points, lazily: tuples (ds, bands, s0, s1, t0,
    t1), whose d share the s in (s0, s1] and the t in (t0, t1].  Whole
    boxes go together while they fit; a larger box is cut, one d at a time,
    into tiles of whole rows or of a segment of one row, as in
    :func:`_sweep`."""
    most = _batch_points()
    if n * m <= most:
        step = most // (n * m)
        for k in range(0, len(ds), step):
            yield ds[k : k + step], bands[k : k + step], 0, n, 0, m
        return
    rows, cols = _tile_shape(m, most)
    for k in range(len(ds)):
        for s0 in range(0, n, rows):
            for t0 in range(0, m, cols):
                yield ds[k : k + 1], bands[k : k + 1], s0, min(s0 + rows, n), t0, min(t0 + cols, m)


def _pack(pieces) -> list:
    """The pieces, in order, packed greedily into lists of at most
    :func:`_batch_points` points."""
    most = _batch_points()
    items, size = [], most
    for piece in pieces:
        points = _points(piece)
        if size + points > most:
            items.append([])
            size = 0
        items[-1].append(piece)
        size += points
    return items


def _grid_histogram_seconds(fmod: ModBivariatePoly, nx: int, ny: int) -> float:
    """Estimated time of :func:`_grid_histogram` on [1, nx] x [1, ny]: per
    point and V-power of f, as in :func:`_prefers_rows`, and per tile, with
    its bincount of 2p bins."""
    w = len({j for _, j in fmod.terms if j})
    rows, cols = _tile_shape(ny, HISTOGRAM_POINTS)
    tiles = -(-nx // rows) * -(-ny // cols)
    return _HIST_S * nx * ny * (1 + w) + (_PIECE_S + _BIN_S * 2 * fmod.p) * tiles


def _separable_plan(fmod: ModBivariatePoly, nx: int, ny: int):
    """The work of :func:`_separable_histogram` on [1, nx] x [1, ny], as a
    list of items, when fmod has no term in both U and V and the route's
    estimated time is below the grid's; None otherwise.

    Each squarefree d up to min(nx, ny) has a band: 0 for d = 1 (the level
    counts), 1 for mu(d) = 1 and 2 for mu(d) = -1.  A d whose shrunken box
    n x m has many points for the FFT length L, _DIFF_S * n * m >
    _PIECE_S + _FFT_S * L * log2(L), is convolved by FFT; k = batch / (4L)
    of them, at least one, make an item ("fft", [(d, band), ...]), whose
    four k x L arrays (two histograms and their spectra) hold at most
    :func:`_batch_points` values in all.  The runs of the other d
    (:func:`_shrunken_runs`) are cut into pieces (:func:`_difference_pieces`)
    and packed into items ("diff", pieces) of at most as many points, each
    one array of sums and one bincount of 6p bins.  The estimate sums these
    costs, as :func:`_grid_histogram_seconds` does the grid's.  Fitted to
    in-process timings of both routes on 156 cases (4 separable f, p = 31
    to 200003, boxes 3 x 3 to 2000^2 and 1 x p), the rule picks the slower
    route in 9, each a box of one row or column taking under 2 ms, by at
    most 1.3x.
    """
    p = fmod.p
    if any(i and j for i, j in fmod.terms):
        return None
    L = _fft_length(p)
    fft_s = _PIECE_S + _FFT_S * L * (L.bit_length() - 1)
    rows, pieces, seconds = [], [], 0.0
    for n, m, ds, mus in _shrunken_runs(nx, ny):
        bands = np.where(ds == 1, 0, np.where(mus > 0, 1, 2))
        if fft_s < _DIFF_S * n * m:
            rows += zip(ds.tolist(), bands.tolist())
            seconds += fft_s * len(ds)
            continue
        run = list(_difference_pieces(ds, bands, n, m))
        pieces += run
        seconds += _DIFF_S * n * m * len(ds) + _PIECE_S * len(run)
    diffs = _pack(pieces)
    seconds += _BIN_S * 6 * p * len(diffs)
    if seconds >= _grid_histogram_seconds(fmod, nx, ny):
        return None
    per = max(1, _batch_points() // (4 * L))
    return ([("fft", rows[k : k + per]) for k in range(0, len(rows), per)]
            + [("diff", item) for item in diffs])


def _separable_histogram(fmod: ModBivariatePoly, box: CountBox, items: list) -> VisibleHistogram:
    """Both per-level counts of a separable fmod = g(U) + h(V), h(0) = 0,
    from one-variable values, by the Moebius sum over d.

    The level counts of the shrunken box of d are a cyclic convolution of
    two histograms, N_a(d) = #{s <= nx/d, t <= ny/d : f(ds, dt) = a} =
    sum over c of G_d[c] * H_d[a - c], with G_d the histogram of g(d*s) and
    H_d that of h(d*t).  The level counts are N(1) and the visible counts
    sum of mu(d) * N(d).  An "fft" item computes N(d) for its d as one
    batch of rfft/irfft of length L (:func:`_fft_length`), rounded and
    folded to length p, when :func:`_fft_error_bound` of the exact norms
    proves the rounding exact (the histograms of any other d stay zero);
    its counts must sum to the n * m >= 1 points of the box, and a d whose
    sum differs takes differences instead.
    A "diff" item forms g(d*s) + h(d*t) + 2p * band over its pieces and
    bincounts it over 6p bins, which folds to the three bands' counts.
    Items run one after another in the calling thread, so one batch is
    live at a time: their work is many small numpy calls, which a second
    thread would only slow down by waiting for the GIL.
    """
    from numpy import fft  # loaded by this route alone

    p, nx, ny = fmod.p, box.nx, box.ny
    L = _fft_length(p)
    g = ModBivariatePoly(p, {(i, j): c for (i, j), c in fmod.terms.items() if not j})
    h = ModBivariatePoly(p, {(i, j): c for (i, j), c in fmod.terms.items() if j})

    def g_at(ds, s0, s1):
        return g.evaluate(ds[:, None] * np.arange(s0 + 1, s1 + 1), 0)

    def h_at(ds, t0, t1):
        return h.evaluate(0, ds[:, None] * np.arange(t0 + 1, t1 + 1))

    # One array of sums serves every "diff" batch, as one runs at a time: a
    # fresh one per batch is faulted in anew whenever the allocator has
    # handed its pages back, which made the route for E at p = 4003 take
    # 2000 minor faults and up to twice the time.
    sums = np.empty(_batch_points(), dtype=np.int64)

    def differences(pieces):
        at = 0
        for ds, bands, s0, s1, t0, t1 in pieces:
            u, v = g_at(ds, s0, s1), h_at(ds, t0, t1) + 2 * p * bands[:, None]
            size = u.size * v.shape[1]
            np.add(u[:, :, None], v[:, None, :],
                   out=sums[at : at + size].reshape(len(ds), u.shape[1], v.shape[1]))
            at += size
        return np.bincount(sums[:at], minlength=6 * p).reshape(3, 2, p).sum(axis=1)

    def convolutions(rows):
        G, H = np.zeros((len(rows), L)), np.zeros((len(rows), L))
        for k, (d, _) in enumerate(rows):
            one = np.array([d])
            gd = np.bincount(g_at(one, 0, nx // d).ravel(), minlength=p)
            hd = np.bincount(h_at(one, 0, ny // d).ravel(), minlength=p)
            if _fft_error_bound(int(gd @ gd) * int(hd @ hd), L) < 0.5:
                G[k, :p], H[k, :p] = gd, hd  # else the row stays 0 and fails the sum
        spectrum = fft.rfft(G)
        spectrum *= fft.rfft(H)
        del G, H
        conv = fft.irfft(spectrum, L)
        del spectrum
        np.rint(conv, out=conv)
        folded = (conv[:, :p] + conv[:, p : 2 * p]).astype(np.int64)
        out = np.zeros((3, p), dtype=np.int64)
        for k, (d, band) in enumerate(rows):
            if int(folded[k].sum()) == (nx // d) * (ny // d):
                out[band] += folded[k]
            else:
                pieces = _difference_pieces(np.array([d]), np.array([band]), nx // d, ny // d)
                out += sum(differences(item) for item in _pack(pieces))
        return out

    def counts(item):
        kind, work = item
        return convolutions(work) if kind == "fft" else differences(work)

    bands = sum(map(counts, items))
    return VisibleHistogram(p=p, box=box, level_counts=bands[0],
                            visible_counts=bands[0] + bands[1] - bands[2])


def visible_histogram(
    f: IntBivariatePoly, p: int, box: CountBox, workers: int = 1
) -> VisibleHistogram:
    """Both per-level counts over the box, by the cheaper of two routes.

    The grid (:func:`_grid_histogram`) evaluates f, sieves the coprime mask
    and bincounts at every point.  When the reduction fmod has no term in
    both U and V, the separable route (:func:`_separable_histogram`) takes
    the Moebius sum of convolutions of one-variable histograms instead,
    and :func:`_separable_plan` picks it when its estimated time is below
    the grid's.  The two routes share neither the coprime sieve nor the
    bivariate evaluation, and agree exactly.  Only the grid spreads its
    tiles over ``workers`` threads (:func:`_sweep`); the separable route
    runs in the calling thread.  The counts never depend on the worker
    count.
    """
    fmod = reduce_mod(f, p)  # propagates DegenerateReduction
    box.validate_for(p)
    if p > MAX_GRID_PRIME:
        raise GridOverflow(f"p = {p} > {MAX_GRID_PRIME}: a histogram needs p bins per tile")
    items = _separable_plan(fmod, box.nx, box.ny)
    if items is not None:
        return _separable_histogram(fmod, box, items)
    return _grid_histogram(fmod, box, workers)


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
    holds at most two 8-byte arrays of its BLOCK_POINTS points.  The sweep
    runs in the calling thread: each prime's pass is a few numpy calls on
    one tile, too short to gain from releasing the GIL.  Raises
    GridOverflow unless ``_fits_int64(f, box)``.
    No admissibility check is made: f may degenerate modulo some p.
    """
    if not _fits_int64(f, box):
        raise GridOverflow(f"sum of |c_ij| X^i Y^j >= 2^63: {f.text()} overflows int64 on the box")
    if not primes:
        return []
    if max(primes) >= 1 << 63:
        raise GridOverflow(f"p = {max(primes)} does not fit in int64")
    box.validate_for(min(primes))
    sieve = _sieve_primes(min(box.nx, box.ny))
    tests = [_congruence_test(p, a % p) for p in primes]

    def counts(xs, ys, vals):
        visible = vals[_coprime_mask(xs, ys, sieve)].view(np.uint64)
        del vals
        work = np.empty_like(visible)
        return np.array([np.count_nonzero(_congruent(visible, t, work)) for t in tests],
                        dtype=np.int64)

    return sum(_sweep(f.evaluate, box.nx, box.ny, counts)).tolist()
