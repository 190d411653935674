import concurrent.futures
import math
import os
import random
import threading
import time
import tracemalloc

import numpy as np
import pytest

from visiblepoints import counting
from visiblepoints.arith import is_prime
from visiblepoints.counting import (
    BLOCK_POINTS,
    HISTOGRAM_POINTS,
    CountBox,
    LevelCurveSpec,
    _coprime_mask,
    _pieces,
    _sieve_primes,
    count_divisible,
    count_level_points,
    count_visible_by_prime,
    count_visible_direct,
    count_visible_mobius,
    expected_visible,
    visible_histogram,
)
from visiblepoints.errors import DegenerateReduction, NonFiniteParameter
from visiblepoints.experiments import level_sweep
from visiblepoints.factor import bad_level_values
from visiblepoints.fields import PrimeField, univariate_roots
from visiblepoints.output import records_to_json
from visiblepoints.poly import IntBivariatePoly, parse_poly, reduce_mod

from oracles import (
    count_divisible_brute,
    count_level_brute,
    count_visible_brute,
    eval_mod,
    histogram_brute,
    primes_brute,
)

UV = parse_poly("U*V")
PARABOLA = parse_poly("V - U^2")
ELLIPTIC = parse_poly("V^2 - U^3 - U - 1")
#: a tile size above every box of the randomized tests: one tile each
ONE_TILE = 1 << 18


def test_running_fixture_counts():
    spec = LevelCurveSpec(UV, 5, 1)
    box = CountBox(5, 5)
    # oracle first: enumerate the 25-point grid
    assert count_level_brute(UV.terms, 5, 1, 5, 5) == 4
    assert count_level_points(spec, box) == 4
    assert count_level_points(spec, box, "rows") == 4
    assert count_level_points(spec, CountBox(2, 2)) == 1
    # M(d) table; note M(4) = 1 via the point (4, 4) whose gcd is 4
    expected_m = [count_divisible_brute(UV.terms, 5, 1, 5, 5, d) for d in range(1, 6)]
    assert expected_m == [4, 1, 0, 1, 0]
    assert [count_divisible(spec, box, d) for d in range(1, 6)] == expected_m
    assert count_visible_direct(spec, box) == 3
    assert count_visible_mobius(spec, box) == 3


def test_parabola_fixture():
    spec = LevelCurveSpec(PARABOLA, 7, 0)
    box = CountBox(7, 7)
    assert count_visible_brute(PARABOLA.terms, 7, 0, 7, 7) == 4
    assert count_visible_direct(spec, box) == 4
    assert count_visible_mobius(spec, box) == 4


def test_full_box_hyperbola_is_p_minus_1():
    for p in (5, 7, 11):
        spec = LevelCurveSpec(UV, p, 1)
        box = CountBox(p, p)
        assert count_level_points(spec, box) == p - 1
        assert count_level_points(spec, box, "rows") == p - 1
        assert count_level_brute(UV.terms, p, 1, p, p) == p - 1


def test_single_cell_box():
    for a in (0, 1, 2):
        spec = LevelCurveSpec(UV, 5, a)
        box = CountBox(1, 1)
        expected = 1 if spec.fmod.evaluate(1, 1) == spec.a else 0
        assert count_visible_direct(spec, box) == expected
        assert count_visible_mobius(spec, box) == expected


def _random_instance(rng):
    primes = primes_brute(5, 97)
    while True:
        p = rng.choice(primes)
        terms = {}
        deg = rng.randint(1, 4)
        for i in range(deg + 1):
            for j in range(deg + 1 - i):
                c = rng.randint(-9, 9)
                if c:
                    terms[(i, j)] = c
        if not terms:
            continue
        f = IntBivariatePoly(terms)
        try:
            spec = LevelCurveSpec(f, p, rng.randrange(p))
        except DegenerateReduction:
            continue
        X = rng.randint(1, p)
        Y = rng.randint(1, p)
        if rng.random() < 0.25 and X < p:
            X = X + 0.5  # exercise real-valued boxes
        return spec, CountBox(X, Y)


def test_mobius_equals_direct_randomized():
    rng = random.Random(2024)
    for _ in range(80):
        spec, box = _random_instance(rng)
        assert count_visible_mobius(spec, box) == count_visible_direct(spec, box)


def test_strategies_agree_randomized():
    rng = random.Random(77)
    for _ in range(40):
        spec, box = _random_instance(rng)
        if spec.fmod.deg_v < 1:
            continue
        grid = count_level_points(spec, box, "grid")
        rows = count_level_points(spec, box, "rows")
        assert grid == rows
    with pytest.raises(ValueError):
        count_level_points(LevelCurveSpec(UV, 5, 1), CountBox(5, 5), "bogus")


def test_rows_fold_huge_v_exponents():
    # y^p = y on F_p, so the row search folds each V-exponent below p rather
    # than build a row as long as the exponent; V^7 - V folds to the zero row
    cases = [(text, p, a) for text in ("V^100000 + U", "V^99999999 + U",
                                       "3*V^99999999 + V^6 + U^2*V^13")
             for p, a in ((2, 1), (7, 0), (7, 3), (11, 5))]
    for text, p, a in cases + [("V^7 - V", 7, 0), ("V^7 - V + U", 7, 2)]:
        f = parse_poly(text)
        spec, box = LevelCurveSpec(f, p, a), CountBox(p, p)
        t0 = time.perf_counter()
        rows = count_level_points(spec, box, "rows")
        assert time.perf_counter() - t0 < 5, (text, p)
        assert rows == count_level_points(spec, box, "grid"), (text, p, a)
        assert rows == count_level_brute(f.terms, p, a, p, p), (text, p, a)


def _rows_reference(spec, nx, ny):
    """The row count one row at a time: univariate_roots of f(x, V) - a."""
    p, level, K = spec.p, spec.fmod.subtract_const(spec.a), PrimeField(spec.p)
    total = 0
    for x in range(1, nx + 1):
        g = level.specialize_u(x)
        total += sum(1 for r in univariate_roots(g, K) if (r or p) <= ny) if g else ny
    return total


def _random_row_poly(rng, p, r, kmax=4):
    """A random f with V-degree 1..kmax whose row at x = r is zero, constant,
    or of lower degree: f = (U - r) * P + c, or P with the V-leading
    coefficient U - r."""
    k = rng.randint(1, kmax)
    P = {(i, j): rng.randint(-9, 9) for i in range(4) for j in range(k + 1)}
    kind = rng.randrange(3)
    if kind == 2:
        P = {ij: c for ij, c in P.items() if ij[1] < k}
        P.update({(1, k): 1, (0, k): -r})
        return IntBivariatePoly(P)
    P[(0, k)] = P[(0, k)] or 1
    terms = {}
    for (i, j), c in P.items():
        terms[(i + 1, j)] = terms.get((i + 1, j), 0) + c
        terms[(i, j)] = terms.get((i, j), 0) - r * c
    terms[(0, 0)] = terms.get((0, 0), 0) + kind * rng.randint(1, 9)
    return IntBivariatePoly(terms)


@pytest.mark.parametrize("block", [1, 5, 64, ONE_TILE])
def test_batched_rows_match_the_per_row_roots(monkeypatch, block):
    # tiles of one row (block <= 2k - 1), several tiles, and one tile
    monkeypatch.setattr(counting, "BLOCK_POINTS", block)
    rng = random.Random(block)
    degrees = set()
    for p in (3, 5, 7, 11, 101, 1009):
        for _ in range(5 if p < 1009 else 2):
            nx = rng.randint(1, min(p, 60))
            r = rng.randint(1, nx)
            f = _random_row_poly(rng, p, r)
            a = rng.choice((rng.randrange(p), eval_mod(f.terms, r, 1, p)))
            try:  # at a = f(r, 1) a constant row r is the zero row
                spec = LevelCurveSpec(f, p, a)
            except DegenerateReduction:
                continue
            for ny in {rng.randint(1, p - 1), p}:
                rows = count_level_points(spec, CountBox(nx, ny), "rows")
                assert rows == _rows_reference(spec, nx, ny), (f, p, spec.a, nx, ny)
                if p <= 101:
                    assert rows == count_level_brute(f.terms, p, spec.a, nx, ny), (f, p)
            level = spec.fmod.subtract_const(spec.a)
            degrees.update(len(level.specialize_u(x)) - 1 for x in range(1, nx + 1))
    assert degrees >= {-1, 0, 1, 2, 3}  # zero and constant rows among them


#: the cost rule forced one way: every count by rows, or every count and
#: every M(d) box on the grid (the d-batches)
FORCED = {"rows": lambda *args: True, "grid": lambda *args: False}


def _random_visible_case(rng, p):
    """A random f of V-degree 1..6 (some rows zero, constant or of lower
    degree), a level on or off those rows, and a box with X != Y, possibly
    real-valued."""
    while True:
        nx, ny = rng.randint(1, p), rng.randint(1, p)
        r = rng.randint(1, nx)
        f = _random_row_poly(rng, p, r, kmax=6)
        a = rng.choice((rng.randrange(p), eval_mod(f.terms, r, 1, p), 0))
        try:
            spec = LevelCurveSpec(f, p, a)
        except DegenerateReduction:
            continue
        X, Y = (n + 0.5 if n < p and rng.random() < 0.3 else n for n in (nx, ny))
        return spec, CountBox(X, Y)


@pytest.mark.parametrize("block", [ONE_TILE, 7])
@pytest.mark.parametrize("route", ["auto", "rows", "grid"])
def test_visible_routes_match_the_oracles(monkeypatch, route, block):
    # direct (rows or grid with the gcd), Moebius (rows, the d-batches, or
    # what the cost rule picks) and M(d) against the brute force; tiles of
    # 7 points split the row tiles, the grid tiles and the d-batches
    monkeypatch.setattr(counting, "BLOCK_POINTS", block)
    if route != "auto":
        monkeypatch.setattr(counting, "_prefers_rows", FORCED[route])
    rng = random.Random(f"{route}-{block}")
    for p in (2, 3, 5, 7, 13, 31, 61):
        for _ in range(6 if p > 3 else 4):
            spec, box = _random_visible_case(rng, p)
            terms, a = spec.f.terms, spec.a
            want = count_visible_brute(terms, p, a, box.X, box.Y)
            assert count_visible_direct(spec, box) == want, (spec, box)
            assert count_visible_mobius(spec, box) == want, (spec, box)
            d = rng.randint(1, 4)
            assert count_divisible(spec, box, d) == count_divisible_brute(
                terms, p, a, box.X, box.Y, d), (spec, box, d)


@pytest.mark.parametrize("route", ["auto", "rows", "grid"])
def test_mobius_over_many_one_cell_boxes(monkeypatch, route):
    # on 61 x 59 every d in [31, 59] shrinks the box to 1 x 1 and d in
    # [21, 29] to 2 x 2; tiles of 5 points cut those runs into several
    # d-batches; E has V-degree 2 and U*V^2 + V a vanishing leading row
    monkeypatch.setattr(counting, "BLOCK_POINTS", 5)
    if route != "auto":
        monkeypatch.setattr(counting, "_prefers_rows", FORCED[route])
    for f in (ELLIPTIC, parse_poly("U*V^2 + V + U^3"), UV):
        for a in (0, 1, 17, 40):
            spec, box = LevelCurveSpec(f, 61, a), CountBox(61, 59)
            want = count_visible_brute(f.terms, 61, a, 61, 59)
            assert count_visible_mobius(spec, box) == want, (f, a)
            assert count_visible_direct(spec, box) == want, (f, a)


@pytest.mark.parametrize("route", ["rows", "grid"])
def test_m_of_p_on_the_full_box(monkeypatch, route):
    # at d = p the shrunken box is the one point (1, 1): the grid evaluates
    # f at (p, p), the rows take f(p*U, p*V), all of whose terms but the
    # constant vanish; a = f(0, 0) is the level where M(p) = 1.  Tiles of 5
    # points cut the Moebius runs into several pieces
    monkeypatch.setattr(counting, "BLOCK_POINTS", 5)
    monkeypatch.setattr(counting, "_prefers_rows", FORCED[route])
    for p in (2, 3, 5, 7, 13, 31):
        box = CountBox(p, p)
        for f in (ELLIPTIC, parse_poly("U*V^2 + V + U^3"), UV):
            for a in {0, 1, eval_mod(f.terms, 0, 0, p)}:
                spec = LevelCurveSpec(f, p, a)
                assert count_divisible(spec, box, p) == count_divisible_brute(
                    f.terms, p, a, p, p, p), (f, p, a)
                want = count_visible_brute(f.terms, p, a, p, p)
                assert count_visible_mobius(spec, box) == want, (f, p, a)


@pytest.mark.parametrize("route", ["rows", "grid"])
def test_visible_routes_at_primes_above_2_32(monkeypatch, route):
    # the Python-int (object array) paths of rows, grid and the d-batches
    monkeypatch.setattr(counting, "_prefers_rows", FORCED[route])
    rng = random.Random(route)
    box = CountBox(11.5, 9)
    for p in (10**10 + 19, 2**61 - 1):
        for k in (1, 2, 5):
            terms = {(rng.randint(0, 3), rng.randint(0, k)): rng.randrange(-p, p)
                     for _ in range(4)}
            terms[(1, k)] = 1
            f = IntBivariatePoly(terms)
            for a in {0, *(eval_mod(f.terms, rng.randint(1, 11), rng.randint(1, 9), p)
                           for _ in range(2))}:
                spec = LevelCurveSpec(f, p, a)
                want = count_visible_brute(f.terms, p, a, box.X, box.Y)
                assert count_visible_direct(spec, box) == want, (p, f, a)
                assert count_visible_mobius(spec, box) == want, (p, f, a)


def test_auto_agrees_with_both_strategies_at_high_v_degree():
    # the cost rule covers every V-degree; these cases make it pick both
    picks = set()
    for text in ("V^5 + U*V^3 + 2*U^2*V + U^4 + 3", "V^6 + U*V^5 + U^3*V + 1",
                 "U*V^7 + V^5 + U^2"):
        f = parse_poly(text)
        for p, nx, ny in ((7, 7, 7), (31, 20, 31), (1009, 5, 1009), (1009, 1009, 1009),
                          (1009, 40, 30)):
            spec, box = LevelCurveSpec(f, p, 3), CountBox(nx, ny)
            level = counting._row_level(spec.fmod, spec.a)
            picks.add(counting._prefers_rows(level, nx, ny, ny < p))
            grid = count_level_points(spec, box, "grid")
            assert count_level_points(spec, box) == grid == count_level_points(
                spec, box, "rows"), (text, p, nx, ny)
            if nx * ny <= 1000:
                assert grid == count_level_brute(f.terms, p, 3, nx, ny), (text, p)
    assert picks == {True, False}


def test_rows_at_p_2_match_the_brute_force():
    for text in ("U*V", "V^2 + V + U", "V^3 + U*V + 1", "U*V^2 + U", "V^2 + V"):
        f = parse_poly(text)
        for a in (0, 1):
            for nx, ny in ((1, 1), (1, 2), (2, 1), (2, 2)):
                spec = LevelCurveSpec(f, 2, a)
                assert count_level_points(spec, CountBox(nx, ny), "rows") == count_level_brute(
                    f.terms, 2, a, nx, ny), (text, a, nx, ny)


def test_rows_equal_the_grid_at_large_primes():
    # int64 rows at the largest prime below MAX_GRID_PRIME, Python ints
    # above it; the levels are values f takes in the box, so counts are not 0
    rng = random.Random(11)
    for p in (3037000493, 10**10 + 19):
        for nx, ny in ((9, 7), (3, 40)):
            for _ in range(3):
                terms = {(rng.randint(0, 3), rng.randint(0, 3)): rng.randrange(p) for _ in range(3)}
                terms[(1, 2)], terms[(0, 3)] = rng.randrange(1, p), 1
                f = IntBivariatePoly(terms)
                for a in {eval_mod(f.terms, rng.randint(1, nx), rng.randint(1, ny), p)
                          for _ in range(2)}:
                    spec, box = LevelCurveSpec(f, p, a), CountBox(nx, ny)
                    rows = count_level_points(spec, box, "rows")
                    assert rows >= 1 and rows == count_level_points(spec, box, "grid"), (p, f, a)
                    assert rows == _rows_reference(spec, nx, ny), (p, f, a)
        spec = LevelCurveSpec(ELLIPTIC, p, 5)
        assert count_level_points(spec, CountBox(40, p), "rows") == _rows_reference(spec, 40, p)


def test_row_memory_does_not_grow_with_the_tile_count(monkeypatch):
    # E has V-degree 2, so a tile holds _rows_per_tile(2) rows, sized by all
    # of its live arrays; 8 tiles kept at once would take 4x the memory of 2
    # (tiles of 2^15 keep it quick)
    monkeypatch.setattr(counting, "BLOCK_POINTS", 1 << 15)
    p, rows = 100003, counting._rows_per_tile(2)
    spec = LevelCurveSpec(ELLIPTIC, p, 7)
    two, eight = (_peak(lambda: count_level_points(spec, CountBox(n * rows, p), "rows"))
                  for n in (2, 8))
    assert eight < 1.5 * two, (two, eight)


def test_counts_match_brute_force_randomized():
    rng = random.Random(4242)
    for _ in range(25):
        spec, box = _random_instance(rng)
        terms = spec.f.terms
        assert count_level_points(spec, box) == count_level_brute(
            terms, spec.p, spec.a, box.X, box.Y
        )
        assert count_visible_direct(spec, box) == count_visible_brute(
            terms, spec.p, spec.a, box.X, box.Y
        )
        d = rng.randint(1, 6)
        assert count_divisible(spec, box, d) == count_divisible_brute(
            terms, spec.p, spec.a, box.X, box.Y, d
        )


def test_count_divisible_degenerate_d():
    spec = LevelCurveSpec(UV, 13, 3)
    box = CountBox(9, 6)
    for d in range(7, 15):
        assert count_divisible(spec, box, d) == 0
    # boundary d = min(X, Y) may be nonzero
    assert count_divisible(spec, box, 6) == count_divisible_brute(
        UV.terms, 13, 3, 9, 6, 6
    )


def test_expected_visible_values():
    assert math.isclose(expected_visible(CountBox(5, 5), 5), 3.0396, abs_tol=1e-4)
    assert math.isclose(
        expected_visible(CountBox(10, 20), 101), 1.2038, abs_tol=1e-4
    )
    assert math.isclose(
        expected_visible(CountBox(100, 100), 100), 60.7927, abs_tol=1e-4
    )


def test_histogram_matches_per_level_calls():
    for f, p in ((UV, 5), (PARABOLA, 7), (ELLIPTIC, 13), (UV, 31)):
        for box in (CountBox(p, p), CountBox(3, max(1, p - 1))):
            hist = visible_histogram(f, p, box)
            for a in range(p):
                spec = LevelCurveSpec(f, p, a)
                assert hist.level_counts[a] == count_level_points(spec, box)
                assert hist.visible_counts[a] == count_visible_direct(spec, box)


def test_histogram_invariants():
    box = CountBox(5, 5)
    h = visible_histogram(UV, 5, box)
    assert h.level_counts.tolist() == [9, 4, 4, 4, 4]
    assert int(h.level_counts.sum()) == 25
    assert (h.visible_counts <= h.level_counts).all()
    coprime_5x5 = sum(
        1 for x in range(1, 6) for y in range(1, 6) if math.gcd(x, y) == 1
    )
    assert coprime_5x5 == 19
    assert h.total_visible() == 19
    # the visible total is f-independent
    h2 = visible_histogram(PARABOLA, 5, box)
    assert h2.total_visible() == 19
    h3 = visible_histogram(PARABOLA, 7, CountBox(7, 7))
    assert h3.level_counts.tolist() == [7] * 7


@pytest.mark.parametrize("block", [1, 5, 64])
def test_histogram_bins_match_the_oracle_on_many_tiles(monkeypatch, block):
    # one bincount per tile holds both counts, 2 * value + coprime; tiles
    # of one point, of a row segment and of several rows all occur, and
    # threads that share them unevenly (101 x 2 is 4 tiles of 64 points)
    monkeypatch.setattr(counting, "HISTOGRAM_POINTS", block)
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 3)
    cubic = parse_poly("U^2*V^3 + 5*U*V - 7")
    for p, boxes in ((2, [(2, 2), (1, 2)]), (3, [(3, 3), (2, 1)]),
                     (101, [(101, 23), (9, 101), (101, 2)])):
        for f in (ELLIPTIC, cubic):
            for X, Y in boxes:
                level, visible = histogram_brute(f.terms, p, X, Y)
                for workers in (1, 2, 3):
                    h = visible_histogram(f, p, CountBox(X, Y), workers=workers)
                    assert h.level_counts.tolist() == level, (p, f, X, Y, workers)
                    assert h.visible_counts.tolist() == visible, (p, f, X, Y, workers)


def test_histogram_worker_invariance():
    box = CountBox(101, 101)
    h1 = visible_histogram(ELLIPTIC, 101, box, workers=1)
    h4 = visible_histogram(ELLIPTIC, 101, box, workers=4)
    assert (h1.level_counts == h4.level_counts).all()
    assert (h1.visible_counts == h4.visible_counts).all()


def test_worker_counts_below_1_raise_on_both_routes():
    grid_f = parse_poly("V^2 + U*V - U^3 - 1")
    for f, p, workers, separable in ((ELLIPTIC, 1009, -5, True), (ELLIPTIC, 7, -5, False),
                                     (grid_f, 7, 0, False)):
        box = CountBox(p, p)
        assert (counting._separable_plan(reduce_mod(f, p), p, p) is not None) == separable
        with pytest.raises(ValueError, match="workers must be >= 1"):
            visible_histogram(f, p, box, workers=workers)


def test_blocked_sweep_with_partial_last_block():
    # 1009 x 700 is three histogram tiles of 374, 374 and 261 rows, and 22
    # tiles of 46 rows, the last of 43, for the grid counts
    p, box = 1009, CountBox(1009, 700)
    for points in (HISTOGRAM_POINTS, BLOCK_POINTS):
        rows = points // box.ny
        assert box.nx > 2 * rows and box.nx % rows
    level, visible = histogram_brute(ELLIPTIC.terms, p, box.X, box.Y)
    for workers in (1, 2):
        h = visible_histogram(ELLIPTIC, p, box, workers=workers)
        assert h.level_counts.tolist() == level
        assert h.visible_counts.tolist() == visible
    for a in range(0, p, 97):
        spec = LevelCurveSpec(ELLIPTIC, p, a)
        assert count_level_points(spec, box, "grid") == level[a]
        assert count_visible_direct(spec, box) == visible[a]


def _assert_mask_is_gcd(lo, hi, ny, primes=None):
    xs = np.arange(lo, hi + 1, dtype=np.int64)
    ys = np.arange(1, ny + 1, dtype=np.int64)
    if primes is None:
        primes = primes_brute(2, min(ny, hi))
    mask = _coprime_mask(xs, ys, primes)
    assert (mask == (np.gcd.outer(xs, ys) == 1)).all(), (lo, hi, ny)


def test_coprime_mask_matches_gcd():
    # blocks starting at x = 1, and blocks holding x = 30030 = 2*3*5*7*11*13
    for lo, hi, ny in ((1, 1, 1), (1, 1, 50), (1, 64, 97), (1, 300, 300),
                       (30030, 30030, 400), (30001, 30100, 700), (30029, 30031, 30030)):
        _assert_mask_is_gcd(lo, hi, ny)
    # thin boxes: ny <= 3 and nx = p
    for ny in (1, 2, 3):
        _assert_mask_is_gcd(1, 1009, ny)
    # wide boxes: nx <= 3
    for nx in (1, 2, 3):
        _assert_mask_is_gcd(1, nx, 4001)
    assert _sieve_primes(1).tolist() == [] and _sieve_primes(30).tolist() == primes_brute(2, 30)
    # one-row tiles, tiles that start inside a row at offsets >= 10^5, and
    # tiles lower or narrower than most primes that reach them, so that
    # many primes' first multiple falls outside the tile
    primes = _sieve_primes(210000)
    for lo, hi, y0, y1 in ((7, 7, 1, 5000), (30030, 30030, 100001, 102000),
                           (100003, 100003, 99991, 101000), (123456, 123459, 200001, 201000),
                           (100000, 100900, 150001, 150003), (150001, 150004, 100000, 100999),
                           (2, 300, 100001, 100002), (199999, 200001, 199999, 200001)):
        xs = np.arange(lo, hi + 1, dtype=np.int64)
        ys = np.arange(y0, y1 + 1, dtype=np.int64)
        mask = _coprime_mask(xs, ys, primes)
        assert (mask == (np.gcd.outer(xs, ys) == 1)).all(), (lo, hi, y0, y1)


def test_coprime_mask_over_the_blocks_of_a_sweep():
    # 1009 x 700 is three row blocks of 374, 374 and 261 rows in the
    # histogram's sweep (22 of 46 rows in a count's), with the primes
    # sieved once for the whole box as a sweep does
    nx, ny = 1009, 700
    primes = _sieve_primes(min(nx, ny))
    for points, tiles in ((HISTOGRAM_POINTS, 3), (BLOCK_POINTS, 22)):
        rows = points // ny
        starts = list(range(0, nx, rows))
        assert len(starts) == tiles and nx - starts[-1] < rows
        for lo in starts:
            _assert_mask_is_gcd(lo + 1, min(lo + rows, nx), ny, primes)


def _piece_cells(pieces, budget):
    """The (d, weight, s, t) of the pieces in their order, after checking
    that each holds at most ``budget`` points and a weight per d."""
    for ds, weights, s0, s1, t0, t1 in pieces:
        assert len(ds) == len(weights) and 0 < len(ds) * (s1 - s0) * (t1 - t0) <= budget
        for d, w in zip(ds.tolist(), weights.tolist()):
            yield from ((d, w, s, t) for s in range(s0 + 1, s1 + 1) for t in range(t0 + 1, t1 + 1))


def test_pieces_cover_every_point_once_in_order_within_the_budget():
    # boxes of n * m just below, at and above the budget, one-row boxes
    # wider than it, random ones, and a budget of 1; runs of 1 to 6 d
    rng = random.Random(2146)
    for budget in (1, 2, 12, 97, 1000):
        shapes = [(1, budget), (1, budget + 1), (budget, 1), (2, budget),
                  (1, budget + rng.randint(1, 3 * budget)), (rng.randint(2, 9), rng.randint(1, budget))]
        shapes += [(n, (budget + k) // n) for n in (1, 2, 3) for k in (-1, 0, 1) if (budget + k) // n]
        for n, m in shapes:
            ds = np.array(sorted(rng.sample(range(1, 50), rng.randint(1, 6))), dtype=np.int64)
            weights = np.array([rng.choice((-1, 1, 0, 7)) for _ in ds], dtype=np.int64)
            want = [(d, w, s, t) for d, w in zip(ds.tolist(), weights.tolist())
                    for s in range(1, n + 1) for t in range(1, m + 1)]
            got = list(_piece_cells(_pieces(n, m, ds, weights, budget), budget))
            assert got == want, (budget, n, m, len(ds))
    # the default budget is BLOCK_POINTS, read when the pieces are made
    assert len(list(_pieces(2, BLOCK_POINTS // 2))) == 1
    assert len(list(_pieces(2, BLOCK_POINTS // 2 + 1))) == 2


def test_full_box_histogram_matches_brute_force():
    for p in (127, 257):
        level, visible = histogram_brute(ELLIPTIC.terms, p, p, p)
        h = visible_histogram(ELLIPTIC, p, CountBox(p, p))
        assert h.level_counts.tolist() == level
        assert h.visible_counts.tolist() == visible


def test_grid_histogram_matches_the_oracle(monkeypatch):
    # the grid route itself, whichever route the cost rule gives
    # visible_histogram here: the full box, a sweep of three row blocks of
    # 374, 374 and 261 rows, which two threads share unevenly, and one
    # worker against four
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 3)
    for p, X, Y in ((127, 127, 127), (257, 257, 257), (1009, 1009, 700)):
        box = CountBox(X, Y)
        level, visible = histogram_brute(ELLIPTIC.terms, p, X, Y)
        for workers in (1, 2, 3):
            h = counting._grid_histogram(reduce_mod(ELLIPTIC, p), box, workers)
            assert h.level_counts.tolist() == level, (p, X, Y, workers)
            assert h.visible_counts.tolist() == visible, (p, X, Y, workers)
    fmod, box = reduce_mod(ELLIPTIC, 101), CountBox(101, 101)
    h1, h4 = (counting._grid_histogram(fmod, box, workers) for workers in (1, 4))
    assert (h1.level_counts == h4.level_counts).all()
    assert (h1.visible_counts == h4.visible_counts).all()


class _RaisingPool:
    """A stand-in for ThreadPoolExecutor that fails as soon as it is made."""

    def __init__(self, max_workers):
        raise AssertionError(f"a pool of {max_workers} threads")


class _RecordingPool:
    """A stand-in for ThreadPoolExecutor that runs every task of ``map`` at
    once, in the calling thread, and records the max_workers it was made
    with."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return [fn(*args) for args in zip(*iterables)]


def test_only_the_grid_sweeps_make_a_pool(monkeypatch):
    # the separable histogram and the prime sweep run in the calling thread
    # at any worker count; the grid histogram (3 tiles) still spreads its
    # tiles over threads
    from visiblepoints.experiments import prime_sweep

    p, box = 1009, CountBox(1009, 700)
    fmod = reduce_mod(ELLIPTIC, p)
    assert counting._separable_plan(fmod, box.nx, box.ny) is not None
    grid = counting._grid_histogram(fmod, box, 1)
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RaisingPool)
    h = visible_histogram(ELLIPTIC, p, box, workers=2)
    assert (h.level_counts == grid.level_counts).all()
    assert (h.visible_counts == grid.visible_counts).all()
    with pytest.raises(AssertionError, match="a pool of 2 threads"):
        counting._grid_histogram(fmod, box, 2)
    # 8 tiles at 500^2, and 10 tiles of 1000 points at 100^2
    direct = count_visible_direct(LevelCurveSpec(ELLIPTIC, 1009, 0), CountBox(500, 500))
    assert count_visible_by_prime(ELLIPTIC, [1009], CountBox(500, 500)) == [direct]
    monkeypatch.setattr(counting, "BLOCK_POINTS", 1000)
    small = CountBox(100, 100)
    rec = prime_sweep(ELLIPTIC, 200, small)
    assert rec.per_prime == tuple(
        (q, count_visible_direct(LevelCurveSpec(ELLIPTIC, q, 0), small)) for q, _ in rec.per_prime)


def test_grid_histogram_pool_is_capped_by_the_cpus_and_the_tiles(monkeypatch):
    # a grid histogram in tiles of 50 points at 100000 workers never asks
    # for a pool of that many threads (and never starts one here: the
    # stand-in runs every share in this thread)
    f = parse_poly("V^2 + U*V - U^3 - 1")
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(counting, "HISTOGRAM_POINTS", 50)

    def counts(nx, ny, workers):
        h = counting._grid_histogram(reduce_mod(f, 101), CountBox(nx, ny), workers)
        assert (h.level_counts.tolist(), h.visible_counts.tolist()) == histogram_brute(
            f.terms, 101, nx, ny), (nx, ny, workers)

    counts(100, 100, 100000)  # 200 tiles
    counts(100, 100, 2)
    counts(1, 100, 100000)  # 2 tiles
    assert _RecordingPool.sizes == [3, 2, 2]
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 1)  # one CPU: no pool
    counts(100, 100, 100000)
    assert _RecordingPool.sizes == [3, 2, 2]


class _TileFailure(Exception):
    """The error of one tile of a grid histogram."""


def test_an_error_in_a_tile_leaves_the_histogram_and_its_threads(monkeypatch):
    # tile 21 fails, in the calling thread (one worker) and in the second
    # share of a pool of two: the error keeps its type and no thread
    # outlives it
    f = parse_poly("V^2 + U*V - U^3 - 1")
    monkeypatch.setattr(counting, "HISTOGRAM_POINTS", 256)  # 51 tiles of 2 rows
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 2)
    mask = counting._coprime_mask

    def failing_mask(xs, ys, primes):
        if xs[0] == 43:  # tile 21
            raise _TileFailure
        return mask(xs, ys, primes)

    monkeypatch.setattr(counting, "_coprime_mask", failing_mask)
    before = threading.active_count()
    for workers in (1, 2):
        with pytest.raises(_TileFailure):
            visible_histogram(f, 101, CountBox(101, 101), workers)
        assert threading.active_count() == before, workers


def test_grid_histogram_takes_a_thread_per_cpu_while_2p_bins_fit_a_tile(monkeypatch):
    # by default the grid takes min(CPUs, tiles) threads while 2p <=
    # HISTOGRAM_POINTS and makes no pool above that; an explicit count keeps
    # its meaning on either side
    f = parse_poly("V^2 + U*V - U^3 - 1")
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RecordingPool)

    brute = {}

    def sizes(p, X, Y, workers=None):
        _RecordingPool.sizes.clear()
        h = visible_histogram(f, p, CountBox(X, Y), workers)
        if (p, X, Y) not in brute:
            brute[p, X, Y] = histogram_brute(f.terms, p, X, Y)
        assert (h.level_counts.tolist(), h.visible_counts.tolist()) == brute[p, X, Y]
        return _RecordingPool.sizes

    monkeypatch.setattr(counting, "HISTOGRAM_POINTS", 2 * 127)
    assert counting._separable_plan(reduce_mod(f, 131), 131, 131) is None
    for cpus in (1, 2, 3, 8):
        monkeypatch.setattr(counting, "_usable_cpus", lambda: cpus)
        pool = [] if cpus == 1 else [cpus]
        assert sizes(101, 101, 101) == pool  # 51 tiles of 2 rows
        assert sizes(127, 127, 3) == [min(cpus, 2)] * (cpus > 1)  # 2 tiles
        assert sizes(131, 131, 131) == []  # 131 tiles, but 2p bins > a tile
        assert sizes(101, 101, 101, workers=1) == []
        assert sizes(131, 131, 131, workers=2) == [2] * (cpus > 1)
    # the bound itself, 2^17, at the default tile of 2^18 points
    monkeypatch.setattr(counting, "HISTOGRAM_POINTS", HISTOGRAM_POINTS)
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 4)
    for p, pool in ((131071, [2]), (131101, [])):  # 2^17 - 1 and the next prime
        _RecordingPool.sizes.clear()
        h = visible_histogram(f, p, CountBox(p, 3))  # 2 tiles
        assert _RecordingPool.sizes == pool, p
        assert h.level_counts.sum() == 3 * p


#: the largest prime below 2^63
PRIME_BELOW_2_63 = 2**63 - 25


@pytest.mark.parametrize("p", [2, 3, 997, 2**31 - 1, 2**61 - 1, PRIME_BELOW_2_63])
@pytest.mark.parametrize("which", ["0", "1", "p-1"])
def test_congruence_test_matches_python_mod(p, which):
    # every int64 value is r + k * p for one k; the values at and near both
    # ends of int64, within p of them, at the first and last k, and around 0
    r = {"0": 0, "1": 1, "p-1": p - 1}[which]
    lo, hi = -(2**63), 2**63 - 1
    k_min, k_max = -((2**63 + r) // p), (2**63 - 1 - r) // p
    near = {0, 1, 2, r, r + 1, p - 1, p, p + 1, p - r, 2 * p}
    values = {0, r, r - p, r + p, -r, 1, -1}
    values |= {lo + d for d in near} | {hi - d for d in near}
    values |= {r + k * p + d for k in (k_min, k_min + 1, k_max - 1, k_max) for d in (-1, 0, 1)}
    rng = random.Random(p + r)
    values |= {rng.randint(lo, hi) for _ in range(200)}
    values |= {r + rng.randint(k_min, k_max) * p for _ in range(200)}
    values = sorted(v for v in values if lo <= v <= hi)
    arr = np.array(values, dtype=np.int64).view(np.uint64)
    got = counting._congruent(arr, counting._congruence_test(p, r), np.empty_like(arr))
    assert got.tolist() == [v % p == r for v in values]


def test_usable_cpus_are_the_affinity_set_where_there_is_one(monkeypatch):
    # a process pinned to 2 of the host's 64 CPUs gets at most 2 threads
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert counting._usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")  # no affinity call: every CPU
    assert counting._usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one
    assert counting._usable_cpus() == 1


def _separable_route(f, p, box, fft="rule"):
    """The separable route's histogram whatever the grid would cost: every
    d convolved by FFT ("all"), none of them ("none"), those with more than
    an eighth of the box's points ("large"), or as the rule picks ("rule")."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_HIST_S", 1e9)
        if fft in ("all", "large"):
            mp.setattr(counting, "_PIECE_S", 0.0)
            L = counting._fft_length(p)
            per_row = counting._DIFF_S * box.nx * box.ny / 8 if fft == "large" else 0.0
            mp.setattr(counting, "_FFT_S", per_row / (L * (L.bit_length() - 1)))
        elif fft == "none":
            mp.setattr(counting, "_FFT_S", 1e9)
        fmod = reduce_mod(f, p)
        plan = counting._separable_plan(fmod, box.nx, box.ny)
    ffts, runs = plan
    kinds = {kind for kind, work in (("fft", ffts), ("diff", runs)) if work}
    assert kinds == {"all": {"fft"}, "none": {"diff"}}.get(fft, kinds), (fft, kinds)
    return counting._separable_histogram(fmod, box, plan)


#: separable f: negative coefficients, one variable, V-exponents >= p, and
#: a cross term 35*U*V^2 that vanishes modulo 5 and 7 only
SEPARABLE = tuple(parse_poly(t) for t in (
    "V^2 - U^3 - U - 1", "-3*V^3 + 2*V - U^4 - 5", "V^5 - U^2 + 3", "V^2", "-U^3 + 2*U",
    "V^12 - 2*U^9 + U", "35*U*V^2 + V^3 - 2*U^2"))


def test_separable_route_matches_the_oracle():
    rng = random.Random(7)
    for p in (2, 3, 5, 7, 101):
        boxes = [(p, p), (1, p), (p, 1), (rng.randint(1, p), rng.randint(1, p) + 0.5)]
        for f in SEPARABLE:
            if any(i and j for i, j in reduce_mod(f, p).terms):
                continue  # the cross term survives modulo p
            for X, Y in boxes:
                Y = min(Y, p)
                level, visible = histogram_brute(f.terms, p, X, Y)
                for fft in ("all", "none", "large"):
                    h = _separable_route(f, p, CountBox(X, Y), fft)
                    assert h.level_counts.tolist() == level, (f, p, X, Y, fft)
                    assert h.visible_counts.tolist() == visible, (f, p, X, Y, fft)


def _random_separable(rng, p):
    terms = {(rng.randint(1, 6), 0): rng.randint(-p, p), (0, 0): rng.randint(-p, p),
             (0, rng.randint(1, 3)): rng.randint(-p, p)}
    terms[(0, rng.randint(1, 2 * p))] = rng.randint(1, p - 1)  # nonconstant mod p
    return IntBivariatePoly(terms)


@pytest.mark.parametrize("block", [HISTOGRAM_POINTS, 64])
def test_separable_route_equals_the_grid(monkeypatch, block):
    monkeypatch.setattr(counting, "HISTOGRAM_POINTS", block)
    if block < HISTOGRAM_POINTS:  # separable batches of 16 values
        monkeypatch.setattr(counting, "BLOCK_POINTS", block // 4)
    rng = random.Random(16)
    plans = {HISTOGRAM_POINTS: ((101, "all"), (1009, "large"), (4003, "rule"), (4003, "none")),
             64: ((31, "all"), (101, "large"), (101, "none"))}[block]
    cases = []
    for p, fft in plans:
        f = _random_separable(rng, p)
        X = rng.randint(p // 2, p)
        cases.append((p, fft, f, CountBox(X, rng.randint(p // 4, X - 1))))
    # one row, one column and nx < ny, where the two axis tables differ most
    p, wide = {HISTOGRAM_POINTS: (4003, (37, 2000)), 64: (101, (7, 90))}[block]
    for box in (CountBox(1, p), CountBox(p, 1), CountBox(*wide)):
        cases += [(p, fft, _random_separable(rng, p), box) for fft in ("all", "large", "none")]
    for p, fft, f, box in cases:
        grid = counting._grid_histogram(reduce_mod(f, p), box)
        h = _separable_route(f, p, box, fft)
        assert (h.level_counts == grid.level_counts).all(), (f, p, box, fft)
        assert (h.visible_counts == grid.visible_counts).all(), (f, p, box, fft)


def test_histogram_rule_picks_the_cheaper_route():
    plan = counting._separable_plan
    e = reduce_mod(ELLIPTIC, 4003)
    assert plan(e, 4003, 4003) is not None  # the levels workload
    # separability is read on the reduction: 4003*U*V vanishes mod 4003
    assert plan(reduce_mod(parse_poly("4003*U*V + V^2 - U^3"), 4003), 4003, 4003) is not None
    assert plan(reduce_mod(parse_poly("U*V + V^2 - U^3"), 4003), 4003, 4003) is None
    # tiny boxes at a large p: a grid tile's one bincount of 2p bins beats
    # the separable route's 6p bins (exp-a -p 100000007 -X 3 -Y 3, not run)
    assert plan(reduce_mod(ELLIPTIC, 100000007), 3, 3) is None
    for nx in (4096, 8192, 40960):  # the boxes of the tile-count memory test
        assert plan(reduce_mod(ELLIPTIC, 200003), nx, 64) is None


def test_fft_error_bound():
    # ||x|| ||y|| of E's histograms at p = 4003, d = 1, on the full box
    L = counting._fft_length(4003)
    assert L == 8192 and counting._fft_length(2) == 4
    g = np.bincount(reduce_mod(ELLIPTIC, 4003).evaluate(np.arange(1, 4004), 0), minlength=4003)
    ys = np.arange(1, 4004)
    h = np.bincount(ys * ys % 4003, minlength=4003)
    assert 1e-10 < counting._fft_error_bound(int(g @ g) * int(h @ h), L) < 1e-9
    # it rejects the FFT near ||x|| ||y|| = 6.7e12 at this length, and for
    # V^2 on the full box at p = 2^31 - 1, whose U-histogram is p * [0]
    assert counting._fft_error_bound(6 * 10**12 * 6 * 10**12, L) < 0.5
    assert counting._fft_error_bound(7 * 10**12 * 7 * 10**12, L) > 0.5
    p = 2**31 - 1
    assert counting._fft_error_bound(p * p * (2 * p), counting._fft_length(p)) > 0.5


def _bincounts_of(monkeypatch, bins):
    """The list that collects one entry per np.bincount call over ``bins``
    bins from here on."""
    calls, bincount = [], np.bincount

    def counted(x, weights=None, minlength=0):
        if minlength == bins:
            calls.append(len(x))
        return bincount(x, weights, minlength)

    monkeypatch.setattr(np, "bincount", counted)
    return calls


def test_separable_route_counts_a_d_by_differences_when_a_check_fails(monkeypatch):
    p, box = 101, CountBox(101, 77)
    level, visible = histogram_brute(ELLIPTIC.terms, p, box.X, box.Y)
    # the a-priori bound rejects every d; the 48 rejected d stream their
    # differences through one buffer, which one bincount of 6p bins takes
    with monkeypatch.context() as mp:
        mp.setattr(counting, "_fft_error_bound", lambda norms2, L: 1.0)
        calls = _bincounts_of(mp, 6 * p)
        h = _separable_route(ELLIPTIC, p, box, "all")
    assert h.level_counts.tolist() == level and h.visible_counts.tolist() == visible
    assert len(calls) == 1
    # the sums after rounding are off by one for every d
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) + (np.arange(n) == 0))
    calls = _bincounts_of(monkeypatch, 6 * p)
    h = _separable_route(ELLIPTIC, p, box, "all")
    assert h.level_counts.tolist() == level and h.visible_counts.tolist() == visible
    assert len(calls) == 1


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _histogram_peak(p):
    return _peak(lambda: visible_histogram(ELLIPTIC, p, CountBox(p, p), workers=1))


def test_separable_histogram_keeps_one_small_batch_live(monkeypatch):
    # the levels workload: E on the full box at p = 4003 by the separable
    # route, one batch of at most BLOCK_POINTS values per array at a time,
    # whatever the worker count, and 36 bincounts of 6p bins in all
    p, box = 4003, CountBox(4003, 4003)
    assert counting._separable_plan(reduce_mod(ELLIPTIC, p), p, p) is not None
    visible_histogram(ELLIPTIC, p, box, workers=2)  # lazy imports first
    peak = _peak(lambda: visible_histogram(ELLIPTIC, p, box, workers=2))
    assert peak <= 1.25 * 2**20, peak
    calls = _bincounts_of(monkeypatch, 6 * p)
    visible_histogram(ELLIPTIC, p, box, workers=2)
    assert len(calls) == 36


def test_histogram_memory_does_not_grow_with_the_box():
    # the full box has 4x the points at p = 2003; the block bound is fixed
    small, large = _histogram_peak(1009), _histogram_peak(2003)
    assert large < 1.5 * small, (small, large)


def test_grid_routes_are_exact_above_the_int64_prime():
    # p^2 > 2^63: int64 residue products would wrap and miss the one point
    # (1, 150000) on U - V^2 = 1 - 150000^2; every route finds it, the grid
    # ones on Python ints
    p = 10**10 + 19
    f = parse_poly("U - V^2")
    spec = LevelCurveSpec(f, p, 1 - 150000**2)
    box = CountBox(1, 200000)
    assert count_level_points(spec, box, "grid") == 1
    assert count_visible_direct(spec, box) == count_visible_mobius(spec, box) == 1
    assert count_level_points(spec, box) == 1
    assert count_level_points(spec, box, "rows") == 1
    assert count_level_brute(f.terms, p, spec.a, 1, 200000) == 1


#: primes on both sides of MAX_GRID_PRIME = 3037000499 and above 2^32
LARGE_PRIMES = (2**31 - 1, 3037000507, 10**10 + 19, 2**61 - 1)


def test_counts_match_the_oracles_at_large_primes():
    # random coefficients below p make every Horner step wrap; the levels
    # are values f takes in the box, so the counts are not all zero
    rng = random.Random(23)
    box = CountBox(12, 9.5)
    for p in LARGE_PRIMES:
        for _ in range(3):
            terms = {(rng.randint(0, 4), rng.randint(0, 3)): rng.randrange(-p, p)
                     for _ in range(4)}
            terms[(1, 1)] = 1
            f = IntBivariatePoly(terms)
            for a in {0, *(eval_mod(f.terms, rng.randint(1, 12), rng.randint(1, 9), p)
                           for _ in range(2))}:
                spec = LevelCurveSpec(f, p, a)
                want = count_visible_brute(f.terms, p, a, box.X, box.Y)
                assert count_level_points(spec, box, "grid") == count_level_brute(
                    f.terms, p, a, box.X, box.Y), (p, f, a)
                assert count_visible_direct(spec, box) == want, (p, f, a)
                assert count_visible_mobius(spec, box) == want, (p, f, a)
                assert count_divisible(spec, box, 2) == count_divisible_brute(
                    f.terms, p, a, box.X, box.Y, 2), (p, f, a)


#: a box wider than one tile: each row is cut into two histogram tiles and
#: into nine count tiles
WIDE_NY = HISTOGRAM_POINTS + 4321
WIDE_PRIMES = (266477, 266479)


def _wide_reference(nx, p):
    """Level and visible histograms of E on [1, nx] x [1, WIDE_NY] mod p, by
    plain int64 arithmetic and np.gcd (every value is below 2^37)."""
    ys = np.arange(1, WIDE_NY + 1, dtype=np.int64)
    level, visible = np.zeros(p, dtype=np.int64), np.zeros(p, dtype=np.int64)
    for x in range(1, nx + 1):
        vals = (ys * ys - x**3 - x - 1) % p
        level += np.bincount(vals, minlength=p)
        visible += np.bincount(vals[np.gcd(x, ys) == 1], minlength=p)
    return level, visible


def test_sweeps_of_boxes_wider_than_a_tile():
    nx, p = 3, WIDE_PRIMES[0]
    box = CountBox(nx, WIDE_NY)
    level, visible = _wide_reference(nx, p)
    for workers in (1, 2, 3):
        h = visible_histogram(ELLIPTIC, p, box, workers=workers)
        assert (h.level_counts == level).all() and (h.visible_counts == visible).all()
    levels = [0, 1, int(np.argmax(visible)), p - 1]
    for a in levels:
        spec = LevelCurveSpec(ELLIPTIC, p, a)
        assert count_level_points(spec, box, "grid") == level[a]
        assert count_visible_direct(spec, box) == count_visible_mobius(spec, box) == visible[a]
    second = _wide_reference(nx, WIDE_PRIMES[1])[1]
    for a in levels:
        got = count_visible_by_prime(ELLIPTIC, list(WIDE_PRIMES), box, a)
        assert got == [visible[a], second[a % WIDE_PRIMES[1]]]


def test_grid_gcd_filter_on_tiles_that_start_inside_a_row(monkeypatch):
    # the grid's gcd filter folds the flat hit indices of a tile by its
    # width; here every tile but the first of a row starts inside it
    monkeypatch.setattr(counting, "_prefers_rows", FORCED["grid"])
    nx, p = 3, WIDE_PRIMES[0]
    box = CountBox(nx, WIDE_NY)
    assert WIDE_NY > 8 * BLOCK_POINTS
    _, visible = _wide_reference(nx, p)
    for a in (0, 1, int(np.argmax(visible)), p - 1):
        assert count_visible_direct(LevelCurveSpec(ELLIPTIC, p, a), box) == visible[a], a


def test_coprime_mask_on_tiles_that_start_inside_a_row():
    primes = _sieve_primes(WIDE_NY)
    for lo, hi, y0, y1 in ((1, 3, HISTOGRAM_POINTS + 1, WIDE_NY), (1, 1, 2, 50),
                           (30030, 30030, 30030, 30100), (2, 9, 30029, 31000),
                           (600, 610, 97, 700)):
        xs = np.arange(lo, hi + 1, dtype=np.int64)
        ys = np.arange(y0, y1 + 1, dtype=np.int64)
        mask = _coprime_mask(xs, ys, primes)
        assert (mask == (np.gcd.outer(xs, ys) == 1)).all(), (lo, hi, y0, y1)


def test_histogram_memory_does_not_grow_with_the_tile_count():
    # 4096 x 64 is one tile, 8192 x 64 two and 40960 x 64 ten; each tile's
    # bincount holds 2p int64, so keeping them all would take 5x the memory
    # of two.  From the second tile on the running sum, one more bincount,
    # is held too, so ten tiles may exceed one by that bincount and no more
    p = 200003
    one, two, ten = (_peak(lambda: visible_histogram(ELLIPTIC, p, CountBox(nx, 64)))
                     for nx in (4096, 8192, 40960))
    assert ten < 1.5 * two, (two, ten)
    assert ten < one + 1.5 * (2 * p * 8), (one, ten)


def test_grid_memory_does_not_grow_with_the_row_length():
    # a row of 2^20 points is 32 tiles of BLOCK_POINTS, not one block of 2^20
    spec = LevelCurveSpec(ELLIPTIC, 1048583, 5)
    short, long = (_peak(lambda: count_level_points(spec, CountBox(2, ny), "grid"))
                   for ny in (2**18, 2**20))
    assert long < 1.5 * short, (short, long)


def test_count_walks_keep_a_small_working_set():
    # tracemalloc peaks on the benchmark's inputs: the prime sweep, the rows
    # of the full box, and the direct, Moebius and grid counts at 2000^2;
    # each walk holds a few arrays of one tile, whatever the box
    spec, box = LevelCurveSpec(ELLIPTIC, 10007, 6311), CountBox(2000, 2000)
    calls = {
        "by prime": lambda: count_visible_by_prime(
            ELLIPTIC, primes_brute(500, 1000), CountBox(500, 500)),
        "rows": lambda: count_level_points(spec, CountBox(10007, 10007), "rows"),
        "direct": lambda: count_visible_direct(spec, box),
        "mobius": lambda: count_visible_mobius(spec, box),
        "grid": lambda: count_level_points(spec, box, "grid"),
    }
    peaks = {}
    for name, call in calls.items():
        call()  # lazy imports and caches first
        peaks[name] = _peak(call)
    assert max(peaks.values()) <= 2**20, peaks


def test_box_validation():
    with pytest.raises(ValueError):
        CountBox(0.5, 3)
    with pytest.raises(ValueError):
        count_visible_direct(LevelCurveSpec(UV, 5, 1), CountBox(6, 5))
    with pytest.raises(ValueError):
        count_divisible(LevelCurveSpec(UV, 5, 1), CountBox(5, 5), 0)


def test_non_finite_box_sides_are_refused():
    for X, Y, side in ((math.inf, 3, "X"), (3, math.nan, "Y"), (-math.inf, 1, "X")):
        with pytest.raises(NonFiniteParameter, match=f"{side} = "):
            CountBox(X, Y)
    assert CountBox(1, 10**400).ny == 10**400  # a huge int is finite


def test_spec_construction_contracts():
    with pytest.raises(ValueError):
        LevelCurveSpec(UV, 6, 1)
    with pytest.raises(DegenerateReduction):
        LevelCurveSpec(parse_poly("7*U + 7*V"), 7, 0)
    spec = LevelCurveSpec(UV, 5, 12)
    assert spec.a == 2  # reduced at construction
    assert spec.in_theorem_scope
    assert not LevelCurveSpec(parse_poly("5*U^2 + U + V"), 5, 0).in_theorem_scope
    for name in ("a", "p", "fmod", "other"):
        with pytest.raises(AttributeError, match="^LevelCurveSpec is immutable$"):
            setattr(spec, name, 1)
    assert spec.a == 2
    assert repr(spec) == "LevelCurveSpec(f='U*V', p=5, a=2)"


def _spec(p, a):
    spec = LevelCurveSpec(ELLIPTIC, p, a)
    return type(spec.p), type(spec.a), repr(spec)


#: (name, call of one integer argument, an int to give it): the moduli,
#: levels, divisors and worker counts of the API
INTEGER_ARGUMENTS = (
    ("is_prime", is_prime, 101),
    ("bad_level_values p", lambda p: sorted(bad_level_values(ELLIPTIC, p)), 7),
    ("reduce_mod p", lambda p: (type(reduce_mod(ELLIPTIC, p).p), reduce_mod(ELLIPTIC, p)), 13),
    ("LevelCurveSpec p", lambda p: _spec(p, 2), 101),
    ("LevelCurveSpec a", lambda a: _spec(101, a), 2),
    ("count_divisible d",
     lambda d: count_divisible(LevelCurveSpec(ELLIPTIC, 101, 2), CountBox(50, 50), d), 2),
    ("count_visible_by_prime p",
     lambda p: count_visible_by_prime(ELLIPTIC, [p, 103], CountBox(50, 50), a=2), 101),
    ("count_visible_by_prime a",
     lambda a: count_visible_by_prime(ELLIPTIC, [101, 103], CountBox(50, 50), a=a), 2),
    ("visible_histogram workers",
     lambda w: visible_histogram(ELLIPTIC, 101, CountBox(50, 50), w).visible_counts.tolist(), 2),
    ("level_sweep p", lambda p: records_to_json([level_sweep(ELLIPTIC, p, CountBox(50, 50))]), 101),
)


@pytest.mark.parametrize("call, n", [row[1:] for row in INTEGER_ARGUMENTS],
                         ids=[row[0] for row in INTEGER_ARGUMENTS])
def test_integer_arguments_refuse_floats_and_take_numpy_integers(call, n):
    with pytest.raises(TypeError):
        call(n + 0.5)
    with pytest.raises(TypeError):
        call(float(n))
    assert call(np.int64(n)) == call(n)


def test_real_valued_boxes_floor():
    spec = LevelCurveSpec(UV, 11, 1)
    assert count_level_points(spec, CountBox(7.9, 10.2)) == count_level_brute(
        UV.terms, 11, 1, 7, 10
    )
    assert count_visible_mobius(spec, CountBox(7.9, 10.2)) == count_visible_brute(
        UV.terms, 11, 1, 7, 10
    )
