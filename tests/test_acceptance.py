"""Acceptance suite: every numbered criterion as one test, each printing a
PASS or FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values tagged as derived were computed by the independent
brute-force oracles in ``oracles.py`` before being frozen here.

Criterion 8 and saturation.  The fraction of levels whose visible count
lies within delta*m of the expected count m is a share of levels, so it is
capped at 1.  For the cubic fixture on the full box the largest relative
deviation max_a |N_a - m|/m measures 0.270 at p = 101 and 0.110 at
p = 1009, so every delta >= 0.27 is already saturated at p = 101 and no
strict rise with p can show there.  The criterion therefore asserts a
strict rise only at the deltas where p = 101 leaves room (below 1), asks
for exactly 1 at p = 1009 where p = 101 is saturated, and checks the
stated threshold delta = 0.5 through the Markov bound that the averaged
discrepancy sum supports.
"""

import io
import json
import math
import random
from contextlib import contextmanager, redirect_stdout

import pytest

from visiblepoints.cli import main as cli_main
from visiblepoints.counting import (
    CountBox,
    LevelCurveSpec,
    count_divisible,
    count_level_points,
    count_visible_direct,
    count_visible_mobius,
    expected_visible,
)
from visiblepoints.errors import DegenerateReduction
from visiblepoints.experiments import (
    concentration_profiles,
    count_deviation,
    integer_zero_set,
    level_sweep,
    prime_sweep,
)
from visiblepoints.factor import bad_level_values, is_absolutely_irreducible
from visiblepoints.poly import IntBivariatePoly, parse_poly, reduce_mod

from oracles import (
    count_divisible_brute,
    count_level_brute,
    count_visible_brute,
    primes_brute,
)

UV = parse_poly("U*V")
ELLIPTIC = parse_poly("V^2 - U^3 - U - 1")
PRIME_GRID = (101, 211, 401, 809, 1009)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


def test_1_mobius_direct_equivalence():
    with criterion(1, "Moebius/direct equivalence on 200 random instances"):
        rng = random.Random(20240601)
        primes = primes_brute(5, 97)
        checked = 0
        while checked < 200:
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
            try:
                spec = LevelCurveSpec(IntBivariatePoly(terms), p, rng.randrange(p))
            except DegenerateReduction:
                continue
            X, Y = rng.randint(1, p), rng.randint(1, p)
            if rng.random() < 0.2 and X < p:
                X += 0.5
            box = CountBox(X, Y)
            assert count_visible_mobius(spec, box) == count_visible_direct(spec, box)
            checked += 1
        # the fixtures as well
        for f, p, a in ((UV, 5, 1), (ELLIPTIC, 101, 0), (parse_poly("V - U^2"), 7, 0)):
            spec = LevelCurveSpec(f, p, a)
            box = CountBox(p, p)
            assert count_visible_mobius(spec, box) == count_visible_direct(spec, box)


def test_2_running_fixture():
    with criterion(2, "running fixture U*V, p=5, a=1, 5x5 box"):
        spec = LevelCurveSpec(UV, 5, 1)
        box = CountBox(5, 5)
        # oracle first: brute-force values over the 25-point grid
        assert count_level_brute(UV.terms, 5, 1, 5, 5) == 4
        m_oracle = [count_divisible_brute(UV.terms, 5, 1, 5, 5, d) for d in (2, 3, 4, 5)]
        assert m_oracle == [1, 0, 1, 0]  # M(4) = 1: the point (4,4) has gcd 4
        assert count_level_points(spec, box) == 4
        assert count_divisible(spec, box, 2) == 1
        assert count_divisible(spec, box, 3) == 0
        assert count_divisible(spec, box, 4) == 1
        assert count_divisible(spec, box, 5) == 0
        assert count_visible_direct(spec, box) == 3
        assert count_visible_mobius(spec, box) == 3


def test_3_irreducibility_suite():
    with criterion(3, "irreducibility suite (bad sets, classification, graphs)"):
        # (a) hyperbola: the bad level set is {0}, independent of p
        for p in (5, 7, 11, 101, 1009):
            assert bad_level_values(UV, p) == {0}, p
        # (b) sum of squares: never absolutely irreducible; irreducible over
        # the base field exactly when p = 3 mod 4
        for p in primes_brute(3, 99):
            verdict = is_absolutely_irreducible(reduce_mod(parse_poly("U^2 + V^2"), p))
            assert not verdict.absolutely_irreducible, p
            assert verdict.irreducible_over_base == (p % 4 == 3), p
        # (c) graphs V - g(U) are absolutely irreducible
        rng = random.Random(99)
        for _ in range(20):
            coeffs = {(i, 0): rng.randint(-9, 9) for i in range(rng.randint(1, 5) + 1)}
            coeffs[(0, 1)] = 1
            f = IntBivariatePoly(coeffs)
            for p in primes_brute(5, 31):
                verdict = is_absolutely_irreducible(reduce_mod(f, p))
                assert verdict.absolutely_irreducible, (f.text(), p)


def test_4_point_count_deviation():
    with criterion(4, "square-root-scale deviation of raw counts (a=1)"):
        for p in PRIME_GRID:
            spec = LevelCurveSpec(ELLIPTIC, p, 1)
            shifted = spec.fmod.subtract_const(1)
            assert is_absolutely_irreducible(shifted).absolutely_irreducible, p
            dev = count_deviation(spec, CountBox(p, p))
            assert dev.main_term == float(p)
            assert dev.abs_dev <= 5 * math.sqrt(p), (p, dev.abs_dev)
            assert dev.normalized < 1, (p, dev.normalized)


def test_5_level_average_trend_and_bitwise_recount():
    with criterion(5, "level-averaged discrepancy trend and exact recount"):
        ratios = []
        records = {}
        for p in PRIME_GRID:
            rec = level_sweep(ELLIPTIC, p, CountBox(p, p))
            records[p] = rec
            ratios.append(rec.sum_abs_dev / (p**1.75 * math.log(p)))
        assert max(ratios) / min(ratios) <= 10, ratios
        # independent per-level double-loop recount at p = 101, no histogram
        p = 101
        box = CountBox(p, p)
        main = expected_visible(box, p)
        devs = []
        for a in range(p):
            n_a = 0
            for x in range(1, p + 1):
                t = (x * x * x + x + 1) % p
                for y in range(1, p + 1):
                    if (y * y - t) % p == a and math.gcd(x, y) == 1:
                        n_a += 1
            devs.append(abs(n_a - main))
        assert math.fsum(devs) == records[101].sum_abs_dev  # bit-for-bit


def test_6_prime_average_harness():
    with criterion(6, "prime-averaged discrepancy harness, T=200, 100x100"):
        box = CountBox(100, 100)
        rec1 = prime_sweep(ELLIPTIC, 200, box)
        assert rec1.skipped_primes == ()
        assert [p for p, _ in rec1.per_prime] == primes_brute(100, 200)
        for p, n in rec1.per_prime:
            assert n == count_visible_brute(ELLIPTIC.terms, p, 0, 100, 100), p
        assert math.isfinite(rec1.ratio) and rec1.ratio > 0
        outs = []
        for w in ("1", "2", "8"):
            with redirect_stdout(io.StringIO()) as out:
                assert cli_main(["exp-p", "-f", "V^2 - U^3 - U - 1", "-T", "200", "-X", "100",
                                 "-Y", "100", "--format", "json", "--workers", w]) == 0
            outs.append(out.getvalue())
        assert outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0])["records"][0]["sum_abs_dev"] == rec1.sum_abs_dev


def test_7_integer_zero_set():
    with criterion(7, "integer zero sets with the degree-scaled size bound"):
        z = integer_zero_set(parse_poly("V^2 - U^3"), CountBox(100, 1000))
        assert z.points == tuple((t * t, t**3) for t in range(1, 11))
        fixtures = [
            (parse_poly("V^2 - U^3"), CountBox(100, 1000)),
            (UV, CountBox(60, 60)),
            (parse_poly("V - U^2"), CountBox(5, 25)),
            (ELLIPTIC, CountBox(80, 80)),
        ]
        for f, box in fixtures:
            report = integer_zero_set(f, box)
            assert len(report.points) <= min(box.nx, box.ny) * f.degree
            for u, v in report.points:
                assert f.evaluate(u, v) == 0


CONCENTRATION_DELTAS = (0.1, 0.25, 0.5, 0.75)


def test_8_concentration_profile():
    with criterion(8, "concentration: monotone in delta, improving with p"):
        fr = {}
        markov = {}
        for p in (101, 1009):
            box = CountBox(p, p)
            fracs = [pr.fraction_within
                     for pr in concentration_profiles(ELLIPTIC, p, box, CONCENTRATION_DELTAS)]
            assert fracs == sorted(fracs), (p, fracs)  # exact monotonicity
            fr[p] = fracs
            # Markov: at most sum_a |N_a - m| / (delta*m) levels lie farther
            # than delta*m from m, so 1 - fraction_within(delta) is bounded
            # by that sum over p*delta*m; checked at the stated delta = 0.5.
            delta = CONCENTRATION_DELTAS[2]
            main = expected_visible(box, p)
            markov[p] = level_sweep(ELLIPTIC, p, box).sum_abs_dev / (p * delta * main)
            assert 1 - fracs[2] <= markov[p], (
                f"p={p}: share outside delta={delta} is {1 - fracs[2]!r}, above "
                f"the Markov bound {markov[p]!r}"
            )
        # independent per-level recount at p = 101, one oracle call per level
        p = 101
        main = expected_visible(CountBox(p, p), p)
        counts = [count_visible_brute(ELLIPTIC.terms, p, a, p, p) for a in range(p)]
        brute = [
            sum(1 for n in counts if abs(n - main) <= d * main) / p
            for d in CONCENTRATION_DELTAS
        ]
        profiles = (
            f"deltas {CONCENTRATION_DELTAS}: p=101 {fr[101]!r}, p=1009 {fr[1009]!r}"
        )
        assert brute == fr[101], f"oracle recount {brute!r} != library; {profiles}"
        assert fr[101][0] < 1, f"p=101 saturated even at delta=0.1; {profiles}"
        for d, small, large in zip(CONCENTRATION_DELTAS, fr[101], fr[1009]):
            if small < 1:
                assert large > small, (
                    f"fraction within delta={d} must strictly improve from "
                    f"p=101 to p=1009; {profiles}"
                )
            else:
                assert large == 1, (
                    f"fraction within delta={d} is saturated at p=101 and "
                    f"must stay 1 at p=1009; {profiles}"
                )
        assert markov[1009] < markov[101], (
            f"Markov bound at delta=0.5 must fall with p: p=101 {markov[101]!r}, "
            f"p=1009 {markov[1009]!r}; {profiles}"
        )


def test_9_cli_determinism(tmp_path):
    with criterion(9, "CLI emits byte-identical CSV bodies"):
        args = ["exp-a", "-f", "V^2-U^3-U-1", "-p", "101", "-X", "101", "-Y", "101",
                "--format", "csv"]
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        assert cli_main(args + ["--out", str(paths[0])]) == 0
        assert cli_main(args + ["--out", str(paths[1])]) == 0
        assert cli_main(args + ["--out", str(paths[2]), "--workers", "4"]) == 0
        bodies = []
        for path in paths:
            with open(path) as fh:
                bodies.append([ln for ln in fh.read().splitlines() if not ln.startswith("#")])
        assert bodies[0] == bodies[1] == bodies[2]
