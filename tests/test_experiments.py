import concurrent.futures
import json
import math
import random

import pytest

from visiblepoints import counting, experiments, factor
from visiblepoints.arith import primes_in_range
from visiblepoints.cli import main
from visiblepoints.counting import (
    COPRIME_DENSITY,
    CountBox,
    LevelCurveSpec,
    count_visible_by_prime,
    count_visible_direct,
    expected_visible,
)
from visiblepoints.errors import (
    BoxTooLarge,
    GridOverflow,
    HypothesisViolated,
    NonFiniteParameter,
)
from visiblepoints.experiments import (
    concentration_profiles,
    count_deviation,
    integer_zero_set,
    level_sweep,
    prime_sweep,
)
from visiblepoints.poly import IntBivariatePoly, _fits_int64, parse_poly

from oracles import count_visible_brute, primes_brute


def _fits(f, box):
    """B = sum |c_ij| X^i Y^j < 2^63 on the floored box."""
    return _fits_int64(f.terms, box.nx, box.ny)


UV = parse_poly("U*V")
PARABOLA = parse_poly("V - U^2")
ELLIPTIC = parse_poly("V^2 - U^3 - U - 1")
CUBIC_GRAPH = parse_poly("V - U^3")
FERMAT_CUBIC = parse_poly("V^3 - U^3 - 1")
#: B = 10^19 + ... >= 2^63 on the box 10 x 10: counted modulo each prime
HIGH_DEGREE = parse_poly("U^19 + V^2 - 4*U^3 - 1")


def test_level_sweep_refuses_bad_hypotheses():
    with pytest.raises(HypothesisViolated):
        level_sweep(UV, 5, CountBox(5, 5))
    with pytest.raises(HypothesisViolated):
        level_sweep(parse_poly("U^2 + V^2"), 7, CountBox(7, 7))
    # degree drops to 1 mod 5: outside scope
    with pytest.raises(HypothesisViolated):
        level_sweep(parse_poly("5*V^2 + V - U"), 5, CountBox(5, 5))


def test_level_sweep_small_exact_case():
    box = CountBox(7, 7)
    rec = level_sweep(PARABOLA, 7, box)
    main = expected_visible(box, 7)
    devs = [
        abs(count_visible_brute(PARABOLA.terms, 7, a, 7, 7) - main) for a in range(7)
    ]
    assert rec.sum_abs_dev == math.fsum(devs)
    assert rec.bound_value == math.sqrt(7) * math.sqrt(7) * 7**0.75 * math.log(7)
    assert rec.ratio == rec.sum_abs_dev / rec.bound_value
    assert rec.kind == "levels" and rec.p == 7 and rec.a is None


def test_level_sweep_matches_brute_force_mid_size():
    p = 31
    box = CountBox(31, 31)
    rec = level_sweep(ELLIPTIC, p, box)
    main = expected_visible(box, p)
    devs = [
        abs(count_visible_brute(ELLIPTIC.terms, p, a, p, p) - main) for a in range(p)
    ]
    assert rec.sum_abs_dev == math.fsum(devs)


def test_level_sweep_nontrivial_annotation():
    rec = level_sweep(ELLIPTIC, 13, CountBox(13, 13))
    assert rec.box_nontrivial == (13 * 13 >= 13**1.5)
    rec2 = level_sweep(ELLIPTIC, 13, CountBox(3, 13))
    assert rec2.box_nontrivial == (3 * 13 >= 13**1.5)


def test_prime_sweep_box_gate():
    with pytest.raises(BoxTooLarge):
        prime_sweep(ELLIPTIC, 10, CountBox(6, 6))
    with pytest.raises(ValueError):
        prime_sweep(ELLIPTIC, 3, CountBox(1, 1))


def test_prime_sweep_small_case_matches_oracle():
    box = CountBox(20, 20)
    rec = prime_sweep(CUBIC_GRAPH, 40, box)
    assert [p for p, _ in rec.per_prime] == [23, 29, 31, 37]
    for p, n in rec.per_prime:
        assert n == count_visible_brute(CUBIC_GRAPH.terms, p, 0, 20, 20), p
    expected_sum = math.fsum(
        abs(n - expected_visible(box, p)) for p, n in rec.per_prime
    )
    assert rec.sum_abs_dev == expected_sum
    assert rec.bound_value == math.sqrt(20) * math.sqrt(20) * 40**0.75
    assert rec.skipped_primes == ()
    assert rec.a == 0 and rec.T == 40.0


def test_prime_sweep_worker_invariance(capsys):
    # exp-p keeps --workers for the scripts that pass it; it changes nothing
    outs = []
    for w in ("1", "2", "8"):
        assert main(["exp-p", "-f", "V^2 - U^3 - U - 1", "-T", "60", "-X", "20", "-Y", "20",
                     "--format", "json", "--workers", w]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["records"][0]["sum_abs_dev"] == prime_sweep(
        ELLIPTIC, 60, CountBox(20, 20)).sum_abs_dev


class _RaisingPool:
    """A stand-in for ThreadPoolExecutor that fails as soon as it is made."""

    def __init__(self, max_workers):
        raise AssertionError(f"a pool of {max_workers} threads")


def test_prime_sweep_verdicts_and_per_prime_counts_make_no_pool(monkeypatch):
    # the verdicts, the int64 sweep and, for B >= 2^63, the per-prime
    # counts all run in the calling thread
    box = CountBox(10, 10)
    assert not _fits(HIGH_DEGREE, box)
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RaisingPool)
    for f, T in ((FERMAT_CUBIC, 200), (HIGH_DEGREE, 40)):
        got = prime_sweep(f, T, box)
        assert got.per_prime == tuple(
            (p, count_visible_brute(f.terms, p, 0, 10, 10)) for p, _ in got.per_prime)


def test_prime_sweep_with_a_skipped_prime_at_two_workers(monkeypatch, capsys):
    # V^3 - U^3 - 1 is (V - U - 1)^3 modulo 3; tiles of 2 points make the
    # count sweep of the kept prime 5 six tiles, all in the calling thread
    # whatever --workers says
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(counting, "BLOCK_POINTS", 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RaisingPool)
    rec = prime_sweep(FERMAT_CUBIC, 6, CountBox(3, 3))
    assert rec.skipped_primes == (3,) and rec.per_prime == ((5, count_visible_brute(
        FERMAT_CUBIC.terms, 5, 0, 3, 3)),)
    outs = []
    for w in ("1", "2"):
        assert main(["exp-p", "-f", "V^3 - U^3 - 1", "-T", "6", "-X", "3", "-Y", "3",
                     "--format", "json", "--workers", w]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["records"][0]["sum_abs_dev"] == rec.sum_abs_dev


def _random_poly(rng, box):
    """Random coefficients in [-60, 60], negative ones included, and U- and
    V-degrees up to 3 each, kept to B < 2^63 on the box."""
    while True:
        terms = {(i, j): rng.randint(-60, 60)
                 for i in range(4) for j in range(4) if rng.random() < 0.4}
        f = IntBivariatePoly(terms)
        if f.degree >= 2 and any(c < 0 for c in f.terms.values()) and _fits(f, box):
            return f


def _per_prime_route(f, primes, box, a=0):
    return [count_visible_direct(LevelCurveSpec(f, p, a), box) for p in primes]


def test_prime_sweep_matches_the_per_prime_route_randomized():
    # the box and primes of the CLI sweep at the smoke scale, through prime_sweep
    rng = random.Random(606)
    box = CountBox(20, 20)
    for _ in range(6):
        f = _random_poly(rng, box)
        rec = prime_sweep(f, 60, box)
        kept = [p for p, _ in rec.per_prime]
        assert sorted(kept + list(rec.skipped_primes)) == primes_brute(30, 60)
        assert [n for _, n in rec.per_prime] == _per_prime_route(f, kept, box)


def test_counts_by_prime_match_the_per_prime_route_at_full_scale():
    # the box and primes of the CLI sweep, at level 0 and at other levels
    rng = random.Random(6)
    box = CountBox(500, 500)
    primes = primes_in_range(500, 1000)
    for a in (0, 7, -3):
        f = _random_poly(rng, box)
        assert count_visible_by_prime(f, primes, box, a) == _per_prime_route(
            f, primes, box, a)


def test_counts_by_prime_match_brute_force():
    rng = random.Random(17)
    box = CountBox(13, 11.5)
    primes = primes_brute(13, 41)
    for a in (0, 5, -2):
        f = _random_poly(rng, box)
        want = [count_visible_brute(f.terms, p, a, box.X, box.Y) for p in primes]
        assert count_visible_by_prime(f, primes, box, a) == want
    assert count_visible_by_prime(ELLIPTIC, [], box) == []
    # p = 2 (the low bit) on a box that fits under it, with values of either
    # sign up to about 2^62 and negative levels
    tiny, primes = CountBox(2, 2), [2, 3, 5, 7, 2**31 - 1]
    for a in (0, 1, -1, -4, -(2**40 + 1)):
        f = IntBivariatePoly({ij: rng.randint(-(2**59), 2**59)
                              for ij in ((1, 1), (2, 0), (0, 1), (0, 0))})
        assert _fits(f, tiny)
        want = [count_visible_brute(f.terms, p, a, 2, 2) for p in primes]
        assert count_visible_by_prime(f, primes, tiny, a) == want
    with pytest.raises(ValueError, match="p = 4 is even"):
        count_visible_by_prime(ELLIPTIC, [4], tiny)


# B = 7*8^20 + 8^3 + |c| on the box 8 x 8, with 8^20 = 2^60
BELOW_2_63 = IntBivariatePoly({(20, 0): 7, (0, 3): 1, (0, 0): -(2**60 - 513)})
AT_2_63 = IntBivariatePoly({(20, 0): 7, (0, 3): 1, (0, 0): -(2**60 - 512)})


def test_prime_sweep_routes_on_either_side_of_2_63(monkeypatch):
    box = CountBox(8, 8)
    assert _fits(BELOW_2_63, box) and not _fits(AT_2_63, box)
    with pytest.raises(GridOverflow):
        count_visible_by_prime(AT_2_63, [11, 13], box)
    direct = []
    monkeypatch.setattr(experiments, "count_visible_direct",
                        lambda spec, b: direct.append(spec.p) or count_visible_direct(spec, b))
    for f, per_prime_calls in ((BELOW_2_63, []), (AT_2_63, [11, 13])):
        direct.clear()
        rec = prime_sweep(f, 16, box)
        assert direct == per_prime_calls
        assert rec.skipped_primes == ()
        assert rec.per_prime == tuple(
            (p, count_visible_brute(f.terms, p, 0, 8, 8)) for p in (11, 13))


def test_bound_check_rejects_huge_exponents_early():
    assert not _fits(parse_poly("U^100000000000 + V"), CountBox(2, 2))
    assert _fits(parse_poly("U^100000000000 + V"), CountBox(1, 2))
    assert not _fits(IntBivariatePoly({(0, 0): 2**63}), CountBox(1, 1))
    assert _fits(IntBivariatePoly({(0, 0): -(2**63 - 1)}), CountBox(1, 1))


def _exp_p_bodies(capsys, args):
    out = {}
    for fmt in ("csv", "json"):
        for w in ("1", "2", "3"):
            assert main(["exp-p", *args, "--format", fmt, "--workers", w]) == 0
            text = capsys.readouterr().out
            if fmt == "csv":
                text = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
            else:
                json.loads(text)
            out[fmt, w] = text
    return out


def test_exp_p_bodies_do_not_depend_on_workers(capsys):
    # 600 x 600 is two row blocks; V^3 - U^3 - 1 skips 3 and has B < 2^63
    for args in (["-f", "V^2 - U^3 - U - 1", "-T", "1200", "-X", "600", "-Y", "600"],
                 ["-f", "V^3 - U^3 - 1", "-T", "6", "-X", "3", "-Y", "3"]):
        bodies = _exp_p_bodies(capsys, args)
        for fmt in ("csv", "json"):
            assert bodies[fmt, "1"] == bodies[fmt, "2"] == bodies[fmt, "3"]


def test_prime_sweep_rejects_non_finite_T():
    for T in (math.inf, -math.inf, math.nan):
        with pytest.raises(NonFiniteParameter, match="T = "):
            prime_sweep(ELLIPTIC, T, CountBox(5, 5))


def test_prime_sweep_skips_and_logs():
    # U*V - 2 degenerates to U*V mod 2; every prime in [2, 4] except 3 fails
    rec = prime_sweep(parse_poly("U*V - 2"), 4, CountBox(2, 2))
    assert rec.skipped_primes == (2,)
    assert [p for p, _ in rec.per_prime] == [3]


def test_prime_sweep_through_the_exact_engine(monkeypatch):
    # V^3 - U^3 - 1 has a Newton triangle with edge gcd 3, so no verdict is
    # certified; mod 3 it is (V - U - 1)^3, and 5 = 2 (mod 3) needs F_{5^3}
    f = parse_poly("V^3 - U^3 - 1")
    built = []
    extension_field = factor._extension_field
    monkeypatch.setattr(factor, "_extension_field",
                        lambda p, ell: built.append((p, ell)) or extension_field(p, ell))
    box = CountBox(3, 3)
    rec = prime_sweep(f, 6, box)
    assert rec.skipped_primes == (3,)
    n5 = count_visible_brute(f.terms, 5, 0, 3, 3)
    assert rec.per_prime == ((5, n5),)
    assert rec.sum_abs_dev == abs(n5 - expected_visible(box, 5))  # 3 left out
    assert built == [(5, 3)]


def test_count_deviation_examples():
    dev = count_deviation(LevelCurveSpec(PARABOLA, 13, 0), CountBox(13, 13))
    assert dev.count == 13 and dev.main_term == 13.0 and dev.abs_dev == 0.0
    assert dev.normalized == 0.0

    # level a = 1 of U*V: the shifted polynomial U*V - 1 is admissible
    for p in (7, 11):
        dev = count_deviation(LevelCurveSpec(UV, p, 1), CountBox(p, p))
        assert dev.count == p - 1
        assert dev.abs_dev == 1.0
        assert dev.normalized == 1.0 / (math.sqrt(p) * math.log(p) ** 2)

    with pytest.raises(HypothesisViolated):
        count_deviation(LevelCurveSpec(UV, 7, 0), CountBox(7, 7))


def test_concentration_profile_monotone_in_delta():
    deltas = (0.05, 0.1, 0.25, 0.5, 0.75)
    profs = concentration_profiles(ELLIPTIC, 101, CountBox(101, 101), deltas)
    assert [p.delta for p in profs] == list(deltas)
    fracs = [p.fraction_within for p in profs]
    assert fracs == sorted(fracs)


def test_concentration_profile_hand_checkable():
    box = CountBox(7, 7)
    main = expected_visible(box, 7)
    counts = [count_visible_brute(PARABOLA.terms, 7, a, 7, 7) for a in range(7)]
    expected = sum(1 for c in counts if abs(c - main) <= 0.9 * main) / 7
    (prof,) = concentration_profiles(PARABOLA, 7, box, (0.9,))
    assert prof.fraction_within == expected


def test_concentration_delta_validation():
    with pytest.raises(ValueError):
        concentration_profiles(ELLIPTIC, 13, CountBox(13, 13), (0.0,))
    with pytest.raises(ValueError):
        concentration_profiles(ELLIPTIC, 13, CountBox(13, 13), (0.5, 1.0))


def test_integer_zero_set_examples():
    z = integer_zero_set(parse_poly("V^2 - U^3"), CountBox(100, 1000))
    assert z.points == tuple((t * t, t * t * t) for t in range(1, 11))
    assert integer_zero_set(UV, CountBox(50, 50)).points == ()
    z = integer_zero_set(PARABOLA, CountBox(5, 25))
    assert z.points == ((1, 1), (2, 4), (3, 9), (4, 16), (5, 25))


def test_integer_zero_set_bound_on_fixtures():
    cases = [
        (parse_poly("V^2 - U^3"), CountBox(100, 1000)),
        (PARABOLA, CountBox(5, 25)),
        (ELLIPTIC, CountBox(50, 50)),
        (UV, CountBox(50, 50)),
    ]
    for f, box in cases:
        z = integer_zero_set(f, box)
        assert len(z.points) <= min(box.nx, box.ny) * f.degree
        for u, v in z.points:
            assert f.evaluate(u, v) == 0
            assert 1 <= u <= box.nx and 1 <= v <= box.ny


def test_integer_zero_set_on_tiles_that_start_inside_a_row():
    # 150000 > BLOCK_POINTS, so each row is cut into five tiles, and the
    # zeros v = 40000 * u lie in tiles that start inside the row
    f = parse_poly("V^2 - 40100*U*V + 4000000*U^2")  # (V - 100*U) * (V - 40000*U)
    z = integer_zero_set(f, CountBox(3, 150000))
    assert z.points == ((1, 100), (1, 40000), (2, 200), (2, 80000), (3, 300), (3, 120000))


def test_integer_zero_set_row_vanishing():
    f = parse_poly("U - 3")
    z = integer_zero_set(f, CountBox(5, 4))
    assert z.points == ((3, 1), (3, 2), (3, 3), (3, 4))
    with pytest.raises(ValueError):
        integer_zero_set(parse_poly("U - U"), CountBox(3, 3))


def _zeros_by_loop(f, nx, ny):
    return tuple((u, v) for u in range(1, nx + 1) for v in range(1, ny + 1)
                 if sum(c * u**i * v**j for (i, j), c in f.terms.items()) == 0)


def test_integer_zero_set_beyond_int64():
    # B >= 2^63 on every box here, so the sweep runs on Python ints; in int64
    # 2^64 * (U - 3) would wrap to 0 on every row
    cases = [
        (parse_poly("V^40 - U^80"), CountBox(12, 150)),
        (IntBivariatePoly({(1, 0): 2**64, (0, 0): -3 * 2**64}), CountBox(5, 4)),
        (parse_poly("V^3 - U^2 - 170141183460469231731687303715884105727*U*V"),
         CountBox(9, 9)),
        (IntBivariatePoly({(1, 1): 2**62, (2, 0): -(2**62), (0, 0): 2**62 * 6}),
         CountBox(20, 20)),
    ]
    for f, box in cases:
        assert not _fits(f, box)
        z = integer_zero_set(f, box)
        assert z.points == _zeros_by_loop(f, box.nx, box.ny), f
    assert integer_zero_set(*cases[1]).points == ((3, 1), (3, 2), (3, 3), (3, 4))


def test_integer_zero_set_with_int64_and_python_int_tiles():
    # every row of 2 x 40000 is two tiles; f = U^64 + U - 2 fits int64 on
    # the tiles of row 1, where it vanishes, and not on those of row 2,
    # where int64 would wrap 2^64 to 0 and report the whole row
    f = parse_poly("U^64 + U - 2")
    box = CountBox(2, 40000)
    assert not _fits(f, box)
    assert integer_zero_set(f, box).points == tuple((1, v) for v in range(1, 40001))


def test_integer_zero_set_on_a_box_wider_than_a_tile():
    # each row of 2 x 300000 is two tiles; the points stay in row-major order
    f = parse_poly("U*V - 270000")
    z = integer_zero_set(f, CountBox(2, 300000))
    assert z.points == ((1, 270000), (2, 135000))


def test_sum_reproducibility_bitwise():
    rec1 = level_sweep(ELLIPTIC, 101, CountBox(101, 101), workers=1)
    rec2 = level_sweep(ELLIPTIC, 101, CountBox(101, 101), workers=3)
    assert rec1 == rec2
    assert repr(rec1.sum_abs_dev) == repr(rec2.sum_abs_dev)


def test_density_constant_shared():
    assert COPRIME_DENSITY == 6.0 / (math.pi * math.pi)
