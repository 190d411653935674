import math

import pytest

from visiblepoints import factor
from visiblepoints.counting import (
    COPRIME_DENSITY,
    CountBox,
    LevelCurveSpec,
    expected_visible,
)
from visiblepoints.errors import BoxTooLarge, EmptyPlan, HypothesisViolated
from visiblepoints.experiments import (
    DiscrepancyRecord,
    SweepFailure,
    SweepPoint,
    concentration_profile,
    concentration_profiles,
    count_deviation,
    integer_zero_set,
    level_sweep,
    prime_sweep,
    run_sweep_series,
)
from visiblepoints.poly import parse_poly

from oracles import count_visible_brute, primes_brute

UV = parse_poly("U*V")
PARABOLA = parse_poly("V - U^2")
ELLIPTIC = parse_poly("V^2 - U^3 - U - 1")
CUBIC_GRAPH = parse_poly("V - U^3")


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


def test_prime_sweep_worker_invariance():
    box = CountBox(20, 20)
    records = [prime_sweep(ELLIPTIC, 60, box, workers=w) for w in (1, 2, 8)]
    assert records[0] == records[1] == records[2]
    assert records[0].sum_abs_dev == records[1].sum_abs_dev == records[2].sum_abs_dev


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
    rec = prime_sweep(f, 6, CountBox(3, 3))
    assert rec.skipped_primes == (3,)
    assert rec.per_prime == ((5, count_visible_brute(f.terms, 5, 0, 3, 3)),)
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
    box = CountBox(101, 101)
    fracs = [
        concentration_profile(ELLIPTIC, 101, box, d).fraction_within
        for d in (0.05, 0.1, 0.25, 0.5, 0.75)
    ]
    assert fracs == sorted(fracs)
    profs = concentration_profiles(ELLIPTIC, 101, box, deltas=(0.1, 0.25, 0.5))
    assert [p.delta for p in profs] == [0.1, 0.25, 0.5]
    assert [p.fraction_within for p in profs] == fracs[1:4]


def test_concentration_profile_hand_checkable():
    box = CountBox(7, 7)
    main = expected_visible(box, 7)
    counts = [count_visible_brute(PARABOLA.terms, 7, a, 7, 7) for a in range(7)]
    expected = sum(1 for c in counts if abs(c - main) <= 0.9 * main) / 7
    prof = concentration_profile(PARABOLA, 7, box, 0.9)
    assert prof.fraction_within == expected


def test_concentration_delta_validation():
    with pytest.raises(ValueError):
        concentration_profile(ELLIPTIC, 13, CountBox(13, 13), 0.0)
    with pytest.raises(ValueError):
        concentration_profile(ELLIPTIC, 13, CountBox(13, 13), 1.0)


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


def test_integer_zero_set_row_vanishing():
    f = parse_poly("U - 3")
    z = integer_zero_set(f, CountBox(5, 4))
    assert z.points == ((3, 1), (3, 2), (3, 3), (3, 4))
    with pytest.raises(ValueError):
        integer_zero_set(parse_poly("U - U"), CountBox(3, 3))


def test_run_sweep_series_order_and_isolation():
    f = parse_poly("U*V - 2")  # reducible mod 2 only
    plan = [
        SweepPoint(kind="levels", X=2, Y=2, p=2),
        SweepPoint(kind="levels", X=7, Y=7, p=7),
        SweepPoint(kind="primes", X=2, Y=2, T=6),
    ]
    out = run_sweep_series(f, plan)
    assert isinstance(out[0], SweepFailure)
    assert "HypothesisViolated" in out[0].message
    assert isinstance(out[1], DiscrepancyRecord) and out[1].p == 7
    assert isinstance(out[2], DiscrepancyRecord) and out[2].kind == "primes"
    with pytest.raises(EmptyPlan):
        run_sweep_series(f, [])


def test_sum_reproducibility_bitwise():
    rec1 = level_sweep(ELLIPTIC, 101, CountBox(101, 101), workers=1)
    rec2 = level_sweep(ELLIPTIC, 101, CountBox(101, 101), workers=3)
    assert rec1 == rec2
    assert repr(rec1.sum_abs_dev) == repr(rec2.sum_abs_dev)


def test_density_constant_shared():
    assert COPRIME_DENSITY == 6.0 / (math.pi * math.pi)
