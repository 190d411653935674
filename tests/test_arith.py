import pytest

from visiblepoints.arith import (
    is_prime,
    mobius_sieve,
    primes_in_range,
    zeta2_inverse_partial,
)

from oracles import mobius_brute, primes_brute


def test_mobius_small_values():
    mt = mobius_sieve(30)
    assert [mt[d] for d in range(1, 7)] == [1, -1, -1, 0, -1, 1]
    assert mt[4] == 0
    assert mt[30] == -1  # three distinct primes


def test_mobius_rejects_zero_limit():
    with pytest.raises(ValueError):
        mobius_sieve(0)


def test_mobius_matches_factorization_oracle():
    mt = mobius_sieve(10**4)
    for d in range(1, 10**4 + 1):
        assert mt[d] == mobius_brute(d), d


def test_mobius_divisor_sum_identity():
    # sum of mu(d) over d | n is 1 for n = 1 and 0 otherwise
    limit = 10**4
    mt = mobius_sieve(limit)
    sums = [0] * (limit + 1)
    for d in range(1, limit + 1):
        md = mt[d]
        if md:
            for n in range(d, limit + 1, d):
                sums[n] += md
    assert sums[1] == 1
    assert all(s == 0 for s in sums[2:])


def test_mertens_partial_sums_bounded():
    limit = 10**4
    mt = mobius_sieve(limit)
    acc = 0
    for n in range(1, limit + 1):
        acc += mt[n]
        assert abs(acc) <= n


def test_primes_in_range_examples():
    assert primes_in_range(10, 20) == [11, 13, 17, 19]
    assert primes_in_range(24, 28) == []
    assert primes_in_range(2, 2) == [2]
    with pytest.raises(ValueError):
        primes_in_range(3, 2)
    with pytest.raises(ValueError):
        primes_in_range(1, 10)


def test_prime_counts_reference():
    assert len(primes_in_range(2, 100)) == 25
    assert len(primes_in_range(2, 1000)) == 168
    assert len(primes_in_range(2, 10000)) == 1229


def test_primes_match_trial_division_across_segments():
    # window straddling a segment boundary of the segmented sieve
    lo, hi = (1 << 18) - 50, (1 << 18) + 50
    assert primes_in_range(lo, hi) == primes_brute(lo, hi)
    assert primes_in_range(999_900, 1_000_100) == primes_brute(999_900, 1_000_100)


def test_is_prime_spot():
    assert is_prime(2) and is_prime(97) and is_prime(1009)
    assert not is_prime(1) and not is_prime(1001)
    assert is_prime(10**9 + 7)


def test_zeta2_small_values():
    assert zeta2_inverse_partial(1) == 1.0
    assert zeta2_inverse_partial(2) == 0.75


def test_zeta2_bounds_and_cauchy():
    for D in (2, 3, 10, 100, 1000):
        v = zeta2_inverse_partial(D)
        assert 0.5 <= v <= 1.0
        assert abs(v - zeta2_inverse_partial(2 * D)) <= 1.0 / D


def test_zeta2_converges_to_coprime_density():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    reference = float(6 / mpmath.pi**2)
    assert abs(reference - 0.60792710185) < 1e-9
    assert abs(zeta2_inverse_partial(10**6) - reference) < 1e-5
