import math

import pytest

from visiblepoints import arith
from visiblepoints.arith import (
    _sieve_window,
    factorize,
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
    for d in (0, 31, -1):
        with pytest.raises(IndexError, match=rf"^mu\({d}\) outside table limit 30$"):
            mt[d]


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
    # windows straddling multiples of the segment length
    S = arith._SEGMENT_SIZE
    for k in (1, 2, 3):
        assert primes_in_range(k * S - 50, k * S + 50) == primes_brute(k * S - 50, k * S + 50)
    assert primes_in_range(999_900, 1_000_100) == primes_brute(999_900, 1_000_100)
    # two segments at the real length; is_prime is trial division below 10^6
    assert primes_in_range(S - 50, 2 * S + 50) == [
        n for n in range(S - 50, 2 * S + 51) if is_prime(n)]


@pytest.mark.parametrize("segment", [1, 2, 7, 64])
def test_primes_in_range_walks_short_segments(monkeypatch, segment):
    monkeypatch.setattr(arith, "_SEGMENT_SIZE", segment)
    for lo, hi in ((2, 600), (2, 2), (24, 28), (120, 122), (841, 961), (900, 1369)):
        assert primes_in_range(lo, hi) == primes_brute(lo, hi), (segment, lo, hi)


def test_sieve_window_on_every_small_window():
    truth = bytearray(601)
    for q in primes_brute(2, 600):
        truth[q] = 1
    for hi in range(2, 601):
        base = primes_brute(2, math.isqrt(hi))
        for lo in range(2, hi + 1):
            assert _sieve_window(lo, hi, base).tobytes() == truth[lo : hi + 1], (lo, hi)
    # the window from 0 flags 0 and 1 as non-prime
    assert _sieve_window(0, 30, [2, 3, 5]).nonzero()[0].tolist() == primes_brute(2, 30)


def test_primes_in_range_at_prime_squares():
    # a window from p^2 needs p in its base; one up to p^2 - 1 does not have it
    for p in primes_brute(2, 1000):
        sq = p * p
        for lo, hi in ((sq, sq), (sq, sq + 60), (max(2, sq - 60), sq - 1), (sq - 1, sq + 1)):
            if 2 <= lo <= hi:
                assert primes_in_range(lo, hi) == primes_brute(lo, hi), (p, lo, hi)


def test_is_prime_matches_trial_division():
    limit = 2 * 10**5
    assert [n for n in range(limit + 1) if is_prime(n)] == primes_brute(0, limit)


def test_is_prime_spot():
    assert is_prime(2) and is_prime(97) and is_prime(1009)
    assert not is_prime(1) and not is_prime(1001)
    assert is_prime(10**9 + 7)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


#: (n, its factors, the bases to which n is a strong probable prime)
STRONG_PSEUDOPRIMES = (
    (2047, (23, 89), (2,)),
    (3215031751, (151, 751, 28351), (2, 3, 5, 7)),
    (3825123056546413051, (149491, 747451, 34233211), (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    # psi_12 and psi_13 (Sorenson and Webster, Math. Comp. 86, 2017)
    (318665857834031151167461, (399165290221, 798330580441),
     (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (1287836182261, 2575672364521),
     (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


def test_is_prime_refuses_strong_pseudoprimes():
    # psi_13 fools every base that is_prime tries, so it is refused unjudged
    for n, factors, bases in STRONG_PSEUDOPRIMES:
        assert math.prod(factors) == n
        assert all(_strong_probable_prime(n, a) for a in bases), n
        if n < arith.PRIME_TEST_BOUND:
            assert not is_prime(n), n
    assert STRONG_PSEUDOPRIMES[-1][0] == arith.PRIME_TEST_BOUND
    with pytest.raises(ValueError, match=rf"^{arith.PRIME_TEST_BOUND} is too large to test "
                                         rf"for primality: .* only below {arith.PRIME_TEST_BOUND}$"):
        is_prime(arith.PRIME_TEST_BOUND)
    with pytest.raises(ValueError, match="too large"):
        is_prime(2**89 - 1)
    # between psi_12 and psi_13 primes are still decided: 10^24 + 7 is the
    # least prime above 10^24 (OEIS A033874)
    assert [k for k in range(30) if is_prime(10**24 + k)] == [7]


def test_is_prime_refuses_carmichael_numbers():
    # Korselt: squarefree n with p - 1 | n - 1 for every prime p | n
    classical = [561, 1105, 1729, 2465, 2821, 6601, 8911]
    # Chernick: (6k + 1)(12k + 1)(18k + 1) when all three factors are prime,
    # from about 3 * 10^5 to beyond 2^64
    chernick = [(6 * k + 1, 12 * k + 1, 18 * k + 1)
                for k in (6, 35, 45, 51, 2040, 2065, 1000051, 1000181)]
    for factors in chernick:
        assert all(primes_brute(q, q) == [q] for q in factors), factors
    cases = [(n, [q for q in primes_brute(2, n) if n % q == 0]) for n in classical]
    cases += [(math.prod(factors), list(factors)) for factors in chernick]
    assert max(n for n, _ in cases) > 2**64
    for n, factors in cases:
        assert math.prod(factors) == n and all((n - 1) % (q - 1) == 0 for q in factors), n
        assert not is_prime(n), n


def test_is_prime_on_the_larger_witness_bases():
    bases = (17, 19, 23, 29, 31, 37)
    assert all(is_prime(b) for b in bases)
    mersenne61 = 2**61 - 1
    for b in bases:
        assert not is_prime(b * b) and not is_prime(b * mersenne61), b
    assert not is_prime(math.prod(bases))


#: the offsets k with 2^e - k or 2^e + k prime, for 0 < k < 400
PRIMES_NEAR_POWERS_OF_2 = {
    61: ((1, 31, 45, 229, 259, 283, 339, 391),
         (15, 21, 57, 65, 135, 197, 221, 255, 305, 365, 371)),
    64: ((59, 83, 95, 179, 189, 257, 279, 323, 353, 363),
         (13, 37, 51, 81, 93, 141, 307, 331, 393)),
}


def test_is_prime_near_powers_of_2():
    # near 2^31 trial division decides; near 2^61 and 2^64 the published
    # tables of primes next to powers of 2
    lo, hi = 2**31 - 400, 2**31 + 400
    assert [n for n in range(lo, hi + 1) if is_prime(n)] == primes_brute(lo, hi)
    for e, (below, above) in PRIMES_NEAR_POWERS_OF_2.items():
        for k in range(1, 400):
            assert is_prime(2**e - k) == (k in below), (e, -k)
            assert is_prime(2**e + k) == (k in above), (e, k)
        assert not is_prime(2**e)


def test_factorize_matches_brute_force():
    limit = 10**4
    expected = [[] for _ in range(limit + 1)]
    for q in primes_brute(2, limit):
        for m in range(q, limit + 1, q):
            e, r = 0, m
            while r % q == 0:
                r, e = r // q, e + 1
            expected[m].append((q, e))
    for k in range(1, limit + 1):
        assert factorize(k) == expected[k], k
    with pytest.raises(ValueError):
        factorize(0)


def test_zeta2_small_values():
    assert zeta2_inverse_partial(1) == 1.0
    assert zeta2_inverse_partial(2) == 0.75
    for D in (0, -3):
        with pytest.raises(ValueError, match="^D must be >= 1$"):
            zeta2_inverse_partial(D)


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
