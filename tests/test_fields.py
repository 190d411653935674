import random

import pytest

from visiblepoints.errors import IdenticallyZero
from visiblepoints.fields import (
    ExtensionField,
    PrimeField,
    factor_squarefree,
    find_irreducible_over,
    u_deg,
    u_divmod,
    u_eval,
    u_ext_gcd,
    u_gcd,
    u_is_irreducible,
    u_monic,
    u_mul,
    univariate_roots,
)

from oracles import first_rootless_monic, irreducible_brute, primes_brute


def test_find_irreducible_examples():
    assert find_irreducible_over(PrimeField(5), 1) == [0, 1]  # V itself
    assert find_irreducible_over(PrimeField(7), 2) == [1, 0, 1]  # V^2 + 1, -1 nonresidue
    assert find_irreducible_over(PrimeField(5), 2) == [2, 0, 1]  # V^2 + 2, -2 nonresidue


def test_find_irreducible_has_no_roots():
    for p, k in ((5, 2), (7, 2), (11, 3), (3, 4)):
        g = find_irreducible_over(PrimeField(p), k)
        assert len(g) == k + 1 and g[-1] == 1
        for x in range(p):
            acc = 0
            for c in reversed(g):
                acc = (acc * x + c) % p
            assert acc != 0


def test_find_irreducible_matches_the_naive_scan():
    # every p = 2 (mod 3) below 600 takes the skip over the x^3 + c block,
    # as does p = 2 for x^2 + c
    for p in primes_brute(2, 599):
        for k in (2, 3):
            assert find_irreducible_over(PrimeField(p), k) == first_rootless_monic(p, k), (p, k)
    # above degree 3 the scan asks the brute-force oracle; the x^k + c block
    # is skipped for k = 4 at p = 2, 3, 7, for k = 5 at every p and for
    # k = 6 at p = 2, 3, 5, and holds the answer at (5, 4) and (7, 6)
    for p in (2, 3, 5, 7):
        for k in (4, 5, 6):
            monics = ([n // p**i % p for i in range(k)] + [1] for n in range(p**k))
            expected = next(g for g in monics if irreducible_brute(g, p))
            assert find_irreducible_over(PrimeField(p), k) == expected, (p, k)


def test_find_irreducible_in_huge_fields():
    # the candidates are made one at a time: 10^10 + 19 = 2 (mod 3) skips
    # the x^3 + c block, and 2^61 - 1 = 1 (mod 3) starts in it
    for p, middle in ((10**10 + 19, [1, 0]), (2**61 - 1, [0, 0])):
        K = PrimeField(p)
        g = find_irreducible_over(PrimeField(p), 3)
        assert g[1:] == middle + [1] and univariate_roots(g, K) == set()
        assert all(univariate_roots([c, *middle, 1], K) for c in range(g[0]))


def test_univariate_roots_examples():
    assert univariate_roots([6, 0, 1], PrimeField(7)) == {1, 6}  # V^2 - 1
    assert univariate_roots([2, 0, 1], PrimeField(5)) == set()  # V^2 - 3, nonresidue
    assert univariate_roots([4, 2], PrimeField(5)) == {3}  # 2V - 1
    with pytest.raises(IdenticallyZero):
        univariate_roots([], PrimeField(5))
    with pytest.raises(IdenticallyZero):
        univariate_roots([0, 0], PrimeField(5))


def test_univariate_roots_match_enumeration_large_prime():
    # p above the brute-force threshold exercises the powmod/split path
    p = 1009
    K = PrimeField(p)
    rng = random.Random(31)
    for _ in range(25):
        g = [rng.randrange(p) for _ in range(rng.randint(2, 5))]
        if all(c == 0 for c in g):
            g[-1] = 1
        if g[-1] == 0:
            g[-1] = 1
        found = univariate_roots(g, K)
        expected = {x for x in range(p) if u_eval(K, g, x) == 0}
        assert found == expected


SMALL_FIELDS = [PrimeField(2), PrimeField(3), ExtensionField(2, 2), PrimeField(5), PrimeField(7),
                ExtensionField(2, 3), ExtensionField(3, 2), PrimeField(11), PrimeField(13),
                ExtensionField(2, 4)]


def test_univariate_roots_match_enumeration_small_fields():
    # odd sizes split with the quadratic character, sizes 2^k with the trace;
    # products of linear factors give many roots, random polynomials few
    rng = random.Random(2)
    for K in SMALL_FIELDS:
        elements = [K.element_at(i) for i in range(K.size)]
        for _ in range(30):
            if rng.random() < 0.5:
                g = [K.element_at(rng.randrange(1, K.size))]
                for _ in range(rng.randint(1, 6)):
                    g = u_mul(K, g, [K.neg(rng.choice(elements)), K.one])
            else:
                g = [rng.choice(elements) for _ in range(rng.randint(2, 7))] + [K.one]
            expected = {x for x in elements if u_eval(K, g, x) == K.zero}
            assert univariate_roots(g, K) == expected, (K, g)


def test_extension_field_basics():
    F49 = ExtensionField(7, 2)
    assert F49.size == 49 and F49.modulus == (1, 0, 1)
    a = (3, 5)
    assert F49.mul(a, F49.inv(a)) == F49.one
    # nonzero element orders divide p^k - 1
    for idx in (1, 2, 10, 33, 48):
        x = F49.element_at(idx)
        power = F49.one
        for _ in range(48):
            power = F49.mul(power, x)
        assert power == F49.one
    assert F49.from_int(10) == (3, 0)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 5), (3, 6), (7, 2), (101, 3), (10007, 2)])
def test_extension_mul_is_the_product_modulo_the_modulus(p, k):
    K = ExtensionField(p, k)
    assert (K.size, K.characteristic, K.zero, K.one) == (p**k, p, (0,) * k, (1,) + (0,) * (k - 1))
    base, modulus = K.base, list(K.modulus)
    rng = random.Random(p * 100 + k)
    for _ in range(60):
        a, b = (K.element_at(rng.randrange(K.size)) for _ in range(2))
        rem = u_divmod(base, u_mul(base, _coefficients(a), _coefficients(b)), modulus)[1]
        assert K.mul(a, b) == tuple(rem) + (0,) * (k - len(rem)), (a, b)


def _coefficients(a: tuple) -> list:
    """A field element as its trimmed coefficient list over F_p."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def test_extension_roots_and_square_roots_of_minus_one():
    F49 = ExtensionField(7, 2)
    roots = univariate_roots([F49.one, F49.zero, F49.one], F49)  # V^2 + 1
    assert len(roots) == 2
    for r in roots:
        assert F49.mul(r, r) == F49.neg(F49.one)


def test_divmod_identity_random():
    rng = random.Random(3)
    for K in (PrimeField(13), ExtensionField(3, 2)):
        for _ in range(40):
            a = [K.element_at(rng.randrange(K.size)) for _ in range(rng.randint(0, 6))]
            b = [K.element_at(rng.randrange(K.size)) for _ in range(rng.randint(1, 4))]
            while b and b[-1] == K.zero:
                b.pop()
            if not b:
                continue
            while a and a[-1] == K.zero:
                a.pop()
            q, r = u_divmod(K, a, b)
            recon = u_mul(K, q, b)
            n = max(len(recon), len(r), len(a))
            for i in range(n):
                x = recon[i] if i < len(recon) else K.zero
                y = r[i] if i < len(r) else K.zero
                z = a[i] if i < len(a) else K.zero
                assert K.add(x, y) == z
            assert u_deg(r) < u_deg(b) or not r


def _is_irreducible(K, g):
    """Whether g is irreducible over K, by ``irreducible_brute``, which
    shares no code with the library's distinct-degree loop, wherever the
    oracle's own tables cover K (their modulus is the library's in degree
    2 and 3); elements of F_{p^k} become the integers of their digits."""
    k = getattr(K, "k", 1)
    if k > 3:
        # the oracle builds no GF(p^k) above k = 3, so ExtensionField(2, 4)
        # keeps the library predicate
        return u_is_irreducible(K, g)
    assert k == 1 or list(K.modulus) == first_rootless_monic(K.p, k)
    digits = [c if k == 1 else sum(d * K.p**i for i, d in enumerate(c)) for c in g]
    return irreducible_brute(digits, K.characteristic, k)


def _irreducible_pool(K, max_deg):
    """All monic irreducibles over K of degree <= max_deg (tiny fields) or a
    random-but-verified sample (large fields)."""
    pool = []
    if K.size <= 16:
        from visiblepoints.fields import _monic_polys

        for d in range(1, max_deg + 1):
            pool.extend(c for c in _monic_polys(K, d) if _is_irreducible(K, c))
    else:
        rng = random.Random(K.size)
        while len(pool) < 12:
            d = rng.randint(1, max_deg)
            cand = [K.element_at(rng.randrange(K.size)) for _ in range(d)] + [K.one]
            if _is_irreducible(K, cand) and cand not in pool:
                pool.append(cand)
    return pool


def test_factor_squarefree_reconstructs_product():
    rng = random.Random(17)
    for K in [PrimeField(101), ExtensionField(7, 2)] + SMALL_FIELDS:
        pool = _irreducible_pool(K, 3 if K.size <= 8 else 2)
        for _ in range(15):
            parts = rng.sample(pool, rng.randint(1, min(4, len(pool))))
            g = [K.one]
            for part in parts:
                g = u_mul(K, g, part)
            factors = factor_squarefree(K, g)
            assert len(factors) == len(parts)
            recon = [K.one]
            for fac in factors:
                assert _is_irreducible(K, fac)
                recon = u_mul(K, recon, fac)
            assert recon == g


def test_gcd_monic_and_common_divisor():
    K = PrimeField(11)
    a = u_mul(K, [1, 1], [3, 0, 1])
    b = u_mul(K, [1, 1], [5, 1])
    g = u_gcd(K, a, b)
    assert g == [1, 1]


F7, F49 = PrimeField(7), ExtensionField(7, 2)
#: every refusal of the fields and their polynomials: (call, type, message)
REFUSALS = (
    (lambda: PrimeField(9), ValueError, "9 is not prime"),
    (lambda: F7.inv(0), ZeroDivisionError, "inverse of zero"),
    (lambda: F7.element_at(7), IndexError, "7"),
    (lambda: F7.element_at(-1), IndexError, "-1"),
    (lambda: ExtensionField(7, 0), ValueError, "extension degree must be >= 1"),
    (lambda: F49.inv(F49.zero), ZeroDivisionError, "inverse of zero"),
    (lambda: F49.element_at(49), IndexError, "49"),
    (lambda: find_irreducible_over(F7, 0), ValueError, "degree must be >= 1"),
    (lambda: u_divmod(F7, [1, 2], []), ZeroDivisionError, "division by zero polynomial"),
)


@pytest.mark.parametrize("call,kind,message", REFUSALS)
def test_fields_refuse_what_they_cannot_do(call, kind, message):
    with pytest.raises(kind, match=f"^{message}$"):
        call()


def test_zero_and_constant_edges():
    assert u_monic(F7, []) == []
    assert u_ext_gcd(F7, [], []) == ([], [1], [])
    # a constant, zero included, is never irreducible
    for K in (F7, F49):
        assert not u_is_irreducible(K, [K.one]) and not u_is_irreducible(K, [])
    assert repr(F7) == "PrimeField(7)" and repr(F49) == "ExtensionField(p=7, k=2)"
