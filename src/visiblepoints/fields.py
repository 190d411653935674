"""Prime fields F_p, extension fields F_{p^k}, and univariate polynomial
arithmetic over either.

Field elements are plain values: ints for F_p, length-k tuples of ints
(coefficients of 1, x, ..., x^(k-1)) for F_{p^k}.  Univariate polynomials
are lists of field elements, ascending by exponent, with no trailing zeros
(the zero polynomial is the empty list).  A field's constants ``size``,
``characteristic``, ``zero`` and ``one`` are plain attributes, read by
the helpers in their inner loops.  Searches scan elements in the fixed
order given by ``element_at`` so results are reproducible across runs and
platforms.
"""

from __future__ import annotations

import random

from .arith import factorize, is_prime
from .errors import IdenticallyZero


class PrimeField:
    """F_p with elements represented as ints in [0, p-1]."""

    __slots__ = ("p", "size", "characteristic")

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = self.size = self.characteristic = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def element_at(self, idx: int):
        if not 0 <= idx < self.p:
            raise IndexError(idx)
        return idx

    def __repr__(self):
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# univariate polynomial helpers (generic over the field object)


def u_trim(K, c: list) -> list:
    while c and c[-1] == K.zero:
        c.pop()
    return c


def u_deg(c: list) -> int:
    return len(c) - 1


def u_add(K, a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else K.zero
        y = b[i] if i < len(b) else K.zero
        out.append(K.add(x, y))
    return u_trim(K, out)


def u_sub(K, a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else K.zero
        y = b[i] if i < len(b) else K.zero
        out.append(K.sub(x, y))
    return u_trim(K, out)


def u_scale(K, a: list, s) -> list:
    """a * s for a nonzero scalar s."""
    return u_trim(K, [K.mul(x, s) for x in a])


def u_mul(K, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == K.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = K.add(out[i + j], K.mul(x, y))
    return u_trim(K, out)


def u_divmod(K, a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by nonzero b."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], u_trim(K, a)
    inv_lead = K.inv(b[-1])
    q = [K.zero] * (da - db + 1)
    for k in range(da - db, -1, -1):
        coef = K.mul(a[db + k], inv_lead)
        if coef != K.zero:
            q[k] = coef
            for j in range(db + 1):
                a[j + k] = K.sub(a[j + k], K.mul(coef, b[j]))
    return u_trim(K, q), u_trim(K, a[:db])


def u_mod(K, a: list, b: list) -> list:
    return u_divmod(K, a, b)[1]


def u_monic(K, a: list) -> list:
    if not a:
        return []
    if a[-1] == K.one:
        return list(a)
    return u_scale(K, a, K.inv(a[-1]))


def u_gcd(K, a: list, b: list) -> list:
    while b:
        a, b = b, u_mod(K, a, b)
    return u_monic(K, a)


def u_ext_gcd(K, a: list, b: list) -> tuple[list, list, list]:
    """(g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [K.one], []
    t0, t1 = [], [K.one]
    while r1:
        q, r = u_divmod(K, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, u_sub(K, s0, u_mul(K, q, s1))
        t0, t1 = t1, u_sub(K, t0, u_mul(K, q, t1))
    if not r0:
        return [], s0, t0
    lead_inv = K.inv(r0[-1])
    return u_scale(K, r0, lead_inv), u_scale(K, s0, lead_inv), u_scale(K, t0, lead_inv)


def u_eval(K, a: list, x):
    acc = K.zero
    for c in reversed(a):
        acc = K.add(K.mul(acc, x), c)
    return acc


def u_deriv(K, a: list) -> list:
    p = K.characteristic
    out = []
    for i in range(1, len(a)):
        out.append(K.mul(a[i], K.from_int(i % p)))
    return u_trim(K, out)


def u_pow_mod(K, base: list, e: int, mod: list) -> list:
    result = [K.one]
    base = u_mod(K, base, mod)
    while e:
        if e & 1:
            result = u_mod(K, u_mul(K, result, base), mod)
        base = u_mod(K, u_mul(K, base, base), mod)
        e >>= 1
    return result


def u_shift(K, a: list, c) -> list:
    """The polynomial X -> a(X + c), by Horner on (X + c)."""
    out: list = []
    for coef in reversed(a):
        new = [K.zero] * (len(out) + 1)
        for i, v in enumerate(out):
            new[i + 1] = v
            new[i] = K.add(new[i], K.mul(v, c))
        new[0] = K.add(new[0], coef)
        out = new
    return u_trim(K, out)


def u_is_irreducible(K, g: list) -> bool:
    """Rabin irreducibility test over K."""
    d = u_deg(g)
    if d <= 0:
        return False
    if d == 1:
        return True
    q = K.size
    x = [K.zero, K.one]
    for ell in {p for p, _ in factorize(d)}:
        h = u_sub(K, u_pow_mod(K, x, q ** (d // ell), g), x)
        if u_deg(u_gcd(K, h, g)) != 0:
            return False
    h = u_sub(K, u_pow_mod(K, x, q**d, g), x)
    return not u_mod(K, h, g)


def _monic_polys(K, deg: int, start: int = 0):
    """The monic degree-deg polynomials over K from the start-th on, in
    lexicographic order with the constant coefficient varying fastest: the
    n-th has the base-|K| digits of n as coefficients, made one at a time."""
    for n in range(start, K.size**deg):
        yield [K.element_at(n // K.size**i % K.size) for i in range(deg)] + [K.one]


def find_irreducible_over(K, k: int) -> list:
    """First monic irreducible degree-k polynomial over K in search order.

    The order is that of ``_monic_polys``, whose first q = |K| candidates
    are the binomials x^k + c.  A binomial can be irreducible over F_q only
    if every prime r | k divides q - 1, and q = 1 (mod 4) when 4 | k
    (Lidl-Niederreiter, Thm 3.75).  When that fails the whole block is
    skipped without a Rabin test, which returns the same polynomial: at
    p = 2 (mod 3), k = 3, it saves about p tests.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    if k == 1:
        return [K.zero, K.one]
    q = K.size
    skip = any((q - 1) % r for r, _ in factorize(k)) or (k % 4 == 0 and q % 4 != 1)
    for cand in _monic_polys(K, k, q if skip else 0):
        if u_is_irreducible(K, cand):
            return cand
    raise AssertionError("unreachable: irreducibles exist in every degree")


class ExtensionField:
    """F_{p^k} as F_p[x]/(modulus), elements stored as length-k int tuples.

    The modulus is the first irreducible monic degree-k polynomial in the
    fixed search order of ``find_irreducible_over``, so field construction
    is reproducible.
    """

    __slots__ = ("p", "k", "modulus", "base", "size", "characteristic", "zero", "one")

    def __init__(self, p: int, k: int):
        base = PrimeField(p)
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = self.characteristic = p
        self.k = k
        self.base = base
        self.modulus = tuple(find_irreducible_over(base, k))
        self.size = p**k
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        """a*b: the convolution of the coefficients, reduced from the top by
        the monic modulus, then mod p."""
        p, k, mod = self.p, self.k, self.modulus
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        for t in range(2 * k - 2, k - 1, -1):
            c = conv[t]
            if c:
                for i in range(k):
                    conv[t - k + i] -= c * mod[i]
        return tuple(v % p for v in conv[:k])

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = u_ext_gcd(self.base, u_trim(self.base, list(a)), list(self.modulus))
        if u_deg(g) != 0:
            raise ZeroDivisionError("element not invertible")
        return tuple(s[i] if i < len(s) else 0 for i in range(self.k))

    def from_int(self, n: int):
        return (n % self.p,) + (0,) * (self.k - 1)

    def element_at(self, idx: int):
        if not 0 <= idx < self.size:
            raise IndexError(idx)
        digits = []
        for _ in range(self.k):
            idx, r = divmod(idx, self.p)
            digits.append(r)
        return tuple(digits)

    def __repr__(self):
        return f"ExtensionField(p={self.p}, k={self.k})"


# ---------------------------------------------------------------------------
# roots and factorization


def _split_test(K, a: list, e: int, g: list) -> list:
    """a^((q^e - 1)/2) - 1 for odd q = |K|, or the trace
    a + a^2 + ... + a^(2^(ke - 1)) for q = 2^k, modulo g.

    When g is a product of distinct monic irreducibles of degree e, its gcd
    with g is the product of the factors modulo which a is a nonzero square
    (odd q) or has trace 0 (q = 2^k).
    """
    q = K.size
    if q % 2:
        return u_sub(K, u_pow_mod(K, a, (q**e - 1) // 2, g), [K.one])
    t = acc = u_mod(K, a, g)
    for _ in range((q.bit_length() - 1) * e - 1):
        t = u_mod(K, u_mul(K, t, t), g)
        acc = u_add(K, acc, t)
    return acc


def _equal_degree_split(K, g: list, e: int, rng: random.Random, out: list) -> None:
    """Cantor-Zassenhaus splitting of monic squarefree g whose irreducible
    factors all have degree e; appends the factors to out.

    The polynomials a of degree below d = deg g tried in turn have
    coefficients drawn by rng; the first a whose :func:`_split_test` has a
    proper gcd with g splits it.  Every finite field is covered: the
    quadratic character for odd size, the trace for size 2^k (D. Cantor and
    H. Zassenhaus, Math. Comp. 36, 1981).
    """
    d = u_deg(g)
    if d == e:
        out.append(g)
        return
    while True:
        a = [K.element_at(rng.randrange(K.size)) for _ in range(d)]
        t = u_gcd(K, _split_test(K, a, e, g), g)
        if 0 < u_deg(t) < d:
            _equal_degree_split(K, t, e, rng, out)
            _equal_degree_split(K, u_divmod(K, g, t)[0], e, rng, out)
            return


def univariate_roots(g: list, field) -> set:
    """All roots of g in the field, each listed once: the product of the
    distinct linear factors of g, gcd(x^q - x, g), is split into them by
    :func:`factor_squarefree`.

    Raises IdenticallyZero for the zero polynomial; row-by-row callers
    treat that case as 'every value satisfies the congruence'.
    """
    K = field
    g = u_trim(K, list(g))
    if not g:
        raise IdenticallyZero("root search on the zero polynomial")
    x = [K.zero, K.one]
    s = u_gcd(K, u_sub(K, u_pow_mod(K, x, K.size, g), x), g)
    return {K.neg(h[0]) for h in factor_squarefree(K, s)}


def _elt_key(c):
    return (c,) if isinstance(c, int) else tuple(c)


def factor_squarefree(K, g: list) -> list[list]:
    """Factor a monic squarefree univariate polynomial into monic
    irreducibles, in a deterministic order: distinct-degree factoring, then
    :func:`_equal_degree_split` with seeded random candidates."""
    g = u_monic(K, g)
    if u_deg(g) <= 1:
        return [g] if u_deg(g) == 1 else []
    factors: list = []
    q = K.size
    x = [K.zero, K.one]
    h = list(x)
    rem = g
    e = 0
    while u_deg(rem) > 0:
        e += 1
        if 2 * e > u_deg(rem):
            factors.append(rem)
            break
        h = u_pow_mod(K, h, q, rem)
        t = u_gcd(K, u_sub(K, h, x), rem)
        if u_deg(t) > 0:
            _equal_degree_split(K, t, e, random.Random(0xC0FFEE + e), factors)
            rem = u_divmod(K, rem, t)[0]
            if u_deg(rem) > 0:
                h = u_mod(K, h, rem)
    return sorted(factors, key=lambda f: (len(f), [_elt_key(c) for c in f]))
