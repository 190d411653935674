"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive pure-Python enumeration, sharing no
code with the library paths under test.
"""

import functools
import itertools
import math


def eval_mod(terms, x, y, p):
    return sum(c * pow(x, i, p) * pow(y, j, p) for (i, j), c in terms.items()) % p


def count_level_brute(terms, p, a, X, Y):
    """#{(x, y) in [1, floor X] x [1, floor Y] : f(x, y) = a mod p}."""
    a %= p
    total = 0
    for x in range(1, math.floor(X) + 1):
        for y in range(1, math.floor(Y) + 1):
            if eval_mod(terms, x, y, p) == a:
                total += 1
    return total


def count_visible_brute(terms, p, a, X, Y):
    a %= p
    total = 0
    for x in range(1, math.floor(X) + 1):
        for y in range(1, math.floor(Y) + 1):
            if math.gcd(x, y) == 1 and eval_mod(terms, x, y, p) == a:
                total += 1
    return total


def histogram_brute(terms, p, X, Y):
    """Per-level point counts and visible counts over the box, one pass."""
    level, visible = [0] * p, [0] * p
    for x in range(1, math.floor(X) + 1):
        for y in range(1, math.floor(Y) + 1):
            v = eval_mod(terms, x, y, p)
            level[v] += 1
            if math.gcd(x, y) == 1:
                visible[v] += 1
    return level, visible


def count_divisible_brute(terms, p, a, X, Y, d):
    """Points of the level curve whose coordinate gcd is divisible by d."""
    a %= p
    total = 0
    for x in range(1, math.floor(X) + 1):
        for y in range(1, math.floor(Y) + 1):
            if math.gcd(x, y) % d == 0 and eval_mod(terms, x, y, p) == a:
                total += 1
    return total


def mobius_brute(n):
    if n == 1:
        return 1
    m = n
    count = 0
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            count += 1
        d += 1
    if m > 1:
        count += 1
    return (-1) ** count


def primes_brute(lo, hi):
    out = []
    for n in range(max(2, lo), hi + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def first_rootless_monic(p, k):
    """First monic degree-k polynomial over F_p with no root in F_p,
    coefficients ascending, in lexicographic order with the constant
    coefficient varying fastest, then the x coefficient, and so on.

    For k in (2, 3) having no root is the same as being irreducible.
    """
    for head in itertools.product(range(p), repeat=k - 1):  # (c_{k-1}, ..., c_1)
        middle = list(reversed(head))
        # the values of x^k + c_{k-1} x^{k-1} + ... + c_1 x over F_p
        values = {
            (x**k + sum(c * x ** (i + 1) for i, c in enumerate(middle))) % p
            for x in range(p)
        }
        for c0 in range(p):
            if -c0 % p not in values:
                return [c0, *middle, 1]
    raise AssertionError("no rootless monic polynomial found")


def bad_levels_conic(terms, p):
    """The levels a in [0, p) at which the conic f - a is not absolutely
    irreducible, for f = A*U^2 + B*U*V + C*V^2 + D*U + E*V + G of total
    degree 2 modulo the odd prime p: those where the symmetric matrix
    [[2A, B, D], [B, 2C, E], [D, E, 2(G - a)]] of its homogenisation is
    singular, as a conic splits over the algebraic closure exactly when it
    is degenerate."""
    A, B, C, D, E, G = (terms.get(ij, 0) for ij in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)))
    if p == 2 or not (A % p or B % p or C % p):
        raise ValueError("a conic modulo an odd prime")

    def det(a):
        (r, s, t), (u, v, w), (x, y, z) = (2 * A, B, D), (B, 2 * C, E), (D, E, 2 * (G - a))
        return r * (v * z - w * y) - s * (u * z - w * x) + t * (u * y - v * x)

    return {a for a in range(p) if det(a) % p == 0}


def divides_mod(g, f, p):
    """Whether g divides f modulo p (both term dicts {(i, j): c}), by long
    division in the lex order with U first: a leading term of the rest that
    the leading term of g does not divide stays in the remainder."""
    g = {m: c % p for m, c in g.items() if c % p}
    rest = {m: c % p for m, c in f.items() if c % p}
    (gi, gj), inv = max(g), pow(g[max(g)], -1, p)
    while rest:
        i, j = max(rest)
        if i < gi or j < gj:
            return False
        q = rest[i, j] * inv % p
        for (a, b), c in g.items():
            m = (a + i - gi, b + j - gj)
            rest[m] = (rest.get(m, 0) - q * c) % p
            if not rest[m]:
                del rest[m]
    return True


@functools.lru_cache(maxsize=None)
def _gf_tables(p, k):
    """Addition and multiplication tables of GF(p^k), modulo the monic
    first_rootless_monic(p, k) (irreducible for k in (2, 3)); an element is
    the integer whose base-p digits are its coefficients, constant first,
    so the integers below p are F_p."""
    modulus = first_rootless_monic(p, k)
    digits = [[n // p**i % p for i in range(k)] for n in range(p**k)]

    def encode(cs):
        return sum(c % p * p**i for i, c in enumerate(cs))

    def times(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top]
            for i, m in enumerate(modulus):
                prod[top - k + i] -= c * m
        return encode(prod[:k])

    add = [[encode([x + y for x, y in zip(a, b)]) for b in digits] for a in digits]
    mul = [[times(a, b) for b in digits] for a in digits]
    return add, mul


def _has_line_factor(terms, p, k, over_base):
    """Whether a line U = g or V = a*U + g with coefficients in GF(p^k)
    (in F_p when ``over_base``) divides f, of total degree d, k >= 2: f
    then vanishes at d + 1 distinct points (t in 0, 1, ..., d) of the line,
    and conversely, as f restricted to a line has degree <= d in t."""
    add, mul = _gf_tables(p, k)
    d = max(i + j for i, j in terms)

    def f(u, v):
        pu, pv, total = [1], [1], 0
        for _ in range(d):
            pu.append(mul[pu[-1]][u])
            pv.append(mul[pv[-1]][v])
        for (i, j), c in terms.items():
            total = add[total][mul[c % p][mul[pu[i]][pv[j]]]]
        return total

    coefficients = range(p if over_base else p**k)
    for g in coefficients:
        if all(f(g, t) == 0 for t in range(d + 1)):
            return True
        if f(0, g) == 0 and any(all(f(t, add[mul[a][t]][g]) == 0 for t in range(1, d + 1))
                                for a in coefficients):
            return True
    return False


def verdict_lines(terms, p):
    """(irreducible over F_p, absolutely irreducible) for f of total degree
    2 or 3 modulo p.  Every factorisation of f then has a linear factor,
    over F_p when f is reducible there; an f irreducible over F_p but not
    absolutely is the product of the d conjugates of a line over F_{p^d}.
    So f is irreducible over F_p
    when no line over F_p divides it, and absolutely irreducible when no
    line over F_{p^2} or F_{p^3} does."""
    terms = {ij: c % p for ij, c in terms.items() if c % p}
    if max(i + j for i, j in terms) not in (2, 3):
        raise ValueError("a polynomial of total degree 2 or 3 modulo p")
    if _has_line_factor(terms, p, 2, over_base=True):
        return False, False
    return True, not (_has_line_factor(terms, p, 2, False) or _has_line_factor(terms, p, 3, False))


def bad_levels_lines(terms, p):
    """The levels a in [0, p) at which f - a, of total degree 2 or 3 modulo
    p, is not absolutely irreducible, by :func:`verdict_lines` at each."""
    return {a for a in range(p)
            if not verdict_lines({**terms, (0, 0): terms.get((0, 0), 0) - a}, p)[1]}
