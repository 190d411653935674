"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive pure-Python enumeration, sharing no
code with the library paths under test.
"""

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
