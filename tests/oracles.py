"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive pure-Python enumeration, sharing no
code with the library paths under test.
"""

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
