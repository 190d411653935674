"""Integer utilities: primality, Moebius sieve, prime enumeration, factorization.

Everything here is exact integer arithmetic.  One routine,
``_sieve_window``, crosses off composites, over any window [lo, hi] given
the primes up to isqrt(hi) (a segmented sieve): ``_prime_flags`` is its
window from 0, and ``primes_in_range`` walks it over ``_SEGMENT_SIZE``
windows.  Tables are numpy-backed (one signed byte per integer for the
Moebius table) so limits up to ~1e7 stay within a few MB and sieve in
well under a second.  The sieves import numpy on first use, so that
``is_prime`` and ``factorize``, which the numpy-free subcommands of the
CLI need, load without it.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_SEGMENT_SIZE = 1 << 18  # segment length for the segmented prime sieve

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: psi_13, the least strong pseudoprime to all of _MR_BASES (Sorenson and
#: Webster, Math. Comp. 86, 2017): Miller-Rabin to them decides n below it
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test: trial division below 1e6, Miller-Rabin
    to the 13 prime bases 2..41 up to ``PRIME_TEST_BOUND``, and a
    ValueError naming the bound at and above it.  n is an integer: a numpy
    integer is taken as an int, and a float raises TypeError."""
    n = operator.index(n)
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"{n} is too large to test for primality: the test is "
                         f"deterministic only below {PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    if n < 10**6:
        i = 17
        while i * i <= n:
            if n % i == 0:
                return False
            i += 2
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class MobiusTable:
    """Moebius function values mu(1..limit) as a signed-byte array.

    values[d] is +1/-1 for squarefree d with an even/odd number of prime
    factors and 0 otherwise; index 0 is unused.  A plain class rather than
    a dataclass: ``dataclasses`` loads ``inspect``, which the numpy-free
    subcommands of the CLI would pay for at start-up.
    """

    __slots__ = ("limit", "values")

    def __init__(self, limit: int, values: np.ndarray):
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "values", values)

    def __setattr__(self, *_):
        raise AttributeError("MobiusTable is immutable")

    def __repr__(self):
        return f"MobiusTable(limit={self.limit})"

    def __getitem__(self, d: int) -> int:
        if not 1 <= d <= self.limit:
            raise IndexError(f"mu({d}) outside table limit {self.limit}")
        return int(self.values[d])


def _sieve_window(lo: int, hi: int, base: list[int]) -> np.ndarray:
    """Boolean array of length hi - lo + 1 with flags[i] = lo + i is prime,
    for 0 <= lo <= hi; ``base`` must hold every prime up to isqrt(hi)."""
    import numpy as np

    flags = np.ones(hi - lo + 1, dtype=bool)
    flags[: max(0, 2 - lo)] = False
    for p in base:
        flags[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return flags


def _prime_flags(limit: int) -> np.ndarray:
    """Boolean array of length limit+1 with flags[n] = n is prime."""
    import numpy as np

    root = math.isqrt(limit)
    base = np.flatnonzero(_prime_flags(root)).tolist() if root >= 2 else []
    return _sieve_window(0, limit, base)


def mobius_sieve(limit: int) -> MobiusTable:
    """Sieve mu(d) for d = 1..limit."""
    if limit < 1:
        raise ValueError("mobius_sieve limit must be >= 1")
    import numpy as np

    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    if limit >= 2:
        primes = np.nonzero(_prime_flags(limit))[0]
        for p in primes:
            p = int(p)
            mu[p::p] *= -1
            sq = p * p
            if sq <= limit:
                mu[sq::sq] = 0
    return MobiusTable(limit=limit, values=mu)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending, via a segmented sieve.

    An empty range (no primes between lo and hi) returns [].
    """
    if lo < 2 or lo > hi:
        raise ValueError("need 2 <= lo <= hi")
    import numpy as np

    base = np.flatnonzero(_prime_flags(math.isqrt(hi))).tolist()
    out: list[int] = []
    for start in range(lo, hi + 1, _SEGMENT_SIZE):
        flags = _sieve_window(start, min(start + _SEGMENT_SIZE - 1, hi), base)
        out += (np.flatnonzero(flags) + start).tolist()
    return out


def zeta2_inverse_partial(D: int) -> float:
    """Partial sum of mu(d)/d^2 for d <= D, summed in ascending d.

    Converges to 6/pi^2 ~ 0.6079271 with error O(1/D).
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    mu = mobius_sieve(D).values
    return math.fsum(int(mu[d]) / (d * d) for d in range(1, D + 1) if mu[d])


def factorize(k: int) -> list[tuple[int, int]]:
    """Prime factorization of k >= 1 as (prime, exponent) pairs, ascending,
    by trial division: the callers factor field degrees."""
    if k < 1:
        raise ValueError("factorize needs k >= 1")
    out = []
    d = 2
    while d * d <= k:
        e = 0
        while k % d == 0:
            k //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if k > 1:
        out.append((k, 1))
    return out
