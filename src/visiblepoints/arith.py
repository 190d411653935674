"""Integer utilities: primality, Moebius sieve, prime enumeration, factorization.

Everything here is exact integer arithmetic.  Tables are numpy-backed
(one signed byte per integer for the Moebius table) so limits up to ~1e7
stay within a few MB and sieve in well under a second.  The sieves import
numpy on first use, so that ``is_prime`` and ``factorize``, which the
numpy-free subcommands of the CLI need, load without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_SEGMENT_SIZE = 1 << 18  # segment length for the segmented prime sieve

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division, Miller-Rabin above 1e6)."""
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
    # Miller-Rabin with a base set deterministic far beyond 64-bit inputs.
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


@dataclass(frozen=True, eq=False)
class MobiusTable:
    """Moebius function values mu(1..limit) as a signed-byte array.

    values[d] is +1/-1 for squarefree d with an even/odd number of prime
    factors and 0 otherwise; index 0 is unused.
    """

    limit: int
    values: np.ndarray

    def __getitem__(self, d: int) -> int:
        if not 1 <= d <= self.limit:
            raise IndexError(f"mu({d}) outside table limit {self.limit}")
        return int(self.values[d])


def _prime_flags(limit: int) -> np.ndarray:
    """Boolean array of length limit+1 with flags[n] = n is prime."""
    import numpy as np

    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


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

    base = np.nonzero(_prime_flags(math.isqrt(hi)))[0]
    out: list[int] = []
    start = lo
    while start <= hi:
        stop = min(start + _SEGMENT_SIZE, hi + 1)
        seg = np.ones(stop - start, dtype=bool)
        for p in base:
            p = int(p)
            first = max(p * p, ((start + p - 1) // p) * p)
            if first < stop:
                seg[first - start :: p] = False
        if start <= 1:
            seg[: 2 - start] = False
        out.extend(int(start + i) for i in np.nonzero(seg)[0])
        start = stop
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
    """Prime factorization of k >= 1 as (prime, exponent) pairs, ascending."""
    if k < 1:
        raise ValueError("factorize needs k >= 1")
    out = []
    for p in (2, 3):
        e = 0
        while k % p == 0:
            k //= p
            e += 1
        if e:
            out.append((p, e))
    d = 5
    while d * d <= k:
        for q in (d, d + 2):
            e = 0
            while k % q == 0:
                k //= q
                e += 1
            if e:
                out.append((q, e))
        d += 6
    if k > 1:
        out.append((k, 1))
    return out

