"""Bivariate polynomials in U and V: exact integer coefficients and their
reductions modulo a prime.

Text format accepted by :func:`parse_poly`: a sum of terms ``c*U^i*V^j``
joined by ``+`` or ``-``.  The ``*`` between coefficient and variables and
the ``^`` before an exponent are mandatory; a coefficient of 1, an exponent
of 1 and absent variables may be omitted.  Whitespace is insignificant.
Examples: ``U*V``, ``V^2 - U^3 - U - 1``, ``3*U^2*V - 7``.
"""

from __future__ import annotations

import math
import operator
import re

from .arith import is_prime
from .errors import DegenerateReduction, PolynomialParseError

_TERM_VARPART = re.compile(r"^(?:(\d+)\*)?([UV](?:\^\d+)?(?:\*[UV](?:\^\d+)?)*)$")
_TERM_CONST = re.compile(r"^(\d+)$")
_FACTOR = re.compile(r"^([UV])(?:\^(\d+))?$")

#: largest p for which a product of two residues fits in int64
MAX_GRID_PRIME = math.isqrt(2**63 - 1)


def _parse_term(term: str) -> tuple[int, int, int]:
    """One signed-stripped term -> (coefficient, U-exponent, V-exponent)."""
    m = _TERM_CONST.match(term)
    if m:
        return int(m.group(1)), 0, 0
    m = _TERM_VARPART.match(term)
    if not m:
        raise PolynomialParseError(
            f"bad term {term!r}: expected c*U^i*V^j with explicit '*' and '^'"
        )
    coef = int(m.group(1)) if m.group(1) else 1
    iexp = jexp = 0
    seen = set()
    for factor in m.group(2).split("*"):
        fm = _FACTOR.match(factor)
        var, exp = fm.group(1), int(fm.group(2) or 1)
        if exp < 1:
            raise PolynomialParseError(f"bad exponent in term {term!r}")
        if var in seen:
            raise PolynomialParseError(f"variable {var} repeated in term {term!r}")
        seen.add(var)
        if var == "U":
            iexp = exp
        else:
            jexp = exp
    return coef, iexp, jexp


def parse_poly(text: str) -> "IntBivariatePoly":
    """Parse polynomial text in the c*U^i*V^j grammar."""
    s = "".join(text.split())
    if not s:
        raise PolynomialParseError("empty polynomial text")
    bad = re.search(r"[^0-9UV+\-*^]", s)
    if bad:
        raise PolynomialParseError(
            f"unexpected character {bad.group(0)!r}; only variables U and V are allowed"
        )
    # Split into signed terms at top level (every +/- is top level here).
    terms: dict[tuple[int, int], int] = {}
    pos = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        pos = 1
    start = pos
    chunks: list[tuple[int, str]] = []
    while pos <= len(s):
        if pos == len(s) or s[pos] in "+-":
            if start == pos:
                raise PolynomialParseError(f"empty term in {text!r}")
            chunks.append((sign, s[start:pos]))
            if pos < len(s):
                sign = -1 if s[pos] == "-" else 1
            start = pos + 1
        pos += 1
    for sgn, chunk in chunks:
        c, i, j = _parse_term(chunk)
        key = (i, j)
        terms[key] = terms.get(key, 0) + sgn * c
    return IntBivariatePoly(terms)


class _BivariatePoly:
    """The body of both polynomial classes: {(i, j): coefficient != 0} over
    Z (p is None) or modulo the prime p.  Immutable after construction; the
    total degree is cached.  Equal when class, p and terms are.
    """

    __slots__ = ("p", "terms", "degree")

    def __init__(self, p: int | None, terms: dict[tuple[int, int], int]):
        p = None if p is None else operator.index(p)
        clean = {}
        for (i, j), c in terms.items():
            i, j, c = operator.index(i), operator.index(j), operator.index(c)
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            c = c if p is None else c % p
            if c:
                clean[(i, j)] = c
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "degree", max((i + j for i, j in clean), default=-1))

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def deg_u(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    @property
    def deg_v(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return self.degree <= 0

    def evaluate(self, x, y):
        """f(x, y), reduced mod p for a reduction, by :func:`_evaluate`.

        x and y are ints, numpy integers of any width or integer arrays,
        which broadcast to the shape of the result even when f is constant.
        Exact for every argument: int64 where no value can pass 2^63 - 1,
        Python ints (an object array) otherwise (:func:`_exact`).
        """
        return _evaluate(self.terms, x, y, self.p)

    def text(self) -> str:
        """Canonical text form (terms sorted by total degree, then U-degree)."""
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda ij: (-(ij[0] + ij[1]), -ij[0])):
            c = self.terms[(i, j)]
            mono = "*".join(
                s
                for s in (
                    f"U^{i}" if i > 1 else ("U" if i == 1 else ""),
                    f"V^{j}" if j > 1 else ("V" if j == 1 else ""),
                )
                if s
            )
            mag = abs(c)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.p == other.p and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.p, frozenset(self.terms.items())))


class IntBivariatePoly(_BivariatePoly):
    """Bivariate polynomial over Z, stored as {(i, j): coefficient != 0};
    ``p`` is None.  Evaluation is exact for every numpy integer width."""

    __slots__ = ()

    def __init__(self, terms: dict[tuple[int, int], int]):
        super().__init__(None, terms)

    def __repr__(self) -> str:
        return f"IntBivariatePoly({self.text()!r})"


class ModBivariatePoly(_BivariatePoly):
    """Reduction of an integer bivariate polynomial modulo a prime p.

    Coefficients live in [0, p-1]; zero coefficients are not stored.
    Evaluation is exact at every p and for every numpy integer width.
    """

    __slots__ = ()

    def __init__(self, p: int, terms: dict[tuple[int, int], int]):
        super().__init__(p, terms)

    def specialize_u(self, x: int) -> list[int]:
        """Coefficients (ascending in V) of the univariate V -> f(x, V) over F_p.

        A zero polynomial comes back as []; callers must handle it.
        """
        rows = _horner_rows(self.terms, x, self.p)
        out = [0] * (max(rows, default=-1) + 1)
        for j, c in rows.items():
            out[j] = c
        while out and out[-1] == 0:
            out.pop()
        return out

    def subtract_const(self, a: int) -> "ModBivariatePoly":
        """f - a modulo p."""
        terms = dict(self.terms)
        terms[(0, 0)] = (terms.get((0, 0), 0) - a) % self.p
        return ModBivariatePoly(self.p, terms)

    def scale_args(self, d: int) -> "ModBivariatePoly":
        """The polynomial (U, V) -> f(d*U, d*V) modulo p."""
        p = self.p
        terms = {(i, j): c * pow(d, i + j, p) for (i, j), c in self.terms.items()}
        return ModBivariatePoly(p, terms)

    def __repr__(self) -> str:
        return f"ModBivariatePoly(p={self.p}, {self.text()!r})"


def _mul_pow(acc, x, e: int, p: int | None):
    """acc * x^e by square-and-multiply, reduced mod p after each product
    when p is given.  For x >= 1 no intermediate exceeds max(acc * x^e, x^e),
    and modulo p none exceeds (p - 1)^2."""
    while e:
        if e & 1:
            acc = acc * x
            if p is not None:
                acc = acc % p
        e >>= 1
        if e:
            x = x * x
            if p is not None:
                x = x % p
    return acc


def _horner_sparse(pairs, x, p: int | None = None):
    """sum of c * x^e over (e, c) in pairs, e strictly descending, by Horner
    over the gaps between exponents (:func:`_mul_pow`); reduced mod p when p
    is given.  The result has the broadcast shape of x and the c."""
    acc, prev = x * 0, pairs[0][0] if pairs else 0
    for e, c in pairs:
        acc = _mul_pow(acc, x, prev - e, p) + c
        if p is not None:
            acc = acc % p
        prev = e
    return _mul_pow(acc, x, prev, p)


def _horner_rows(terms: dict[tuple[int, int], int], x, p: int | None = None) -> dict:
    """{j: c_j(x)} over the V-powers j of f, descending, with f(x, V) = sum
    of c_j(x) * V^j, by :func:`_horner_sparse` in U; reduced mod p when p is
    given.  With :func:`_evaluate` it is the only code that evaluates f.

    x is an int or an integer array in the kernel's element type
    (:func:`_exact`; over Z, :func:`_evaluate` picks it), and every c_j(x)
    has its shape.  Modulo p, x is reduced first, so every product combines
    values below p.  The work per row grows with the number of terms and
    the log of the exponent gaps, not the degree.
    """
    x = _exact(x, p is not None and p > MAX_GRID_PRIME)
    if p is not None:
        x = x % p
    rows: dict = {}
    for (i, j), c in sorted(terms.items(), key=lambda t: t[0][::-1], reverse=True):
        rows.setdefault(j, []).append((i, c))
    return {j: _horner_sparse(row, x, p) for j, row in rows.items()}


def _evaluate(terms: dict[tuple[int, int], int], x, y, p: int | None = None):
    """f(x, y) = sum of c_j(x) * y^j over the V-powers j of f, reduced mod p
    when p is given; the only code that evaluates f at points.

    The row coefficients c_j(x) come from :func:`_horner_rows`, O(rows)
    work; the powers y^j are built once on y, ascending, by
    :func:`_mul_pow` over the gaps between the exponents, so a huge sparse
    exponent costs its bit length; the j = 0 term needs no power.  Array
    arguments broadcast, and the result has their full broadcast shape;
    only an f with no V term costs a pass just to broadcast.

    Modulo p both factors of each product are residues, so a product is
    at most (p - 1)^2, and the sum is reduced lazily: after every m =
    (2^63 - 1 - (p - 1)) // (p - 1)^2 products and once at the end, which
    keeps int64 exact for p <= MAX_GRID_PRIME (m >= 1 there).  For p =
    4003 that is one reduction per point; reducing before every added
    product instead doubles the cost of an f with three or four V-powers
    there.  Above MAX_GRID_PRIME the sum is reduced only at the end.  Over
    Z nothing is reduced.  Every numpy integer argument, of any width,
    goes through :func:`_exact`, which keeps int64 only where no value can
    wrap: modulo p up to MAX_GRID_PRIME, and over Z while
    :func:`_fits_int64` holds for the largest |x| and |y| of the arguments.
    """
    if p is None:
        wide = (_fixed_width(x) or _fixed_width(y)) and not _fits_int64(terms, _largest(x), _largest(y))
    else:
        wide = p > MAX_GRID_PRIME
    x, y = _exact(x, wide), _exact(y, wide)
    period = None if p is None or wide else (2**63 - 1 - (p - 1)) // (p - 1) ** 2
    if p is not None:
        y = y % p
    rows = _horner_rows(terms, x, p)
    const = rows.pop(0, None)
    if not rows:
        return (x * 0 if const is None else const) + y * 0
    power, prev = y, 1
    for k, j in enumerate(sorted(rows)):
        power = _mul_pow(power, y, j - prev, p)
        prev = j
        if k == 0:
            acc = rows[j] * power
            if const is not None:
                acc += const
        else:
            if period is not None and k % period == 0:
                acc %= p
            acc += rows[j] * power
    if p is not None:
        acc %= p
    return acc


def _exact(v, wide: bool):
    """v in an element type the kernel computes with exactly; the one rule
    that picks it.  A numpy integer scalar becomes an int; an integer array
    of any width becomes int64, or Python ints (object dtype) when ``wide``
    (a value of f could pass 2^63 - 1) or when a uint64 value is >= 2^63.
    Anything else comes back unchanged.  Numpy values are told apart by
    their attributes, so that this module loads without numpy."""
    if not _fixed_width(v):
        return v
    if v.shape == ():
        return int(v)
    if wide or (v.dtype.kind == "u" and v.dtype.itemsize == 8 and v.size and int(v.max()) >> 63):
        return v.astype(object)
    return v.astype("int64", copy=False)


def _fits_int64(terms: dict[tuple[int, int], int], X: int, Y: int) -> bool:
    """True when B = sum |c_ij| * X^i * Y^j < 2^63 for the largest |x| = X
    >= 1 and |y| = Y >= 1: B bounds every power y^j, row coefficient c_j(x)
    with its Horner steps and partial sum of the terms c_j(x) * y^j, so f
    evaluates over Z in int64 without overflow.  A term of at least
    (bits(c) - 1) + i * (bits(X) - 1) + j * (bits(Y) - 1) + 1 >= 64 bits is
    rejected before its powers are formed, so a huge exponent costs nothing.
    """
    bx, by = X.bit_length() - 1, Y.bit_length() - 1
    total = 0
    for (i, j), c in terms.items():
        c = abs(c)
        if c.bit_length() - 1 + i * bx + j * by >= 63:
            return False
        total += c * X**i * Y**j
        if total >= 1 << 63:
            return False
    return True


def _fixed_width(v) -> bool:
    """True for a numpy integer array or scalar, which can wrap."""
    return getattr(v, "dtype", None) is not None and v.dtype.kind in "iu"


def _largest(v) -> int:
    """max(|v|, 1) over an int or an integer array, in Python ints, so the
    int64 minimum gives 2^63."""
    if getattr(v, "shape", ()) == ():
        return max(abs(int(v)), 1)
    return max(-int(v.min()), int(v.max()), 1) if v.size else 1


def reduce_mod(f: IntBivariatePoly, p: int) -> ModBivariatePoly:
    """Reduce f modulo the prime p.

    Raises DegenerateReduction when the result is constant (including the
    zero polynomial): such reductions disqualify every curve-level use.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    fm = ModBivariatePoly(p, f.terms)
    if fm.is_constant():
        raise DegenerateReduction(
            f"{f.text()} reduces to a constant modulo {p}"
        )
    return fm
