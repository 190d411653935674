"""Exact irreducibility of bivariate polynomials over finite fields.

The reducibility engine decides whether f(U, V) factors into two
nonconstant polynomials over a given finite field K.  Strategy, in order:

0. (absolute verdict only) Gao's Newton-polygon certificate: when f is
   divisible by neither U nor V and the convex hull of its exponents is a
   segment or a triangle whose edge vectors have coprime coordinates, that
   hull is integrally indecomposable, so f is absolutely irreducible over
   every field (S. Gao, Absolute irreducibility of polynomials via Newton
   polytopes, J. Algebra 237, 2001).  The certificate only ever says yes;
   every other input goes to the exact engine below;
1. a perfect p-th power is reducible, and an input whose V-exponents are
   all divisible by p has U and V exchanged.  A degree-1 input then has
   V-degree 1 and is irreducible, as is any of V-degree 1 that step 2
   finds no factor of.  An input in U alone or V alone is not special:
   it takes steps 2-5 as any other does;
2. a nonconstant gcd of the V-coefficients (the content in K[U]) is a
   factor;
3. the polynomial is made monic in V (multiplying by a power of its
   V-leading coefficient and rescaling V, an irreducibility-preserving
   change over the rational function field K(U));
4. a nontrivial gcd with the V-derivative (computed by a fraction-free
   pseudo-remainder sequence) exhibits a repeated factor, reported with
   leading coefficient 1 when f is in one variable, and a zero
   V^0-coefficient the factor V;
5. otherwise the squarefree monic polynomial is specialized at a point
   u0 with squarefree image, its univariate image is factored by
   Cantor-Zassenhaus (``fields.factor_squarefree``), the factors are
   Hensel-lifted U-adically to precision exceeding every possible
   factor's U-degree, and all subset products are tested by exact trial
   division.  A factor found this way is genuine; if no subset divides,
   the polynomial is irreducible over K.  At most B - 1 points u0 fail,
   B = (2m - 1)*deg_U + 1 for V-degree m, as each is a root of the
   discriminant;
6. when K has too few elements to hold such a point, the verdict is that
   over L = F_{|K|^k} for the least k >= 2 coprime to the vertex gcd g of
   f's Newton polygon (``_vertex_gcd``) with |K|^k > B.  An f irreducible
   over K stays irreducible over L, as its r conjugate absolute factors
   have r | g, and a reducible f stays reducible, so the verdicts agree;
   B depends only on the degrees, so L always has the point.  A factor
   over L need not lie in K[U, V], so none is reported.

A polynomial in U and V is held as the list of its V-coefficients, each a
U-polynomial over K.  The univariate helpers ``fields.u_*`` run on it with
K[U] (``_UPolys``) in place of a field: the V-derivative, the steps of the
pseudo-remainder sequence, and the trial division of step 5, which divides
only by polynomials monic in V.  The subset products of step 5 are formed
in K[U]/(U^kappa), the precision of the lift.

Absolute irreducibility reduces to irreducibility over F_p and over
F_{p^l} for every prime l dividing the vertex gcd g of the Newton polygon
(``_vertex_gcd`` has the proof); where g = 1 no extension field is built,
nor for an f in U alone or V alone irreducible over F_p: its deg f roots
are Frobenius conjugates, so l is the least prime factor of deg f.

The bad levels of f, the a for which f - a is not absolutely irreducible,
come from Ruppert's criterion in Gao's form (W. Ruppert, J. Number Theory
77, 1999; S. Gao, Math. Comp. 72, 2003).  For F of bidegree (m, n), the
F_p-linear map (g, h) -> F*g_V - g*F_V - F*h_U + h*F_U on g of bidegree at
most (m - 1, n) and h of bidegree at most (m, n - 1) has (F_U, F_V) in its
kernel.  At every p a bad level has nullity >= 2, and above the bound
B = max((2m - 1)*n, (2n - 1)*m) every level of nullity >= 2 is bad (the
proofs are in ``bad_level_values``).  Only the constant term of F = f - a
depends on a, so its matrix is a linear pencil M(a) = M0 - a*N, N the
matrix of (g, h) -> g_V - h_U.  Where some level has nullity 1, the levels
of nullity >= 2 are roots of one (c - 1)-minor of the pencil that is not
identically zero, c the number of columns; where none has, such as for an
f free of U or of V, whose map is zero, every level has nullity >= 2.  For
p > B these levels are the bad set, with no verdict; for p <= B each gets
the exact verdict.  The support of f - a is the same at every level but
a = f(0, 0), so when Gao's certificate accepts it, f(0, 0) alone gets the
verdict, at every p; a degree-1 f has no bad level.  A bad set of every
level is refused above MAX_ALL_LEVELS_PRIME.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .arith import factorize
from .errors import ConstantPolynomial
from .fields import (
    ExtensionField,
    PrimeField,
    factor_squarefree,
    u_add,
    u_deg,
    u_deriv,
    u_divmod,
    u_ext_gcd,
    u_eval,
    u_gcd,
    u_monic,
    u_mul,
    u_scale,
    u_shift,
    u_sub,
    u_trim,
    univariate_roots,
)
from .poly import IntBivariatePoly, ModBivariatePoly, reduce_mod

#: the largest p at which bad_level_values lists every level rather than
#: raise ValueError: p levels take p lines of output
MAX_ALL_LEVELS_PRIME = 10**5

# ---------------------------------------------------------------------------
# bivariate polynomials as lists over the V-degree of U-polynomials


class _UPolys:
    """K[U] as the coefficient ring of the ``fields.u_*`` helpers, so that
    they run on polynomials in V over K[U]; with ``kappa`` it is
    K[U]/(U^kappa), where the Hensel subset products are formed.

    Elements are trimmed U-polynomials over K.  ``inv`` inverts the nonzero
    constants, the units of K[U]; every division in V here is by a
    polynomial monic in V.
    """

    __slots__ = ("K", "kappa", "characteristic")

    def __init__(self, K, kappa: int | None = None):
        self.K = K
        self.kappa = kappa
        self.characteristic = K.characteristic

    @property
    def zero(self) -> list:
        return []

    @property
    def one(self) -> list:
        return [self.K.one]

    def add(self, a: list, b: list) -> list:
        return u_add(self.K, a, b)

    def sub(self, a: list, b: list) -> list:
        return u_sub(self.K, a, b)

    def mul(self, a: list, b: list) -> list:
        prod = u_mul(self.K, a, b)
        return prod if self.kappa is None else u_trim(self.K, prod[: self.kappa])

    def inv(self, a: list) -> list:
        if u_deg(a) != 0:
            raise ZeroDivisionError("only nonzero constants are inverted")
        return [self.K.inv(a[0])]

    def from_int(self, n: int) -> list:
        return u_trim(self.K, [self.K.from_int(n)])


def _b_degu(bp: list) -> int:
    return max((u_deg(e) for e in bp if e), default=-1)


def _from_terms(K, terms: dict) -> list:
    """The polynomial with these nonzero terms as a list over its V-degree."""
    bp: list = [[] for _ in range(max(j for _, j in terms) + 1)]
    for (i, j), c in terms.items():
        e = bp[j]
        while len(e) <= i:
            e.append(K.zero)
        e[i] = c
    for e in bp:
        u_trim(K, e)
    return bp


def _b_to_terms(bp: list, K, swap: bool) -> dict:
    out = {}
    for j, e in enumerate(bp):
        for i, c in enumerate(e):
            if c != K.zero:
                out[(j, i) if swap else (i, j)] = c
    return out


def _b_eval_u(K, bp: list, u0) -> list:
    return u_trim(K, [u_eval(K, e, u0) for e in bp])


def _b_layer(K, bp: list, t: int) -> list:
    return u_trim(K, [e[t] if t < len(e) else K.zero for e in bp])


def _b_shift_u(K, bp: list, c) -> list:
    return [u_shift(K, e, c) for e in bp]


def _b_content_u(K, bp: list) -> list:
    g: list = []
    for e in bp:
        if e:
            g = u_gcd(K, g, e)
            if u_deg(g) == 0:
                break
    return g


def _b_primitive_part(K, bp: list) -> list:
    cont = _b_content_u(K, bp)
    if u_deg(cont) <= 0:
        return bp
    return [u_divmod(K, e, cont)[0] for e in bp]


def _u_pow(K, a: list, e: int) -> list:
    out = [K.one]
    for _ in range(e):
        out = u_mul(K, out, a)
    return out


def _pseudo_rem_v(R: _UPolys, a: list, b: list) -> list:
    """A remainder of a by b in K[U][V] after scaling by powers of b's
    V-leading coefficient; preserves gcds up to K[U]-content."""
    db, lcb = u_deg(b), b[-1]
    while u_deg(a) >= db:
        shifted = [R.zero] * (u_deg(a) - db) + u_scale(R, b, a[-1])
        a = u_sub(R, u_scale(R, a, lcb), shifted)
    return a


def _gcd_v_primitive(R: _UPolys, a: list, b: list) -> list:
    """gcd of a and b as polynomials in V over K(U), primitive-part PRS.

    Needs deg_V a >= deg_V b, as the one caller's F and F_V have; each
    pseudo-remainder has lower V-degree than its divisor, so the order
    holds at every step."""
    a, b = _b_primitive_part(R.K, a), _b_primitive_part(R.K, b)
    while b:
        a, b = b, _b_primitive_part(R.K, _pseudo_rem_v(R, a, b))
    return a


# ---------------------------------------------------------------------------
# Hensel lifting


def _lift_pair(K, F: list, g0: list, h0: list, kappa: int) -> tuple[list, list]:
    """Lift F = g0*h0 (mod U) to G*H = F (mod U^kappa), G = g0 and H = h0
    at U = 0, both monic in V."""
    gee, bez_s, bez_t = u_ext_gcd(K, g0, h0)
    if u_deg(gee) != 0:
        raise AssertionError("Hensel factors must be coprime at U=0")
    g_layers = [list(g0)]
    h_layers = [list(h0)]
    for t in range(1, kappa):
        e = _b_layer(K, F, t)
        for i in range(1, t):
            e = u_sub(K, e, u_mul(K, g_layers[i], h_layers[t - i]))
        q, h_t = u_divmod(K, u_mul(K, e, bez_s), h0)
        g_t = u_add(K, u_mul(K, e, bez_t), u_mul(K, q, g0))
        if u_deg(g_t) >= u_deg(g0):
            raise AssertionError("lift layer degree overflow")
        g_layers.append(g_t)
        h_layers.append(h_t)
    return _layers_to_bp(K, g_layers), _layers_to_bp(K, h_layers)


def _layers_to_bp(K, layers: list) -> list:
    m = max(len(layer) for layer in layers)
    return [u_trim(K, [layer[j] if j < len(layer) else K.zero for layer in layers])
            for j in range(m)]


def _hensel_factors(K, F: list, phis: list, kappa: int) -> list:
    """Lift the pairwise-coprime monic factors of F(0, V) to U-adic
    precision kappa.  At kappa = 1 (F free of U) each lift is its factor
    itself, so the factors are returned as they are, without the Bezout
    cofactors of the lift."""
    if kappa == 1:
        return [[u_trim(K, [c]) for c in phi] for phi in phis]
    out = []
    cur = F
    for i in range(len(phis) - 1):
        h0 = [K.one]
        for phi in phis[i + 1 :]:
            h0 = u_mul(K, h0, phi)
        g, cur = _lift_pair(K, cur, phis[i], h0, kappa)
        out.append(g)
    out.append(cur)
    return out


# ---------------------------------------------------------------------------
# the reducibility engine


def _unmonicize(K, g: list, lam: list | None) -> list:
    """Map a monic-in-V factor of the monicized polynomial back to a factor
    of the original via V -> lam(U)*V and a primitive part."""
    if lam is None:
        return g
    return _b_primitive_part(K, [u_mul(K, e, _u_pow(K, lam, j)) for j, e in enumerate(g)])


def _reducible_over(K, f_terms: dict) -> tuple[bool, dict | None]:
    """Decide reducibility over K of the polynomial whose terms have F_p
    coefficients given as ints, p the characteristic of K.

    Returns (reducible, factor-or-None); the factor, when present, is a
    genuine nonconstant proper factor as {(i, j): c} in f's own U and V.
    """
    char = K.characteristic
    terms = {ij: K.from_int(c) for ij, c in f_terms.items()}
    swapped = False
    if all(j % char == 0 for _, j in terms):
        if all(i % char == 0 for i, _ in terms):
            return True, None  # a perfect char-th power
        terms = {(j, i): c for (i, j), c in terms.items()}
        swapped = True

    R = _UPolys(K)
    bp = _from_terms(K, terms)
    cont = _b_content_u(K, bp)
    if u_deg(cont) >= 1:
        return True, _b_to_terms([cont], K, swapped)
    m = u_deg(bp)
    if m == 1:
        return False, None

    lead = bp[m]
    if u_deg(lead) == 0:
        F = u_monic(R, bp)
        lam = None
    else:
        F = [u_mul(K, bp[j], _u_pow(K, lead, m - 1 - j)) for j in range(m)]
        F.append([K.one])
        lam = lead

    g = _gcd_v_primitive(R, F, u_deriv(R, F))
    if u_deg(g) >= 1:
        if not _b_degu(bp):
            g = u_monic(R, g)  # f in one variable: the gcd, up to a unit, made monic
        return True, _b_to_terms(_unmonicize(K, g, lam), K, swapped)
    if not bp[0]:
        # V divides f and m >= 2: the factor, scaled as the subset search
        # below finds it first, is reported also when K has no fiber for it
        return True, _b_to_terms(_unmonicize(K, [[], [K.one]], lam), K, swapped)

    # find u0 with a squarefree specialization; at most (2m-1)*deg_U(F)
    # points can fail, so scanning one more settles it for large fields
    bound = (2 * m - 1) * max(1, _b_degu(F)) + 1
    u0 = None
    for idx in range(min(K.size, bound + 1)):
        cand = K.element_at(idx)
        fu = _b_eval_u(K, F, cand)
        if u_deg(u_gcd(K, fu, u_deriv(K, fu))) == 0:
            u0 = cand
            break
    if u0 is None:
        if K.size > bound:
            raise AssertionError("squarefree polynomial with no squarefree fiber")
        # K is too small to hold a fiber: decide over L = F_{|K|^k} instead,
        # with k coprime to g, where f is reducible exactly when it is over K
        g, k = _vertex_gcd(f_terms), 2
        while math.gcd(k, g) != 1 or K.size**k <= bound:
            k += 1
        L = _extension_field(char, getattr(K, "k", 1) * k)
        return _reducible_over(L, f_terms)[0], None

    ft = _b_shift_u(K, F, u0)
    f0 = _b_layer(K, ft, 0)
    phis = factor_squarefree(K, f0)
    s = len(phis)
    if s == 1:
        return False, None
    kappa = _b_degu(ft) + 1
    lifted = _hensel_factors(K, ft, phis, kappa)
    degs = [u_deg(phi) for phi in phis]
    truncated = _UPolys(K, kappa)
    for mask in range(1, (1 << s) - 1):
        dsum = sum(degs[i] for i in range(s) if mask >> i & 1)
        if 2 * dsum > m:
            continue
        if 2 * dsum == m and not mask & 1:
            continue
        cand = [R.one]
        for i in range(s):
            if mask >> i & 1:
                cand = u_mul(truncated, cand, lifted[i])
        if not u_divmod(R, ft, cand)[1]:
            back = _b_shift_u(K, cand, K.neg(u0))
            return True, _b_to_terms(_unmonicize(K, back, lam), K, swapped)
    return False, None


# ---------------------------------------------------------------------------
# public verdict operations


class IrreducibilityVerdict(NamedTuple):
    """Outcome of the absolute-irreducibility decision.

    ``witness`` is an int e > 1 (an extension degree over which a
    base-irreducible polynomial splits), a string describing a factor over
    the base field, or None.  A named tuple rather than a dataclass, which
    would load ``inspect`` for ``irred`` and ``badset``.
    """

    irreducible_over_base: bool
    absolutely_irreducible: bool
    witness: int | str | None = None


def is_irreducible_bivariate(fmod: ModBivariatePoly, field) -> bool:
    """True iff f admits no factorization into two nonconstant polynomials
    over the given (prime or extension) field, which must have f's
    characteristic p (else ValueError)."""
    if fmod.is_constant():
        raise ConstantPolynomial("irreducibility of a constant polynomial")
    if field.characteristic != fmod.p:
        raise ValueError(f"a polynomial mod {fmod.p} over a field of characteristic "
                         f"{field.characteristic}")
    return not _reducible_over(field, fmod.terms)[0]


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_vertices(points) -> list:
    """Vertices of the convex hull of distinct lattice points (Andrew's
    monotone chain); points inside an edge are not vertices."""
    pts = sorted(points)
    if len(pts) <= 2:
        return pts

    def chain(seq):
        out: list = []
        for q in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], q) <= 0:
                out.pop()
            out.append(q)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


def _gao_certificate(terms) -> bool:
    """True when Gao's criterion proves the polynomial with these exponents
    absolutely irreducible; False means undecided, not reducible.

    A Newton-polygon segment or triangle with vertices v0, v1 (, v2) and
    gcd(v1 - v0 (, v2 - v0)) = 1 is integrally indecomposable, so any
    factorization has a monomial factor; a term free of U and a term free
    of V rule that out (``U*V^2 + U^4 + U`` has such a triangle but the
    factor U).
    """
    if all(i for i, _ in terms) or all(j for _, j in terms):
        return False
    hull = _hull_vertices(terms)
    if len(hull) not in (2, 3):
        return False
    return math.gcd(*(c - c0 for vertex in hull[1:] for c, c0 in zip(vertex, hull[0]))) == 1


def _vertex_gcd(terms) -> int:
    """g, the gcd of the coordinates of the Newton polygon's vertices; for
    nonconstant f, g divides deg_U f, deg_V f and deg f, each taken at a
    vertex.

    An f irreducible over K = F_q is, over the algebraic closure, c times r
    distinct Frobenius conjugates of one P (K is perfect), all with P's
    Newton polygon.  The polygon of a product is the Minkowski sum of the
    factors' polygons (Ostrowski; Gao, J. Algebra 237, 2001), so Newt(f) =
    r*Newt(P) and r | g.  Over F_{q^k} the conjugates fall into gcd(k, r)
    Frobenius orbits, the factors of f there.  So f stays irreducible over
    F_{q^k} for gcd(k, g) = 1, and the least prime l | g over which it is
    reducible is the least prime factor of r.
    """
    return math.gcd(*(c for vertex in _hull_vertices(terms) for c in vertex))


@lru_cache(maxsize=128)
def _extension_field(p: int, ell: int) -> ExtensionField:
    return ExtensionField(p, ell)


def is_absolutely_irreducible(fmod: ModBivariatePoly) -> IrreducibilityVerdict:
    """Exact absolute-irreducibility verdict for f over F_p.

    Gao's Newton-polygon certificate runs first and settles f at once when
    it applies.  Otherwise the exact engine tests irreducibility over F_p,
    then over F_{p^l} for every prime l dividing :func:`_vertex_gcd`, which
    is decisive, and the first l that splits f is the witness; for an f in
    one variable that l is the least prime factor of deg f, with no test.
    """
    if fmod.is_constant():
        raise ConstantPolynomial("verdict on a constant polynomial")
    if fmod.degree == 1 or _gao_certificate(fmod.terms):
        return IrreducibilityVerdict(True, True)
    p = fmod.p
    red, fac = _reducible_over(PrimeField(p), fmod.terms)
    if red:
        # over F_p the factor's coefficients are plain ints
        return IrreducibilityVerdict(False, False, IntBivariatePoly(fac).text() if fac else None)
    if not any(i for i, _ in fmod.terms) or not any(j for _, j in fmod.terms):
        return IrreducibilityVerdict(True, False, factorize(fmod.degree)[0][0])
    for ell, _ in factorize(_vertex_gcd(fmod.terms)):
        if _reducible_over(_extension_field(p, ell), fmod.terms)[0]:
            return IrreducibilityVerdict(True, False, ell)
    return IrreducibilityVerdict(True, True)


# ---------------------------------------------------------------------------
# bad levels


def _det_mod(rows: list, p: int) -> tuple[int, int, list, list]:
    """Gaussian elimination modulo p of a matrix of ints in [0, p).

    Returns (det, rank, pivot rows, pivot columns).  The pivot rows and
    columns span a nonsingular rank x rank submatrix; det is the
    determinant when the matrix is square, so 0 when it is singular.
    """
    a = [list(r) for r in rows]
    order = list(range(len(a)))
    det, cols = 1, []
    for c in range(len(a[0]) if a else 0):
        k = len(cols)
        piv = next((r for r in range(k, len(a)) if a[r][c]), None)
        if piv is None:
            det = 0
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            order[k], order[piv] = order[piv], order[k]
            det = -det
        det = det * a[k][c] % p
        inv = pow(a[k][c], p - 2, p)
        for r in range(k + 1, len(a)):
            t = a[r][c] * inv % p
            if t:
                a[r][c:] = [(x - t * y) % p for x, y in zip(a[r][c:], a[k][c:])]
        cols.append(c)
    return det % p, len(cols), order[: len(cols)], cols


def _interpolate(K, values: list) -> list:
    """The polynomial of degree below len(values) taking values[x] at
    x = 0, 1, ..., by Lagrange over K (len(values) <= |K|)."""
    master = [K.one]
    for x in range(len(values)):
        master = u_mul(K, master, [K.neg(K.from_int(x)), K.one])
    out: list = []
    for x, y in enumerate(values):
        if y:
            basis = u_divmod(K, master, [K.neg(K.from_int(x)), K.one])[0]
            out = u_add(K, out, u_scale(K, basis, K.mul(y, K.inv(u_eval(K, basis, x)))))
    return out


def _ruppert_rows(terms: dict, m: int, n: int, p: int) -> dict:
    """The matrix over F_p of (g, h) -> F*g_V - g*F_V - F*h_U + h*F_U, F
    with these terms, as {monomial of the image: row}.  The columns are
    the coefficients of g (deg_U < m, deg_V <= n), then of h (deg_U <= m,
    deg_V < n)."""
    basis = [(i, j, True) for i in range(m) for j in range(n + 1)]
    basis += [(i, j, False) for i in range(m + 1) for j in range(n)]
    rows: dict = {}
    for k, (i, j, is_g) in enumerate(basis):
        for (s, t), c in terms.items():
            # the term c*U^s*V^t of F against g or h = U^i*V^j
            key, w = ((s + i, t + j - 1), j - t) if is_g else ((s + i - 1, t + j), s - i)
            if w % p:
                row = rows.setdefault(key, [0] * len(basis))
                row[k] = (row[k] + w * c) % p
    return rows


def _candidate_levels(fm: ModBivariatePoly) -> list[int] | None:
    """The levels a at which the Ruppert matrix of f - a has nullity >= 2,
    or None when every level has.

    No level when f has degree 1.  None for f free of U or of V, whose
    map is zero, without building the pencil.  Otherwise the roots in F_p of
    D(l) = det M(l)[R, C], M(l) = M0 - l*N the Ruppert matrix of f - l and
    R, C the pivot rows and columns of the first level a0 of nullity 1, less
    those of nullity 1; None when no level among the first min(p, c) has
    nullity 1, c the number of columns.  The proof is in
    :func:`bad_level_values`.
    """
    p, m, n = fm.p, fm.deg_u, fm.deg_v
    if fm.degree == 1:
        return []
    if not (m and n):
        return None
    M0, N = _ruppert_rows(fm.terms, m, n, p), _ruppert_rows({(0, 0): 1}, m, n, p)
    c = 2 * m * n + m + n
    zero = [0] * c
    pencil = [(M0.get(key, zero), N.get(key, zero)) for key in sorted(set(M0) | set(N))]

    def eliminate(a: int, rows=range(len(pencil)), cols=range(c)):
        return _det_mod([[(pencil[i][0][j] - a * pencil[i][1][j]) % p for j in cols]
                         for i in rows], p)

    for a0 in range(min(p, c)):
        _, rank, rows, cols = eliminate(a0)
        if rank == c - 1:
            break
    else:
        # every (c - 1)-minor, of degree <= c - 1, vanishes at min(p, c) levels
        return None
    # D itself for p > c, its values on F_p for p <= c; not zero, as D(a0) != 0
    K = PrimeField(p)
    D = _interpolate(K, [eliminate(a, rows, cols)[0] for a in range(min(p, c))])
    return [a for a in sorted(univariate_roots(D, K)) if eliminate(a)[1] < c - 1]


def bad_level_values(f: IntBivariatePoly, p: int) -> set[int]:
    """The residues a for which f - a is not absolutely irreducible mod p.

    When Gao's certificate accepts the support of f plus a constant term,
    only a = f(0, 0) gets the exact verdict of
    :func:`is_absolutely_irreducible`.  Otherwise the bad set is the set of
    levels of nullity >= 2 of :func:`_candidate_levels`, taken as it is for
    p > B = max((2m - 1)*n, (2n - 1)*m), (m, n) the bidegree of f mod p, and
    given the verdict level by level for p <= B.  Above
    ``MAX_ALL_LEVELS_PRIME``, a bad set that would hold every level raises
    ValueError instead.

    Why a bad level has nullity >= 2, at every p.  Let F = f - a, of
    bidegree (m, n), and M(a) the matrix of Ruppert's map
    (g, h) -> F*g_V - g*F_V - F*h_U + h*F_U, whose kernel is the pairs with
    (g/F)_V = (h/F)_U.  The rank of M(a) is the same over F_p and over its
    algebraic closure L, where an F that is not absolutely irreducible
    gives two independent kernel vectors.  An irreducible P over L has P_U
    or P_V nonzero: else P is a polynomial in U^p and V^p, so a p-th power,
    as L is perfect.

    - F with r >= 2 distinct irreducible factors P_i over L.  Each
      s_i = (F/P_i)*(P_i,U, P_i,V) solves it, as (P_U/P)_V = (P_V/P)_U, and
      fits the degree bounds (deg_U((F/P_i)*P_i,U) <= m - 1, alike in V).
      If the sum of l_i*s_i is 0, divide it by F/(P_1*...*P_r): P_j divides
      l_j*P_j,U and l_j*P_j,V times the other, coprime, P_k, so these two of
      lower degree vanish, and l_j = 0.
    - F = c*P^e with e >= 2.  (P^(e-1)*P_U, P^(e-1)*P_V) and (P_U, P_V)
      solve it, as (P_U*P^-e)_V = (P_V*P^-e)_U, and fit the bounds.
      l*P^(e-1) + k kills the nonzero one of P_U and P_V, so l = k = 0.

    So a bad a has rank M(a) <= c - 2, c the number of columns: every
    (c - 1)-minor vanishes there, the minor D of :func:`_candidate_levels`
    among them.  D has degree <= c - 1, so for p > c its values at c levels
    give it; for p <= c, its values at all p levels give a polynomial of
    degree < p with the same zeros in F_p.  Neither is zero, as D(a0) != 0.
    If no level among the first min(p, c) has nullity 1, every
    (c - 1)-minor vanishes at all p levels or at c of them, so identically:
    no level has nullity 1.

    Why a level of nullity >= 2 is bad for p > B.  Gao's converse (Math.
    Comp. 72, 2003): if p > (2m - 1)*n and gcd(F, F_U) = 1, the nullity is
    the number r of absolutely irreducible factors of F.  Exchanging U and V
    together with g and h maps the Ruppert system of F, with its degree
    bounds, to that of F(V, U), so the same holds for p > (2n - 1)*m and
    gcd(F, F_V) = 1; B covers both orientations of the statement.
    - m, n >= 1.  Then B >= max(m, n), so both are below p.  A gcd(F, F_U)
      that is a proper factor of F makes F reducible, and F dividing F_U,
      of lower U-degree, makes F_U = 0, impossible for 1 <= m < p; alike
      for F_V.  So F is bad, or gcd(F, F_U) = gcd(F, F_V) = 1 and the
      nullity is r, which is >= 2 exactly when F is bad.
    - m = 0 (alike n = 0).  Then B <= 0 < p.  The map is zero, as g has no
      coefficients and h_U = F_U = 0, so the nullity is c = n, and for
      n >= 2 every F is a polynomial in V of degree n, a product of linear
      factors over L.  A degree-1 f has no bad level.

    The bad set has a size bounded independently of p for fixed degree
    (Y. Stein, Israel J. Math. 68, 1989).
    """
    fm = reduce_mod(f, p)
    if fm.degree > 1 and _gao_certificate(set(fm.terms) | {(0, 0)}):
        # the support of f - a, and so the certificate, is the same at every
        # level but a = f(0, 0)
        levels = [fm.terms.get((0, 0), 0)]
    else:
        levels = _candidate_levels(fm)
        if levels is None and p > MAX_ALL_LEVELS_PRIME:
            # every level is bad, as p > B: a pencil of c > B >= p columns
            # is too large to build
            raise ValueError(f"p = {p}: every level of {f.text()} is bad, too many to list "
                             f"above p = {MAX_ALL_LEVELS_PRIME}")
        levels = range(p) if levels is None else levels
        if p > max((2 * fm.deg_u - 1) * fm.deg_v, (2 * fm.deg_v - 1) * fm.deg_u):
            return set(levels)
    return {
        a for a in levels
        if not is_absolutely_irreducible(fm.subtract_const(a)).absolutely_irreducible
    }
