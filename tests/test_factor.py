import itertools
import math
import random

import pytest

from visiblepoints import factor
from visiblepoints.arith import factorize
from visiblepoints.errors import ConstantPolynomial, DegenerateReduction
from visiblepoints.factor import (
    _gao_certificate,
    _reducible_over,
    bad_level_values,
    is_absolutely_irreducible,
    is_irreducible_bivariate,
)
from visiblepoints.fields import ExtensionField, PrimeField
from visiblepoints.poly import IntBivariatePoly, ModBivariatePoly, parse_poly, reduce_mod

from oracles import (
    bad_levels_conic,
    bad_levels_lines,
    divides_mod,
    primes_brute,
    verdict_lines,
)


def _mod(text, p):
    return reduce_mod(parse_poly(text), p)


def test_bivariate_irreducibility_examples():
    # U^2 + V^2 = (U + 2V)(U + 3V) over F_5 since 2^2 = -1
    assert is_irreducible_bivariate(_mod("U^2 + V^2", 5), PrimeField(5)) is False
    assert is_irreducible_bivariate(_mod("U^2 + V^2", 7), PrimeField(7)) is True
    assert is_irreducible_bivariate(_mod("U*V", 7), PrimeField(7)) is False
    assert is_irreducible_bivariate(_mod("U^2 + V^2", 7), ExtensionField(7, 2)) is False


def test_constant_input_rejected():
    # U + 3 with its arguments scaled by 0: the constant 3 mod 5
    constant = _mod("U + 3", 5).scale_args(0)
    assert constant.terms == {(0, 0): 3}
    for verdict, message in (
        (is_absolutely_irreducible, "verdict on a constant polynomial"),
        (lambda fm: is_irreducible_bivariate(fm, PrimeField(5)),
         "irreducibility of a constant polynomial"),
    ):
        with pytest.raises(ConstantPolynomial, match=f"^{message}$"):
            verdict(constant)


def test_a_field_of_another_characteristic_is_refused():
    # V^2 + 4*U^2 mod 5 is (V - U)*(V + U); read mod 7 it would be irreducible
    fm = _mod("V^2 + 4*U^2", 5)
    assert not is_irreducible_bivariate(fm, PrimeField(5))
    for K in (PrimeField(7), ExtensionField(7, 2), ExtensionField(2, 2)):
        with pytest.raises(ValueError, match=f"^a polynomial mod 5 over a field of "
                                             f"characteristic {K.characteristic}$"):
            is_irreducible_bivariate(fm, K)


def test_verdict_examples():
    v = is_absolutely_irreducible(_mod("U*V - 3", 7))
    assert v.absolutely_irreducible and v.irreducible_over_base

    v = is_absolutely_irreducible(_mod("U^2 + V^2", 7))
    assert v.irreducible_over_base and not v.absolutely_irreducible
    assert v.witness == 2

    v = is_absolutely_irreducible(_mod("V - U^2", 13))
    assert v.absolutely_irreducible

    v = is_absolutely_irreducible(_mod("U*V", 11))
    assert not v.irreducible_over_base and not v.absolutely_irreducible
    assert v.witness == "U"


def test_degree_one_trivially_absolutely_irreducible():
    v = is_absolutely_irreducible(_mod("U + V", 5))
    assert v.absolutely_irreducible
    # every f = a*U + b*V + c of degree 1 at p <= 5, in one variable or in
    # both, is irreducible over F_p, F_{p^2} and F_{p^3}
    for p in (2, 3, 5):
        fields = [PrimeField(p), ExtensionField(p, 2), ExtensionField(p, 3)]
        for a, b, c in itertools.product(range(p), repeat=3):
            if a or b:
                fm = ModBivariatePoly(p, {(1, 0): a, (0, 1): b, (0, 0): c})
                assert is_absolutely_irreducible(fm) == (True, True, None), fm
                for K in fields:
                    assert _reducible_over(K, fm.terms)[0] is False, (fm, K)
                    assert is_irreducible_bivariate(fm, K), (fm, K)


def test_sum_of_squares_classification():
    # splits over F_p iff -1 is a square, i.e. p = 1 mod 4; never absolutely
    # irreducible because sqrt(-1) always lives in F_{p^2}
    for p in primes_brute(3, 99):
        v = is_absolutely_irreducible(_mod("U^2 + V^2", p))
        assert not v.absolutely_irreducible, p
        assert v.irreducible_over_base == (p % 4 == 3), p
        if v.irreducible_over_base:
            assert v.witness == 2


def test_monotone_consistency_with_extension_checks():
    for text, p in (("U^2 + V^2", 7), ("U*V - 1", 11), ("V^2 - U^3 - U - 1", 13)):
        fm = _mod(text, p)
        verdict = is_absolutely_irreducible(fm)
        for k in (1, 2, 3):
            if not is_irreducible_bivariate(fm, ExtensionField(p, k)):
                assert not verdict.absolutely_irreducible


def test_bad_level_values_hyperbola():
    for p in (5, 7, 11, 101, 1009):
        assert bad_level_values(parse_poly("U*V"), p) == {0}, p


def test_bad_level_values_parabola_empty():
    assert bad_level_values(parse_poly("V - U^2"), 13) == set()


def test_bad_level_values_cubic_excludes_zero():
    bad = bad_level_values(parse_poly("V^2 - U^3 - U - 1"), 101)
    assert 0 not in bad
    assert bad == set()  # odd-degree right side is never a square in U


def test_random_products_detected_reducible():
    rng = random.Random(97)
    fields = [PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7), PrimeField(13),
              PrimeField(101), ExtensionField(2, 2), ExtensionField(2, 3), ExtensionField(3, 2),
              ExtensionField(5, 2), ExtensionField(7, 2)]

    def rand_nonconst(max_deg, p):
        while True:
            terms = {}
            for i in range(max_deg + 1):
                for j in range(max_deg + 1 - i):
                    c = rng.randint(-9, 9)
                    if c % p:
                        terms[(i, j)] = c % p
            if terms and max(i + j for i, j in terms) >= 1:
                return terms

    for _ in range(150):
        K = rng.choice(fields)
        p = K.characteristic
        g = rand_nonconst(rng.choice([1, 1, 2]), p)
        h = rand_nonconst(rng.choice([1, 2]), p)
        prod = {}
        for (i1, j1), c1 in g.items():
            for (i2, j2), c2 in h.items():
                key = (i1 + i2, j1 + j2)
                prod[key] = (prod.get(key, 0) + c1 * c2) % p
        prod = {k: v for k, v in prod.items() if v}
        if not prod or max(i + j for i, j in prod) < 2:
            continue
        fm = reduce_mod(IntBivariatePoly(prod), p)
        assert is_irreducible_bivariate(fm, K) is False


def test_known_irreducible_families():
    rng = random.Random(41)
    # graphs V - g(U) are irreducible over every field
    for _ in range(20):
        coeffs = {(i, 0): rng.randint(-9, 9) for i in range(rng.randint(1, 4) + 1)}
        coeffs[(0, 1)] = 1
        f = IntBivariatePoly(coeffs)
        for p in (5, 7, 11, 13):
            fm = reduce_mod(f, p)
            assert is_irreducible_bivariate(fm, PrimeField(p))
            assert is_absolutely_irreducible(fm).absolutely_irreducible
    # nondegenerate hyperbola levels
    for p in (5, 101, 1009):
        assert is_absolutely_irreducible(_mod("U*V - 3", p)).absolutely_irreducible


def test_inseparable_exponent_structure():
    # V^5 - U over F_5 has zero V-derivative yet is irreducible
    v = is_absolutely_irreducible(_mod("V^5 - U", 5))
    assert v.irreducible_over_base and v.absolutely_irreducible
    # (U + V)^5 has all exponents divisible by 5 over F_5: a perfect power
    f = parse_poly("U^5 + V^5")  # equals (U + V)^5 mod 5
    v = is_absolutely_irreducible(reduce_mod(f, 5))
    assert not v.irreducible_over_base


def test_univariate_in_one_variable_inputs(monkeypatch):
    # U^2 + 1 touches no V: irreducible over F_7 (as -1 is a nonresidue)
    assert is_irreducible_bivariate(_mod("U^2 + 1", 7), PrimeField(7))
    assert not is_irreducible_bivariate(_mod("U^2 + 1", 5), PrimeField(5))
    v = is_absolutely_irreducible(_mod("U^2 + 1", 7))
    assert v.irreducible_over_base and not v.absolutely_irreducible
    assert v.witness == 2
    # the same engine runs over extension fields on one-variable inputs
    for text, p, k, irreducible in (("V^2 + 1", 7, 1, True), ("V^2 + 1", 7, 2, False),
                                    ("U^2 + U + 1", 2, 1, True), ("U^2 + U + 1", 2, 2, False),
                                    ("U^3 + U + 1", 2, 2, True), ("V^3 - 2", 7, 2, True),
                                    ("V^3 - 2", 7, 3, False)):
        K = PrimeField(p) if k == 1 else ExtensionField(p, k)
        assert is_irreducible_bivariate(_mod(text, p), K) is irreducible, (text, p, k)
    # an f in one variable irreducible over F_p is witnessed by the least
    # prime factor of its degree, with no extension field built
    monkeypatch.setattr(factor, "_extension_field", lambda p, ell: pytest.fail(f"F_{p}^{ell}"))
    for text, p, witness in (("U^30 + U + 2", 3, 2), ("U^15 + U + 1", 2, 3), ("V^2 + 1", 10007, 2)):
        assert is_absolutely_irreducible(_mod(text, p)) == (True, False, witness), (text, p)


def _verdict_by_degree(fm, fields: dict) -> tuple:
    """The verdict by irreducibility over F_p, then over F_{p^l} for every
    prime l dividing deg f, the rule that the vertex gcd refines: (base,
    absolute, witness), or (False, False) when f splits over F_p."""
    p = fm.p
    if not is_irreducible_bivariate(fm, PrimeField(p)):
        return False, False
    for ell, _ in factorize(fm.degree):
        if (p, ell) not in fields:
            fields[p, ell] = ExtensionField(p, ell)
        if not is_irreducible_bivariate(fm, fields[p, ell]):
            return True, False, ell
    return True, True, None


def _norm_forms(p: int):
    """U^k - c*V^k and (U + 1)^k - c*V^k for k <= 4, and U^2 + U - c*V^(2j)
    for j <= 2, at every c != 0 mod p: many split only over an extension."""
    for c in range(1, p):
        for k in (2, 3, 4):
            yield ModBivariatePoly(p, {(k, 0): 1, (0, k): -c})
            yield ModBivariatePoly(p, {(i, 0): math.comb(k, i) for i in range(k + 1)}
                                   | {(0, k): -c})
        for j in (1, 2):
            yield ModBivariatePoly(p, {(2, 0): 1, (1, 0): 1, (0, 2 * j): -c})


def test_gao_certificate_is_confirmed_by_the_exact_engine():
    # whatever Gao's certificate accepts is irreducible over F_p and over
    # F_{p^l} for each prime l dividing the degree; every other input gets
    # the verdict and witness of that rule, though only the primes dividing
    # the vertex gcd are asked
    rng = random.Random(2001)
    fields: dict = {}
    accepted = 0
    for _ in range(1500):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        d = rng.randint(2, 4)
        monomials = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
        support = rng.sample(monomials, rng.randint(2, 5))
        fm = ModBivariatePoly(p, {m: rng.randrange(1, p) for m in support})
        if fm.degree < 2:
            continue
        expected = _verdict_by_degree(fm, fields)
        assert tuple(is_absolutely_irreducible(fm))[: len(expected)] == expected, fm
        if _gao_certificate(fm.terms):
            accepted += 1
            assert expected == (True, True, None), fm
    assert accepted >= 300
    witnessed = 0
    for p in (2, 3, 5, 7, 11, 13):
        for fm in _norm_forms(p):
            expected = _verdict_by_degree(fm, fields)
            assert tuple(is_absolutely_irreducible(fm))[: len(expected)] == expected, fm
            witnessed += isinstance(expected[-1], int)
    assert witnessed >= 100


def test_a_vertex_gcd_of_one_builds_no_extension_field(monkeypatch):
    # the hull (0, 0), (1, 0), (2, 2), (0, 3) has vertex gcd 1, so the F_p
    # verdict is the absolute one; the rule by the degree, 4, built F_{p^2}
    built = []
    monkeypatch.setattr(factor, "ExtensionField",
                        lambda p, k: built.append((p, k)) or ExtensionField(p, k))
    factor._extension_field.cache_clear()
    primes = primes_brute(500, 1000)
    verdicts = {is_absolutely_irreducible(_mod("U^2*V^2 + V^3 + U + 1", p)) for p in primes}
    assert len(primes) == 73 and verdicts == {(True, True, None)} and built == []


def test_gao_certificate_refusals_fall_through():
    # a coprime triangle, but U divides it: the monomial factor is real
    fm = _mod("U*V^2 + U^4 + U", 7)
    assert not _gao_certificate(fm.terms)
    v = is_absolutely_irreducible(fm)
    assert not v.irreducible_over_base and not v.absolutely_irreducible
    # a segment: the exact engine finds V - U
    fm = _mod("V^3 - U^3", 7)
    assert not _gao_certificate(fm.terms)
    v = is_absolutely_irreducible(fm)
    assert not v.irreducible_over_base and not v.absolutely_irreducible
    # a triangle with edge gcd 3: the exact engine decides
    assert not _gao_certificate(_mod("V^3 - U^3 - 1", 7).terms)
    assert is_absolutely_irreducible(_mod("V^3 - U^3 - 1", 7)).absolutely_irreducible
    assert not is_absolutely_irreducible(_mod("V^3 - U^3 - 1", 3)).irreducible_over_base


def test_gao_certificate_on_every_level_of_the_fixture():
    for p in (2, 3, 5, 7, 101, 1009):
        fm = _mod("V^2 - U^3 - U - 1", p)
        assert all(_gao_certificate(fm.subtract_const(a).terms) for a in range(p)), p
        # at a = -1 the constant vanishes: V^2 - U^3 - U, hull (1,0), (3,0), (0,2)
        level = fm.subtract_const(-1)
        assert (0, 0) not in level.terms
        assert is_absolutely_irreducible(level) == factor.IrreducibilityVerdict(True, True)


def test_certified_verdict_equals_the_exact_verdict(monkeypatch):
    polys = [_mod("V^2 - U^3 - U - 1", p).subtract_const(a)
             for p, a in ((5, 4), (7, 0), (11, 3), (13, 12), (101, 100))]
    polys += [_mod("V^3 - U^2 - U", 7), _mod("U^2 + V^3 + U*V + 1", 5)]
    assert all(_gao_certificate(fm.terms) for fm in polys)
    certified = [is_absolutely_irreducible(fm) for fm in polys]
    monkeypatch.setattr(factor, "_gao_certificate", lambda terms: False)
    exact = [is_absolutely_irreducible(fm) for fm in polys]
    assert certified == exact
    assert all(v.witness is None for v in exact)


# Inputs with no squarefree fiber over F_p, so the engine decides them over an
# extension F_{p^k} with k coprime to the vertex gcd of the Newton polygon
# (a divisor of the degree).  The verdicts were recorded
# with the exhaustive factor search that route replaced; the witness factors
# it found are no longer reported, since a factor over F_{p^k} need not lie
# in F_p[U, V], except a multiple of V, which is caught before the fiber
# search (4*V for the second, as recorded).  The last two are norms from
# F_{p^2}, irreducible over F_p:
# the least k by field size alone would be 4, over which they split.
EXTENSION_ROUTE_VERDICTS = [
    (3, "2*U^3*V^2 + U^2*V^3 + 2*V^5 + 2*U^4 + V^4 + U^2", True, True, None),
    (5, "4*U*V^3 + 3*U^2*V + 3*U*V^2 + V^3 + 4*U*V + 3*V^2 + V", False, False, "4*V"),
    (2, "U^4 + U^2*V^2 + V^4 + U^3 + V^3 + U + V + 1", False, False, None),
    (3, "2*U^3*V + 2*U^2*V^2 + 2*U^3 + U^2*V + 2*V^3 + U^2 + 2*V^2 + 2*V", False, False, None),
    (5, "2*U^4 + 2*U^2*V^2 + U*V^3 + 3*U^3 + 4*U*V^2 + V^3 + 3*U^2 + 3*V^2", False, False, None),
    (2, "U^4 + U^3 + U^2*V + U^2 + U*V + V^2", True, False, 2),
    (3, "U^4 + V^4 + 2*U^2*V + V^3 + 2*V^2", True, False, 2),
]


def test_extension_route_matches_the_recorded_verdicts():
    for p, text, base, absolute, witness in EXTENSION_ROUTE_VERDICTS:
        v = is_absolutely_irreducible(_mod(text, p))
        assert (v.irreducible_over_base, v.absolutely_irreducible, v.witness) == (
            base, absolute, witness), (p, text)
    # the exhaustive search gave up on these.  U^4 - V^2*(V^2 + 1) over F_5
    # is absolutely irreducible by Capelli, as V^2*(V^2 + 1) is no square.
    # The Newton polygon of U^5*V^5 + U + V + 1 has the primitive edges
    # (1, 0), (4, 5), (-5, -4), (0, -1), no proper subset of which sums to
    # zero, so it is integrally indecomposable (Gao, J. Algebra 237, 2001)
    assert is_absolutely_irreducible(_mod("U^4 + 4*V^4 + 4*V^2", 5)).absolutely_irreducible
    assert is_absolutely_irreducible(_mod("U^5*V^5 + U + V + 1", 2)).absolutely_irreducible


def test_v_factor_is_reported_without_a_squarefree_fiber():
    # F_2 holds no squarefree fiber, so the verdict moves to an extension;
    # the factor V is still found and reported
    v = is_absolutely_irreducible(_mod("U^2*V + V^3 + U*V + V^2", 2))
    assert (v.irreducible_over_base, v.absolutely_irreducible, v.witness) == (False, False, "V")


# the witness each route of the exact engine reports over F_p, as printed by
# ``irred``; a one-variable input reports its factor in its own variable
WITNESS_ROUTES = [
    ("2*U*V^2 + 4*U^2*V", 7, "U"),                  # content in K[U]
    ("U^2*V^2 + U^2 + V^2 + 1", 7, "U^2 + 1"),      # content in K[U]
    ("V^2 + 2*U*V + U^2", 7, "2*U + 2*V"),          # repeated factor
    ("U^2 + 4*V^2*U + 4*V^4", 5, "2*V^2 + U"),      # repeated factor, monicized
    ("U*V^2 + U^2*V + V + U", 7, "U + V"),          # Hensel search, lead U
    ("U^2 - V^10", 5, "V^5 + U"),                   # V-exponents 0 mod p: swapped
    ("V^3 - U^3", 7, "3*U + V"),                    # Hensel search, monic
    ("V^2 + 1", 5, "V + 2"),                        # V alone
    ("U^2 + 1", 5, "U + 2"),                        # U alone
    ("U^2", 5, "U"),                                # U alone, inseparable part
    ("V^3", 7, "V^2"),                              # V alone, inseparable part
    ("V^2 + 2*V + 1", 7, "V + 1"),                  # V alone, repeated factor, lead 1
    ("3*U^2 + 6*U + 3", 7, "U + 1"),                # U alone, repeated factor, lead 1
    ("U^2 + 3*U + 2", 7, "U + 1"),                  # U alone, Hensel search
    ("V^4 + 1", 3, "V^2 + V + 2"),                  # V alone, two quadratics
    ("V^101 - V", 101, "V"),                        # V alone, the factor V
    ("V^2 + V", 2, "V"),                            # V alone, the factor V
    ("U^2 - V^6", 3, "V^3 + U"),                    # V-exponents 0 mod p: swapped
    ("U^3 + 1", 3, None),                           # U alone, a p-th power
    ("U^4 + U^2", 2, None),                         # U alone, a p-th power
]


def test_each_route_reports_its_recorded_witness():
    for text, p, witness in WITNESS_ROUTES:
        v = is_absolutely_irreducible(_mod(text, p))
        assert (v.irreducible_over_base, v.absolutely_irreducible, v.witness) == (
            False, False, witness), (text, p)


def _loop_bad_levels(fm):
    return {a for a in range(fm.p)
            if not is_absolutely_irreducible(fm.subtract_const(a)).absolutely_irreducible}


def _times(g, h):
    out: dict = {}
    for (i1, j1), c1 in g.items():
        for (i2, j2), c2 in h.items():
            out[(i1 + i2, j1 + j2)] = out.get((i1 + i2, j1 + j2), 0) + c1 * c2
    return out


def _random_level_fixture(rng):
    def dense(deg):
        return {(i, j): rng.randint(-5, 5) for i in range(deg + 1) for j in range(deg + 1 - i)}

    if rng.random() < 0.5:
        return IntBivariatePoly(dense(rng.randint(2, 4)))
    prod = _times(dense(rng.randint(1, 2)), dense(rng.randint(1, 2)))
    prod[(0, 0)] = prod.get((0, 0), 0) + rng.randint(-5, 5)
    return IntBivariatePoly(prod)


def test_bad_levels_equal_the_loop_on_random_inputs():
    # the pencil gives the candidates at every p unless no level has
    # nullity 1, also at p <= deg f; where p is at most its number of
    # columns, its minor is interpolated as a function on F_p
    rng = random.Random(1989)
    filtered = below_degree = 0
    for k in range(32):
        p = rng.choice((2, 3) if k % 2 else (5, 7, 11, 13, 29))
        f = _random_level_fixture(rng)
        fm = reduce_mod(f, p)
        cands = factor._candidate_levels(fm)
        loop = _loop_bad_levels(fm)
        if cands is not None:
            filtered += 1
            below_degree += p <= fm.degree
            assert loop <= set(cands), (f, p)
        assert bad_level_values(f, p) == loop, (f, p)
    assert filtered >= 8 and below_degree >= 4


def _random_linear_in_v(rng):
    """A(U) * V + B(U) with deg A in {1, 2}: the V-leading coefficient A
    vanishes at some u over the algebraic closure."""
    du = rng.randint(1, 2)
    terms = {(i, 1): rng.randint(-5, 5) for i in range(du)}
    terms[(du, 1)] = rng.choice((1, 2, -3))
    terms.update({(i, 0): rng.randint(-5, 5) for i in range(du + 2)})
    return IntBivariatePoly(terms)


def test_candidates_of_curves_linear_in_v():
    # f - a = A*V + B - a splits exactly where B - a vanishes at a root of
    # A, so at most two levels are bad and some level has nullity 1; the
    # pencil also covers deg A = 2, singular at (0 : 1 : 0)
    assert factor._candidate_levels(_mod("U*V", 101)) == [0]
    rng = random.Random(2007)
    for _ in range(40):
        p = rng.choice((31, 37, 41, 43, 47, 53))
        f = _random_linear_in_v(rng)
        fm = reduce_mod(f, p)
        cands = factor._candidate_levels(fm)
        loop = _loop_bad_levels(fm)
        assert cands is not None, (f, p)
        assert loop <= set(cands), (f, p)
        assert bad_level_values(f, p) == loop, (f, p)


# one input for each reason every level has nullity >= 2
FALLBACK_FIXTURES = [
    ("U^3 + U", 17),                        # free of V
    ("V^2 + 3*V", 13),                      # free of U
    ("V^3 - U^3 + U", 3),                   # p = deg f: no level of nullity 1
    ("U^2 + 2*U*V^2 + V^4 + U + V^2", 17),  # (U + V^2)^2 + U + V^2: no level of nullity 1
    ("U^2*V^2 + U*V + 3", 13),              # a polynomial in U*V: no level of nullity 1
]


def test_bad_levels_fall_back_to_the_loop():
    for text, p in FALLBACK_FIXTURES:
        f = parse_poly(text)
        fm = reduce_mod(f, p)
        assert factor._candidate_levels(fm) is None, text
        assert bad_level_values(f, p) == _loop_bad_levels(fm), text
    assert bad_level_values(parse_poly("U^2 + 2*U*V^2 + V^4 + U + V^2"), 17) == set(range(17))
    assert bad_level_values(parse_poly("U^2*V^2 + U*V + 3"), 13) == set(range(13))


def test_bad_levels_at_the_degree_and_the_next_prime():
    # at p = deg f no level of these has nullity 1, so every level gets the
    # verdict; at the next prime the pencil gives the candidates
    for text, p, q in (("U^2 + V^2", 2, 3), ("V^3 - U^3 + U", 3, 5), ("U^5 + V^5 + U*V", 5, 7)):
        fm = _mod(text, p)
        assert fm.degree == p
        assert factor._candidate_levels(fm) is None, text
        assert bad_level_values(parse_poly(text), p) == _loop_bad_levels(fm), text
        fm = _mod(text, q)
        cands = factor._candidate_levels(fm)
        loop = _loop_bad_levels(fm)
        assert cands is not None and loop <= set(cands), text
        assert bad_level_values(parse_poly(text), q) == loop, text


def _random_one_variable(rng, p):
    """A polynomial that reduces mod p to one free of U or of V: one
    variable with some coefficients divisible by p, and terms in the other
    variable or in both whose coefficients are multiples of p."""
    var = rng.choice((0, 1))
    terms = {}
    for k in range(rng.randint(1, 6) + 1):
        c = rng.randint(-9, 9) if rng.random() < 0.7 else p * rng.randint(-2, 2)
        terms[(k, 0) if var == 0 else (0, k)] = c
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randint(0, 3), rng.randint(1, 3)
        terms[(i, j) if var == 0 else (j, i)] = p * rng.randint(1, 3)
    return IntBivariatePoly({ij: c for ij, c in terms.items() if c})


UNIVARIATE_PRIMES = (2, 3, 5, 7, 11, 13, 31)


def test_bad_levels_of_one_variable_take_no_verdict(monkeypatch):
    # f mod p free of U or of V: f - a of degree >= 2 splits into linear
    # factors over the closure, so every level is bad; degree 1 has none
    fixtures = [(parse_poly(text), p) for text, p in (
        ("3*U^2 + U", 3),           # reduces to U
        ("2*V^4 + V + 1", 2),       # reduces to V + 1
        ("5*V^3 + 5*U*V + V", 5),   # reduces to V
        ("U^2 + 2*U*V", 2),         # reduces to U^2
        ("U^3 + 3*V^2", 3),         # U^p, inseparable
        ("V^7 + 7*U", 7),           # V^p
        ("U^31 + 1", 31),
    )]
    rng = random.Random(29)
    for p in UNIVARIATE_PRIMES:
        fixtures += [(_random_one_variable(rng, p), p) for _ in range(6)]
    verdicts = []

    def counted(fm):
        verdicts.append(fm)
        return is_absolutely_irreducible(fm)

    monkeypatch.setattr(factor, "is_absolutely_irreducible", counted)
    seen = set()
    for f, p in fixtures:
        try:
            fm = reduce_mod(f, p)
        except DegenerateReduction:
            continue
        assert not (fm.deg_u and fm.deg_v), (f, p)
        loop = _loop_bad_levels(fm)
        assert loop == (set(range(p)) if fm.degree > 1 else set()), (f, p)
        assert bad_level_values(f, p) == loop, (f, p)
        seen.add((p, min(fm.degree, 2)))
    assert verdicts == []
    assert seen >= {(p, 2) for p in UNIVARIATE_PRIMES} | {(2, 1), (3, 1), (5, 1)}


@pytest.mark.parametrize("text", [
    "U^2",                  # free of V: the map is zero, every level is bad
    "V^3 + 1",
    "U^2*V^2 + U*V + 3",    # no level of nullity 1, above Gao's bound
])
def test_bad_sets_of_every_level_are_refused_above_the_bound(monkeypatch, text):
    monkeypatch.setattr(factor, "MAX_ALL_LEVELS_PRIME", 13)
    assert bad_level_values(parse_poly(text), 13) == set(range(13))
    with pytest.raises(ValueError, match=r"^p = 17: .* above p = 13$"):
        bad_level_values(parse_poly(text), 17)
    # a bad set from the candidates is not limited
    assert bad_level_values(parse_poly("V^3 - U^3"), 17) == {0}


def test_bad_levels_equal_the_conic_oracle():
    rng = random.Random(1887)
    checked = 0
    for p in (3, 5, 7, 11, 13, 101, 1009):
        for _ in range(50):
            terms = {(i, j): rng.randrange(p) for i in range(3) for j in range(3 - i)}
            terms = {ij: c for ij, c in terms.items() if c}
            if not any(terms.get(ij) for ij in ((2, 0), (1, 1), (0, 2))):
                continue
            f = IntBivariatePoly(terms)
            assert bad_level_values(f, p) == bad_levels_conic(terms, p), (f, p)
            checked += 1
    assert checked >= 300


def test_bad_levels_recorded_sets():
    for text, p, cands, bad in (
        ("V^3 - U^3", 97, [0], {0}),
        ("V^3 - U^3", 307, [0], {0}),
        ("V^3 - U^3", 7, [0], {0}),                # p <= c: D as a function on F_7
        ("V^4 - U^4 + U*V", 101, [24, 77], {24, 77}),
        # certified but at a = f(0, 0), the one level that gets the verdict
        ("V^2 - U^3 - U - 1", 307, "certified", set()),
        ("V^100 + U^3 + U*V", 1000003, "certified", set()),
        # level 1 is reducible with no affine singular point, at infinity
        ("2*U^2*V^2 - 3*U*V - 2*V^2", 17, [0, 1], {0, 1}),
        ("U^3*V^3 + U + V", 1009, [], set()),      # singular at infinity
        ("U^3*V^3 + U + V", 2**31 - 1, [], set()),
        ("U^3*V^3 + U + V", 2**61 - 1, [], set()),
        ("U + 3", 10000000019, [], set()),         # degree 1: no level, no verdict
        # p <= deg f: a bad level has nullity >= 2 at every p
        ("U^2*V + U*V^2 + V", 3, [0], {0}),
        ("2*U^2*V + U^2 + V^2", 3, [1], {1}),
        ("U^2*V^2 + U^2 + V^2", 3, [2], {2}),
        ("2*U^2*V^2 + 2*V^3 + U^2", 3, [1, 2], {1, 2}),
        ("U^2*V + V^2 + U", 2, [], set()),
    ):
        fm = _mod(text, p)
        if cands == "certified":
            assert _gao_certificate(set(fm.terms) | {(0, 0)}), (text, p)
        else:
            assert factor._candidate_levels(fm) == cands, (text, p)
        assert bad_level_values(parse_poly(text), p) == bad, (text, p)
    # above Gao's bound the pencil alone gives E's bad set too
    assert factor._candidate_levels(_mod("V^2 - U^3 - U - 1", 307)) == []
    for text, p in (("U^2*V + U*V^2 + V", 3), ("2*U^2*V + U^2 + V^2", 3), ("U^2*V + V^2 + U", 2)):
        f = parse_poly(text)  # the rows at p <= deg f of degree 3
        assert bad_levels_lines(f.terms, p) == bad_level_values(f, p), (text, p)


def test_bad_levels_run_the_verdict_only_at_candidates(monkeypatch):
    calls = []
    verdict = factor.is_absolutely_irreducible

    def counted(fm):
        calls.append(fm)
        return verdict(fm)

    monkeypatch.setattr(factor, "is_absolutely_irreducible", counted)
    # above Gao's bound B the levels of nullity >= 2 are the bad set
    assert bad_level_values(parse_poly("V^3 - U^3"), 97) == {0}  # B = 15
    assert bad_level_values(parse_poly("U^2*V^2 + U*V + 3"), 10007) == set(range(10007))
    assert calls == []
    # a certified support: a = f(0, 0) alone gets the verdict, at every p
    assert bad_level_values(parse_poly("U*V"), 10007) == {0}
    assert len(calls) == 1
    calls.clear()  # p <= B = 6: a verdict per level of nullity >= 2, not per level
    assert bad_level_values(parse_poly("U^2*V^2 + U^2 + V^2"), 3) == {2}
    assert len(calls) == 1


def _compose(coefficients, h):
    """g(h) as a term dict, g the univariate polynomial with these
    coefficients (constant first)."""
    out: dict = {}
    power = {(0, 0): 1}
    for c in coefficients:
        for ij, t in power.items():
            out[ij] = out.get(ij, 0) + c * t
        power = _times(power, h)
    return {ij: c for ij, c in out.items() if c}


def _gao_bound(fm):
    m, n = fm.deg_u, fm.deg_v
    return max((2 * m - 1) * n, (2 * n - 1) * m)


def test_bad_levels_equal_the_loop_on_both_sides_of_gaos_bound(monkeypatch):
    # compositions g(h), whose levels are all bad, and random f, at primes
    # p <= B and B < p <= B + 20: above B the levels of nullity >= 2 are the
    # bad set and only a certified level gets the verdict
    calls = []
    verdict = factor.is_absolutely_irreducible
    monkeypatch.setattr(factor, "is_absolutely_irreducible",
                        lambda fm: calls.append(fm) or verdict(fm))
    rng = random.Random(2003)
    sides = {False: 0, True: 0}
    nonempty = 0
    for k in range(360):
        if k % 5 < 2:
            h = {ij: rng.randint(-3, 3) for ij in ((0, 0), (1, 0), (0, 1), (1, 1))}
            f = IntBivariatePoly(_compose([rng.randint(-3, 3) for _ in range(rng.randint(2, 3))]
                                          + [rng.choice((1, -2, 3))], h))
        else:
            f = IntBivariatePoly({(i, j): rng.randint(-4, 4) for i in range(3)
                                  for j in range(rng.randint(3, 4) - i) if rng.random() < 0.7}
                                 or {(1, 1): 1})
        if f.degree < 2:
            continue
        above = k % 2 == 0
        bound = _gao_bound(f)
        primes = primes_brute(bound + 1, bound + 20) if above else primes_brute(2, bound)
        if not primes:
            continue
        p = rng.choice(primes)
        try:
            fm = reduce_mod(f, p)
        except DegenerateReduction:
            continue
        calls.clear()
        bad = bad_level_values(f, p)
        assert bad == _loop_bad_levels(fm), (f, p)
        above = p > _gao_bound(fm)
        if above and not _gao_certificate(set(fm.terms) | {(0, 0)}):
            assert calls == [], (f, p)
        sides[above] += 1
        nonempty += bool(bad)
    assert sum(sides.values()) >= 300, sides
    assert sides[False] >= 100 and sides[True] >= 100 and nonempty >= 150, (sides, nonempty)


def _random_terms(rng, p, d):
    """Seeded coefficients of a polynomial of total degree d modulo p."""
    while True:
        terms = {(i, j): rng.randrange(p) for i in range(d + 1) for j in range(d + 1 - i)}
        terms = {ij: c for ij, c in terms.items() if c}
        if any(i + j == d for i, j in terms):
            return terms


def _assert_verdict_matches_the_line_oracle(terms, p):
    """The engine's verdict against :func:`verdict_lines`; its witness is
    the extension degree d where f splits only over F_{p^d}, and a factor
    that divides f where it names one over F_p, with leading coefficient 1
    when f is in one variable."""
    f = IntBivariatePoly(terms)
    fm = reduce_mod(f, p)
    v = is_absolutely_irreducible(fm)
    assert (v.irreducible_over_base, v.absolutely_irreducible) == verdict_lines(terms, p), (f, p)
    if v.irreducible_over_base and not v.absolutely_irreducible:
        assert v.witness == fm.degree, (f, p, v)
    if isinstance(v.witness, str):
        w = parse_poly(v.witness).terms
        assert divides_mod(w, terms, p), (f, p, v)
        if not (fm.deg_u and fm.deg_v):
            assert w[max(w)] == 1, (f, p, v)
    return v


def test_verdicts_equal_the_line_oracle():
    rng = random.Random(2446)
    seen = set()
    for p in (2, 3, 5, 7):
        for k in range(60):
            v = _assert_verdict_matches_the_line_oracle(_random_terms(rng, p, 2 + k % 2), p)
            seen.add((v.irreducible_over_base, v.absolutely_irreducible, type(v.witness)))
    # every kind of verdict occurs: a named factor over F_p, a split only
    # over an extension, and absolute irreducibility
    assert {(False, False, str), (True, False, int), (True, True, type(None))} <= seen
    # one-variable inputs of degree 2 and 3, in U and in V: a named factor,
    # a split only over an extension, and a p-th power with no factor named
    seen = set()
    for p in (2, 3, 5, 7):
        for k in range(40):
            coeffs = [rng.randrange(p) for _ in range(2 + k % 2)] + [rng.randrange(1, p)]
            terms = {((0, i) if k % 4 >= 2 else (i, 0)): c for i, c in enumerate(coeffs) if c}
            v = _assert_verdict_matches_the_line_oracle(terms, p)
            seen.add((v.irreducible_over_base, v.absolutely_irreducible, type(v.witness)))
    assert seen == {(False, False, str), (True, False, int), (False, False, type(None))}


def test_bad_levels_equal_the_line_oracle():
    rng = random.Random(704)
    nonempty = 0
    for p, n in ((2, 40), (3, 40), (5, 8), (7, 4)):
        for _ in range(n):
            terms = _random_terms(rng, p, 3)
            bad = bad_levels_lines(terms, p)
            assert bad_level_values(IntBivariatePoly(terms), p) == bad, (terms, p)
            nonempty += bool(bad)
    assert nonempty >= 20
    # g(U + c*V) - a splits into lines over the closure for deg g >= 2, so
    # every level is bad; at p = 7 a quadratic g lies above B = 6
    above = 0
    for p in (2, 3, 5, 7):
        for _ in range(12):
            g = [rng.randrange(p) for _ in range(rng.randint(2, 3))] + [rng.randrange(1, p)]
            f = IntBivariatePoly(_compose(g, {(1, 0): 1, (0, 1): rng.randrange(p)}))
            assert bad_level_values(f, p) == bad_levels_lines(f.terms, p) == set(range(p)), (f, p)
            above += p > _gao_bound(reduce_mod(f, p))
    assert above >= 5


def test_line_oracle_fixtures():
    # V^3 - U^3 has the factor V - U at every p, and at p = 3 every level
    # is bad, as V^3 - U^3 - a = (V - U - a)^3; U^3 - 2*V^3 is irreducible
    # over F_7, where 2 is not a cube, and splits into three conjugate lines
    # over F_{7^3}; U^2 + V^2 splits over F_7 only in F_49
    for p in (2, 3, 5, 7):
        for text, bad in (("V^3 - U^3", set(range(p)) if p == 3 else {0}),
                          ("V^2 - U^3 - U - 1", set())):
            f = parse_poly(text)
            assert bad_levels_lines(f.terms, p) == bad_level_values(f, p) == bad, (text, p)
            _assert_verdict_matches_the_line_oracle(f.terms, p)
    for text, p, expected in (("U^3 - 2*V^3", 7, (True, False)), ("U^2 + V^2", 7, (True, False)),
                              ("U*V", 7, (False, False)), ("V^2 - U^3 - U - 1", 7, (True, True))):
        assert verdict_lines(parse_poly(text).terms, p) == expected, text
        _assert_verdict_matches_the_line_oracle(parse_poly(text).terms, p)
    f = parse_poly("U^3 - 2*V^3")
    assert bad_levels_lines(f.terms, 7) == bad_level_values(f, 7) == {0}
    assert divides_mod({(1, 0): 1, (0, 1): 6}, {(3, 0): 6, (0, 3): 1}, 7)  # V - U | V^3 - U^3
    assert not divides_mod({(1, 0): 1, (0, 1): 1}, {(3, 0): 6, (0, 3): 1}, 7)
