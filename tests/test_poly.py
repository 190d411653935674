import random

import numpy as np
import pytest

from visiblepoints.arith import is_prime
from visiblepoints.counting import MAX_GRID_PRIME
from visiblepoints.errors import DegenerateReduction, PolynomialParseError
from visiblepoints.poly import (
    IntBivariatePoly,
    ModBivariatePoly,
    _fits_int64,
    parse_poly,
    reduce_mod,
)

from oracles import eval_mod


def test_parse_basic_forms():
    assert parse_poly("U*V").terms == {(1, 1): 1}
    assert parse_poly("V^2 - U^3 - U - 1").terms == {
        (0, 2): 1,
        (3, 0): -1,
        (1, 0): -1,
        (0, 0): -1,
    }
    assert parse_poly("3*U^2*V - 7").terms == {(2, 1): 3, (0, 0): -7}
    assert parse_poly("-U + V").terms == {(1, 0): -1, (0, 1): 1}
    assert parse_poly(" V ^ 2 ").terms == {(0, 2): 1}
    assert parse_poly("2*V - 1").terms == {(0, 1): 2, (0, 0): -1}


def test_parse_merges_and_cancels():
    assert parse_poly("U + U").terms == {(1, 0): 2}
    zero = parse_poly("U - U")
    assert zero.is_zero() and zero.text() == "0"


def test_parse_rejections():
    for bad in ("", "3U", "U**2", "x + y", "U^", "U*", "+", "U^0", "U*U", "W"):
        with pytest.raises(PolynomialParseError):
            parse_poly(bad)


def test_text_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 7)):
            terms[(rng.randint(0, 4), rng.randint(0, 4))] = rng.randint(-99, 99)
        f = IntBivariatePoly(terms)
        assert parse_poly(f.text()) == f


def test_reduce_mod_examples():
    fm = reduce_mod(parse_poly("U*V"), 5)
    assert fm.terms == {(1, 1): 1} and fm.degree == 2

    fm = reduce_mod(parse_poly("5*U^2 + U*V"), 5)
    assert fm.terms == {(1, 1): 1}
    assert fm.degree == 2

    with pytest.raises(DegenerateReduction):
        reduce_mod(parse_poly("7*U + 7*V"), 7)

    fm = reduce_mod(parse_poly("5*U^2 + U"), 5)
    assert fm.degree == 1


def test_reduce_mod_requires_prime():
    with pytest.raises(ValueError):
        reduce_mod(parse_poly("U*V"), 6)


def test_reduction_round_trip_congruence():
    rng = random.Random(11)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for _ in range(200):
        p = rng.choice(primes)
        terms = {}
        for _ in range(rng.randint(1, 8)):
            terms[(rng.randint(0, 4), rng.randint(0, 4))] = rng.randint(-1000, 1000)
        f = IntBivariatePoly(terms)
        try:
            fm = reduce_mod(f, p)
        except DegenerateReduction:
            continue
        # lifted coefficients are congruent to the originals mod p
        for ij, c in f.terms.items():
            assert fm.terms.get(ij, 0) % p == c % p
        for ij, c in fm.terms.items():
            assert c == f.terms.get(ij, 0) % p


def test_specialization_examples():
    fm = reduce_mod(parse_poly("U*V"), 5)
    assert fm.specialize_u(0) == []
    assert fm.specialize_u(2) == [0, 2]
    fm = reduce_mod(parse_poly("V^2 - U^3"), 7)
    assert fm.specialize_u(2) == [6, 0, 1]  # V^2 - 1


def test_specialization_consistency():
    rng = random.Random(23)
    for p in (5, 7, 13, 31):
        for _ in range(10):
            terms = {}
            for _ in range(rng.randint(1, 7)):
                terms[(rng.randint(0, 3), rng.randint(0, 3))] = rng.randint(-9, 9)
            f = IntBivariatePoly(terms)
            try:
                fm = reduce_mod(f, p)
            except DegenerateReduction:
                continue
            for x in range(p):
                g = fm.specialize_u(x)
                for y in range(p):
                    direct = fm.evaluate(x, y)
                    horner = 0
                    for c in reversed(g):
                        horner = (horner * y + c) % p
                    assert horner == direct


def test_evaluation_exact_at_the_largest_grid_prime():
    # Horner steps reach p(p - 1) here, just under 2^63; p must act as 0
    p = 3037000493
    assert is_prime(p) and not any(is_prime(q) for q in range(p + 1, MAX_GRID_PRIME + 1))
    coords = [1, 2, p - 2, p - 1, p]
    xs = np.array(coords, dtype=np.int64)[:, None]
    ys = np.array(coords, dtype=np.int64)[None, :]
    rng = random.Random(41)
    polys = [parse_poly("U^2 + 1"), parse_poly("V^3 + 2")]
    for _ in range(6):
        polys.append(IntBivariatePoly(
            {(rng.randint(0, 4), rng.randint(0, 4)): rng.randrange(-p, p) for _ in range(5)}
        ))
    for f in polys:
        fm = reduce_mod(f, p)
        grid = fm.evaluate(xs, ys)
        assert grid.shape == (5, 5) and grid.dtype == np.int64
        for a, x in enumerate(coords):
            for b, y in enumerate(coords):
                want = eval_mod(f.terms, x, y, p)
                assert grid[a, b] == fm.evaluate(x, y) == want, (f, x, y)
        # at d = p every argument scales to 0 and f collapses to a constant
        const = fm.scale_args(0).evaluate(xs, ys)
        assert const.shape == (5, 5) and (const == eval_mod(f.terms, 0, 0, p)).all()

def test_integer_evaluation_exact():
    f = parse_poly("V^2 - U^3")
    assert f.evaluate(10**6, 10**9) == 10**18 - 10**18
    assert f.evaluate(2, 3) == 9 - 8
    # object arrays of Python ints run the same kernel without overflow
    xs = np.array([10, 2**40], dtype=object)[:, None]
    ys = np.array([10**20], dtype=object)[None, :]
    assert f.evaluate(xs, ys).tolist() == [[10**40 - 1000], [10**40 - 2**120]]


def test_subtract_const_and_scale_args():
    fm = reduce_mod(parse_poly("U*V"), 5)
    shifted = fm.subtract_const(1)
    assert shifted.terms == {(1, 1): 1, (0, 0): 4}
    scaled = fm.scale_args(2)
    assert scaled.terms == {(1, 1): 4}
    assert scaled.evaluate(1, 1) == fm.evaluate(2, 2)


def test_sparse_exponents_match_the_oracle():
    # Horner steps over exponent gaps by square-and-multiply, so huge
    # exponents cost their bit length, not one step per power
    rng = random.Random(8)
    for p in (2, 7, 101, 3037000493):
        for _ in range(8):
            terms = {(rng.choice((0, 1, 5, 10**6, 10**8 + 7)), rng.choice((0, 2, 10**5))):
                     rng.randint(-p, p) for _ in range(rng.randint(1, 4))}
            f = IntBivariatePoly(terms)
            try:
                fm = reduce_mod(f, p)
            except DegenerateReduction:
                continue
            coords = [rng.randrange(2 * p) for _ in range(4)]
            grid = fm.evaluate(np.array(coords, dtype=np.int64)[:, None],
                               np.array(coords, dtype=np.int64)[None, :])
            for a, x in enumerate(coords):
                row = [(j, c) for j, c in enumerate(fm.specialize_u(x)) if c]
                for b, y in enumerate(coords):
                    want = eval_mod(f.terms, x, y, p)
                    assert grid[a, b] == fm.evaluate(x, y) == want, (f, p, x, y)
                    assert sum(c * pow(y, j, p) for j, c in row) % p == want
    f = parse_poly("U^100000 + 3*U^99998*V^2 - V")
    assert f.evaluate(2, 3) == 2**100000 + 27 * 2**99998 - 3


E = parse_poly("V^2 - U^3 - U - 1")

#: primes on each side of the lazy-reduction threshold, with the number m
#: of (p - 1)^2 products an int64 sum of residues holds between reductions;
#: above MAX_GRID_PRIME there is no m, as the kernel works in Python ints
KERNEL_PRIMES = ((1753413037, 3), (2147483647, 2), (2147483659, 1),
                 (3037000493, 1), (10**10 + 19, None))


def _minus_one_sums(p):
    # every coefficient is -1 and every V- and U-exponent has the parity
    # that makes c_j(p - 1) = y^j = p - 1 at y = p - 1, so every product of
    # the kernel is (p - 1)^2; exponents above p and 10^5 go through the
    # power table
    vpows = (1, 3, 5, 7, p + 2, 10**5 + 1)
    polys = [{(2 * k, j): -1 for k, j in enumerate(vpows[:n])} for n in range(1, 7)]
    polys.append({(0, j): -1 for j in vpows} | {(0, 0): -1, (10**5, 0): -1})
    return [IntBivariatePoly(t) for t in polys]


@pytest.mark.parametrize("p,m", KERNEL_PRIMES)
def test_kernel_on_each_side_of_the_lazy_reduction_threshold(p, m):
    if m is not None:
        assert (2**63 - 1 - (p - 1)) // (p - 1) ** 2 == m
    coords = [1, 2, p - 2, p - 1, p, 2 * p - 1]
    for dtype in (np.int64, object):
        xs = np.array(coords, dtype=dtype)[:, None]
        ys = np.array(coords, dtype=dtype)[None, :]
        for f in _minus_one_sums(p):
            grid = reduce_mod(f, p).evaluate(xs, ys)
            assert grid.shape == (6, 6)
            want = [[eval_mod(f.terms, x, y, p) for y in coords] for x in coords]
            assert grid.tolist() == want, (p, f)


def test_evaluate_above_the_grid_limit_is_exact_on_int64_arrays():
    # products of residues near 10^10 pass 2^63: the kernel takes int64
    # arguments to Python ints, so no value wraps
    p = 10000000019
    fm = reduce_mod(E, p)
    xs, ys = np.arange(1, 6)[:, None] + 10**9, np.arange(1, 4)[None, :] + 9 * 10**9
    grid = fm.evaluate(xs, ys)
    assert grid[0, 0] == fm.evaluate(10**9 + 1, 9 * 10**9 + 1) == 2190000264
    assert grid.tolist() == [[eval_mod(E.terms, int(x), int(y), p) for y in ys[0]]
                             for x in xs[:, 0]]
    assert fm.evaluate(np.int64(10**9 + 1), np.int64(9 * 10**9 + 1)) == 2190000264


def test_evaluate_keeps_int64_tiles_up_to_the_grid_limit():
    # the fast path: an int64 tile stays int64 up to MAX_GRID_PRIME, and
    # only above it do the values become Python ints (about 10x slower)
    xs = np.arange(1, 66, dtype=np.int64)[:, None]
    ys = np.arange(1, 4004, dtype=np.int64)[None, :]
    for p in (2, 4003, 2147483659, 3037000493):
        assert reduce_mod(E, p).evaluate(xs, ys).dtype == np.int64, p
    for p in (3037000507, 10**10 + 19):
        assert reduce_mod(E, p).evaluate(xs, ys).dtype == object, p
    assert MAX_GRID_PRIME < 3037000507


def test_integer_evaluation_exact_up_to_the_int64_bound():
    # B = sum |c_ij| X^i Y^j is 7 * 2^60 + 2^20 + 1 < 2^63 on the box
    # [1, 2^20]^2, so int64 partial sums cannot wrap; object arrays agree
    X = 2**20
    coords = [1, 2, X // 2 + 1, X - 1, X]
    for text in ("V^3 + 3*U^2*V + 2*U*V^2 + U^3 + V + 1",
                 "-V^3 + 3*U^2*V - 2*U*V^2 + U^3 - V - 1"):
        f = parse_poly(text)
        assert _fits_int64(f.terms, X, X)
        fast = f.evaluate(np.array(coords)[:, None], np.array(coords)[None, :])
        exact = f.evaluate(np.array(coords, dtype=object)[:, None],
                           np.array(coords, dtype=object)[None, :])
        assert fast.dtype == np.int64 and fast.tolist() == exact.tolist()
        assert fast[-1, -1] == f.evaluate(X, X)
    assert parse_poly("V^3 + 3*U^2*V + 2*U*V^2 + U^3 + V + 1").evaluate(X, X) == 7 * 2**60 + X + 1


def _by_loop(f, us, vs):
    return [[sum(c * u**i * v**j for (i, j), c in f.terms.items()) for v in vs] for u in us]


def test_integer_evaluation_never_wraps_int64():
    # past B < 2^63 numpy integers are taken to Python ints: in int64,
    # 3^40 and (2 * 10^4)^6 would wrap to negative values
    assert parse_poly("U^40").evaluate(np.array([3]), np.array([1])).tolist() == [3**40]
    assert parse_poly("U^40").evaluate(np.int64(3), 1) == 3**40
    f = parse_poly("U^3*V^3 + 1")
    a = [10**4, 2 * 10**4]
    got = f.evaluate(np.array(a)[:, None], np.array(a)[None, :])
    assert got.tolist() == _by_loop(f, a, a) and got.dtype == object
    # at and next to both ends of int64, where |int64 min| = 2^63 does not
    # fit: int64 stays exactly while B < 2^63
    top, bottom = 2**63 - 1, -(2**63)
    for text, u, v, stays in (("U", top, 1, True), ("U + 1", top, 1, False),
                              ("U - 1", top - 1, 1, True), ("-U", bottom + 1, 1, True),
                              ("U", bottom, 1, False), ("-U", bottom, 1, False),
                              ("U*V - 1", 2**31, 2**32 - 1, True),
                              ("U*V - 1", -(2**31), 2**32, False),
                              ("U^2 + V^2", 2**31, 2**31, False)):
        f = parse_poly(text)
        us, vs = [u, 1, -1], [v, 1]
        got = f.evaluate(np.array(us, dtype=np.int64)[:, None],
                         np.array(vs, dtype=np.int64)[None, :])
        assert got.tolist() == _by_loop(f, us, vs), text
        assert (got.dtype == np.int64) == stays, text


WIDTHS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def test_every_numpy_integer_width_evaluates_exactly():
    # narrow products used to wrap (int32 U^3 at 2000 gave -589934592, int16
    # gave 16932 at (100, 3)) or raise OverflowError (unsigned arrays against
    # the negative coefficient over Z, 8- and 16-bit ones against p =
    # 1000003); every width now goes to int64 or Python ints
    f = parse_poly("U^3 - 3*V^2 - 1")
    ps = (1000003, 10000000019)
    for dtype in WIDTHS:
        info = np.iinfo(dtype)
        vals = sorted({v for v in (0, 1, 3, 100, 2000, 40000, 2**31 + 1, info.min, info.max)
                       if info.min <= v <= info.max})
        xs, ys = np.array(vals, dtype=dtype)[:, None], np.array(vals, dtype=dtype)[None, :]
        assert f.evaluate(xs, ys).tolist() == _by_loop(f, vals, vals), dtype
        for p in ps:
            got = reduce_mod(f, p).evaluate(xs, ys).tolist()
            assert got == [[eval_mod(f.terms, x, y, p) for y in vals] for x in vals], (dtype, p)
        for x, y in ((100, 3), (vals[-1], vals[0])):
            assert f.evaluate(dtype(x), dtype(y)) == _by_loop(f, [x], [y])[0][0], dtype
            for p in ps:
                assert reduce_mod(f, p).evaluate(dtype(x), dtype(y)) == eval_mod(f.terms, x, y, p)
    # uint64 values that int64 cannot hold, and the int64 minimum
    for vals, dtype in (([2**63 + 5, 2**64 - 1, 7], np.uint64), ([-(2**63), -1, 5], np.int64)):
        xs, ys = np.array(vals, dtype=dtype)[:, None], np.array(vals, dtype=dtype)[None, :]
        assert f.evaluate(xs, ys).tolist() == _by_loop(f, vals, vals), dtype
        for p in ps:
            got = reduce_mod(f, p).evaluate(xs, ys).tolist()
            assert got == [[eval_mod(f.terms, x, y, p) for y in vals] for x in vals], (dtype, p)


def test_both_polynomial_classes_keep_their_semantics():
    t = {(1, 1): 1, (0, 2): 3, (0, 0): 2}
    z, m5 = IntBivariatePoly(t), ModBivariatePoly(5, t)
    assert z.terms == m5.terms and z != m5 and m5 != z
    # the same terms modulo two primes: the reductions differ by p alone
    m7 = reduce_mod(z, 7)
    assert m7.terms == m5.terms and m5 != m7
    assert m5 == reduce_mod(z, 5) == ModBivariatePoly(5, {(1, 1): 6, (0, 2): 8, (0, 0): 7})
    assert hash(m5) == hash(reduce_mod(z, 5))
    assert z == parse_poly(z.text()) and hash(z) == hash(parse_poly(z.text()))
    assert len({z, IntBivariatePoly(dict(t)), m5, reduce_mod(z, 5), m7}) == 3
    for obj in (z, m5):
        for name in ("terms", "degree", "p", "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
    # exponents and coefficients are integers: floats are refused, not
    # truncated, and numpy integers are taken as ints
    not_int = "'float' object cannot be interpreted as an integer"
    for make, ten in ((IntBivariatePoly, 10), (lambda terms: ModBivariatePoly(7, terms), 3)):
        for terms, kind, message in (
            ({(-1, 0): 1}, ValueError, "exponents must be nonnegative"),
            ({(2, 1): 3, (0, -2): 1}, ValueError, "exponents must be nonnegative"),
            ({(2, 0.9): 3.7}, TypeError, not_int),
            ({(1.5, 0): 2.5, (0, 2): 1}, TypeError, not_int),
            ({(1, 0): 2.0}, TypeError, not_int),
        ):
            with pytest.raises(kind, match=f"^{message}$"):
                make(terms)
        terms = make({(np.int64(2), np.uint8(0)): np.int32(10)}).terms
        assert terms == {(2, 0): ten}
        ((i, j), c), = terms.items()
        assert (type(i), type(j), type(c)) == (int, int, int)
    assert repr(E) == "IntBivariatePoly('-U^3 + V^2 - U - 1')"
    assert repr(reduce_mod(E, 7)) == "ModBivariatePoly(p=7, '6*U^3 + V^2 + 6*U + 6')"
