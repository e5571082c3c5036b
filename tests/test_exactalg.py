import math
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form
from sympy.polys.factortools import dup_factor_list
from sympy.polys.galoistools import gf_factor
from sympy.polys.matrices import DomainMatrix

from rfva.catalog import catalog_rep
from rfva.errors import (
    DimensionMismatch,
    NotAPower,
    PrimalityUnknown,
    RfvaError,
    SingularMatrix,
    ZeroSpan,
)
from rfva.exactalg import (
    _MR_LIMIT,
    IntMatrix,
    IntPoly,
    _divisors,
    _identity,
    _isprime,
    _least_prime_power,
    _matrix_minpoly,
    _pivot_rows,
    _poly_eval_matrix,
    _rank,
    _rref,
    _scaled_inverse,
    _scaled_kernel,
    _solve,
    adjugate,
    charpoly,
    det,
    factor_over_integers,
    factor_over_prime_field,
    hnf,
    integer_row_kernel,
    intersection,
    kernel_fp,
    kernel_q,
    minpoly,
    poly_kth_root,
    row_echelon_transform,
    saturate,
    shortest_vectors,
    snf,
)

from rfva.grouprep import close_group
from rfva.repdecomp import _commutation_system, exponent_report
from test_grouprep import ORACLE_CATALOG, _unimodular_pair

QUAT_B = IntMatrix.from_rows(
    [[1, -1, -2, 0], [1, 1, 0, 2], [2, 0, 1, -1], [0, -2, 1, 1]]
)


def square_matrices(n_max=4, bound=6):
    return st.integers(2, n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ).map(IntMatrix.from_rows)


def random_unimodular(rng, n, steps=12):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


# --- IntMatrix arithmetic against naive loops --------------------------------

BIG = 2**70
BIG_ENTRIES = st.one_of(
    st.integers(-3, 3), st.integers(BIG - 3, BIG + 3), st.integers(-BIG - 3, -BIG + 3)
)


def _int_rows(data, n_rows, n_cols):
    return [[data.draw(BIG_ENTRIES) for _ in range(n_cols)] for _ in range(n_rows)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_int_matrix_product_sum_and_apply_match_naive_loops(n, k, m, data):
    a, b, c = _int_rows(data, n, k), _int_rows(data, k, m), _int_rows(data, n, k)
    v = data.draw(st.lists(BIG_ENTRIES, min_size=k, max_size=k))
    product = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            for t in range(k):
                product[i][j] += a[i][t] * b[t][j]
    ma, mb, mc = IntMatrix.from_rows(a), IntMatrix.from_rows(b), IntMatrix.from_rows(c)
    assert (ma * mb).entries == tuple(map(tuple, product))
    assert (ma + mc).entries == tuple(
        tuple(a[i][j] + c[i][j] for j in range(k)) for i in range(n)
    )
    assert ma.apply(tuple(v)) == tuple(sum(a[i][t] * v[t] for t in range(k)) for i in range(n))
    with pytest.raises(DimensionMismatch):
        ma * IntMatrix.from_rows(_int_rows(data, k + 1, m))
    for shape in ((n + 1, k), (n, k + 1)):
        with pytest.raises(DimensionMismatch):
            ma + IntMatrix.from_rows(_int_rows(data, *shape))
    with pytest.raises(DimensionMismatch):
        ma.apply(tuple(v) + (1,))


def test_int_matrix_rejects_empty_and_ragged_rows():
    for entries in ((), ((),), ((), (1,))):
        with pytest.raises(ValueError, match="at least one row and column"):
            IntMatrix(entries)
    for entries in (((1, 2), (3,)), ((1,), (2, 3)), ((1, 2), (3, 4), (5, 6, 7))):
        with pytest.raises(ValueError, match="ragged"):
            IntMatrix(entries)


# --- worked example values -------------------------------------------------


def test_quaternion_b_charpoly():
    assert charpoly(QUAT_B).coeffs == (36, -24, 16, -4, 1)


def test_quaternion_b_charpoly_is_square_of_f():
    f = IntPoly((6, -2, 1))
    assert f * f == charpoly(QUAT_B)


def test_quaternion_b_det_and_snf():
    assert det(QUAT_B) == 36
    assert snf(QUAT_B) == (1, 1, 6, 6)


def test_quaternion_b_adjugate():
    expected = QUAT_B.scale(-6) + IntMatrix.identity(4).scale(12)
    assert adjugate(QUAT_B) == expected


def test_quaternion_b_kth_root():
    assert poly_kth_root(charpoly(QUAT_B), 2) == IntPoly((6, -2, 1))


# --- properties ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_adjugate_identity(m):
    assert m * adjugate(m) == IntMatrix.identity(m.rows).scale(det(m))


@settings(max_examples=60, deadline=None)
@given(square_matrices(n_max=3, bound=5))
def test_det_and_charpoly_against_sympy(m):
    sm = sympy.Matrix([list(r) for r in m.entries])
    assert det(m) == sm.det()
    cp = sympy.Poly(sm.charpoly().as_expr(), sympy.Symbol("lambda"))
    expected = tuple(int(c) for c in reversed(cp.all_coeffs()))
    assert charpoly(m).coeffs == expected


@settings(max_examples=40, deadline=None)
@given(square_matrices(n_max=3, bound=4))
def test_minpoly_annihilates_and_divides(m):
    f = minpoly(m)
    zero = IntMatrix.from_rows([[0] * m.rows] * m.rows)
    assert IntMatrix.from_rows(_poly_eval_matrix(f.coeffs, m.entries, None)) == zero
    assert f.degree <= m.rows
    q, r = sympy.div(
        sympy.Poly(list(reversed(charpoly(m).coeffs)), sympy.Symbol("x")),
        sympy.Poly(list(reversed(f.coeffs)), sympy.Symbol("x")),
    )
    assert r.is_zero


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3))
def test_hnf_canonical_under_unimodular(seed, n):
    rng = random.Random(seed)
    m = IntMatrix.from_rows(
        [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    )
    if det(m) == 0:
        return
    u = random_unimodular(rng, n)
    assert hnf(u * m) == hnf(m)


def test_hnf_shape():
    lat = hnf(IntMatrix.from_rows([[2, 1], [0, 3]]))
    assert lat.index == 6
    b = lat.basis
    for i in range(2):
        assert b[i, i] > 0
        for j in range(i):
            assert b[i, j] == 0
        for j in range(i + 1, 2):
            assert 0 <= b[i, j] < b[j, j]


@settings(max_examples=50, deadline=None)
@given(square_matrices(n_max=3, bound=5))
def test_snf_divisibility_chain(m):
    d = det(m)
    if d == 0:
        return
    factors = snf(m)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    prod = 1
    for a in factors:
        prod *= a
    assert prod == abs(d)


def test_snf_coset_counting_oracle():
    # |Z^2 / L| computed by brute-force coset counting must match the index
    m = IntMatrix.from_rows([[2, 1], [0, 3]])
    factors = snf(m)
    index = factors[0] * factors[1]
    lat = hnf(m)
    box = 2 * index
    seen = {
        _coset_key(lat, (x, y)) for x in range(box) for y in range(box)
    }
    assert len(seen) == index


def _coset_key(lat, v):
    # canonical representative: reduce against the HNF rows
    v = list(v)
    for i in range(lat.dimension):
        d = lat.basis[i, i]
        c = v[i] // d
        row = lat.basis.row(i)
        v = [a - c * b for a, b in zip(v, row)]
    return tuple(v)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    st.integers(1, 3),
)
def test_factor_over_integers_roundtrip(c1, c2, extra):
    f = IntPoly((c1[0], c1[1], 1)) * IntPoly((c2[0], c2[1], 1))
    content, factors = factor_over_integers(f)
    rebuilt = IntPoly((content,))
    for poly, mult in factors:
        rebuilt = rebuilt * poly.pow(mult)
    assert rebuilt == f


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=2, max_size=3), st.integers(2, 3))
def test_poly_kth_root_roundtrip(tail, k):
    g = IntPoly(tuple(tail) + (1,))
    assert poly_kth_root(g.pow(k), k) == g


def test_poly_kth_root_rejects_non_powers():
    with pytest.raises(NotAPower):
        poly_kth_root(IntPoly((1, 2, 1)), 3)  # degree not divisible
    with pytest.raises(NotAPower):
        poly_kth_root(IntPoly((2, 3, 0, 0, 1)), 2)


def _sympy_factor_list(f):
    """Reference: sympy's factorization of the polynomial as an expression."""
    x = sympy.Symbol("x")
    expr = sum(c * x**i for i, c in enumerate(f.coeffs))
    content, factors = sympy.Poly(expr, x, domain="ZZ").factor_list()
    return int(content), [
        (IntPoly(tuple(int(c) for c in reversed(g.all_coeffs()))), int(mult))
        for g, mult in factors
    ]


def _kth_root_by_factoring(f, k):
    """Reference: the monic k-th root read off the factorization over Z."""
    if f.degree % k != 0:
        raise NotAPower("degree")
    content, factors = _sympy_factor_list(f)
    if content != 1 or any(mult % k != 0 for _, mult in factors):
        raise NotAPower("factorization")
    g = IntPoly((1,))
    for poly, mult in factors:
        g = g * poly.pow(mult // k)
    return g


def _random_monic(rng, degree):
    return IntPoly(tuple(rng.randint(-5, 5) for _ in range(degree)) + (1,))


def test_factor_over_integers_matches_sympy_expression_oracle():
    rng = random.Random(0)
    for _ in range(60):
        f = IntPoly((rng.choice((1, -2, 3)),))
        for _ in range(rng.randint(1, 3)):
            f = f * _random_monic(rng, rng.randint(0, 3)).pow(rng.randint(1, 2))
        assert factor_over_integers(f) == _sympy_factor_list(f)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_poly_kth_root_matches_factoring_oracle(k):
    rng = random.Random(k)
    for _ in range(25):
        g = _random_monic(rng, rng.randint(0, 4))
        f = g.pow(k)
        assert poly_kth_root(f, k) == _kth_root_by_factoring(f, k) == g
        if k > 1 and g.degree > 0:
            not_power = IntPoly((f.coeffs[0] + 1,) + f.coeffs[1:])
            for root in (poly_kth_root, _kth_root_by_factoring):
                with pytest.raises(NotAPower):
                    root(not_power, k)


def test_poly_kth_root_checks_integral_candidates():
    # the series gives the integral candidate x + 1, whose square is x^2+2x+1
    for root in (poly_kth_root, _kth_root_by_factoring):
        with pytest.raises(NotAPower):
            root(IntPoly((2, 2, 1)), 2)


def test_factor_over_prime_field():
    # X^2 + 1 splits mod 5 and is irreducible mod 7
    fs5 = factor_over_prime_field((1, 0, 1), 5)
    assert sorted(len(c) for c, _ in fs5) == [2, 2]
    fs7 = factor_over_prime_field((1, 0, 1), 7)
    assert len(fs7) == 1 and fs7[0][1] == 1


# --- factoring, primality and divisors against sympy, the earlier backend ----


def _gf_factor_reference(coeffs, p):
    """sympy's gf_factor, with a leading coefficient c != 1 first as ((c,), 1)."""
    desc = [c % p for c in reversed(coeffs)]
    while desc and desc[0] == 0:
        desc.pop(0)
    lc, factors = gf_factor([sympy.ZZ(c) for c in desc], p, sympy.ZZ)
    out = [(tuple(int(c) for c in reversed(f)), int(e)) for f, e in factors]
    return [((int(lc),), 1)] * (int(lc) != 1) + out


def _zz_factor_reference(f):
    content, factors = dup_factor_list([sympy.ZZ(c) for c in reversed(f.coeffs)], sympy.ZZ)
    return int(content), [
        (IntPoly(tuple(int(c) for c in reversed(g))), int(e)) for g, e in factors
    ]


FIELD_PRIMES = (2, 3, 17, 241, 8641)


@st.composite
def _fp_polynomials(draw):
    """(coefficients, p): c * prod g_i^e_i with repeated and p-th power factors."""
    p = draw(st.sampled_from(FIELD_PRIMES))
    f = IntPoly((draw(st.integers(1, p - 1)),))
    for _ in range(draw(st.integers(0, 4))):
        tail = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
        powers = (1, 2, 3, p) if p < 4 else (1, 2, 3)
        f = f * IntPoly(tuple(tail) + (1,)).pow(draw(st.sampled_from(powers)))
    coeffs = [c % p for c in f.coeffs]
    if p < 4 and draw(st.booleans()):  # f(x^p), whose derivative is zero
        spread = [0] * (p * len(coeffs) - p + 1)
        spread[::p] = coeffs
        coeffs = spread
    return tuple(coeffs), p


@settings(max_examples=300, deadline=None)
@given(_fp_polynomials())
def test_factor_over_prime_field_matches_gf_factor(case):
    coeffs, p = case
    assert factor_over_prime_field(coeffs, p) == _gf_factor_reference(coeffs, p)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELD_PRIMES), st.lists(st.integers(-50, 50), min_size=1, max_size=9))
def test_factor_over_prime_field_of_raw_coefficients(p, coeffs):
    if all(c % p == 0 for c in coeffs):
        with pytest.raises(ValueError):
            factor_over_prime_field(tuple(coeffs), p)
        return
    assert factor_over_prime_field(tuple(coeffs), p) == _gf_factor_reference(coeffs, p)


def test_factor_over_prime_field_special_shapes():
    cases = [
        ((1, 0, 0, 1, 0, 0, 1), 3),  # (x^2 + x + 1)^3, derivative zero
        ((1, 0, 1, 0, 1), 2),  # (x^2 + x + 1)^2, derivative zero
        ((1, 0, 0, 1), 3),  # (x + 1)^3
        ((0, 0, 0, 0, 0, 0, 0, 0, 1), 2),  # x^8
        ((1,) + (0,) * 16 + (1,), 17),  # x^17 + 1 = (x + 1)^17
        ((2, 0, 0, 2), 3),  # 2 (x + 1)^3
        ((5,), 17),  # a unit
        ((1,) + (0,) * 7 + (1,), 17),  # x^8 + 1: 8 linear factors, equal-degree split
        (tuple(range(1, 12)), 2),
    ]
    for coeffs, p in cases:
        assert factor_over_prime_field(coeffs, p) == _gf_factor_reference(coeffs, p), coeffs


@st.composite
def _zz_polynomials(draw):
    """content * x^j * prod g_i^e_i, the g_i of either sign and not monic."""
    f = IntPoly((draw(st.integers(-12, 12).filter(bool)),))
    for _ in range(draw(st.integers(0, 4))):
        tail = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3))
        lead = draw(st.sampled_from((1, 1, -1, 2, 3)))
        f = f * IntPoly(tuple(tail) + (lead,)).pow(draw(st.integers(1, 3)))
    return IntPoly((0,) * draw(st.integers(0, 3)) + f.coeffs)


@settings(max_examples=300, deadline=None)
@given(_zz_polynomials())
def test_factor_over_integers_matches_dup_factor_list(f):
    assert factor_over_integers(f) == _zz_factor_reference(f)


def test_factor_over_integers_special_shapes():
    swinnerton_dyer = IntPoly((1, 0, -10, 0, 1))  # splits mod every prime
    cases = [
        swinnerton_dyer,
        swinnerton_dyer * IntPoly((-2, 0, 1)).pow(2) * IntPoly((0, 0, 0, -6)),
        IntPoly((-1,) + (0,) * 11 + (1,)),  # x^12 - 1, six cyclotomic factors
        IntPoly((0, 0, 1)) * IntPoly((1, 1)),  # x^2 sorts after x + 1
        IntPoly((0, 0, -4, -2)),  # -2 x^2 (x + 2)
        IntPoly((7,)),
        IntPoly((-6, 0, 0, 0, 0, 0, 0, 0, 0)),
        IntPoly((1, 1)).pow(5) * IntPoly((-1, 1)).pow(4) * IntPoly((1, 2)),
        IntPoly((-6, 11, -6, 1)) * IntPoly((4, 0, -5, 0, 1)),  # eight linear factors
    ]
    for f in cases:
        assert factor_over_integers(f) == _zz_factor_reference(f), f


def test_factoring_leaves_the_global_random_state_alone():
    random.seed(5)
    state = random.getstate()
    eight_roots = (1,) + (0,) * 7 + (1,)  # x^8 + 1 splits into 8 linear factors mod 17
    assert len(factor_over_prime_field(eight_roots, 17)) == 8
    assert factor_over_integers(IntPoly((4, 0, -5, 0, 1)))[1][0][0] == IntPoly((-2, 1))
    assert random.getstate() == state


CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185)
# Carmichael numbers (6k+1)(12k+1)(18k+1) with no factor among the bases: a
# test that also accepts a 1 reached by squaring a value other than n - 1
# calls them prime
CHERNICK = (56052361, 118901521, 172947529, 216821881, 2301745249)
STRONG_PSEUDOPRIMES = (
    2047,  # to base 2
    1373653,  # bases 2, 3
    25326001,  # bases 2, 3, 5
    3215031751,  # bases 2, 3, 5, 7
    2152302898747,  # bases 2 to 11
    3474749660383,  # bases 2 to 13
    341550071728321,  # bases 2 to 17
    3825123056546413051,  # bases 2 to 23
    318665857834031151167461,  # bases 2 to 37, the first twelve primes
)


def test_isprime_matches_sympy():
    assert all(_isprime(n) == sympy.isprime(n) for n in range(-5, 10**5))
    for n in CARMICHAEL + CHERNICK + STRONG_PSEUDOPRIMES:
        assert _isprime(n) is False and sympy.isprime(n) is False, n
    for n in (2**31 - 1, 2**61 - 1, 10**18 + 9, 10**24 + 7, _MR_LIMIT - 1):
        assert _isprime(n) == sympy.isprime(n), n


@settings(max_examples=200, deadline=None)
@given(st.integers(10**5, _MR_LIMIT - 1))
def test_isprime_matches_sympy_on_large_numbers(n):
    assert _isprime(n) == sympy.isprime(n)


def test_isprime_refuses_to_guess_beyond_its_range():
    # _MR_LIMIT itself is a strong pseudoprime to the first 13 prime bases
    for n in (_MR_LIMIT, 2**89 - 1):
        with pytest.raises(PrimalityUnknown):
            _isprime(n)
    assert _isprime(_MR_LIMIT + 1) is False  # even: a small factor decides it


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6))
def test_divisors_and_least_prime_power_match_sympy(n):
    assert _divisors(n) == sympy.divisors(n)
    if n > 1:
        assert _least_prime_power(n) == min(sympy.factorint(n).items())


def test_kernels():
    vecs = kernel_q([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    assert len(vecs) == 1
    v = vecs[0]
    assert v[0] + 2 * v[1] == 0
    vp = kernel_fp([[1, 2], [2, 4]], 5)
    assert len(vp) == 1
    assert (vp[0][0] + 2 * vp[0][1]) % 5 == 0


def test_saturate_clears_index():
    # (2,0) and (0,2) span Q^2; saturation recovers Z^2
    basis = saturate([(Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))])
    assert abs(det(basis)) == 1


def test_saturate_partial_span():
    basis = saturate([(Fraction(2), Fraction(4))])
    assert basis.rows == 1
    assert tuple(basis.row(0)) in ((1, 2), (-1, -2))


def test_integer_row_kernel_saturated():
    m = IntMatrix.from_rows([[2, 4], [1, 2]])
    ker = integer_row_kernel(m)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] * 2 + v[1] * 1 == 0 and v[0] * 4 + v[1] * 2 == 0
    from math import gcd

    assert gcd(v[0], v[1]) == 1


def test_row_echelon_transform_unimodular():
    m = IntMatrix.from_rows([[2, 4, 1], [4, 8, 3], [0, 0, 1]])
    h, u = row_echelon_transform(m)
    assert abs(det(IntMatrix.from_rows(u))) == 1
    assert IntMatrix.from_rows(u) * m == IntMatrix.from_rows(h)


def test_lattice_contains():
    lat = hnf(IntMatrix.from_rows([[2, 0], [0, 2]]))
    assert lat.contains((2, 4))
    assert not lat.contains((1, 0))


# --- the field-generic elimination against sympy ----------------------------

# None is Q; 17 and 241 are primes = 1 mod 8 and mod 240, as the splits use
FIELDS = (None, 2, 17, 241)
ENTRIES = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 7, 16, 240))


@st.composite
def field_matrices(draw, square=False, max_size=5):
    """Small integer matrices, wide and tall, full rank or not, often with
    zero rows and columns; half of them are products of rank <= k."""
    n_rows = draw(st.integers(1, max_size))
    n_cols = n_rows if square else draw(st.integers(1, max_size))

    def block(r, c):
        return draw(st.lists(st.lists(ENTRIES, min_size=c, max_size=c), min_size=r, max_size=r))

    if draw(st.booleans()):
        return block(n_rows, n_cols)
    k = draw(st.integers(0, min(n_rows, n_cols)))
    left, right = block(n_rows, k), block(k, n_cols)
    return [[sum(l[t] * right[t][j] for t in range(k)) for j in range(n_cols)] for l in left]


def _ours(x, p):
    return Fraction(int(x.numerator), int(x.denominator)) if p is None else int(x) % p


def _domain_matrix(rows, p):
    field = sympy.GF(p)
    return DomainMatrix([[field(x) for x in r] for r in rows], (len(rows), len(rows[0])), field)


def _sympy_rref(rows, p):
    if p is None:
        red, pivots = sympy.Matrix(rows).rref()
        return [[_ours(x, p) for x in red.row(i)] for i in range(red.rows)], list(pivots)
    red, pivots = _domain_matrix(rows, p).rref()
    return [[_ours(x, p) for x in r] for r in red.to_list()], list(pivots)


def _sympy_nullspace(rows, p):
    """Kernel basis over Q, or a reduced basis of the kernel over F_p (GF(p)
    scales its basis vectors differently from Matrix.nullspace)."""
    if p is None:
        return [tuple(_ours(x, p) for x in v) for v in sympy.Matrix(rows).nullspace()]
    if len(_sympy_rref(rows, p)[1]) == len(rows[0]):
        return []
    return _sympy_rref(_domain_matrix(rows, p).nullspace().to_list(), p)[0]


@settings(max_examples=150, deadline=None)
@given(field_matrices(), st.sampled_from(FIELDS))
def test_rref_kernel_and_rank_match_sympy(rows, p):
    red, pivots = _rref(rows, p)
    assert (red, pivots) == _sympy_rref(rows, p)
    assert _rank(rows, p) == len(pivots)
    if p is None:
        assert kernel_q(rows) == _sympy_nullspace(rows, p)
        return
    kernel_basis = kernel_fp(rows, p)
    free = [c for c in range(len(rows[0])) if c not in pivots]
    assert [[v[c] for c in free] for v in kernel_basis] == _identity(len(free))
    reduced = _sympy_rref(kernel_basis, p)[0] if kernel_basis else []
    assert reduced == _sympy_nullspace(rows, p)


RATIONALS = st.one_of(ENTRIES, st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)))


@st.composite
def rational_matrices(draw, max_size=5):
    """Matrices over Q as the splitter passes them: Fraction entries with
    denominators 1..12 mixed with ints, some rows zero; half of them are
    products of rank <= k."""
    n_rows = draw(st.integers(1, max_size))
    n_cols = draw(st.integers(1, max_size))

    def block(r, c):
        return draw(st.lists(st.lists(RATIONALS, min_size=c, max_size=c), min_size=r, max_size=r))

    if draw(st.booleans()):
        rows = block(n_rows, n_cols)
    else:
        k = draw(st.integers(0, min(n_rows, n_cols)))
        left, right = block(n_rows, k), block(k, n_cols)
        rows = [[sum(l[t] * right[t][j] for t in range(k)) for j in range(n_cols)] for l in left]
    for i in draw(st.sets(st.integers(0, n_rows - 1), max_size=2)):
        rows[i] = [0] * n_cols
    return rows


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rref_over_q_of_rational_rows_matches_sympy(rows):
    red, pivots = _rref(rows, None)
    assert (red, pivots) == _sympy_rref(rows, None)
    assert all(type(x) is Fraction for row in red for x in row)


@settings(max_examples=150, deadline=None)
@given(field_matrices(), st.sampled_from(FIELDS), rational_matrices())
def test_pivot_rows_leaves_its_input_unchanged(rows, p, rational_rows):
    """Over F_p the elimination updates rows in place, on its own copy."""
    for rows, p in ((rows, p), (rational_rows, None)):
        before = [list(row) for row in rows]
        red, _ = _pivot_rows(rows, p)
        assert rows == before
        for row in red:
            row[:] = [None] * len(row)
        assert rows == before


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("name", ORACLE_CATALOG + ("perm_sym(6)",))
def test_commutation_system_kernels_match_the_sympy_nullspace(name, seed):
    """kernel_fp on the commutation system of the generators, at the
    exponent_report primes: one vector per free column, 1 there and 0 at the
    other free columns, spanning sympy's nullspace; the system unchanged."""
    gens = catalog_rep(name).generators
    if seed:
        q, q_inv = _unimodular_pair(gens[0].rows, random.Random(f"commutation:{name}"))
        gens = tuple(q_inv * g * q for g in gens)
    rep = close_group(gens)
    rows = _commutation_system([g.entries for g in rep.generators], rep.degree)
    before = [list(row) for row in rows]
    for p in exponent_report(rep).primes:
        kernel_basis = kernel_fp(rows, p)
        assert rows == before
        pivots = _sympy_rref(rows, p)[1]
        free = [c for c in range(len(rows[0])) if c not in pivots]
        assert [[v[c] for c in free] for v in kernel_basis] == _identity(len(free))
        assert _sympy_rref(kernel_basis, p)[0] == _sympy_nullspace(rows, p)


@settings(max_examples=150, deadline=None)
@given(field_matrices(), st.sampled_from(FIELDS), st.data())
def test_solve_matches_sympy(rows, p, data):
    n_rows, n_cols = len(rows), len(rows[0])
    rhs = data.draw(st.lists(st.lists(ENTRIES, min_size=n_rows, max_size=n_rows), min_size=1, max_size=3))
    aug = [list(r) + [col[i] for col in rhs] for i, r in enumerate(rows)]
    if len(_sympy_rref(aug, p)[1]) > len(_sympy_rref(rows, p)[1]):
        with pytest.raises(RfvaError, match="inconsistent"):
            _solve(rows, rhs, p)
        return
    sols = _solve(rows, rhs, p)
    if p is None:
        for col, sol in zip(rhs, sols):
            x, params = sympy.Matrix(rows).gauss_jordan_solve(sympy.Matrix(col))
            x = x.subs({t: 0 for t in params})
            assert sol == [_ours(v, p) for v in x]
        return
    pivots = _sympy_rref(rows, p)[1]
    for col, sol in zip(rhs, sols):
        assert all(sol[c] == 0 for c in range(n_cols) if c not in pivots)
        assert all(
            (sum(a * x for a, x in zip(row, sol)) - b) % p == 0 for row, b in zip(rows, col)
        )


@settings(max_examples=100, deadline=None)
@given(field_matrices(square=True), st.sampled_from(FIELDS))
def test_inverse_matches_sympy(rows, p):
    """_scaled_inverse gives s A^-1 and s, s = 1 over F_p and the least
    common denominator of A^-1 over Q, with int entries."""
    n = len(rows)
    if len(_sympy_rref(rows, p)[1]) < n:
        with pytest.raises(SingularMatrix):
            _scaled_inverse(rows, p)
        return
    inverse, scale = _scaled_inverse(rows, p)
    assert all(type(x) is int for row in inverse for x in row)
    if p is None:
        expected = sympy.Matrix(rows).inv()
        expected = [[_ours(x, p) for x in expected.row(i)] for i in range(n)]
        assert scale == math.lcm(*(x.denominator for row in expected for x in row))
        assert inverse == [[x * scale for x in row] for row in expected]
    else:
        expected = [[_ours(x, p) for x in r] for r in _domain_matrix(rows, p).inv().to_list()]
        assert (inverse, scale) == (expected, 1)


@settings(max_examples=150, deadline=None)
@given(st.one_of(field_matrices(), rational_matrices()))
def test_scaled_kernel_is_the_least_integral_multiple_of_the_rref_kernel(rows):
    vectors, scale = _scaled_kernel(rows, None)
    expected = _sympy_nullspace(rows, None)
    assert scale == math.lcm(*(x.denominator for v in expected for x in v))
    assert vectors == [tuple(x * scale for x in v) for v in expected]
    assert all(type(x) is int for v in vectors for x in v)
    # the kernel alone fixes the result: a scaled copy of the rows gives it too
    assert _scaled_kernel([[-3 * x for x in row] for row in rows], None) == (vectors, scale)


@settings(max_examples=100, deadline=None)
@given(field_matrices(square=True, max_size=4))
def test_matrix_minpoly_over_q_of_an_integer_matrix_has_int_coefficients(rows):
    coeffs = _matrix_minpoly(rows, None)
    assert all(type(x) is int for x in coeffs)
    assert _poly_eval_matrix(coeffs, rows, None) == [[0] * len(rows)] * len(rows)


@settings(max_examples=100, deadline=None)
@given(field_matrices(square=True, max_size=4), st.sampled_from(FIELDS))
def test_matrix_minpoly_against_sympy(rows, p):
    """Monic, divides the charpoly, kills M, and no proper divisor by an
    irreducible factor kills M (charpoly and factors from sympy)."""
    x = sympy.Symbol("x")
    domain = {"domain": "QQ"} if p is None else {"modulus": p}
    coeffs = _matrix_minpoly(rows, p)
    assert coeffs[-1] == 1
    f = sympy.Poly(list(reversed(coeffs)), x, **domain)
    char = sympy.Poly(sympy.Matrix(rows).charpoly(x).as_expr(), x, **domain)
    assert char.rem(f).is_zero

    def kills(g):
        value = sympy.zeros(len(rows))
        for c in g.all_coeffs():
            value = value * sympy.Matrix(rows) + c * sympy.eye(len(rows))
        return all((v if p is None else v % p) == 0 for v in value)

    assert kills(f)
    for g, _ in f.factor_list()[1]:
        assert not kills(f.quo(g))
    assert _poly_eval_matrix(coeffs, rows, p) == [[0] * len(rows)] * len(rows)


# --- the integer echelon kernel against sympy and the earlier routines -------
# The three references are the separate eliminations that _echelon replaced,
# kept here verbatim as oracles for its bases.


def _ref_row_hnf_square(rows):
    m = len(rows)
    for j in range(m):
        while True:
            nonzero = [i for i in range(j + 1, m) if rows[i][j] != 0]
            if not nonzero:
                break
            pivot = min(
                (i for i in range(j, m) if rows[i][j] != 0),
                key=lambda i: abs(rows[i][j]),
            )
            rows[j], rows[pivot] = rows[pivot], rows[j]
            for i in range(j + 1, m):
                if rows[i][j] != 0:
                    q = rows[i][j] // rows[j][j]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
        if rows[j][j] == 0:
            raise SingularMatrix("matrix is singular")
        if rows[j][j] < 0:
            rows[j] = [-a for a in rows[j]]
    for j in range(m):
        for i in range(j):
            q = rows[i][j] // rows[j][j]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
    return rows


def _ref_row_echelon_transform(m):
    rows = [list(r) for r in m.entries]
    n = len(rows)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivot_row = 0
    for j in range(m.cols):
        if pivot_row == n:
            break
        while True:
            cand = [i for i in range(pivot_row, n) if rows[i][j] != 0]
            if not cand:
                break
            best = min(cand, key=lambda i: abs(rows[i][j]))
            rows[pivot_row], rows[best] = rows[best], rows[pivot_row]
            u[pivot_row], u[best] = u[best], u[pivot_row]
            cleared = True
            for i in range(pivot_row + 1, n):
                if rows[i][j] != 0:
                    q = rows[i][j] // rows[pivot_row][j]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[pivot_row])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[pivot_row])]
                    if rows[i][j] != 0:
                        cleared = False
            if cleared:
                break
        if rows[pivot_row][j] != 0:
            if rows[pivot_row][j] < 0:
                rows[pivot_row] = [-a for a in rows[pivot_row]]
                u[pivot_row] = [-a for a in u[pivot_row]]
            pivot_row += 1
    return rows, u


def _ref_reduce_rect_basis(rows):
    h, _ = _ref_row_echelon_transform(IntMatrix.from_rows(rows))
    h = [r for r in h if any(x != 0 for x in r)]
    pivots = [next(j for j, x in enumerate(r) if x != 0) for r in h]
    for idx in range(len(h)):
        for lower in range(idx + 1, len(h)):
            pj = pivots[lower]
            q = h[idx][pj] // h[lower][pj]
            if q:
                h[idx] = [a - q * b for a, b in zip(h[idx], h[lower])]
    return h


@st.composite
def generator_stacks(draw, min_extra=0, max_extra=3, max_cols=4, bound=6):
    """k x m integer matrices with m + min_extra <= k <= m + max_extra, k >= 1."""
    m = draw(st.integers(1, max_cols))
    k = max(1, m + draw(st.integers(min_extra, max_extra)))
    row = st.lists(st.integers(-bound, bound), min_size=m, max_size=m)
    return IntMatrix.from_rows(draw(st.lists(row, min_size=k, max_size=k)))


def _full_rank(m):
    return _rank([list(r) for r in m.entries], None) == m.cols


@settings(max_examples=200, deadline=None)
@given(generator_stacks())
def test_hnf_of_square_and_tall_stacks_matches_sympy_and_the_earlier_routine(m):
    if not _full_rank(m):
        with pytest.raises(SingularMatrix):
            hnf(m)
        return
    lat = hnf(m)
    # sympy's column HNF reduces differently: compare lattices, not bases
    theirs = hermite_normal_form(sympy.Matrix(m.entries).T)
    assert theirs.shape == (m.cols, m.cols)
    assert all(lat.contains(tuple(int(x) for x in theirs.col(j))) for j in range(m.cols))
    assert abs(theirs.det()) == lat.index
    assert all(lat.contains(r) for r in m.entries)
    if m.is_square():
        ref = _ref_row_hnf_square([list(r) for r in m.entries])
    else:  # the witness path: echelon, drop zero rows, square HNF
        h, _ = _ref_row_echelon_transform(m)
        ref = _ref_row_hnf_square([r for r in h if any(r)])
    assert lat.basis == IntMatrix.from_rows(ref)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1))), st.data())
def test_hnf_of_short_or_rank_deficient_stacks_raises(shape, data):
    m, k = shape
    row = st.lists(st.integers(-6, 6), min_size=m, max_size=m)
    if k:  # k < m generators never span Z^m
        with pytest.raises(SingularMatrix):
            hnf(IntMatrix.from_rows(data.draw(st.lists(row, min_size=k, max_size=k))))
    # m generators plus combinations of the first m - 1 span rank m - 1
    rows = data.draw(st.lists(row, min_size=m - 1, max_size=m - 1))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=m - 1, max_size=m - 1))
    combo = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(m)]
    with pytest.raises(SingularMatrix):
        hnf(IntMatrix.from_rows(rows + [combo, combo]))


@settings(max_examples=200, deadline=None)
@given(square_matrices(n_max=4, bound=8))
def test_snf_matches_sympy(m):
    if det(m) == 0:
        with pytest.raises(SingularMatrix):
            snf(m)
        return
    theirs = smith_normal_form(sympy.Matrix(m.entries), domain=sympy.ZZ)
    assert snf(m) == tuple(sorted(abs(int(theirs[i, i])) for i in range(m.rows)))


@settings(max_examples=200, deadline=None)
@given(generator_stacks(min_extra=-3))
def test_row_echelon_transform_matches_the_earlier_routine(m):
    h, u = row_echelon_transform(m)
    ref_h, ref_u = _ref_row_echelon_transform(m)
    assert (h, u) == (ref_h, ref_u)
    assert abs(det(IntMatrix.from_rows(u))) == 1
    assert IntMatrix.from_rows(u) * m == IntMatrix.from_rows(h)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4), min_size=n, max_size=n),
            min_size=1,
            max_size=n + 1,
        )
    )
)
def test_saturate_matches_the_earlier_reduction(vecs):
    n = len(vecs[0])
    if not any(any(v) for v in vecs):
        with pytest.raises(ZeroSpan):  # the zero space has no basis matrix
            saturate(vecs)
        return
    null = kernel_q([list(v) for v in vecs])
    if not null:
        assert saturate(vecs) == IntMatrix.identity(n)
        return
    cleared = []
    for u in null:
        den = math.lcm(*(x.denominator for x in u))
        cleared.append(tuple(int(x * den) for x in u))
    ncols = IntMatrix.from_rows(list(zip(*cleared)))
    h, u = _ref_row_echelon_transform(ncols)
    kernel_rows = [u[i] for i in range(len(h)) if not any(h[i])]
    assert saturate(vecs) == IntMatrix.from_rows(_ref_reduce_rect_basis(kernel_rows))


def small_lattices(max_index=6):
    return (
        st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2), min_size=2, max_size=2)
        .map(IntMatrix.from_rows)
        .filter(lambda m: 0 < abs(det(m)) <= max_index)
        .map(hnf)
    )


def _lattice(rows):
    return hnf(IntMatrix.from_rows(rows))


@settings(max_examples=80, deadline=None)
@given(small_lattices(), small_lattices())
@example(_lattice([[2, 0], [0, 1]]), _lattice([[2, 0], [0, 2]]))  # indices 2, 4
@example(_lattice([[2, 1], [0, 2]]), _lattice([[2, 0], [0, 3]]))  # indices 4, 6
@example(_lattice([[1, 1], [0, 4]]), _lattice([[2, 1], [0, 3]]))  # indices 4, 6
@example(_lattice([[2, 1], [0, 2]]), _lattice([[2, 1], [0, 2]]))  # equal
def test_intersection_by_counting_points(a, b):
    """A ∩ B, for coprime indices or not, is read off the points of a period box."""
    period = a.index * b.index
    box = [(x, y) for x in range(period) for y in range(period)]
    common = [v for v in box if a.contains(v) and b.contains(v)]
    meet = intersection(a, b)
    assert meet.index == period**2 // len(common)
    if math.gcd(a.index, b.index) == 1:
        assert meet.index == a.index * b.index
    assert [v for v in box if meet.contains(v)] == common
    assert meet == intersection(b, a)


def test_intersection_in_rank_three_and_of_mismatched_ranks():
    a = _lattice([[2, 0, 1], [0, 2, 0], [0, 0, 3]])
    b = _lattice([[1, 1, 0], [0, 4, 0], [0, 0, 2]])
    period = a.index * b.index
    box = [(x, y, z) for x in range(period) for y in range(period) for z in range(period)]
    meet = intersection(a, b)
    common = [v for v in box if a.contains(v) and b.contains(v)]
    assert meet.index == period**3 // len(common)
    assert [v for v in box if meet.contains(v)] == common
    with pytest.raises(DimensionMismatch):
        intersection(a, _lattice([[2, 0], [0, 1]]))


def _random_hnf_lattice(rng, m):
    """A random full-rank lattice of rank m, entries small, via its HNF."""
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(m)]
        mat = IntMatrix.from_rows(rows)
        if 0 < abs(det(mat)) <= 40:
            return hnf(mat)


def _canonical(v):
    """v or -v, whichever has its first nonzero entry positive."""
    lead = next(x for x in v if x)
    return v if lead > 0 else tuple(-x for x in v)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_shortest_vectors_match_a_box_search(m):
    rng = random.Random(100 + m)
    for _ in range(12 if m < 4 else 6):
        lat = _random_hnf_lattice(rng, m)
        # every lattice vector of l1 norm <= the least basis row's lies in the box
        bound = min(sum(map(abs, row)) for row in lat.basis.entries)
        span = range(-bound, bound + 1)
        points = [
            v
            for v in product(span, repeat=m)
            if any(v) and sum(map(abs, v)) <= bound and lat.contains(v)
        ]
        lam = min(sum(map(abs, v)) for v in points)
        expected = sorted({_canonical(v) for v in points if sum(map(abs, v)) == lam})
        assert shortest_vectors(lat) == (lam, expected)


def test_shortest_vectors_of_small_examples():
    assert shortest_vectors(_lattice([[1]])) == (1, [(1,)])
    assert shortest_vectors(_lattice([[7]])) == (7, [(7,)])
    assert shortest_vectors(_lattice([[1, 0], [0, 1]])) == (1, [(0, 1), (1, 0)])
    # x = y mod 2: the last entry of (1, y) is 1 or -1, a tie at half of d = 2
    assert shortest_vectors(_lattice([[1, 1], [0, 2]])) == (2, [(0, 2), (1, -1), (1, 1), (2, 0)])
    # v_0 + v_1 + v_2 = 0 mod 3
    assert shortest_vectors(_lattice([[1, 0, 2], [0, 1, 2], [0, 0, 3]])) == (
        2,
        [(0, 1, -1), (1, -1, 0), (1, 0, -1)],
    )


def _reference_faddeev_leverrier(m):
    """The recursion with a dense scalar matrix added at each step."""
    n = m.rows
    coeffs_desc = [1]
    mk = m
    horner = IntMatrix.identity(n)
    for k in range(1, n + 1):
        ck = -mk.trace() // k
        coeffs_desc.append(ck)
        if k < n:
            horner = horner * m + IntMatrix.identity(n).scale(ck)
            mk = m * (mk + IntMatrix.identity(n).scale(ck))
    if n == 1:
        return tuple(reversed(coeffs_desc)), IntMatrix.identity(1)
    return tuple(reversed(coeffs_desc)), horner if n % 2 == 1 else -horner


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
).map(IntMatrix.from_rows))
def test_charpoly_and_adjugate_match_the_dense_recursion(m):
    coeffs, adj = _reference_faddeev_leverrier(m)
    assert charpoly(m).coeffs == coeffs
    assert adjugate(m) == adj
    assert adjugate(m) == IntMatrix.from_rows(sympy.Matrix([list(r) for r in m.entries]).adjugate().tolist())
