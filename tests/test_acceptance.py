"""Acceptance suite: one test per criterion, exact values, stated time limits.

Each test is self-contained and prints nothing extra; `pytest -v` gives one
pass/fail line per criterion.
"""

import math
import random
import time

import numpy as np
import sympy

from rfva.catalog import catalog_character_table, catalog_matrix, catalog_rep
from rfva.errors import BudgetExceeded
from rfva.exactalg import IntMatrix, IntPoly, det, hnf, snf
from rfva.grouprep import close_group, is_abelian_image
from rfva.lattice import (
    FamilySpec,
    is_invariant_lattice,
    lattice_from_matrix,
    upper_bound_witness,
)
from rfva.repdecomp import (
    commutant_certificate,
    exponent_k,
    exponent_report,
    inner_product,
    k_from_character_table,
    split_mod_p,
)
from rfva.rfgrowth import (
    chebyshev_psi,
    divisibility,
    lower_bound_certificate,
    rf_profile,
    smallest_valid_prime,
)

CATALOG = (
    "d4_paper",
    "quaternion_paper",
    "rot(4)",
    "trivial(2)",
    "perm_sym(3)",
    "std_sym(3)",
    "perm_sym(4)",
    "std_sym(4)",
)


def test_criterion_01_d4_worked_example():
    start = time.monotonic()
    d4 = catalog_rep("d4_paper")
    assert exponent_k(d4) == 2
    dec = k_from_character_table(d4, catalog_character_table("d4_paper"))
    assert dec.k == 2
    assert dec.multiplicities == (1, 0, 0, 0, 1)
    assert dec.chi == (3, 1, -1, 1, 1)
    assert time.monotonic() - start < 1.0


def test_criterion_02_quaternion_example():
    start = time.monotonic()
    q8 = catalog_rep("quaternion_paper")
    b = catalog_matrix("quaternion_commutant")
    assert exponent_k(q8) == 2
    assert all(b * g == g * b for g in q8.generators)
    cert = commutant_certificate(q8, b)
    assert cert.f == IntPoly((6, -2, 1))  # X^2 - 2X + 6
    assert cert.x == 6
    assert det(b) == 36 == 6**2
    assert snf(b) == (1, 1, 6, 6)
    imb = lattice_from_matrix(b)
    for j in range(4):
        assert imb.contains(tuple(6 if i == j else 0 for i in range(4)))
    assert time.monotonic() - start < 1.0


def test_criterion_03_invariant_not_commutant():
    q8 = catalog_rep("quaternion_paper")
    c = catalog_matrix("invariant_det2_lattice")
    lat = lattice_from_matrix(c)
    assert is_invariant_lattice(lat, q8)
    assert det(c) == 2
    # 2 is not a perfect square, so (det B = x^k with k = 2) rules out any
    # commuting matrix with the same image
    root, exact = sympy.integer_nthroot(2, 2)
    assert not exact
    assert exponent_k(q8) == 2


def test_criterion_04_symmetric_group_construction():
    for n in (3, 4, 5):
        perm = catalog_rep(f"perm_sym({n})")
        p = exponent_report(perm).primes[0]
        assert split_mod_p(perm, p).dimensions == (1, n - 1)
        assert exponent_k(catalog_rep(f"std_sym({n})")) == n - 1


def test_criterion_05_prime_stability():
    for name in CATALOG:
        rep = catalog_rep(name)
        report = exponent_report(rep)  # raises InconsistentSplit on mismatch
        assert len(report.primes) == 3
        for p in report.primes:
            assert split_mod_p(rep, p).dimensions == report.dimensions


def _random_monomial(rng, m):
    perm = list(range(m))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(m)]
    return [[signs[i] if perm[j] == i else 0 for j in range(m)] for i in range(m)]


def test_criterion_06_abelian_corollary():
    for name in CATALOG:
        rep = catalog_rep(name)
        assert is_abelian_image(rep) == (exponent_k(rep) == 1), name
    rng = random.Random(0)
    for _ in range(50):
        gens = [_random_monomial(rng, 3), _random_monomial(rng, 3)]
        rep = close_group(gens)
        assert is_abelian_image(rep) == (exponent_k(rep) == 1), gens


def test_criterion_07_witness_soundness():
    start = time.monotonic()
    rng = random.Random(42)
    for name in ("d4_paper", "quaternion_paper", "rot(4)", "trivial(2)"):
        rep = catalog_rep(name)
        k = exponent_k(rep)
        spec = FamilySpec("inv", rep)
        for i in range(100):
            v = tuple(rng.randint(-25, 25) for _ in range(rep.degree))
            if all(x == 0 for x in v):
                v = (1,) + v[1:]
            w = upper_bound_witness(rep, v)
            assert w.index == w.prime**w.dimension
            assert w.dimension <= k
            assert not w.lattice.contains(v)
            assert is_invariant_lattice(w.lattice, rep)
            if i < 10:  # the budgeted comparison on a subsample
                try:
                    d = divisibility(v, spec, index_budget=16)
                except BudgetExceeded:
                    continue
                assert d <= w.index
    assert time.monotonic() - start < 30.0


def test_criterion_08_brute_force_oracle_on_z():
    start = time.monotonic()
    spec = FamilySpec("nu", catalog_rep("trivial(1)"))
    for n in range(1, 10_001):
        q = 2
        while n % q == 0:
            q += 1
        assert divisibility((n,), spec) == q
    assert rf_profile(spec, 6).values[-1] == 4
    assert time.monotonic() - start < 5.0


def test_criterion_09_lower_bound_certificate():
    start = time.monotonic()
    q8 = catalog_rep("quaternion_paper")
    report = lower_bound_certificate(q8, 4, samples=200)
    assert report.k == 2
    assert all(report.arithmetic_ok)
    assert all(report.enumeration_ok)  # enumerated Com indices >= s^2
    assert report.certificates_passed == report.certificates_total == 200
    assert time.monotonic() - start < 60.0


def test_criterion_10_number_theory_window():
    start = time.monotonic()
    for s in (500, 1000, 2000, 5000):
        assert 0.85 <= chebyshev_psi(s) / s <= 1.25, s
    # p(s) = smallest prime = 1 mod 8 not dividing lcm(1..s), fit p <= A x + B
    xs, ps = [], []
    lcm = 1
    for s in range(2, 301):
        lcm = math.lcm(lcm, s)
        xs.append(math.log(lcm))
        ps.append(smallest_valid_prime(lcm, 8))
    a_mat = np.vstack([xs, np.ones(len(xs))]).T
    (a_fit, b_fit), *_ = np.linalg.lstsq(a_mat, np.array(ps, dtype=float), rcond=None)
    residuals = [p - (a_fit * x + b_fit) for x, p in zip(xs, ps)]
    max_residual = max(residuals)
    assert a_fit > 0
    for x, p in zip(xs, ps):
        assert p <= a_fit * x + b_fit + max_residual + 1e-9
    assert time.monotonic() - start < 30.0


def test_criterion_11_structural_suites():
    rng = random.Random(99)
    # HNF canonicity under unimodular row mixing
    for _ in range(25):
        n = rng.choice((2, 3))
        m = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        )
        if det(m) == 0:
            continue
        u_rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(10):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                u_rows[i] = [a + c * b for a, b in zip(u_rows[i], u_rows[j])]
        u = IntMatrix.from_rows(u_rows)
        assert hnf(u * m) == hnf(m)
    # adjugate identity and SNF chain
    from rfva.exactalg import adjugate

    for _ in range(25):
        m = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        )
        assert m * adjugate(m) == IntMatrix.identity(3).scale(det(m))
        if det(m) != 0:
            factors = snf(m)
            assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    # Table 1 orthonormality
    table = catalog_character_table("d4_paper")
    for i, r1 in enumerate(table.rows):
        for j, r2 in enumerate(table.rows):
            assert inner_product(r1, r2, table.class_sizes) == (1 if i == j else 0)
    # direct-sum inequality on a block example
    rep = catalog_rep("product(rot(4),trivial(1))")
    rot4 = catalog_rep("rot(4)")
    d1 = divisibility((1, 0), FamilySpec("inv", rot4), index_budget=30)
    d2 = divisibility((3,), FamilySpec("nu", catalog_rep("trivial(1)")), index_budget=30)
    d = divisibility((1, 0, 3), FamilySpec("inv", rep), index_budget=60)
    assert d <= min(d1, d2)
    # surjection inequality: divisibility bounded by any witness index
    d4 = catalog_rep("d4_paper")
    for v in ((1, 0, 0), (2, 3, 0), (5, 5, 5)):
        w = upper_bound_witness(d4, v)
        assert divisibility(v, FamilySpec("inv", d4), index_budget=20) <= w.index
