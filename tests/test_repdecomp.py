import inspect
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rfva.exactalg as ea
import rfva.repdecomp as rd
import rfva.rfgrowth as rg
from rfva.catalog import (
    catalog_character_table,
    catalog_matrix,
    catalog_rep,
)
from rfva.errors import (
    BadPrime,
    CertificateFailed,
    InexactDivision,
    NotAPower,
    NotCommuting,
    NotInvariant,
    NotIrreducible,
    NotOrthonormal,
    SingularMatrix,
    UnresolvedClassWord,
)
from rfva.exactalg import (
    IntMatrix,
    IntPoly,
    _mat_mul,
    _mat_scale,
    _matrix_minpoly,
    _poly_eval_matrix,
    adjugate,
    charpoly,
    det,
    factor_over_integers,
    factor_over_prime_field,
    hnf,
    kernel_fp,
    kernel_q,
    poly_kth_root,
    row_echelon_transform,
)
from rfva.grouprep import close_group, conjugacy_classes, is_abelian_image
from rfva.repdecomp import (
    CharacterTable,
    commutant_basis,
    commutant_certificate,
    conjugate_rep,
    exponent_k,
    exponent_report,
    inner_product,
    k_from_character_table,
    q_split,
    split_mod_p,
)

from test_grouprep import ORACLE_CATALOG, _unimodular_pair

SRC = str(Path(__file__).resolve().parents[1] / "src")

D4 = catalog_rep("d4_paper")
Q8 = catalog_rep("quaternion_paper")
QUAT_B = catalog_matrix("quaternion_commutant")


# --- commutant bases ---------------------------------------------------------


def test_commutant_dimensions_over_q():
    assert len(commutant_basis(Q8).matrices) == 4
    assert len(commutant_basis(D4).matrices) == 2
    assert len(commutant_basis(catalog_rep("trivial(3)")).matrices) == 9


def test_commutant_basis_commutes():
    cb = commutant_basis(Q8)
    for b in cb.matrices:
        for g in Q8.generators:
            assert b * g == g * b


def test_commutant_over_fp_matches_isotypic_structure():
    # dim of the split commutant equals sum of squared multiplicities
    for rep, expected in ((Q8, 4), (D4, 2), (catalog_rep("perm_sym(3)"), 2)):
        cons = split_mod_p(rep, _first_split_prime(rep))
        mult_sq = sum(g.multiplicity**2 for g in cons.groups)
        system = rd._commutation_system([g.entries for g in rep.generators], rep.degree)
        fp_dim = len(kernel_fp(system, cons.field))
        assert fp_dim == mult_sq == expected


def _first_split_prime(rep):
    return exponent_report(rep).primes[0]


# --- mod-p splitting ---------------------------------------------------------


def test_split_mod_p_examples():
    assert split_mod_p(Q8, 17).dimensions == (2, 2)
    assert split_mod_p(D4, 17).dimensions == (1, 2)
    assert split_mod_p(catalog_rep("rot(4)"), 5).dimensions == (1, 1)


def test_split_mod_p_bad_prime():
    with pytest.raises(BadPrime):
        split_mod_p(D4, 7)  # 7 != 1 mod 8
    with pytest.raises(BadPrime):
        split_mod_p(D4, 33)  # 33 = 1 mod 8 but composite


def test_split_dimensions_sum_to_degree():
    for name in ("d4_paper", "quaternion_paper", "perm_sym(4)", "std_sym(4)"):
        rep = catalog_rep(name)
        cons = split_mod_p(rep, _first_split_prime(rep))
        assert sum(cons.dimensions) == rep.degree


def test_split_subspaces_invariant():
    cons = split_mod_p(D4, 17)
    p = cons.field
    for dim, basis in cons.subspaces:
        span = list(basis)
        for g in D4.generators:
            for v in basis:
                img = tuple(
                    sum(g[i, j] * v[j] for j in range(3)) % p for i in range(3)
                )
                assert _in_span_mod_p(span, img, p)


def _in_span_mod_p(basis, v, p):
    rows = [list(b) for b in basis] + [list(v)]
    cols = list(zip(*rows))
    from rfva.exactalg import kernel_fp

    deps = kernel_fp([list(c) for c in cols], p)
    return any(d[-1] % p != 0 for d in deps)


# --- the exponent ------------------------------------------------------------


def test_exponent_examples():
    assert exponent_k(D4) == 2
    assert exponent_k(Q8) == 2
    assert exponent_k(catalog_rep("trivial(3)")) == 1
    assert exponent_k(catalog_rep("std_sym(4)")) == 3


def test_exponent_uses_three_smallest_primes():
    assert exponent_report(D4).primes == (17, 41, 73)
    assert exponent_report(catalog_rep("rot(4)")).primes == (5, 13, 17)


def test_exponent_report_keeps_dimensions_per_prime():
    report = exponent_report(Q8)
    assert report.dimensions_by_prime == ((2, 2),) * 3
    assert report.stable


# --- rational splitting ------------------------------------------------------


def test_q_split_examples():
    assert q_split(D4).degrees == (1, 2)
    assert q_split(Q8).degrees == (4,)
    assert q_split(catalog_rep("trivial(2)")).degrees == (1, 1)
    assert q_split(catalog_rep("rot(4)")).degrees == (2,)


def test_q_split_components_carry_integral_actions():
    split = q_split(D4)
    for comp in split.components:
        assert comp.rep.degree == comp.dimension
        assert D4.order % comp.rep.order == 0
        assert comp.basis_numerator.rows == comp.dimension


def test_q_split_component_bases_are_invariant():
    # each component's rational basis spans a subspace preserved by the action
    split = q_split(D4)
    for comp in split.components:
        basis = [
            tuple(Fraction(x, comp.denominator) for x in comp.basis_numerator.row(t))
            for t in range(comp.dimension)
        ]
        for g_idx, g in enumerate(D4.generators):
            child_g = comp.rep.generators[g_idx]
            for t, bv in enumerate(basis):
                img = tuple(
                    sum(Fraction(g[i, j]) * bv[j] for j in range(3)) for i in range(3)
                )
                expected = tuple(
                    sum(child_g[s, t] * basis[s][i] for s in range(comp.dimension))
                    for i in range(3)
                )
                assert img == expected


def test_exponent_consistent_with_q_split():
    for name in ("d4_paper", "quaternion_paper", "perm_sym(3)", "std_sym(4)"):
        rep = catalog_rep(name)
        split = q_split(rep)
        assert exponent_k(rep) == max(exponent_k(c.rep) for c in split.components)


@pytest.mark.parametrize(("m", "k"), [(m, k) for m in range(1, 7) for k in range(1, m + 1)])
def test_every_exponent_k_up_to_the_rank_is_realized(m, k):
    """The paper's application: for 1 <= k <= m some Z^m x| H has RF ~ log^k.
    std_sym(k+1) is absolutely irreducible of degree k, and trivial(m-k)
    pads it to rank m without adding a larger constituent."""
    name = f"std_sym({m + 1})" if k == m else f"product(std_sym({k + 1}),trivial({m - k}))"
    rep = catalog_rep(name)
    report = exponent_report(rep)
    assert rep.degree == m
    assert report.k == k
    assert report.stable
    assert q_split(rep).degrees == (1,) * (m - k) + (k,)


# --- character route ---------------------------------------------------------


def test_inner_products_from_table():
    table = catalog_character_table("d4_paper")
    sizes = table.class_sizes
    chi5 = table.rows[4]
    chi_phi = (3, 1, -1, 1, 1)
    assert inner_product(chi_phi, chi5, sizes) == 1
    assert inner_product(table.rows[0], table.rows[1], sizes) == 0
    assert inner_product(chi5, chi5, sizes) == 1


def test_inner_product_length_mismatch():
    from rfva.errors import LengthMismatch

    with pytest.raises(LengthMismatch):
        inner_product((1, 1), (1, 1, 1), (1, 2, 1))


def test_k_from_table_d4():
    dec = k_from_character_table(D4, catalog_character_table("d4_paper"))
    assert dec.k == 2
    assert dec.multiplicities == (1, 0, 0, 0, 1)
    assert dec.chi == (3, 1, -1, 1, 1)


def test_k_from_table_trivial():
    rep = catalog_rep("trivial(3)")
    dec = k_from_character_table(rep, catalog_character_table("trivial(3)"))
    assert dec.k == 1 and dec.multiplicities == (3,)


def test_k_from_table_std_sym3():
    rep = catalog_rep("std_sym(3)")
    dec = k_from_character_table(rep, catalog_character_table("std_sym(3)"))
    assert dec.k == 2


def test_k_from_table_matches_exponent_on_catalog():
    for name in (
        "d4_paper",
        "quaternion_paper",
        "perm_sym(3)",
        "std_sym(3)",
        "perm_sym(4)",
        "std_sym(4)",
    ):
        rep = catalog_rep(name)
        dec = k_from_character_table(rep, catalog_character_table(name))
        assert dec.k == exponent_k(rep), name


def test_bad_tables_rejected():
    bad_rows = CharacterTable(
        class_words=((), (0,), (0, 0), (0, 1), (1,)),
        class_sizes=(1, 2, 1, 2, 2),
        rows=((1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, -1, 1, 1, -1),
              (1, -1, 1, -1, 1), (2, 0, -2, 0, 0)),
    )
    with pytest.raises(NotOrthonormal):
        k_from_character_table(D4, bad_rows)
    bad_words = CharacterTable(
        class_words=((), (0,), (0,), (0, 1), (1,)),
        class_sizes=(1, 2, 1, 2, 2),
        rows=catalog_character_table("d4_paper").rows,
    )
    with pytest.raises(UnresolvedClassWord):
        k_from_character_table(D4, bad_words)


# --- abelian image -----------------------------------------------------------


def test_is_abelian_image():
    assert is_abelian_image(catalog_rep("rot(4)"))
    assert is_abelian_image(catalog_rep("trivial(5)"))
    assert not is_abelian_image(D4)
    assert not is_abelian_image(Q8)


# --- conjugation -------------------------------------------------------------


def test_conjugate_by_scalar_is_identity_map():
    b = IntMatrix.identity(3).scale(2)
    assert conjugate_rep(D4, b).generators == D4.generators


def test_conjugate_quaternion_example():
    conj = conjugate_rep(Q8, QUAT_B)
    assert conj.order == Q8.order
    assert exponent_k(conj) == exponent_k(Q8)


def test_conjugate_invariant_det2():
    c = catalog_matrix("invariant_det2_lattice")
    assert det(c) == 2
    conj = conjugate_rep(Q8, c)
    assert conj.order == Q8.order


def test_conjugate_rejects_non_invariant():
    with pytest.raises(NotInvariant):
        conjugate_rep(catalog_rep("rot(4)"), IntMatrix.from_rows([[1, 0], [0, 2]]))
    with pytest.raises(SingularMatrix):
        conjugate_rep(D4, IntMatrix.from_rows([[0] * 3] * 3))


# --- the certificate ---------------------------------------------------------


def test_certificate_quaternion_b():
    cert = commutant_certificate(Q8, QUAT_B)
    assert cert.f == IntPoly((6, -2, 1))
    assert cert.x == 6
    assert cert.det == 36 == cert.x**cert.k
    assert cert.k == 2 and cert.n == 2
    assert cert.passed


def test_certificate_scalar_matrices():
    cert = commutant_certificate(Q8, IntMatrix.identity(4).scale(3))
    assert cert.f == IntPoly((9, -6, 1))  # (X-3)^2
    assert cert.x == 9 and cert.det == 81
    ident = commutant_certificate(Q8, IntMatrix.identity(4))
    assert ident.x == 1 and ident.det == 1


def test_certificate_rejects_non_commuting():
    with pytest.raises(NotCommuting):
        commutant_certificate(Q8, catalog_matrix("invariant_det2_lattice"))


def test_certificate_random_commutant_samples():
    rng = random.Random(0)
    basis = commutant_basis(Q8).matrices
    done = 0
    while done < 25:
        coeffs = [rng.randint(-4, 4) for _ in basis]
        b = IntMatrix.from_rows([[0] * 4] * 4)
        for cf, e in zip(coeffs, basis):
            b = b + e.scale(cf)
        if det(b) == 0:
            continue
        cert = commutant_certificate(Q8, b)
        assert cert.passed and cert.det == cert.x**2
        done += 1


def test_certificate_fails_closed(monkeypatch):
    # Q8's charpoly has degree 4, so it has no cube root
    monkeypatch.setattr(rd, "exponent_k", lambda rep: 3)
    with pytest.raises(CertificateFailed, match="not a k-th power"):
        commutant_certificate(Q8, QUAT_B)
    monkeypatch.undo()
    real_det = rd.det
    monkeypatch.setattr(rd, "det", lambda b: real_det(b) + 1)
    with pytest.raises(CertificateFailed, match="det_is_x_pow_k") as failed:
        commutant_certificate(Q8, QUAT_B)
    assert dict(failed.value.certificate.checks) == {
        "det_is_x_pow_k": False,
        "b_times_m": True,
        "adjugate": True,
        "x_lattice_in_image": True,
    }


def _reference_certificate(rep, b):
    """The certificate on IntMatrix products, with x*Z^m inside Im(B) read
    from the HNF of the columns of B, one membership test per x*e_j."""
    if b.rows != rep.degree or not b.is_square():
        raise NotCommuting("matrix degree does not match the representation")
    if any(b * g != g * b for g in rep.generators):
        raise NotCommuting("matrix does not commute with all generators")
    d = det(b)
    if d == 0:
        raise SingularMatrix("certificate requires a nonsingular matrix")
    if not q_split(rep).irreducible:
        raise NotIrreducible("the representation is not irreducible over Q")
    k = exponent_k(rep)
    try:
        f = poly_kth_root(charpoly(b), k)
    except NotAPower as exc:
        raise CertificateFailed(f"charpoly is not a k-th power: {exc}") from exc
    n = f.degree
    a0 = f(0)
    x = a0 if n % 2 == 0 else -a0
    m_dim = rep.degree
    ident = IntMatrix.identity(m_dim)
    m_mat = IntMatrix.from_rows([[0] * m_dim] * m_dim)
    b_pow = ident
    for i in range(1, n + 1):
        m_mat = m_mat + b_pow.scale(f.coeffs[i])
        b_pow = b_pow * b
    checks = [
        ("det_is_x_pow_k", d == x**k),
        ("b_times_m", b * m_mat == ident.scale(-a0)),
    ]
    if x**k % a0 != 0:
        raise InexactDivision(f"x^k = {x**k} is not divisible by f(0) = {a0}")
    checks.append(("adjugate", adjugate(b) == m_mat.scale(-(x**k // a0))))
    lat = hnf(b.transpose())
    x_units = all(
        lat.contains(tuple(x if i == j else 0 for i in range(m_dim))) for j in range(m_dim)
    )
    checks.append(("x_lattice_in_image", x_units))
    cert = rd.Certificate(k=k, n=n, f=f, x=x, det=d, checks=tuple(checks))
    if not cert.passed:
        raise CertificateFailed("certificate checks failed", cert)
    return cert


def _outcome(certify, rep, b):
    """The certificate, or the failed certificate a CertificateFailed carries."""
    try:
        return "passed", certify(rep, b)
    except CertificateFailed as exc:
        return "failed", exc.certificate


def _certificate_cases():
    """name -> (rep, distinct nonsingular B of 200 seeded draws) for catalog
    reps and a Q^-1 (.) Q conjugate of each, B conjugated along."""
    cases = {}
    for name in ("quaternion_paper", "std_sym(4)", "rot(4)"):
        rep = catalog_rep(name)
        basis = commutant_basis(rep).matrices
        rng = random.Random(f"certificate:{name}")
        draws = []
        for _ in range(200):
            b = basis[0].scale(0)
            for e in basis:
                b = b + e.scale(rng.randint(-5, 5))
            draws.append(b)
        distinct = [b for b in dict.fromkeys(draws) if det(b) != 0]
        q, q_inv = _unimodular_pair(rep.degree, rng, ops=6)
        conj = close_group([q_inv * g * q for g in rep.generators])
        cases[name] = (rep, distinct)
        cases[f"conjugate:{name}"] = (conj, [q_inv * b * q for b in distinct])
    return cases


CERTIFICATE_CASES = _certificate_cases()


@pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
def test_certificate_matches_the_intmatrix_reference(case):
    rep, bs = CERTIFICATE_CASES[case]
    assert bs
    for b in bs:
        assert _outcome(commutant_certificate, rep, b) == _outcome(_reference_certificate, rep, b)


def _parent_certificate(rep, b):
    """commutant_certificate before its Horner step began at B + a_(n-1) I
    and its adjugate came as rows: every product through _mat_mul, and the
    charpoly and the adjugate as IntPoly and IntMatrix."""
    if b.rows != rep.degree or not b.is_square():
        raise NotCommuting("matrix degree does not match the representation")
    if any(
        _mat_mul(b.entries, g.entries, None) != _mat_mul(g.entries, b.entries, None)
        for g in rep.generators
    ):
        raise NotCommuting("matrix does not commute with all generators")
    d = det(b)
    if d == 0:
        raise SingularMatrix("certificate requires a nonsingular matrix")
    b_rows = b.entries
    if not q_split(rep).irreducible:
        raise NotIrreducible("the representation is not irreducible over Q")
    k = exponent_k(rep)
    cp, adj = charpoly(b), adjugate(b)
    try:
        f = poly_kth_root(cp, k)
    except NotAPower as exc:
        raise CertificateFailed(f"charpoly is not a k-th power: {exc}") from exc
    n = f.degree
    a0 = f(0)
    x = a0 if n % 2 == 0 else -a0
    ident = ea._identity(rep.degree)
    m_rows = ident
    for a in reversed(f.coeffs[1:-1]):
        m_rows = _mat_mul(m_rows, b_rows, None)
        for i, row in enumerate(m_rows):
            row[i] += a
    checks = []
    checks.append(("det_is_x_pow_k", d == x**k))
    checks.append(("b_times_m", _mat_mul(b_rows, m_rows, None) == _mat_scale(ident, -a0, None)))
    if x**k % a0 != 0:
        raise InexactDivision(f"x^k = {x**k} is not divisible by f(0) = {a0}")
    adj_rows = [list(row) for row in adj.entries]
    checks.append(("adjugate", adj_rows == _mat_scale(m_rows, -(x**k // a0), None)))
    c0 = cp(0)
    checks.append(("x_lattice_in_image", all(x * a % c0 == 0 for row in adj_rows for a in row)))
    cert = rd.Certificate(k=k, n=n, f=f, x=x, det=d, checks=tuple(checks))
    if not cert.passed:
        failed = [name for name, ok in cert.checks if not ok]
        raise CertificateFailed(f"certificate checks failed: {failed}", cert)
    return cert


@pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
def test_certificate_equals_the_parent_routine(case):
    rep, bs = CERTIFICATE_CASES[case]
    for b in bs:
        assert _outcome(commutant_certificate, rep, b) == _outcome(_parent_certificate, rep, b)


@pytest.mark.parametrize("conjugated", (False, True))
@pytest.mark.parametrize("name", ("quaternion_paper", "rot(4)", "std_sym(4)"))
def test_lower_bound_draws_certify_as_with_the_parent_routine(monkeypatch, name, conjugated):
    """Every distinct B that lower_bound_certificate certifies."""
    rep = catalog_rep(name)
    if conjugated:
        q, q_inv = _unimodular_pair(rep.degree, random.Random(f"draws:{name}"), ops=6)
        rep = close_group([q_inv * g * q for g in rep.generators])
    drawn, real = [], rg.commutant_certificate
    monkeypatch.setattr(rg, "commutant_certificate", lambda r, b: drawn.append(b) or real(r, b))
    rg.lower_bound_certificate(rep, 1)
    assert len(drawn) == len(set(drawn)) > 0
    for b in drawn:
        assert _outcome(commutant_certificate, rep, b) == _outcome(_parent_certificate, rep, b)


@pytest.mark.parametrize("case", ("quaternion_paper", "std_sym(4)", "conjugate:rot(4)"))
def test_one_faddeev_leverrier_run_per_certified_matrix(monkeypatch, case):
    """The charpoly and the adjugate of each B come from one run, and no
    run is kept for a later B."""
    rep, bs = CERTIFICATE_CASES[case]
    commutant_certificate(rep, bs[0])  # the split caches, filled before the spy
    runs, real = [], ea._faddeev_leverrier
    monkeypatch.setattr(ea, "_faddeev_leverrier", lambda m: runs.append(m) or real(m))
    for b in bs + bs[:3]:
        _outcome(commutant_certificate, rep, b)
    assert runs == bs + bs[:3]


# One source mutation per check: each changes only what that check compares.
CHECK_MUTATIONS = {
    "det_is_x_pow_k": ("d == x**k", "d + 1 == x**k"),
    "b_times_m": ("_mat_scale(ident, -a0, None)", "_mat_scale(ident, 1 - a0, None)"),
    "adjugate": ("-(x**k // a0)", "1 - (x**k // a0)"),
    "x_lattice_in_image": ("x * a % c0", "(x + 1) * a % c0"),
}


@pytest.mark.parametrize("check", sorted(CHECK_MUTATIONS))
def test_each_certificate_check_can_fail_alone(check):
    old, new = CHECK_MUTATIONS[check]
    source = inspect.getsource(rd.commutant_certificate)
    assert source.count(old) == 1
    namespace = dict(vars(rd))
    exec(compile(source.replace(old, new), rd.__file__, "exec"), namespace)
    mutated = namespace["commutant_certificate"]
    for case in ("quaternion_paper", "conjugate:quaternion_paper"):
        rep, bs = CERTIFICATE_CASES[case]
        for b in bs[:10]:
            assert commutant_certificate(rep, b).passed
            verdict, cert = _outcome(mutated, rep, b)
            assert verdict == "failed"
            assert dict(cert.checks) == {name: name != check for name in CHECK_MUTATIONS}


# --- checks under python -O --------------------------------------------------


OPTIMIZED_CHECKS = """
import sys
from fractions import Fraction
import rfva.catalog as cat
import rfva.exactalg as ea
import rfva.repdecomp as rd
import rfva.rfgrowth as rg
from rfva.catalog import catalog_matrix, catalog_rep
from rfva.errors import (
    InexactDivision,
    NotInvariant,
    UnsoundCommutant,
    UnsoundMinpoly,
    UnsoundSplit,
)

print("optimize", sys.flags.optimize, __debug__)

def expect(error, label, fn, *args):
    try:
        fn(*args)
    except error as exc:
        print(label, "checked:", exc)

d4 = catalog_rep("d4_paper")
full = [tuple(int(i == j) for i in range(3)) for j in range(3)]
# one more equation on the second primary part of the first split: its
# kernel loses a vector
real_primary = rd._ModuleSplitter.primary_part
calls = []

def lossy_primary(self, z, factors):
    calls.append(factors)
    part = real_primary(self, z, factors)
    return part + [[1, 0, 0]] if len(calls) == 2 else part

rd._ModuleSplitter.primary_part = lossy_primary
expect(UnsoundSplit, "primary", rd._ModuleSplitter(d4, None).split, full)
rd._ModuleSplitter.primary_part = real_primary

splitter = rd._ModuleSplitter(catalog_rep("rot(4)"), None)
expect(UnsoundSplit, "integral", splitter.factor_minpoly, [[Fraction(1, 2)]])
real_factor = rd.factor_over_integers
rd.factor_over_integers = lambda f: (2, real_factor(f)[1])
expect(UnsoundSplit, "content", splitter.factor_minpoly, [[Fraction(1)]])
rd.factor_over_integers = real_factor

# g(e0 - e1) = (1, 1) leaves the sum-zero sublattice std_sym is built on
real_sym = cat._sym_generators
cat._sym_generators = lambda n: (ea.IntMatrix.from_rows([[1, 0], [1, 0]]),)
expect(NotInvariant, "std_sym", cat.catalog_rep, "std_sym(2)")
cat._sym_generators = real_sym

# feed split_mod_p and q_split a corrupted split or a corrupted step of it
real_split = rd._ModuleSplitter.split
mod17 = real_split(rd._ModuleSplitter(d4, 17), full)
over_q = real_split(rd._ModuleSplitter(d4, None), full)
rd._ModuleSplitter.split = lambda self, basis: mod17[:-1]
expect(UnsoundSplit, "split total", rd.split_mod_p, d4, 17)
# two reducible parts of trivial(4): the commutant of their sum is M_4(F_5)
halves = [[(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)]]
rd._ModuleSplitter.split = lambda self, basis: halves
expect(UnsoundSplit, "hom", rd.split_mod_p, catalog_rep("trivial(4)"), 5)
rd._ModuleSplitter.split = lambda self, basis: over_q + over_q[:1]
expect(UnsoundSplit, "q vectors", rd.q_split, d4)
rd._ModuleSplitter.split = lambda self, basis: over_q
real_echelon = rd.row_echelon_transform
rd.row_echelon_transform = lambda m: (real_echelon(m)[0] + [[1, 0, 0]], None)
expect(UnsoundSplit, "q rank", rd.q_split, d4)
rd.row_echelon_transform = real_echelon
real_restrict = rd._ModuleSplitter.restrict
rd._ModuleSplitter.restrict = lambda self, mat, basis: [
    [x / 2 for x in row] for row in real_restrict(self, mat, basis)
]
expect(UnsoundSplit, "q integral", rd.q_split, d4)
rd._ModuleSplitter.restrict = real_restrict
real_close = rd.close_group
rd.close_group = lambda gens, element_bound: real_close([[[0, -1], [1, -1]]])
expect(UnsoundSplit, "q order", rd.q_split, d4)
rd.close_group = real_close
rd._ModuleSplitter.split = real_split

q8 = catalog_rep("quaternion_paper")
# adj(B) + I no longer conjugates the action onto Im(B) exactly
real_adj = rd.adjugate
rd.adjugate = lambda b: real_adj(b) + ea.IntMatrix.identity(b.rows)
expect(InexactDivision, "conjugate", rd.conjugate_rep, q8, catalog_matrix("quaternion_commutant"))
rd.adjugate = real_adj
real_kernel_q = rd.kernel_q
rd.kernel_q = lambda rows: []
expect(UnsoundCommutant, "identity", rd.commutant_basis, catalog_rep("rot(4)"))
rd.kernel_q = real_kernel_q
real_minpoly = ea._matrix_minpoly
ea._matrix_minpoly = lambda m, p: [Fraction(1, 2), Fraction(1)]
expect(UnsoundMinpoly, "minpoly integral", ea.minpoly, ea.IntMatrix.identity(2))
ea._matrix_minpoly = real_minpoly
# I, M and M^2 independent: no power of the Krylov elimination reduces to zero
real_mat_mul = ea._mat_mul
powers = iter([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
ea._mat_mul = lambda a, b, p: next(powers)
expect(UnsoundMinpoly, "cayley-hamilton", ea.minpoly, ea.IntMatrix.identity(2))
ea._mat_mul = real_mat_mul

real_root = rd.poly_kth_root
rd.exponent_k = lambda rep: 0
rd.poly_kth_root = lambda f, k: real_root(f, 2)
expect(
    InexactDivision,
    "certificate",
    rd.commutant_certificate,
    catalog_rep("quaternion_paper"),
    catalog_matrix("quaternion_commutant"),
)
real_trace = ea._trace
ea._trace = lambda rows: real_trace(rows) + 1
expect(InexactDivision, "charpoly", ea.charpoly, ea.IntMatrix.identity(2))
"""


def test_split_and_certificate_checks_run_under_python_O():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == [
        "optimize 1 False",
        "primary checked: primary kernels of dimensions 1 and 1 do not fill the 3-dimensional"
        " subspace",
        "integral checked: minimal polynomial of an integer matrix is not integral",
        "content checked: monic minimal polynomial has content 2",
        "std_sym checked: the sum-zero sublattice is not invariant",
        "split total checked: constituent dimensions sum to 2, not 3",
        "hom checked: the sum of two irreducible parts has a 16-dimensional commutant",
        "q vectors checked: Q-constituent bases hold 4 vectors, not 3",
        "q rank checked: projected lattice has rank 2, not 1",
        "q integral checked: a generator acts non-integrally on a projected lattice",
        "q order checked: constituent image order 3 does not divide |H| = 8",
        "conjugate checked: adj(B) g B is not divisible by det B = 36",
        "identity checked: the commutant has no identity matrix",
        "minpoly integral checked: minimal polynomial of an integer matrix is not integral",
        "cayley-hamilton checked: no annihilating polynomial of degree <= 2 (Cayley-Hamilton)",
        "certificate checked: x^k = 1 is not divisible by f(0) = 6",
        "charpoly checked: charpoly step 2: 3 is not divisible by 2",
    ]



# --- subspaces that are not invariant ----------------------------------------

NOT_INVARIANT_CHECKS = """
import sys
import rfva.repdecomp as rd
import rfva.rfgrowth as rg
from rfva.catalog import catalog_rep
from rfva.errors import UnsoundSplit

print("optimize", sys.flags.optimize, __debug__)
# span(e1) under rot(4)'s rotation, span(e1, e2) under d4_paper's generators;
# split returns a 1-dimensional basis as it is, and split_mod_p's Hom test
# and q_split's actions restrict it
for name, basis in (("rot(4)", [(1, 0)]), ("d4_paper", [(1, 0, 0), (0, 1, 0)])):
    rep = catalog_rep(name)
    for p in (None, rd.exponent_report(rep).primes[0]):
        splitter = rd._ModuleSplitter(rep, p)
        for label, call in (("restrict", lambda: splitter.restrict(rep.generators[0], basis)),
                            ("split", lambda: splitter.split(basis))):
            try:
                call()
            except UnsoundSplit as exc:
                print(name, p, label, "checked:", exc)
"""


def test_a_subspace_that_is_not_invariant_is_refused_under_python_O():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-O", "-c", NOT_INVARIANT_CHECKS],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    one = "a matrix maps the 1-dimensional subspace outside itself"
    two = "a matrix maps the 2-dimensional subspace outside itself"
    assert out.stdout.splitlines() == [
        "optimize 1 False",
        f"rot(4) None restrict checked: {one}",
        f"rot(4) 5 restrict checked: {one}",
        f"d4_paper None restrict checked: {two}",
        f"d4_paper None split checked: {two}",
        f"d4_paper 17 restrict checked: {two}",
        f"d4_paper 17 split checked: {two}",
    ]


def test_restrict_of_an_invariant_subspace_matches_a_linear_solve():
    """Each constituent of a split, over Q and mod p, in the coordinates of
    its basis: the coordinate map and _solve agree, and an integral action
    comes back as ints."""
    for rep in (D4, Q8, catalog_rep("perm_sym(4)")):
        for p in (None,) + exponent_report(rep).primes[:1]:
            splitter = rd._ModuleSplitter(rep, p)
            full = [tuple(int(i == j) for i in range(rep.degree)) for j in range(rep.degree)]
            for basis in splitter.split(full):
                for g in rep.elements[:12]:
                    cols = _solve(list(zip(*basis)), [g.apply(v) for v in basis], p)
                    expected = [list(row) for row in zip(*cols)]
                    assert splitter.restrict(g, basis) == expected
        for comp in q_split(rep).components:
            splitter = rd._ModuleSplitter(rep, None)
            child = [splitter.restrict(g, comp.basis_numerator.entries) for g in rep.generators]
            assert all(type(x) is int for g in child for row in g for x in row)
            assert [IntMatrix.from_rows(g) for g in child] == list(comp.rep.generators)

# --- the Fraction splitter, as a reference -----------------------------------
# The module splitter before it ran on int coordinates: restrict solves
# [basis | images] for every call, and over Q every subspace basis, commutant
# matrix and candidate holds Fractions.  It splits by the primary
# decomposition too, with its own polynomial products.  split_mod_p and
# q_split must give equal results on the int splitter.


def _fval(x, p):
    return Fraction(x) if p is None else x % p


def _rref(rows, p):
    """(reduced row echelon form, pivot columns) over Q (p None) or F_p, by
    textbook Gauss-Jordan on Fractions or residues; zero rows are kept."""
    a = [[_fval(x, p) for x in row] for row in rows]
    pivots = []
    for c in range(len(a[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c] if p is None else pow(a[r][c], -1, p)
        a[r] = [_fval(x * inv, p) for x in a[r]]
        for i, row in enumerate(a):
            f = row[c]
            if i != r and f:
                a[i] = [_fval(x - f * y, p) for x, y in zip(row, a[r])]
        pivots.append(c)
    return a, pivots


def _solve(a_rows, rhs_cols, p):
    """Solve A X = B column by column, free unknowns 0."""
    d = len(a_rows[0])
    aug = [list(row) + [col[i] for col in rhs_cols] for i, row in enumerate(a_rows)]
    red, pivots = _rref(aug, p)
    assert not pivots or pivots[-1] < d, "inconsistent linear system"
    sols = [[_fval(0, p)] * d for _ in rhs_cols]
    for i, c in enumerate(pivots):
        for j, sol in enumerate(sols):
            sol[c] = red[i][d + j]
    return sols


def _mat_add(a, b, p):
    if p is None:
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return [[(x + y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _poly_power(factors, p):
    """The product of f^a over the (f, a) in factors, ascending coefficients."""
    acc = [1]
    for f, a in factors:
        for _ in range(a):
            prod = [0] * (len(acc) + len(f) - 1)
            for i, x in enumerate(acc):
                for j, y in enumerate(f):
                    prod[i + j] += x * y
            acc = [_fval(x, p) for x in prod]
    return acc


def _inverse(a, p):
    """Inverse of a square field matrix by Gauss-Jordan on [A | I]."""
    n = len(a)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    red, pivots = _rref([list(row) + e for row, e in zip(a, ident)], p)
    assert pivots[:n] == list(range(n))
    return [row[n:] for row in red]


class _FractionSplitter:
    def __init__(self, rep, p, rng):
        self.rep, self.p, self.rng = rep, p, rng

    def kernel(self, rows):
        return kernel_q(rows) if self.p is None else kernel_fp(rows, self.p)

    def restrict(self, mat, basis):
        cols = _solve(list(zip(*basis)), [mat.apply(tuple(v)) for v in basis], self.p)
        return [list(row) for row in zip(*cols)]

    def coords_to_ambient(self, coord_vecs, basis):
        return [tuple(v) for v in _mat_mul(coord_vecs, basis, self.p)]

    def candidate_stream(self, commutant):
        c, d = len(commutant), len(commutant[0])
        for z in commutant:
            yield z, False
        for i in range(c):
            for j in range(i + 1, c):
                yield _mat_add(commutant[i], commutant[j], self.p), False
                yield _mat_add(
                    commutant[i], _mat_scale(commutant[j], _fval(-1, self.p), self.p), self.p
                ), False
        hi = (self.p - 1) if self.p is not None else 10
        lo = 0 if self.p is not None else -10
        while True:
            coeffs = [self.rng.randint(lo, hi) for _ in range(c)]
            z = [[_fval(0, self.p)] * d for _ in range(d)]
            for cf, e in zip(coeffs, commutant):
                z = _mat_add(z, _mat_scale(e, _fval(cf, self.p), self.p), self.p)
            yield z, True

    def clear_denominators(self, z):
        if self.p is not None:
            return z
        denom = math.lcm(*(x.denominator for row in z for x in row))
        return [[x.numerator * (denom // x.denominator) for x in row] for row in z]

    def factor_minpoly(self, z):
        coeffs = _matrix_minpoly(z, self.p)
        if self.p is None:
            content, factors = factor_over_integers(IntPoly(tuple(int(x) for x in coeffs)))
            assert content == 1
            return [(f.coeffs, mult) for f, mult in factors]
        return factor_over_prime_field(tuple(coeffs), self.p)

    def split(self, basis):
        d = len(basis)
        if d == 1:
            return [list(basis)]
        gens = [self.restrict(g, basis) for g in self.rep.generators]
        commutant = [
            [list(v[r * d : (r + 1) * d]) for r in range(d)]
            for v in self.kernel(rd._commutation_system(gens, d))
        ]
        if len(commutant) == 1:
            return [list(basis)]
        consecutive = tries = 0
        for z, is_random in self.candidate_stream(commutant):
            if tries == rd.SPLIT_TRY_BUDGET:
                break
            tries += 1
            z = self.clear_denominators(z)
            factors = self.factor_minpoly(z)
            if len(factors) == 1:
                if factors[0][1] > 1:
                    consecutive = 0
                elif is_random and len(factors[0][0]) > 1:
                    consecutive += 1
                    if consecutive >= rd.CONSECUTIVE_IRREDUCIBLE and self.p is None:
                        return [list(basis)]
                continue
            consecutive = 0
            # the primary decomposition: f0^a0 times the rest, multiplied out
            # as polynomials and evaluated once each
            w_coords = self.kernel(_poly_eval_matrix(_poly_power(factors[:1], self.p), z, self.p))
            c_coords = self.kernel(_poly_eval_matrix(_poly_power(factors[1:], self.p), z, self.p))
            assert 0 < len(w_coords) < d and len(w_coords) + len(c_coords) == d
            w_basis = self.coords_to_ambient(w_coords, basis)
            c_basis = self.coords_to_ambient(c_coords, basis)
            return self.split(w_basis) + self.split(c_basis)
        raise AssertionError("the reference split is inconclusive")


def _group_by_class_traces(rep, p, parts, restrict):
    """The grouping split_mod_p once made, kept as a reference: parts of
    equal dimension whose traces mod p agree on every conjugacy class are
    one isomorphism type (p does not divide |H|), the types in order of
    first appearance and each type's bases in order."""
    classes = conjugacy_classes(rep)
    keyed = {}
    for basis in parts:
        traces = []
        for ci in classes.representatives:
            r = restrict(rep.elements[ci], basis)
            traces.append(sum(r[i][i] for i in range(len(basis))) % p)
        keyed.setdefault((len(basis), tuple(traces)), []).append(tuple(tuple(v) for v in basis))
    return tuple(
        rd.ConstituentGroup(dimension=key[0], multiplicity=len(bases), bases=tuple(bases))
        for key, bases in keyed.items()
    )


def _reference_split_mod_p(rep, p, seed=0):
    splitter = _FractionSplitter(rep, p, random.Random(seed))
    parts = splitter.split([tuple(int(i == j) for i in range(rep.degree)) for j in range(rep.degree)])
    return rd.Constituents(
        field=p, groups=_group_by_class_traces(rep, p, parts, splitter.restrict)
    )


def _reference_q_split(rep, seed=0):
    m = rep.degree
    splitter = _FractionSplitter(rep, None, random.Random(seed))
    parts = splitter.split([tuple(Fraction(int(i == j)) for i in range(m)) for j in range(m)])
    if len(parts) == 1:
        return rd.QSplit((rd.QComponent(m, IntMatrix.identity(m), 1, rep),))
    all_vecs = [v for part in parts for v in part]
    s_mat = [[Fraction(all_vecs[j][i]) for j in range(m)] for i in range(m)]
    s_inv = _inverse(s_mat, None)
    components = []
    offset = 0
    for part in parts:
        d = len(part)
        e_mat = [
            [Fraction(int(i == j and offset <= i < offset + d)) for j in range(m)]
            for i in range(m)
        ]
        offset += d
        proj = _mat_mul(_mat_mul(s_mat, e_mat, None), s_inv, None)
        denom = math.lcm(*(x.denominator for row in proj for x in row))
        int_rows = [[int(proj[i][j] * denom) for i in range(m)] for j in range(m)]
        h, _ = row_echelon_transform(IntMatrix.from_rows(int_rows))
        basis_num = IntMatrix.from_rows([r for r in h if any(r)])
        basis_vecs = [tuple(Fraction(x, denom) for x in basis_num.row(t)) for t in range(d)]
        child_gens = [splitter.restrict(g, basis_vecs) for g in rep.generators]
        child = close_group([IntMatrix.from_rows(g) for g in child_gens], element_bound=rep.order + 1)
        components.append(rd.QComponent(d, basis_num, denom, child))
    return rd.QSplit(tuple(components))


SPLIT_ORACLE_REPS = ORACLE_CATALOG + (
    "product(std_sym(4),std_sym(4))",
    "product(quaternion_paper,quaternion_paper)",
)


def _record(monkeypatch, splitter_class, method):
    """The field and the matrix argument of every call of a one-argument
    splitter method (split's basis, factor_minpoly's candidate), in order."""
    seen = []
    real = getattr(splitter_class, method)

    def recording(self, arg):
        seen.append((self.p, [list(row) for row in arg]))
        return real(self, arg)

    monkeypatch.setattr(splitter_class, method, recording)
    return seen


def _assert_splits_match_the_reference(monkeypatch, rep):
    """Equal results at each exponent_report prime, at 241 when it is 1 mod
    |H|, and over Q: from equal candidate streams, and from subspace bases
    equal to the reference's up to one scale each."""
    primes = exponent_report(rep).primes
    if 241 % rep.order == 1:
        primes += (241,)
    new = [_record(monkeypatch, rd._ModuleSplitter, m) for m in ("split", "factor_minpoly")]
    old = [_record(monkeypatch, _FractionSplitter, m) for m in ("split", "factor_minpoly")]
    for p in primes:
        assert split_mod_p.__wrapped__(rep, p) == _reference_split_mod_p(rep, p), p
    assert q_split.__wrapped__(rep) == _reference_q_split(rep)
    assert new[1] == old[1]
    assert [p for p, _ in new[0]] == [p for p, _ in old[0]]
    for (p, basis), (_, reference) in zip(new[0], old[0]):
        if p is None:
            scale = next(Fraction(x) / y for x, y in zip(basis[0], reference[0]) if y)
            reference = [[scale * y for y in row] for row in reference]
        assert basis == reference


@pytest.mark.parametrize("name", SPLIT_ORACLE_REPS)
def test_splits_match_the_fraction_splitter(monkeypatch, name):
    _assert_splits_match_the_reference(monkeypatch, catalog_rep(name))


@pytest.mark.parametrize(
    ("name", "seed"),
    [(n, s) for n in ("d4_paper", "quaternion_paper", "perm_sym(4)", "std_sym(4)") for s in (1, 2, 3)]
    + [(n, 1) for n in ("product(d4_paper,quaternion_paper)",) + SPLIT_ORACLE_REPS[-2:]],
)
def test_splits_of_conjugates_match_the_fraction_splitter(monkeypatch, name, seed):
    gens = catalog_rep(name).generators
    q, q_inv = _unimodular_pair(gens[0].rows, random.Random(f"split:{name}:{seed}"))
    _assert_splits_match_the_reference(monkeypatch, close_group([q_inv * g * q for g in gens]))


# --- repeated constituents ---------------------------------------------------
# Commutants with nilpotent elements: candidates whose minimal polynomial is a
# power of one irreducible give no split, and the primary parts must still
# reach the catalog rep's constituents.

REPEATED_CONSTITUENT_REPS = (
    "trivial(3)",
    "product(d4_paper,d4_paper)",
    "product(quaternion_paper,quaternion_paper)",
    "product(rot(4),rot(4))",
    "product(std_sym(3),trivial(2))",
    "product(perm_sym(3),perm_sym(3))",
)


def _rank(rows, p):
    return len(_rref(rows, p)[1])


def _assert_invariant_parts_of_rank_m(rep, bases, p):
    for basis in bases:
        for g in rep.generators:
            for v in basis:
                assert _rank(list(basis) + [g.apply(v)], p) == len(basis)
    assert _rank([v for basis in bases for v in basis], p) == rep.degree


@pytest.mark.parametrize(
    ("name", "seed"), [(n, s) for n in REPEATED_CONSTITUENT_REPS for s in range(1, 7)]
)
def test_splits_of_conjugates_with_repeated_constituents(name, seed):
    """Q-degrees and the F_p dimensions at each exponent prime as the
    catalog rep's, every part invariant, and the parts of rank m."""
    base = catalog_rep(name)
    gens = base.generators
    q, q_inv = _unimodular_pair(gens[0].rows, random.Random(f"repeated:{name}:{seed}"))
    rep = close_group([q_inv * g * q for g in gens])
    split = q_split(rep)
    assert split.degrees == q_split(base).degrees
    _assert_invariant_parts_of_rank_m(
        rep, [c.basis_numerator.entries for c in split.components], None
    )
    primes = exponent_report(base).primes
    assert exponent_report(rep).primes == primes
    for p in primes:
        cons = split_mod_p(rep, p)
        assert cons.dimensions == split_mod_p(base, p).dimensions
        _assert_invariant_parts_of_rank_m(rep, [basis for _, basis in cons.subspaces], p)


# --- grouping the mod-p constituents ---------------------------------------

GROUPING_REPS = SPLIT_ORACLE_REPS + tuple(
    n for n in REPEATED_CONSTITUENT_REPS if n not in SPLIT_ORACLE_REPS
)


@pytest.mark.parametrize("name", GROUPING_REPS)
def test_hom_grouping_matches_the_class_trace_grouping(name):
    """The groups (dimensions, multiplicities and bases, in order) equal the
    class-trace grouping of the same parts at each exponent prime, for the
    catalog rep and 5 seeded conjugates of it."""
    base = catalog_rep(name)
    for seed in range(6):
        rep = base
        if seed:
            gens = base.generators
            q, q_inv = _unimodular_pair(gens[0].rows, random.Random(f"grouping:{name}:{seed}"))
            rep = close_group([q_inv * g * q for g in gens])
        for p in exponent_report(rep).primes:
            splitter = rd._ModuleSplitter(rep, p)
            full = [tuple(int(i == j) for i in range(rep.degree)) for j in range(rep.degree)]
            parts = splitter.split(full)
            expected = _group_by_class_traces(rep, p, parts, splitter.restrict)
            assert split_mod_p(rep, p).groups == expected, (seed, p)


@pytest.mark.parametrize("p", (None, 5))
def test_a_primary_part_is_the_kernel_of_the_full_power(monkeypatch, p):
    """On trivial(3), z = E_12 + E_33 has minimal polynomial x^2 (x - 1), so
    its primary parts are ker z^2 = span(e1, e2) and ker(z - 1) = span(e3);
    ker z alone would miss e2."""
    z = [[0, 1, 0], [0, 0, 0], [0, 0, 1]]
    first = [iter([(z, False)])]
    real = rd._ModuleSplitter.candidate_stream
    monkeypatch.setattr(
        rd._ModuleSplitter,
        "candidate_stream",
        lambda self, commutant, scale: first.pop() if first else real(self, commutant, scale),
    )
    splitter = rd._ModuleSplitter(catalog_rep("trivial(3)"), p)
    parts = splitter.split([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert sorted(map(len, parts)) == [1, 1, 1] and [(0, 0, 1)] in parts
    assert all(v[2] == 0 for basis in parts if basis != [(0, 0, 1)] for v in basis)


def test_a_power_of_one_irreducible_resets_the_irreducible_streak(monkeypatch):
    """19 irreducible draws, a draw with minimal polynomial x^2, 19 more
    irreducible draws and a splitting one: no run reaches 20, so trivial(2)
    splits over Q."""
    assert rd.CONSECUTIVE_IRREDUCIBLE == 20
    rotation, nilpotent, idempotent = [[0, -1], [1, 0]], [[0, 1], [0, 0]], [[1, 0], [0, 0]]
    draws = [rotation] * 19 + [nilpotent] + [rotation] * 19 + [idempotent]
    monkeypatch.setattr(
        rd._ModuleSplitter,
        "candidate_stream",
        lambda self, commutant, scale: ((z, True) for z in draws),
    )
    splitter = rd._ModuleSplitter(catalog_rep("trivial(2)"), None)
    assert splitter.split([(1, 0), (0, 1)]) == [[(1, 0)], [(0, 1)]]


def test_the_quaternion_q_split_tries_36_candidates_20_of_them_random(monkeypatch):
    """The quaternion rep is Q-irreducible with a 4-dimensional commutant:
    the split factors the minimal polynomials of the 16 sweep candidates,
    then of 20 random ones, all irreducible, and stops there."""
    tried = []
    real_stream = rd._ModuleSplitter.candidate_stream
    real_factor = rd._ModuleSplitter.factor_minpoly

    def recording_stream(self, commutant, scale):
        for z, is_random in real_stream(self, commutant, scale):
            tried.append(is_random)
            yield z, is_random

    def counted_factor(self, z):
        factors = real_factor(self, z)
        tried[-1] = (tried[-1], len(factors))
        return factors

    monkeypatch.setattr(rd._ModuleSplitter, "candidate_stream", recording_stream)
    monkeypatch.setattr(rd._ModuleSplitter, "factor_minpoly", counted_factor)
    assert len(q_split.__wrapped__(catalog_rep("quaternion_paper")).components) == 1
    assert tried == [(False, 1)] * 16 + [(True, 1)] * 20
