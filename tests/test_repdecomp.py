import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rfva.repdecomp as rd
from rfva.catalog import (
    catalog_character_table,
    catalog_matrix,
    catalog_rep,
)
from rfva.errors import (
    BadPrime,
    CertificateFailed,
    NotCommuting,
    NotInvariant,
    NotOrthonormal,
    PrimeSearchFailed,
    SingularMatrix,
    UnresolvedClassWord,
)
from rfva.exactalg import (
    IntMatrix,
    IntPoly,
    _fval,
    _kernel,
    _mat_mul,
    _mat_scale,
    _matrix_minpoly,
    _poly_eval_matrix,
    _rank,
    _rref,
    _solve,
    det,
    factor_over_integers,
    factor_over_prime_field,
    kernel_fp,
    kernel_q,
    row_echelon_transform,
)
from rfva.grouprep import _tables, close_group, conjugacy_classes, is_abelian_image
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
        fp_dim = len(_kernel(system, cons.field))
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


def test_certificate_keeps_the_prime_search_bound():
    # the exponent report behind k needs three primes = 1 mod 8: 17, 41, 73
    with pytest.raises(PrimeSearchFailed):
        commutant_certificate(Q8, QUAT_B, prime_bound=72)
    assert commutant_certificate(Q8, QUAT_B, prime_bound=73).k == 2


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
    monkeypatch.setattr(rd, "exponent_k", lambda rep, seed, prime_bound: 3)
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


# --- the Reynolds average ----------------------------------------------------


def _complement_by_restricted_average(splitter, basis, w_coords):
    """Reference for invariant_complement: restrict every group element to
    span(basis) by its own linear solve and average R(h) proj0 R(h^-1) in
    basis coordinates."""
    p = splitter.p
    d, e = len(basis), len(w_coords)
    ext = [[_fval(x, p) for x in w] for w in w_coords]
    for j in range(d):
        unit = [_fval(int(i == j), p) for i in range(d)]
        if len(ext) < d and _rank(ext + [unit], p) == len(ext) + 1:
            ext.append(unit)
    t_mat = [list(col) for col in zip(*ext)]
    e_proj = [[_fval(int(i == j < e), p) for j in range(d)] for i in range(d)]
    proj0 = _mat_mul(_mat_mul(t_mat, e_proj, p), _inverse(t_mat, p), p)
    restricted = [splitter.restrict(h, basis) for h in splitter.rep.elements]
    acc = [[_fval(0, p)] * d for _ in range(d)]
    for r_h, h_inv in zip(restricted, _tables(splitter.rep).inverse):
        term = _mat_mul(_mat_mul(r_h, proj0, p), restricted[h_inv], p)
        acc = _mat_add(acc, term, p)
    order = splitter.rep.order
    scale = Fraction(1, order) if p is None else pow(order, p - 2, p)
    return _kernel(_mat_scale(acc, scale, p), p)


def _assert_complements_match_oracle(monkeypatch, rep):
    """Split over Q and at each exponent_report prime, checking every
    invariant_complement call against the restricted-average reference."""
    primes = exponent_report(rep).primes
    calls = []
    real = rd._ModuleSplitter.invariant_complement

    def recording(self, basis, w_coords, commutant):
        comp = real(self, basis, w_coords, commutant)
        calls.append((self, basis, w_coords, comp))
        return comp

    with monkeypatch.context() as patch:
        patch.setattr(rd._ModuleSplitter, "invariant_complement", recording)
        full = [tuple(int(i == j) for i in range(rep.degree)) for j in range(rep.degree)]
        rd._ModuleSplitter(rep, None, random.Random(0)).split(full)
        for p in primes:
            split_mod_p.__wrapped__(rep, p)  # past the cache, so the split runs
    for splitter, basis, w_coords, comp in calls:
        assert comp == _complement_by_restricted_average(splitter, basis, w_coords)
    return len(calls)


@pytest.mark.parametrize("name", ORACLE_CATALOG)
def test_invariant_complement_matches_restricted_average(monkeypatch, name):
    checked = _assert_complements_match_oracle(monkeypatch, catalog_rep(name))
    # std_sym(n) is absolutely irreducible, so it never needs a complement
    assert (checked == 0) == name.startswith("std_sym")


@pytest.mark.parametrize(
    ("name", "seed"),
    [(n, s) for n in ("d4_paper", "quaternion_paper", "perm_sym(4)", "std_sym(4)") for s in (1, 2, 3)]
    # |H| small and the commutant large: the largest trace-form Gram systems
    + [("product(std_sym(2),trivial(3))", 1), ("product(std_sym(3),trivial(2))", 1)],
)
def test_invariant_complement_matches_restricted_average_on_conjugates(
    monkeypatch, name, seed
):
    gens = catalog_rep(name).generators
    q, q_inv = _unimodular_pair(gens[0].rows, random.Random(f"{name}:{seed}"))
    _assert_complements_match_oracle(monkeypatch, close_group([q_inv * g * q for g in gens]))


OPTIMIZED_CHECKS = """
import random
import sys
from fractions import Fraction
import rfva.catalog as cat
import rfva.exactalg as ea
import rfva.repdecomp as rd
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

splitter = rd._ModuleSplitter(catalog_rep("rot(4)"), None, random.Random(0))
unit = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
# span(e1) is not invariant under rot(4), so no invariant complement exists;
# rot(4)'s commutant is spanned by I and the rotation J
commutant = [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
             [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]]
expect(UnsoundSplit, "complement", splitter.invariant_complement, unit, [unit[0]], commutant)
# a nilpotent list gives G = [[0]], a repeated matrix a rank-deficient G
nilpotent = [[[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]]
expect(UnsoundSplit, "nilpotent", splitter.invariant_complement, unit, [unit[0]], nilpotent)
twice = commutant[:1] * 2
expect(UnsoundSplit, "repeated", splitter.invariant_complement, unit, [unit[0]], twice)
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

d4 = catalog_rep("d4_paper")
full = [tuple(int(i == j) for i in range(3)) for j in range(3)]
# feed split_mod_p and q_split a corrupted split or a corrupted step of it
real_split = rd._ModuleSplitter.split
mod17 = real_split(rd._ModuleSplitter(d4, 17, random.Random(0)), full)
over_q = real_split(rd._ModuleSplitter(d4, None, random.Random(0)), full)
rd._ModuleSplitter.split = lambda self, basis: mod17[:-1]
expect(UnsoundSplit, "split total", rd.split_mod_p, d4, 17)
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
real_pivot_rows = ea._pivot_rows
ea._pivot_rows = lambda rows, p: (rows, list(range(len(rows[0]))))
expect(UnsoundMinpoly, "cayley-hamilton", ea.minpoly, ea.IntMatrix.identity(2))
ea._pivot_rows = real_pivot_rows

real_root = rd.poly_kth_root
rd.exponent_k = lambda rep, seed, prime_bound: 0
rd.poly_kth_root = lambda f, k: real_root(f, 2)
expect(
    InexactDivision,
    "certificate",
    rd.commutant_certificate,
    catalog_rep("quaternion_paper"),
    catalog_matrix("quaternion_commutant"),
)
real_trace = ea.IntMatrix.trace
ea.IntMatrix.trace = lambda self: real_trace(self) + 1
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
        "complement checked: averaged projection has kernel dimension 0, not 1",
        "nilpotent checked: the trace form on a 1-dimensional commutant is degenerate",
        "repeated checked: the trace form on a 2-dimensional commutant is degenerate",
        "integral checked: minimal polynomial of an integer matrix is not integral",
        "content checked: monic minimal polynomial has content 2",
        "std_sym checked: the sum-zero sublattice is not invariant",
        "split total checked: constituent dimensions sum to 2, not 3",
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
import random
import sys
import rfva.repdecomp as rd
from rfva.catalog import catalog_rep
from rfva.errors import UnsoundSplit

print("optimize", sys.flags.optimize, __debug__)
# span(e1) under rot(4)'s rotation, span(e1, e2) under d4_paper's generators;
# split returns a 1-dimensional basis as it is, and split_mod_p's traces and
# q_split's actions restrict it
for name, basis in (("rot(4)", [(1, 0)]), ("d4_paper", [(1, 0, 0), (0, 1, 0)])):
    rep = catalog_rep(name)
    for p in (None, rd.exponent_report(rep).primes[0]):
        splitter = rd._ModuleSplitter(rep, p, random.Random(0))
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
            splitter = rd._ModuleSplitter(rep, p, random.Random(0))
            full = [tuple(int(i == j) for i in range(rep.degree)) for j in range(rep.degree)]
            for basis in splitter.split(full):
                for g in rep.elements[:12]:
                    cols = _solve(list(zip(*basis)), [g.apply(v) for v in basis], p)
                    expected = [list(row) for row in zip(*cols)]
                    assert splitter.restrict(g, basis) == expected
        for comp in q_split(rep).components:
            splitter = rd._ModuleSplitter(rep, None, random.Random(0))
            child = [splitter.restrict(g, comp.basis_numerator.entries) for g in rep.generators]
            assert all(type(x) is int for g in child for row in g for x in row)
            assert [IntMatrix.from_rows(g) for g in child] == list(comp.rep.generators)

# --- the Fraction splitter, as a reference -----------------------------------
# The module splitter before it ran on int coordinates: restrict solves
# [basis | images] for every call, and over Q every subspace basis, commutant
# matrix and candidate holds Fractions.  split_mod_p and q_split must give
# equal results on the int splitter.


def _mat_add(a, b, p):
    if p is None:
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return [[(x + y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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

    def invariant_complement(self, basis, w_coords, commutant):
        p = self.p
        d, e = len(basis), len(w_coords)
        ext = [[_fval(x, p) for x in w] for w in w_coords]
        for j in range(d):
            if len(ext) == d:
                break
            unit = [_fval(1 if i == j else 0, p) for i in range(d)]
            if _rank(ext + [unit], p) == len(ext) + 1:
                ext.append(unit)
        t_mat = [list(col) for col in zip(*ext)]
        e_proj = [[_fval(1 if (i == j and i < e) else 0, p) for j in range(d)] for i in range(d)]
        proj0 = _mat_mul(_mat_mul(t_mat, e_proj, p), _inverse(t_mat, p), p)
        sparse = [
            [(i, j, x) for i, row in enumerate(z) for j, x in enumerate(row) if x]
            for z in commutant
        ]
        columns = commutant + [proj0]
        gram = [[sum(x * y[j][i] for i, j, x in s) for y in columns] for s in sparse]
        red, pivots = _rref(gram, p)
        c = len(commutant)
        assert pivots == list(range(c))
        pbar = [[_fval(0, p)] * d for _ in range(d)]
        for row, z in zip(red, commutant):
            pbar = _mat_add(pbar, _mat_scale(z, row[c], p), p)
        comp_coords = self.kernel(pbar)
        assert len(comp_coords) == d - e
        return comp_coords

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
            if not (len(factors) > 1 or factors[0][1] > 1):
                if is_random and len(factors[0][0]) > 1:
                    consecutive += 1
                    if consecutive >= rd.CONSECUTIVE_IRREDUCIBLE and self.p is None:
                        return [list(basis)]
                continue
            consecutive = 0
            fz = _poly_eval_matrix(list(factors[0][0]), z, self.p)
            w_coords = self.kernel(fz)
            if not (0 < len(w_coords) < d):
                continue
            comp_coords = self.invariant_complement(basis, w_coords, commutant)
            w_basis = self.coords_to_ambient(w_coords, basis)
            c_basis = self.coords_to_ambient(comp_coords, basis)
            return self.split(w_basis) + self.split(c_basis)
        raise AssertionError("the reference split is inconclusive")


def _reference_split_mod_p(rep, p, seed=0):
    splitter = _FractionSplitter(rep, p, random.Random(seed))
    parts = splitter.split([tuple(int(i == j) for i in range(rep.degree)) for j in range(rep.degree)])
    classes = conjugacy_classes(rep)
    keyed = {}
    for basis in parts:
        traces = []
        for ci in classes.representatives:
            r = splitter.restrict(rep.elements[ci], basis)
            traces.append(sum(r[i][i] for i in range(len(basis))) % p)
        keyed.setdefault((len(basis), tuple(traces)), []).append(tuple(tuple(v) for v in basis))
    groups = tuple(
        rd.ConstituentGroup(dimension=key[0], multiplicity=len(bases), bases=tuple(bases))
        for key, bases in keyed.items()
    )
    return rd.Constituents(field=p, groups=groups)


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
