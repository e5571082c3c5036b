import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rfva.grouprep as gr
from rfva.catalog import catalog_rep
from rfva.errors import NotFinite, NotInvertible, UnknownName
from rfva.exactalg import IntMatrix, det
from rfva.grouprep import (
    ConjClasses,
    _class_orbits,
    _tables,
    character_of_rep,
    close_group,
    conjugacy_classes,
    validate_rep,
)
from rfva.repdecomp import exponent_report

SRC = str(Path(__file__).resolve().parents[1] / "src")

ORACLE_CATALOG = (
    "d4_paper",
    "quaternion_paper",
    "rot(4)",
    "trivial(3)",
    "perm_sym(2)",
    "perm_sym(3)",
    "perm_sym(4)",
    "perm_sym(5)",
    "std_sym(3)",
    "std_sym(4)",
    "std_sym(5)",
    "product(d4_paper,quaternion_paper)",
    "product(rot(4),trivial(1))",
    # |H| small and the commutant large
    "product(std_sym(2),trivial(3))",
    "product(std_sym(3),trivial(2))",
)


def _classes_by_all_elements(rep):
    """Reference: conjugate each element by every group element h (h x h^-1,
    h^-1 by adjugate); classes in first-member order, members sorted."""
    index = {m: i for i, m in enumerate(rep.elements)}
    inverses = [rep.inverse(h) for h in rep.elements]
    assigned = [False] * rep.order
    reps, members = [], []
    for i, x in enumerate(rep.elements):
        if assigned[i]:
            continue
        orbit = sorted({index[h * x * h_inv] for h, h_inv in zip(rep.elements, inverses)})
        for j in orbit:
            assigned[j] = True
        reps.append(i)
        members.append(tuple(orbit))
    return ConjClasses(representatives=tuple(reps), members=tuple(members))


def _reference_closure(gens):
    """Reference: the frontier-loop breadth-first closure, element order only."""
    identity = IntMatrix.identity(gens[0].rows)
    elements, seen, frontier = [identity], {identity}, [identity]
    while frontier:
        next_frontier = []
        for e in frontier:
            for g in gens:
                prod = e * g
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
                    next_frontier.append(prod)
        frontier = next_frontier
    return elements


def _reference_tables(rep):
    """Reference: the element index, right-multiplication table and inverse
    table recomputed by products, e*g for each entry of the right table and
    g^-1 * e'^-1 for each inverse along the breadth-first tree."""
    index = {m: i for i, m in enumerate(rep.elements)}
    right = [[index[e * g] for g in rep.generators] for e in rep.elements]
    gen_inverses = [rep.inverse(g) for g in rep.generators]
    start = index[IntMatrix.identity(rep.degree)]
    inverse = [None] * rep.order
    inverse[start] = start
    queue = [start]
    for i in queue:
        for g_inv, j in zip(gen_inverses, right[i]):
            if inverse[j] is None:
                inverse[j] = index[g_inv * rep.elements[inverse[i]]]
                queue.append(j)
    return index, right, tuple(inverse)


def _unimodular_pair(m, rng, ops=3):
    """(Q, Q^-1) for Q a product of elementary +-1 row additions."""
    q = [[int(i == j) for j in range(m)] for i in range(m)]
    q_inv = [row[:] for row in q]
    for _ in range(ops if m > 1 else 0):
        i, j = rng.sample(range(m), 2)
        s = rng.choice((1, -1))
        q[i] = [a + s * b for a, b in zip(q[i], q[j])]
        for row in q_inv:
            row[j] -= s * row[i]
    return IntMatrix.from_rows(q), IntMatrix.from_rows(q_inv)


def test_d4_closure_order():
    rep = catalog_rep("d4_paper")
    assert rep.degree == 3
    assert rep.order == 8


def test_quaternion_closure_order():
    rep = catalog_rep("quaternion_paper")
    assert rep.degree == 4
    assert rep.order == 8


def test_trivial_closure():
    rep = close_group([IntMatrix.identity(3)])
    assert rep.order == 1
    assert len(conjugacy_classes(rep)) == 1


def test_not_finite():
    with pytest.raises(NotFinite):
        close_group([[[1, 1], [0, 1]]], element_bound=100)


def test_not_invertible():
    with pytest.raises(NotInvertible):
        close_group([[[2, 0], [0, 1]]])


def test_d4_classes_and_character():
    rep = catalog_rep("d4_paper")
    classes = conjugacy_classes(rep)
    assert sorted(classes.sizes) == [1, 1, 2, 2, 2]
    assert sum(classes.sizes) == 8
    chi = character_of_rep(rep)
    assert sorted(chi.values) == [-1, 1, 1, 1, 3]
    # identity class comes first in BFS order and carries the degree
    assert classes.sizes[0] == 1 and chi.values[0] == 3


def test_quaternion_classes_and_character():
    rep = catalog_rep("quaternion_paper")
    classes = conjugacy_classes(rep)
    assert len(classes) == 5
    chi = character_of_rep(rep)
    assert sorted(chi.values) == [-4, 0, 0, 0, 4]


def test_closure_deterministic():
    a = catalog_rep("d4_paper")
    b = catalog_rep("d4_paper")
    assert a.elements == b.elements


def test_perm_sym_orders():
    for n, order in ((2, 2), (3, 6), (4, 24)):
        rep = catalog_rep(f"perm_sym({n})")
        assert rep.order == order
        chi = character_of_rep(rep)
        assert chi.values[0] == n  # identity class first


def test_all_elements_unimodular():
    for name in ("d4_paper", "quaternion_paper", "perm_sym(3)"):
        rep = catalog_rep(name)
        assert all(det(e) in (1, -1) for e in rep.elements)


def test_validate_rep():
    d4 = validate_rep(catalog_rep("d4_paper"))
    assert (d4.degree, d4.order, d4.class_count, d4.abelian) == (3, 8, 5, False)
    rot = validate_rep(catalog_rep("rot(4)"))
    assert rot.abelian and rot.order == 4
    triv = validate_rep(catalog_rep("trivial(3)"))
    assert triv.abelian and triv.order == 1


def test_inverse_refuses_determinants_other_than_plus_or_minus_one():
    rep = catalog_rep("d4_paper")
    for rows in (
        [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[-1, 0, 0], [0, 3, 0], [0, 0, 1]],
    ):
        with pytest.raises(NotInvertible, match="determinant"):
            rep.inverse(IntMatrix.from_rows(rows))
    flip = IntMatrix.from_rows([[-1, 0, 0], [0, 1, 0], [1, 0, 1]])
    assert flip * rep.inverse(flip) == IntMatrix.identity(3)


def test_inverse_and_resolve_word():
    rep = catalog_rep("d4_paper")
    for e in rep.elements:
        assert e * rep.inverse(e) == IntMatrix.identity(3)
    a, b = rep.generators
    assert rep.resolve_word((0, 1)) == a * b
    assert rep.resolve_word(()) == IntMatrix.identity(3)


def test_unknown_catalog_name():
    with pytest.raises(UnknownName):
        catalog_rep("so(3)")
    with pytest.raises(UnknownName):
        catalog_rep("rot(5)")


def test_product_rep():
    rep = catalog_rep("product(rot(4),trivial(1))")
    assert rep.degree == 3
    assert rep.order == 4


@pytest.mark.parametrize("name", ORACLE_CATALOG)
def test_classes_match_all_elements_oracle(name):
    rep = catalog_rep(name)
    assert conjugacy_classes(rep) == _classes_by_all_elements(rep)


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("name", ("d4_paper", "quaternion_paper", "perm_sym(4)", "std_sym(4)"))
def test_classes_match_oracle_on_conjugates(name, seed):
    gens = catalog_rep(name).generators
    q, q_inv = _unimodular_pair(gens[0].rows, random.Random(f"{name}:{seed}"))
    assert q * q_inv == IntMatrix.identity(q.rows)
    rep = close_group([q_inv * g * q for g in gens])
    classes = conjugacy_classes(rep)
    assert classes == _classes_by_all_elements(rep)
    assert character_of_rep(rep) == character_of_rep(catalog_rep(name))


def _assert_tables_match_the_product_reference(gens):
    rep = close_group(gens)
    assert list(rep.elements) == _reference_closure(rep.generators)
    index, right, inverse = _reference_tables(rep)
    assert rep.index == index
    assert [list(row) for row in rep.right] == right
    tables = _tables(rep)
    assert tables.inverse == inverse
    assert tables.classes == _class_orbits(right, inverse)
    return rep


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("name", ORACLE_CATALOG)
def test_closure_tables_match_the_product_reference(name, seed):
    """The closure's element order, index and right table, and the inverse
    table and classes built from them, equal the tables recomputed by matrix
    products; seed 0 is the catalog rep and seeds 1, 2 are Q^-1 g Q conjugates."""
    gens = catalog_rep(name).generators
    if seed:
        q, q_inv = _unimodular_pair(gens[0].rows, random.Random(f"{name}:{seed}"))
        gens = tuple(q_inv * g * q for g in gens)
    rep = _assert_tables_match_the_product_reference(gens)
    if seed:
        assert _tables(rep).classes == _classes_by_all_elements(rep)


@pytest.mark.parametrize("name", ("std_sym(5)", "perm_sym(5)", "quaternion_paper"))
def test_closure_tables_match_the_product_reference_on_dense_conjugates(name):
    """Conjugates by 12 row operations: the elements have rows with more and
    with fewer than half of their entries nonzero, and entries beyond +-1."""
    gens = catalog_rep(name).generators
    q, q_inv = _unimodular_pair(gens[0].rows, random.Random(f"dense:{name}"), ops=12)
    rep = _assert_tables_match_the_product_reference(tuple(q_inv * g * q for g in gens))
    assert _tables(rep).classes == _classes_by_all_elements(rep)
    rows = {row for e in rep.elements for row in e.entries}
    nonzero = {sum(map(bool, row)) for row in rows}
    assert min(nonzero) * 2 <= rep.degree < max(nonzero) * 2
    assert max(abs(x) for row in rows for x in row) > 1


@pytest.mark.parametrize(
    "name", ("perm_sym(5)", "std_sym(5)", "product(d4_paper,quaternion_paper)", "rot(4)")
)
def test_closure_multiplies_each_distinct_row_once_per_generator(monkeypatch, name):
    """The rows of the elements are the orbits of the unit rows, and each of
    them is multiplied by each generator once; a signed permutation group
    has at most 2m of them."""
    gens = catalog_rep(name).generators
    calls = []
    real = gr._RightProduct.__missing__

    def counting(self, row):
        calls.append((id(self), row))
        return real(self, row)

    monkeypatch.setattr(gr._RightProduct, "__missing__", counting)
    rep = close_group(gens)
    rows = {row for e in rep.elements for row in e.entries}
    assert len(calls) == len(set(calls)) == len(rows) * len(rep.generators)
    if name in ("perm_sym(5)", "rot(4)"):
        assert len(rows) <= 2 * rep.degree


def test_inverse_table_perm_sym5():
    rep = catalog_rep("perm_sym(5)")
    ident = IntMatrix.identity(5)
    inverse_indices = _tables(rep).inverse
    for i, e in enumerate(rep.elements):
        inverse = rep.elements[inverse_indices[i]]
        assert e * inverse == ident
        assert inverse == rep.inverse(e)
        assert inverse_indices[inverse_indices[i]] == i


def test_used_rep_equals_fresh_closure_and_hits_cache():
    used = catalog_rep("perm_sym(4)")
    conjugacy_classes(used)
    report = exponent_report(used)
    fresh = close_group(used.generators)
    assert fresh is not used
    assert fresh == used and hash(fresh) == hash(used)
    assert repr(fresh) == repr(used) and "_cache" not in repr(used)
    hits = exponent_report.cache_info().hits
    assert exponent_report(fresh) is report
    assert exponent_report.cache_info().hits == hits + 1


OPTIMIZED_CHECKS = """
import sys
import rfva.grouprep as gr
from rfva.catalog import catalog_rep
from rfva.errors import NotAClassFunction, NotAPartition, NotInvertible
from rfva.exactalg import IntMatrix

print("optimize", sys.flags.optimize, __debug__)

real = gr._class_orbits

def drop_last_member(right, inverse):
    c = real(right, inverse)
    return gr.ConjClasses(c.representatives, c.members[:-1] + (c.members[-1][:-1],))

gr._class_orbits = drop_last_member
rep = catalog_rep("d4_paper")
try:
    gr.conjugacy_classes(rep)
except NotAPartition:
    print("partition checked")
merged = gr.ConjClasses(representatives=(0,), members=(tuple(range(rep.order)),))
gr.conjugacy_classes = lambda rep: merged
try:
    gr.character_of_rep(rep)
except NotAClassFunction:
    print("class function checked")
try:
    rep.inverse(IntMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
except NotInvertible:
    print("inverse checked")
"""


def test_soundness_checks_run_under_python_O():
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
        "partition checked",
        "class function checked",
        "inverse checked",
    ]
