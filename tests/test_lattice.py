import functools
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import accumulate, count
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

import rfva.lattice as lattice_mod
import rfva.repdecomp as rd
from rfva.catalog import catalog_matrix, catalog_rep
from rfva.errors import DimensionMismatch, PrimeSearchFailed, SingularMatrix, ZeroVector
from rfva.exactalg import (
    IntMatrix,
    IntPoly,
    _least_prime_power,
    _matrix_minpoly,
    _pivot_rows,
    charpoly,
    det,
    hnf,
    intersection,
)
from rfva.grouprep import close_group
from rfva.lattice import (
    FamilySpec,
    _action,
    _apply_mod,
    _cyclic_submodules,
    _line_reps,
    _roots_mod,
    _spin,
    commutant_image_lattices,
    contains,
    enumerate_family,
    enumerate_sublattices,
    is_invariant_lattice,
    lattice_from_matrix,
    upper_bound_witness,
)
from rfva.repdecomp import commutant_basis, exponent_k
from rfva.rfgrowth import divisibility, rf_profile

from test_grouprep import ORACLE_CATALOG

SRC = str(Path(__file__).resolve().parents[1] / "src")


def nu_family(m):
    """The nu family of Z^m; nu reads only its rep's degree."""
    return FamilySpec("nu", catalog_rep(f"trivial({m})"))


def test_lattice_from_matrix_examples():
    assert lattice_from_matrix(IntMatrix.from_rows([[2, 0], [0, 3]])).index == 6
    assert lattice_from_matrix(catalog_matrix("quaternion_commutant")).index == 36
    assert lattice_from_matrix(IntMatrix.from_rows([[1, 1], [0, 1]])).index == 1


def test_lattice_from_matrix_singular():
    with pytest.raises(SingularMatrix):
        lattice_from_matrix(IntMatrix.from_rows([[1, 1], [1, 1]]))


def test_contains_examples():
    two_z2 = lattice_from_matrix(IntMatrix.identity(2).scale(2))
    assert contains(two_z2, (2, 4))
    assert not contains(two_z2, (1, 0))
    imb = lattice_from_matrix(catalog_matrix("quaternion_commutant"))
    assert contains(imb, (6, 0, 0, 0))
    with pytest.raises(DimensionMismatch):
        contains(two_z2, (1, 0, 0))


def test_enumerate_sublattices_counts():
    # number of index-n sublattices of Z^2 is sigma(n)
    lats = list(enumerate_sublattices(2, 12))
    counts = Counter(l.index for l in lats)
    for n in range(1, 13):
        assert counts[n] == sympy.divisor_sigma(n), n


def test_enumerate_sublattices_rank_one():
    lats = list(enumerate_sublattices(1, 5))
    assert [l.basis[0, 0] for l in lats] == [1, 2, 3, 4, 5]


def test_enumerate_sublattices_unique_and_ordered():
    lats = list(enumerate_sublattices(2, 8))
    keys = [(l.index, l.basis.entries) for l in lats]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_is_invariant_examples():
    rot4 = catalog_rep("rot(4)")
    assert is_invariant_lattice(lattice_from_matrix(IntMatrix.identity(2).scale(3)), rot4)
    # columns (1,1) and (0,2) span the parity lattice {x + y even}
    parity = lattice_from_matrix(IntMatrix.from_rows([[1, 0], [1, 2]]))
    assert parity.basis.entries == ((1, 1), (0, 2))
    assert is_invariant_lattice(parity, rot4)
    z_2z = lattice_from_matrix(IntMatrix.from_rows([[1, 0], [0, 2]]))
    assert not is_invariant_lattice(z_2z, rot4)


def test_invariant_family_rot4():
    rot4 = catalog_rep("rot(4)")
    fam = list(enumerate_family(FamilySpec("inv", rot4), 2))
    assert [l.index for l in fam] == [1, 2]
    assert fam[1].basis.entries == ((1, 1), (0, 2))  # the parity lattice


def test_all_family_rank_one():
    fam = list(enumerate_family(nu_family(1), 3))
    assert [l.index for l in fam] == [1, 2, 3]


def test_com_family_quaternion():
    q8 = catalog_rep("quaternion_paper")
    fam = list(enumerate_family(FamilySpec("com", q8), 100))
    imb = lattice_from_matrix(catalog_matrix("quaternion_commutant"))
    assert any(l.basis == imb.basis for l in fam)
    # Com(phi) is contained in Inv(phi)
    for l in fam:
        assert is_invariant_lattice(l, q8)
    # all indices are perfect squares (k = 2 forces det = x^2)
    for l in fam:
        assert sympy.integer_nthroot(l.index, 2)[1], l.index


def test_scalar_lattices_in_every_family():
    d4 = catalog_rep("d4_paper")
    for kind in ("nu", "inv"):
        fam = enumerate_family(FamilySpec(kind, d4), 8)
        assert any(l.basis == IntMatrix.identity(3).scale(2) for l in fam)
    com = commutant_image_lattices(d4, 8)
    assert any(l.basis == IntMatrix.identity(3).scale(2) for l in com)


def _odometer_image_lattices(rep, box, max_index):
    """The Com box walk as first written: every coefficient vector, by odometer."""
    basis = commutant_basis(rep).matrices
    c = len(basis)
    seen = set()
    found = []
    coeffs = [-box] * c
    while True:
        b = IntMatrix.from_rows([[0] * rep.degree] * rep.degree)
        for cf, e in zip(coeffs, basis):
            b = b + e.scale(cf)
        d = det(b)
        if d != 0 and abs(d) <= max_index:
            lat = lattice_from_matrix(b)
            if lat.basis not in seen:
                seen.add(lat.basis)
                found.append(lat)
        pos = 0
        while pos < c and coeffs[pos] == box:
            coeffs[pos] = -box
            pos += 1
        if pos == c:
            break
        coeffs[pos] += 1
    found.sort(key=lambda lat: (lat.index, lat.basis.entries))
    return found


@pytest.mark.parametrize("seed", (None, 11, 12))
@pytest.mark.parametrize(
    "name",
    (
        "d4_paper",
        "quaternion_paper",
        "std_sym(3)",
        "std_sym(4)",
        "std_sym(5)",
        "perm_sym(3)",
        "perm_sym(4)",
        "rot(4)",
        "product(rot(4),trivial(1))",
    ),
)
def test_half_box_matches_the_odometer(name, seed):
    rep = catalog_rep(name)
    if seed is not None:
        q, q_inv = _unimodular_pair(rep.degree, random.Random(seed))
        rep = close_group([q_inv * g * q for g in rep.generators])
    for budget in (8, 256):
        got = commutant_image_lattices(rep, budget)
        assert got == _odometer_image_lattices(rep, 2, budget), budget
        assert got


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_a_negated_matrix_has_the_same_image(seed, n):
    rng = random.Random(seed)
    b = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
    assume(det(b) != 0)
    assert hnf(b.scale(-1).transpose()) == hnf(b.transpose())


def test_witness_examples():
    d4 = catalog_rep("d4_paper")
    w = upper_bound_witness(d4, (1, 0, 0))
    assert w.prime == 17
    assert w.index in (17, 289)
    w2 = upper_bound_witness(d4, (17, 0, 0))
    assert w2.prime == 41
    w3 = upper_bound_witness(catalog_rep("trivial(1)"), (6,))
    assert w3.prime == 5 and w3.index == 5


def test_witness_prime_stays_within_the_search_bound():
    d4 = catalog_rep("d4_paper")
    with pytest.raises(PrimeSearchFailed):
        upper_bound_witness(d4, (1, 0, 0), prime_bound=16)
    assert upper_bound_witness(d4, (1, 0, 0), prime_bound=17).prime == 17
    with pytest.raises(PrimeSearchFailed):
        upper_bound_witness(d4, (17, 0, 0), prime_bound=40)
    assert upper_bound_witness(d4, (17, 0, 0), prime_bound=41).prime == 41


def test_witness_after_exponent_report_reuses_its_split(monkeypatch):
    rep = catalog_rep("quaternion_paper")
    rd.exponent_report.cache_clear()
    rd.split_mod_p.cache_clear()
    report = rd.exponent_report(rep, seed=5)
    splits = []
    real = rd._ModuleSplitter.split

    def counting(self, basis):
        splits.append(self.p)
        return real(self, basis)

    monkeypatch.setattr(rd._ModuleSplitter, "split", counting)
    # v's first entry is 1, so the witness splits at the report's first prime
    w = upper_bound_witness(rep, (1, 0, 0, 0), seed=5)
    assert w.prime == report.primes[0]
    assert splits == []
    upper_bound_witness(rep, (1, 0, 0, 0), seed=6)
    assert splits and set(splits) == {w.prime}


def test_witness_rejects_zero():
    with pytest.raises(ZeroVector):
        upper_bound_witness(catalog_rep("d4_paper"), (0, 0, 0))


def test_witness_soundness_sampled():
    rng = random.Random(7)
    for name in ("d4_paper", "quaternion_paper", "rot(4)", "trivial(2)"):
        rep = catalog_rep(name)
        k = exponent_k(rep)
        for _ in range(25):
            v = tuple(rng.randint(-30, 30) for _ in range(rep.degree))
            if all(x == 0 for x in v):
                continue
            w = upper_bound_witness(rep, v)
            assert w.index == w.prime**w.dimension
            assert w.dimension <= k
            assert not w.lattice.contains(v)
            assert is_invariant_lattice(w.lattice, rep)


def _reference_witness(rep, v):
    """(prime, dimension, lattice) by the coordinate solve: v's coordinates
    in the constituent bases, solved by sympy over GF(p), pick the first
    constituent of least dimension where v has a nonzero block, and the
    lattice is the preimage of the others plus p Z^m."""
    a = next(x for x in v if x)
    p = next(q for q in count(rep.order + 1, rep.order) if sympy.isprime(q) and a % q)
    subspaces = rd.split_mod_p(rep, p).subspaces
    m, field = rep.degree, sympy.GF(p)
    columns = [vec for _, basis in subspaces for vec in basis]
    full = DomainMatrix([[field(vec[i]) for vec in columns] for i in range(m)], (m, m), field)
    rhs = DomainMatrix([[field(x)] for x in v], (m, 1), field)
    coords = [int(x) % p for (x,) in full.lu_solve(rhs).to_list()]
    starts = list(accumulate((dim for dim, _ in subspaces), initial=0))
    chosen = min(
        (si for si, (dim, _) in enumerate(subspaces) if any(coords[starts[si] : starts[si] + dim])),
        key=lambda si: subspaces[si][0],
    )
    rows = [list(vec) for si, (_, basis) in enumerate(subspaces) if si != chosen for vec in basis]
    rows += [[p * int(i == j) for j in range(m)] for i in range(m)]
    return p, subspaces[chosen][0], hnf(IntMatrix.from_rows(rows))


@pytest.mark.parametrize("conjugate", (False, True))
@pytest.mark.parametrize("name", ORACLE_CATALOG + ("product(quaternion_paper,rot(4))",))
def test_witness_matches_the_coordinate_solve_reference(name, conjugate):
    """Omission picks the constituent the coordinate solve picks.  Unit and
    sparse vectors leave some blocks zero, so the order of dimensions and
    the tie rule among equal dimensions are both exercised."""
    rep = catalog_rep(name)
    rng = random.Random(f"witness:{name}")
    if conjugate:
        q, q_inv = _unimodular_pair(rep.degree, rng)
        rep = close_group([q_inv * g * q for g in rep.generators])
    m = rep.degree
    vectors = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    vectors += [tuple(rng.choice((0, 0, 0, 1, -1, 2, 7)) for _ in range(m)) for _ in range(12)]
    for v in vectors:
        if any(v):
            w = upper_bound_witness(rep, v)
            assert (w.prime, w.dimension, w.lattice) == _reference_witness(rep, v), v


def _full_family(spec, budget):
    """nu or inv at one budget with every index, composite ones included:
    every sublattice, filtered by invariance for inv."""
    return [
        lat
        for lat in enumerate_sublattices(spec.rep.degree, budget)
        if spec.kind == "nu" or is_invariant_lattice(lat, spec.rep)
    ]


def _is_one_or_prime_power(n):
    return len(sympy.factorint(n)) <= 1


def _oracle(spec, budget):
    """The family at one budget, enumerated without any cache: for nu and
    inv, the full family's lattices of index 1 or a prime power."""
    if spec.kind == "com":
        return commutant_image_lattices(spec.rep, budget)
    return [lat for lat in _full_family(spec, budget) if _is_one_or_prime_power(lat.index)]


def _plus_scalar(lat, q):
    """N + q Z^m."""
    m = lat.dimension
    rows = [list(r) for r in lat.basis.entries]
    rows += [[q * int(i == j) for j in range(m)] for i in range(m)]
    return hnf(IntMatrix.from_rows(rows))


def _unimodular_pair(m, rng):
    """A random unimodular Q and its inverse, as products of elementary matrices."""
    q = q_inv = IntMatrix.identity(m)
    for _ in range(3 * m):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-2, -1, 1, 2))
        e = [[int(a == b) for b in range(m)] for a in range(m)]
        e_inv = [row[:] for row in e]
        e[i][j], e_inv[i][j] = c, -c
        q, q_inv = q * IntMatrix.from_rows(e), IntMatrix.from_rows(e_inv) * q_inv
    return q, q_inv


def _conjugate_spec(name, seed):
    rep = catalog_rep(name)
    q, q_inv = _unimodular_pair(rep.degree, random.Random(seed))
    return FamilySpec("inv", close_group([q_inv * g * q for g in rep.generators]))


# name -> (spec, index budget); each spec is shared by the tests that read it
FULL_FAMILY_CASES = {
    "nu:1": (nu_family(1), 60),
    "nu:2": (nu_family(2), 30),
    "nu:3": (nu_family(3), 12),
    "inv:d4_paper": (FamilySpec("inv", catalog_rep("d4_paper")), 40),
    "inv:quaternion_paper": (FamilySpec("inv", catalog_rep("quaternion_paper")), 24),
    "inv:rot(4)": (FamilySpec("inv", catalog_rep("rot(4)")), 60),
    "inv:conjugate:d4_paper": (_conjugate_spec("d4_paper", "full:d4_paper"), 40),
}


@functools.cache
def full_family(case):
    """_full_family for FULL_FAMILY_CASES[case], computed once."""
    return _full_family(*FULL_FAMILY_CASES[case])


@pytest.mark.parametrize("case", sorted(FULL_FAMILY_CASES))
def test_a_composite_index_lattice_meets_two_family_lattices(case):
    """N of index p^e r, p not dividing r > 1, is (N + p^e Z^m) meet
    (N + r Z^m), both parts of the full family; so N is the meet of its
    parts N + q Z^m over the prime powers q exactly dividing its index, each
    a lattice of the prime-power family."""
    spec, budget = FULL_FAMILY_CASES[case]
    full = full_family(case)
    family = {lat.basis for lat in enumerate_family(spec, budget)}
    assert family == {lat.basis for lat in full if _is_one_or_prime_power(lat.index)}
    composite = [lat for lat in full if not _is_one_or_prime_power(lat.index)]
    assert composite
    full_bases = {lat.basis for lat in full}
    for lat in composite:
        powers = [p**e for p, e in sorted(sympy.factorint(lat.index).items())]
        q, r = powers[0], lat.index // powers[0]
        left, right = _plus_scalar(lat, q), _plus_scalar(lat, r)
        assert (left.index, right.index) == (q, r)
        assert left.basis in full_bases and right.basis in full_bases
        assert intersection(left, right) == lat
        parts = [_plus_scalar(lat, q) for q in powers]
        assert [part.index for part in parts] == powers
        assert all(part.basis in family for part in parts)
        meet = parts[0]
        for part in parts[1:]:
            meet = intersection(meet, part)
        assert meet == lat


SHARED_PREFIX_CASES = [
    ("nu", "trivial(1)", (3, 12, 5)),
    ("nu", "trivial(2)", (3, 12, 5)),
    ("nu", "trivial(3)", (3, 12, 5)),
    ("inv", "rot(4)", (3, 30, 7)),
    ("inv", "d4_paper", (4, 16, 9)),
    ("inv", "quaternion_paper", (2, 8, 4)),
    ("com", "quaternion_paper", (9, 100, 36)),
]


@pytest.mark.parametrize("kind,name,budgets", SHARED_PREFIX_CASES)
def test_shared_prefix_matches_fresh_spec(kind, name, budgets):
    rep = catalog_rep(name)
    spec = FamilySpec(kind, rep)
    # an abandoned stream, as divisibility leaves behind on early exit
    next(enumerate_family(spec, budgets[1]))
    for budget in budgets:
        got = list(enumerate_family(spec, budget))
        assert got == list(enumerate_family(FamilySpec(kind, rep), budget))
        assert got == _oracle(spec, budget)
        assert [lat.index for lat in got] == sorted(lat.index for lat in got)


def test_interleaved_streams_share_one_prefix():
    rep = catalog_rep("d4_paper")
    spec = FamilySpec("inv", rep)
    small, large = enumerate_family(spec, 6), enumerate_family(spec, 12)
    got_small, got_large = [], []
    for a, b in zip(small, large):
        got_small.append(a)
        got_large.append(b)
    got_small += list(small)
    got_large += list(large)
    assert got_small == _oracle(spec, 6)
    assert got_large == _oracle(spec, 12)


INV_ORACLE_CASES = [
    ("d4_paper", 40),
    ("quaternion_paper", 25),
    ("rot(4)", 30),
    ("trivial(2)", 20),
    # 3Z^3 is the preimage of a 3-dimensional simple module mod 3
    ("std_sym(4)", 30),
]


@pytest.mark.parametrize("name,budget", INV_ORACLE_CASES)
def test_inv_family_matches_the_filter(name, budget):
    rep = catalog_rep(name)
    spec = FamilySpec("inv", rep)
    assert list(enumerate_family(spec, budget)) == _oracle(spec, budget)


@pytest.mark.parametrize(
    "name,budget,seed",
    [
        ("d4_paper", 24, 1),
        ("d4_paper", 24, 2),
        ("quaternion_paper", 10, 3),
        ("rot(4)", 30, 4),
        ("std_sym(4)", 27, 5),
    ],
)
def test_inv_family_of_a_conjugate_matches_the_filter(name, budget, seed):
    rep = catalog_rep(name)
    q, q_inv = _unimodular_pair(rep.degree, random.Random(seed))
    assert q * q_inv == IntMatrix.identity(rep.degree)
    conj = close_group([q_inv * g * q for g in rep.generators])
    assert conj.generators != rep.generators
    spec = FamilySpec("inv", conj)
    got = list(enumerate_family(spec, budget))
    assert got == _oracle(spec, budget)
    # N -> Q^-1 N maps the invariant lattices of rep onto those of the conjugate
    original = enumerate_family(FamilySpec("inv", rep), budget)
    assert Counter(lat.index for lat in got) == Counter(lat.index for lat in original)


def test_inv_prefix_checks_each_built_lattice_once(monkeypatch):
    calls = []

    def counting(lat, rep):
        calls.append(lat)
        return is_invariant_lattice(lat, rep)

    monkeypatch.setattr(lattice_mod, "is_invariant_lattice", counting)
    spec = FamilySpec("inv", catalog_rep("d4_paper"))
    prof = rf_profile(spec, 12)
    assert prof.values[-1] == 25
    # every family lattice up to the largest D needed, checked once as it is
    # built, and no index beyond
    assert calls == _oracle(spec, 25)
    assert spec._cache["prefix"].done == 25


# --- the mod-p steps of the inv family, against reference versions ---------


def _reference_spin(u, actions, p, d):
    """Reference for _spin: each round applies every action to every row
    and eliminates the rows and their images afresh."""
    rows, rank = [u], 1
    while rank <= d:
        images = [_apply_mod(a, v, p) for a in actions for v in rows]
        grown, pivots = _pivot_rows(rows + images, p)
        if len(pivots) == rank:
            return tuple(tuple(r) for r in grown)
        rows, rank = grown, len(pivots)
    return None


def _reference_cyclic_submodules(actions, p, d):
    """Reference for _cyclic_submodules: the spin of every line."""
    found = {_reference_spin(u, actions, p, d) for u in _line_reps(len(actions[0]), p)}
    return [sub for sub in found if sub is not None and len(sub) == d]


def _reference_roots(g, p):
    """The roots in F_p of g's minimal polynomial over F_p."""
    poly = IntPoly(tuple(_matrix_minpoly([list(r) for r in g.entries], p)))
    return [lam for lam in range(p) if poly(lam) % p == 0]


def _spin_cases():
    """name -> (rep, index budget) for catalog reps and a seeded Q^-1 g Q
    conjugate of each."""
    cases = {}
    for name, budget in (
        ("d4_paper", 27),
        ("quaternion_paper", 16),
        ("rot(4)", 32),
        ("std_sym(4)", 27),
        ("perm_sym(4)", 16),
    ):
        rep = catalog_rep(name)
        q, q_inv = _unimodular_pair(rep.degree, random.Random(f"spin:{name}"))
        cases[name] = (rep, budget)
        cases[f"conjugate:{name}"] = (close_group([q_inv * g * q for g in rep.generators]), budget)
    return cases


SPIN_CASES = _spin_cases()


@pytest.mark.parametrize("case", sorted(SPIN_CASES))
def test_spins_match_the_reference_on_every_prefix_lattice(case):
    """Every spin and every set of cyclic submodules, at p = 2, 3, 5 and each
    d with p^d <= 81, in the action on every lattice of the inv prefix."""
    rep, budget = SPIN_CASES[case]
    m = rep.degree
    lats = list(enumerate_family(FamilySpec("inv", rep), budget))
    assert len(lats) > 3
    for lat in lats:
        actions = _action(lat, rep)
        for p in (2, 3, 5):
            for d in range(1, m + 1):
                if p**d > 81:
                    continue
                for u in _line_reps(m, p):
                    assert _spin(u, actions, p, d) == _reference_spin(u, actions, p, d)
                got = _cyclic_submodules(actions, p, d)
                assert len(set(got)) == len(got)
                assert sorted(got) == sorted(_reference_cyclic_submodules(actions, p, d))


@pytest.mark.parametrize("name", ORACLE_CATALOG)
def test_roots_mod_are_the_minimal_polynomial_roots(name):
    rep = catalog_rep(name)
    polys = [charpoly(g) for g in rep.generators]
    for p in sympy.primerange(2, 51):
        assert _roots_mod(polys, p) == [_reference_roots(g, p) for g in rep.generators]


def _read_by_a_prime_power_step(n, done):
    """Whether the inv batches up to index done read the lattices of index n
    as M: n = 1, or n = p^j with p^(j+1) <= done."""
    if n == 1:
        return True
    p, e = _least_prime_power(n)
    return p**e == n and n * p <= done


def test_inv_family_finds_roots_once_per_prime_and_actions_once_per_lattice(monkeypatch):
    polys, primes, acted = [], [], []
    real_charpoly, real_roots, real_action = charpoly, _roots_mod, _action
    monkeypatch.setattr(lattice_mod, "charpoly", lambda g: polys.append(g) or real_charpoly(g))
    monkeypatch.setattr(
        lattice_mod, "_roots_mod", lambda fs, p: primes.append(p) or real_roots(fs, p)
    )
    monkeypatch.setattr(
        lattice_mod, "_action", lambda lat, rep: acted.append(lat) or real_action(lat, rep)
    )
    rep = catalog_rep("d4_paper")
    spec = FamilySpec("inv", rep)
    assert rf_profile(spec, 12).values[-1] == 25
    assert spec._cache["prefix"].done == 25
    assert polys == list(rep.generators)
    assert primes == list(sympy.primerange(2, 26))
    assert len({lat.basis for lat in acted}) == len(acted)
    read = [lat for lat in _oracle(spec, 25) if _read_by_a_prime_power_step(lat.index, 25)]
    assert sorted(acted, key=lambda lat: (lat.index, lat.basis.entries)) == read
    assert {lat.index for lat in read} == {1, 2, 3, 4, 5, 8}


def test_used_spec_equals_fresh_spec():
    rep = catalog_rep("quaternion_paper")
    for kind in ("nu", "inv", "com"):
        used = FamilySpec(kind, rep)
        list(enumerate_family(used, 6))
        assert used._cache
        fresh = FamilySpec(kind, rep)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) and "_cache" not in repr(used)


@pytest.mark.parametrize("kind", ["nu", "inv", "com"])
def test_divisibility_refuses_a_vector_of_the_wrong_length(kind):
    spec = FamilySpec(kind, catalog_rep("rot(4)"))
    for v in ((1,), (1, 0, 0)):
        with pytest.raises(DimensionMismatch, match="rank-2 family"):
            divisibility(v, spec)
    assert divisibility((1, 0), spec) == 2


def test_nu_reads_only_the_rank_of_its_rep():
    assert list(enumerate_family(FamilySpec("nu", catalog_rep("d4_paper")), 12)) == list(
        enumerate_family(nu_family(3), 12)
    )


@pytest.mark.parametrize("m,budget", [(1, 60), (2, 30), (3, 12)])
def test_nu_is_inv_of_the_trivial_rep(m, budget):
    trivial = catalog_rep(f"trivial({m})")
    assert list(enumerate_family(FamilySpec("nu", trivial), budget)) == list(
        enumerate_family(FamilySpec("inv", trivial), budget)
    )


OPTIMIZED_CHECKS = """
import sys
import rfva.exactalg as ea
import rfva.lattice as lat
import rfva.repdecomp as rd
from rfva.catalog import catalog_rep
from rfva.errors import UnsoundCommutant, UnsoundLattice, UnsoundWitness
from rfva.exactalg import IntMatrix, hnf

print("optimize", sys.flags.optimize, __debug__)

def witness_from(rows, name):
    lat.hnf = lambda _: hnf(IntMatrix.from_rows(rows))
    try:
        lat.upper_bound_witness(catalog_rep(name), (1, 0))
    except UnsoundWitness as exc:
        print("witness checked:", exc)

witness_from([[1, 0], [0, 1]], "rot(4)")
witness_from([[2, 0], [0, 1]], "rot(4)")
witness_from([[5, 0], [0, 1]], "rot(4)")
rd.saturate = lambda vecs: IntMatrix.from_rows([[1] + [0] * 8])
try:
    rd.commutant_basis(catalog_rep("d4_paper"))
except UnsoundCommutant:
    print("commutant checked")

def family_from(name, budget):
    try:
        list(lat.enumerate_family(lat.FamilySpec("inv", catalog_rep(name)), budget))
    except UnsoundLattice as exc:
        print("family checked:", exc)

real_batch = lat._prime_power_batch
lat._prime_power_batch = lambda rep, prefix, p, e: prefix.by_index[1][:]
family_from("rot(4)", 2)
lat._prime_power_batch = real_batch
real_invariant = lat.is_invariant_lattice
lat.is_invariant_lattice = lambda l, rep: l.index == 1
family_from("rot(4)", 2)
lat.is_invariant_lattice = real_invariant
try:
    lat._coordinates(hnf(IntMatrix.from_rows([[2, 0], [0, 1]])), (1, 0))
except UnsoundLattice as exc:
    print("coordinates checked:", exc)

# feed the coprime intersection a corrupted basis; y_even has index 2 and
# x_triple index 3, and (3, 1) lies in x_triple alone
def meet_from(rows, a, b):
    ea._crt_rows = lambda a, b: rows
    try:
        ea.intersection(hnf(IntMatrix.from_rows(a)), hnf(IntMatrix.from_rows(b)))
    except UnsoundLattice as exc:
        print("intersection checked:", exc)

y_even, x_triple = [[1, 0], [0, 2]], [[3, 0], [0, 1]]
meet_from([[3, 0], [0, 4]], y_even, x_triple)
meet_from([[3, 1], [0, 2]], y_even, x_triple)
meet_from([[3, 1], [0, 2]], x_triple, y_even)
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
        "witness checked: no constituent's preimage mod 5 omits v",
        "witness checked: witness index 2 is not 5^1",
        "witness checked: witness lattice is not invariant",
        "commutant checked",
        "family checked: built lattice has index 1, not 2",
        "family checked: built lattice of index 2 is not invariant",
        "coordinates checked: the image of a basis vector left an invariant lattice",
        "intersection checked: intersection rows [[3, 0], [0, 4]] are not an HNF basis of index 6",
        "intersection checked: intersection row [3, 1] is not in A",
        "intersection checked: intersection row [3, 1] is not in B",
    ]


def test_prefix_recovers_from_an_interrupted_batch(monkeypatch):
    rep = catalog_rep("d4_paper")
    spec = FamilySpec("inv", rep)
    list(enumerate_family(spec, 3))
    calls = []

    def interrupted(lat, rep):
        calls.append(lat)
        if len(calls) == 5:
            raise KeyboardInterrupt
        return is_invariant_lattice(lat, rep)

    monkeypatch.setattr(lattice_mod, "is_invariant_lattice", interrupted)
    with pytest.raises(KeyboardInterrupt):
        list(enumerate_family(spec, 8))
    # the interrupt came in the middle of index 4, which d4 has 5 lattices of
    assert [lat.index for lat in calls] == [4] * 5
    prefix = spec._cache["prefix"]
    assert prefix.done == 3 and [len(prefix.by_index[n]) for n in (1, 2, 3)] == [1, 3, 1]
    assert 4 not in prefix.by_index
    assert list(enumerate_family(spec, 8)) == _oracle(spec, 8)

    # nu reads one shared stream of sublattices, which an interrupt leaves part-read
    nu = nu_family(2)
    list(enumerate_family(nu, 3))
    made = []
    real_lattice = lattice_mod.Lattice

    def interrupted_lattice(**kwargs):
        made.append(kwargs["index"])
        if len(made) == 3:
            raise KeyboardInterrupt
        return real_lattice(**kwargs)

    monkeypatch.setattr(lattice_mod, "Lattice", interrupted_lattice)
    with pytest.raises(KeyboardInterrupt):
        list(enumerate_family(nu, 5))
    assert made == [4, 4, 4]
    monkeypatch.setattr(lattice_mod, "Lattice", real_lattice)
    assert list(enumerate_family(nu, 5)) == _oracle(nu, 5)
