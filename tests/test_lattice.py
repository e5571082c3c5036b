import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rfva.lattice as lattice_mod
import rfva.repdecomp as rd
from rfva.catalog import catalog_matrix, catalog_rep
from rfva.errors import DimensionMismatch, PrimeSearchFailed, SingularMatrix, ZeroVector
from rfva.exactalg import IntMatrix, det, hnf
from rfva.grouprep import close_group
from rfva.lattice import (
    FamilySpec,
    commutant_image_lattices,
    contains,
    enumerate_family,
    enumerate_sublattices,
    is_invariant_lattice,
    lattice_from_matrix,
    upper_bound_witness,
)
from rfva.repdecomp import commutant_basis, exponent_k
from rfva.rfgrowth import rf_profile

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
    fam = list(enumerate_family(FamilySpec("inv", rot4), 2, 2))
    assert [l.index for l in fam] == [1, 2]
    assert fam[1].basis.entries == ((1, 1), (0, 2))  # the parity lattice


def test_all_family_rank_one():
    fam = list(enumerate_family(FamilySpec("nu"), 1, 3))
    assert [l.index for l in fam] == [1, 2, 3]


def test_com_family_quaternion():
    q8 = catalog_rep("quaternion_paper")
    fam = list(enumerate_family(FamilySpec("com", q8), 4, 100))
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
        fam = enumerate_family(FamilySpec(kind, rep=d4 if kind != "nu" else None), 3, 8)
        assert any(l.basis == IntMatrix.identity(3).scale(2) for l in fam)
    com = commutant_image_lattices(d4, 2, 8)
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
    for box in (0, 1, 2):
        for budget in (8, 256):
            got = commutant_image_lattices(rep, box, budget)
            assert got == _odometer_image_lattices(rep, box, budget), (box, budget)
            assert bool(got) == (box > 0)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_a_negated_matrix_has_the_same_image(seed, n):
    rng = random.Random(seed)
    b = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
    assume(det(b) != 0)
    assert hnf(b.scale(-1).transpose()) == hnf(b.transpose())


def test_a_negative_coefficient_box_is_refused():
    rep = catalog_rep("quaternion_paper")
    with pytest.raises(ValueError, match="coefficient box"):
        FamilySpec("com", rep, coefficient_box=-1)
    with pytest.raises(ValueError, match="coefficient box"):
        commutant_image_lattices(rep, -1, 8)
    assert commutant_image_lattices(rep, 0, 8) == []


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


def _oracle(spec, m, budget):
    """The family at one budget, enumerated without any cache."""
    if spec.kind == "com":
        return commutant_image_lattices(spec.rep, spec.coefficient_box, budget)
    return [
        lat
        for lat in enumerate_sublattices(m, budget)
        if spec.kind == "nu" or is_invariant_lattice(lat, spec.rep)
    ]


SHARED_PREFIX_CASES = [
    ("nu", None, 1, (3, 12, 5)),
    ("nu", None, 2, (3, 12, 5)),
    ("nu", None, 3, (3, 12, 5)),
    ("inv", "rot(4)", 2, (3, 30, 7)),
    ("inv", "d4_paper", 3, (4, 16, 9)),
    ("inv", "quaternion_paper", 4, (2, 8, 4)),
    ("com", "quaternion_paper", 4, (9, 100, 36)),
]


@pytest.mark.parametrize("kind,name,m,budgets", SHARED_PREFIX_CASES)
def test_shared_prefix_matches_fresh_spec(kind, name, m, budgets):
    rep = catalog_rep(name) if name else None
    spec = FamilySpec(kind, rep=rep)
    # an abandoned stream, as divisibility leaves behind on early exit
    next(enumerate_family(spec, m, budgets[1]))
    for budget in budgets:
        got = list(enumerate_family(spec, m, budget))
        assert got == list(enumerate_family(FamilySpec(kind, rep=rep), m, budget))
        assert got == _oracle(spec, m, budget)
        assert [lat.index for lat in got] == sorted(lat.index for lat in got)


def test_interleaved_streams_share_one_prefix():
    rep = catalog_rep("d4_paper")
    spec = FamilySpec("inv", rep)
    small, large = enumerate_family(spec, 3, 6), enumerate_family(spec, 3, 12)
    got_small, got_large = [], []
    for a, b in zip(small, large):
        got_small.append(a)
        got_large.append(b)
    got_small += list(small)
    got_large += list(large)
    assert got_small == _oracle(spec, 3, 6)
    assert got_large == _oracle(spec, 3, 12)


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
    assert list(enumerate_family(spec, rep.degree, budget)) == _oracle(spec, rep.degree, budget)


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
    got = list(enumerate_family(spec, rep.degree, budget))
    assert got == _oracle(spec, rep.degree, budget)
    # N -> Q^-1 N maps the invariant lattices of rep onto those of the conjugate
    original = enumerate_family(FamilySpec("inv", rep), rep.degree, budget)
    assert Counter(lat.index for lat in got) == Counter(lat.index for lat in original)


def test_inv_prefix_checks_each_built_lattice_once(monkeypatch):
    calls = []

    def counting(lat, rep):
        calls.append(lat)
        return is_invariant_lattice(lat, rep)

    monkeypatch.setattr(lattice_mod, "is_invariant_lattice", counting)
    spec = FamilySpec("inv", catalog_rep("d4_paper"))
    prof = rf_profile(spec, 3, 12)
    assert prof.values[-1] == 25
    # every family lattice up to the largest D needed, checked once as it is
    # built, and no index beyond
    assert calls == _oracle(spec, 3, 25)
    assert spec._cache[3].done == 25


def test_used_spec_equals_fresh_spec():
    rep = catalog_rep("quaternion_paper")
    for kind in ("nu", "inv", "com"):
        used = FamilySpec(kind, rep=rep)
        list(enumerate_family(used, 4, 6))
        assert used._cache
        fresh = FamilySpec(kind, rep=rep)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) and "_cache" not in repr(used)


def test_family_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        list(enumerate_family(FamilySpec("inv", catalog_rep("rot(4)")), 3, 4))


OPTIMIZED_CHECKS = """
import sys
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
witness_from([[1, 0], [0, 2]], "trivial(2)")
witness_from([[5, 0], [0, 1]], "rot(4)")
rd.saturate = lambda vecs: IntMatrix.from_rows([[1] + [0] * 8])
try:
    rd.commutant_basis(catalog_rep("d4_paper"))
except UnsoundCommutant:
    print("commutant checked")

def family_from(name, budget):
    try:
        list(lat.enumerate_family(lat.FamilySpec("inv", catalog_rep(name)), 2, budget))
    except UnsoundLattice as exc:
        print("family checked:", exc)

real_intersection = lat.intersection
lat.intersection = lambda a, b: a
family_from("rot(4)", 10)
lat.intersection = real_intersection
real_invariant = lat.is_invariant_lattice
lat.is_invariant_lattice = lambda l, rep: l.index == 1
family_from("rot(4)", 2)
lat.is_invariant_lattice = real_invariant
try:
    lat._coordinates(hnf(IntMatrix.from_rows([[2, 0], [0, 1]])), (1, 0))
except UnsoundLattice as exc:
    print("coordinates checked:", exc)
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
        "witness checked: witness index 1 is not 5^1",
        "witness checked: witness lattice contains the vector",
        "witness checked: witness lattice is not invariant",
        "commutant checked",
        "family checked: built lattice has index 2, not 10",
        "family checked: built lattice of index 2 is not invariant",
        "coordinates checked: the image of a basis vector left an invariant lattice",
    ]


def test_prefix_recovers_from_an_interrupted_batch(monkeypatch):
    rep = catalog_rep("d4_paper")
    spec = FamilySpec("inv", rep)
    list(enumerate_family(spec, 3, 3))
    calls = []

    def interrupted(lat, rep):
        calls.append(lat)
        if len(calls) == 5:
            raise KeyboardInterrupt
        return is_invariant_lattice(lat, rep)

    monkeypatch.setattr(lattice_mod, "is_invariant_lattice", interrupted)
    with pytest.raises(KeyboardInterrupt):
        list(enumerate_family(spec, 3, 8))
    # the interrupt came in the middle of index 4, which d4 has 5 lattices of
    assert [lat.index for lat in calls] == [4] * 5
    prefix = spec._cache[3]
    assert prefix.done == 3 and [len(prefix.by_index[n]) for n in (1, 2, 3)] == [1, 3, 1]
    assert 4 not in prefix.by_index
    assert list(enumerate_family(spec, 3, 8)) == _oracle(spec, 3, 8)

    # nu reads one shared stream of sublattices, which an interrupt leaves part-read
    nu = FamilySpec("nu")
    list(enumerate_family(nu, 2, 3))
    made = []
    real_lattice = lattice_mod.Lattice

    def interrupted_lattice(**kwargs):
        made.append(kwargs["index"])
        if len(made) == 3:
            raise KeyboardInterrupt
        return real_lattice(**kwargs)

    monkeypatch.setattr(lattice_mod, "Lattice", interrupted_lattice)
    with pytest.raises(KeyboardInterrupt):
        list(enumerate_family(nu, 2, 5))
    assert made == [4, 4, 4]
    monkeypatch.setattr(lattice_mod, "Lattice", real_lattice)
    assert list(enumerate_family(nu, 2, 5)) == _oracle(nu, 2, 5)
