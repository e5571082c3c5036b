import dataclasses
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rfva.repdecomp as rd
import rfva.rfgrowth as rg
from rfva.catalog import catalog_rep
from rfva.cli import EXIT_COMPUTE, EXIT_OK, run
from rfva.errors import (
    BudgetExceeded,
    CertificateFailed,
    InsufficientData,
    NotIrreducible,
    PrimeSearchFailed,
    SearchBoundExceeded,
    UnsoundProfile,
    ZeroVector,
)
from rfva.exactalg import IntMatrix, det, hnf, shortest_vectors
from rfva.grouprep import close_group
from rfva.lattice import FamilySpec, enumerate_family, upper_bound_witness
from rfva.rfgrowth import (
    DEFAULT_INDEX_BUDGET,
    LowerBoundReport,
    RFProfile,
    chebyshev_psi,
    divisibility,
    exponent_fit,
    lower_bound_certificate,
    rf_profile,
    smallest_valid_prime,
)

from test_lattice import FULL_FAMILY_CASES, full_family, nu_family

NU = nu_family(1)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_divisibility_on_z_examples():
    assert divisibility((12,), NU) == 5
    assert divisibility((1,), NU) == 2
    assert divisibility((2,), NU) == 3


def test_divisibility_rejects_zero():
    with pytest.raises(ZeroVector):
        divisibility((0, 0), nu_family(2))


def test_divisibility_invariant_family():
    rot4 = catalog_rep("rot(4)")
    assert divisibility((1, 0), FamilySpec("inv", rot4)) == 2


def test_divisibility_budget_exceeded_carries_bound():
    # only the full lattice has index <= 1, and it contains everything
    with pytest.raises(BudgetExceeded) as exc:
        divisibility((1,), NU, index_budget=1)
    assert exc.value.upper_bound == 2
    assert exc.value.index_budget == 1
    assert exc.value.lattices_scanned == 1


def test_budget_exceeded_counts_lattices_scanned():
    # rot(4)-invariant lattices of index <= 4: Z^2, the parity lattice and 2Z^2,
    # all of which contain (2, 2)
    with pytest.raises(BudgetExceeded) as exc:
        divisibility((2, 2), FamilySpec("inv", catalog_rep("rot(4)")), index_budget=4)
    assert exc.value.index_budget == 4
    assert exc.value.lattices_scanned == 3
    assert exc.value.upper_bound == 9


def test_divisibility_symmetry():
    rot4 = catalog_rep("rot(4)")
    spec = FamilySpec("inv", rot4)
    rng = random.Random(3)
    for _ in range(10):
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        if v == (0, 0):
            continue
        neg = tuple(-x for x in v)
        assert divisibility(v, spec) == divisibility(neg, spec)
        # the family is invariant, so the orbit has constant divisibility
        for g in rot4.elements:
            assert divisibility(g.apply(v), spec) == divisibility(v, spec)


def test_family_chain_monotonicity():
    # nu >= inv >= com as families, so the minima are ordered the other way
    q8 = catalog_rep("quaternion_paper")
    rng = random.Random(5)
    for _ in range(5):
        v = tuple(rng.randint(-4, 4) for _ in range(4))
        if all(x == 0 for x in v):
            continue
        d_nu = divisibility(v, nu_family(4), index_budget=40)
        d_inv = divisibility(v, FamilySpec("inv", q8), index_budget=40)
        d_com = divisibility(v, FamilySpec("com", q8), index_budget=200)
        assert d_nu <= d_inv <= d_com


def test_direct_sum_inequality():
    # block rep rot(4) + trivial(1): omitting one block omits the pair
    rep = catalog_rep("product(rot(4),trivial(1))")
    rot4 = catalog_rep("rot(4)")
    spec = FamilySpec("inv", rep)
    rng = random.Random(11)
    for _ in range(6):
        v1 = (rng.randint(-3, 3), rng.randint(-3, 3))
        v2 = (rng.randint(1, 5),)
        if v1 == (0, 0):
            continue
        d1 = divisibility(v1, FamilySpec("inv", rot4), index_budget=30)
        d2 = divisibility(v2, NU, index_budget=30)
        d = divisibility(v1 + v2, spec, index_budget=60)
        assert d <= min(d1, d2)


def test_surjection_inequality_via_witness():
    d4 = catalog_rep("d4_paper")
    rng = random.Random(13)
    for _ in range(10):
        v = tuple(rng.randint(-10, 10) for _ in range(3))
        if all(x == 0 for x in v):
            continue
        w = upper_bound_witness(d4, v)
        try:
            d = divisibility(v, FamilySpec("inv", d4), index_budget=30)
        except BudgetExceeded:
            continue
        assert d <= w.index


def test_rf_profile_on_z():
    prof = rf_profile(NU, 6)
    assert prof.values == (2, 3, 3, 3, 3, 4)
    assert prof.values[-1] == 4
    assert not prof.partial


def test_rf_profile_monotone_and_witnessed():
    rot4 = catalog_rep("rot(4)")
    prof = rf_profile(FamilySpec("inv", rot4), 4)
    assert all(a <= b for a, b in zip(prof.values, prof.values[1:]))
    for (vec, d), value in zip(prof.witnesses, prof.values):
        assert d == value
        assert divisibility(vec, prof.spec) == d


def test_rf_profile_d4_invariant_family():
    prof = rf_profile(FamilySpec("inv", catalog_rep("d4_paper")), 12)
    assert prof.values == (2, 8, 8, 9, 9, 9, 9, 9, 9, 9, 9, 25)
    assert prof.witnesses[-1] == ((0, 12, 0), 25)
    assert not prof.partial


def test_rf_profile_rot4_radius_one():
    prof = rf_profile(FamilySpec("inv", catalog_rep("rot(4)")), 1)
    assert prof.values == (2,)


def _ball_shell(m, r):
    """Vectors of l1-norm exactly r, one per +-v pair (first nonzero > 0)."""

    def rec(i, remaining, prefix, started):
        if i == m - 1:
            if started:
                for s in (remaining, -remaining) if remaining else (0,):
                    yield tuple(prefix + [s])
            elif remaining > 0:
                yield tuple(prefix + [remaining])
            return
        lo = 0 if not started else -remaining
        for a in range(lo, remaining + 1):
            yield from rec(i + 1, remaining - abs(a), prefix + [a], started or a != 0)

    if r == 0:
        return
    yield from rec(0, r, [], False)


def _scan_profile(spec, r_max, index_budget=DEFAULT_INDEX_BUDGET, d_of=None):
    """The RF profile by definition: D(v) for every vector of every l1-sphere,
    one per +-v pair, keeping the first vector that raises the maximum.
    d_of(v) is D(v), the divisibility call unless given."""
    out_r, out_v, out_w = [], [], []
    best = 0
    best_witness = None
    partial = False
    for r in range(1, r_max + 1):
        try:
            for vec in _ball_shell(spec.rep.degree, r):
                d = d_of(vec) if d_of else divisibility(vec, spec, index_budget)
                if d > best:
                    best = d
                    best_witness = (vec, d)
        except BudgetExceeded:
            partial = True
            break
        out_r.append(r)
        out_v.append(best)
        out_w.append(best_witness)
    return RFProfile(spec, tuple(out_r), tuple(out_v), tuple(out_w), partial)


def _spec(kind, name):
    return FamilySpec(kind, catalog_rep(name))


def _conjugate(rep, seed):
    """Q^-1 phi Q for a seeded unimodular Q, a product of elementary matrices."""
    rng = random.Random(seed)
    m = rep.degree
    q = q_inv = IntMatrix.identity(m)
    for _ in range(3 * m):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-2, -1, 1, 2))
        e = [[int(a == b) for b in range(m)] for a in range(m)]
        e_inv = [row[:] for row in e]
        e[i][j], e_inv[i][j] = c, -c
        q, q_inv = q * IntMatrix.from_rows(e), IntMatrix.from_rows(e_inv) * q_inv
    conj = close_group([q_inv * g * q for g in rep.generators])
    assert conj.generators != rep.generators
    return conj


ORACLE_CASES = [
    ("inv", "d4_paper", 24),
    ("inv", "quaternion_paper", 8),
    ("nu", "trivial(3)", 12),
    ("nu", "trivial(1)", 12),
    ("com", "d4_paper", 6),
    ("inv", "rot(4)", 30),
]


@pytest.mark.parametrize("kind,name,r_max", ORACLE_CASES)
def test_rf_profile_matches_the_ball_scan(kind, name, r_max):
    got = rf_profile(_spec(kind, name), r_max)
    assert got == _scan_profile(_spec(kind, name), r_max)
    assert got.radii == tuple(range(1, r_max + 1)) and not got.partial


@pytest.mark.parametrize(
    "kind,name,r_max,seed",
    [
        ("inv", "d4_paper", 24, 1),
        ("inv", "d4_paper", 24, 2),
        ("inv", "quaternion_paper", 8, 3),
        ("com", "d4_paper", 6, 4),
        ("com", "d4_paper", 6, 5),
        ("inv", "rot(4)", 30, 6),
    ],
)
def test_rf_profile_of_a_conjugate_matches_the_ball_scan(kind, name, r_max, seed):
    rep = _conjugate(catalog_rep(name), seed)
    got = rf_profile(FamilySpec(kind, rep), r_max)
    assert got == _scan_profile(FamilySpec(kind, rep), r_max)


def _full_divisibility(v, lattices):
    """The least index of a lattice omitting v, in a list in index order."""
    d = next((lat.index for lat in lattices if not lat.contains(v)), None)
    if d is None:
        raise BudgetExceeded("no omitting lattice in the list")
    return d


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("case", sorted(FULL_FAMILY_CASES))
def test_divisibility_matches_the_full_family(case, data):
    """divisibility over the prime-power family is the least omitting index
    over the whole family, composite indices included."""
    spec, budget = FULL_FAMILY_CASES[case]
    m = spec.rep.degree
    scale = data.draw(st.integers(1, 60), label="scale")
    w = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m), label="w")
    assume(any(w))
    v = tuple(scale * x for x in w)
    try:
        expected = _full_divisibility(v, full_family(case))
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            divisibility(v, spec, budget)
    else:
        assert divisibility(v, spec, budget) == expected


@pytest.mark.parametrize(
    "case,r_max",
    [
        ("nu:1", 40),
        ("nu:2", 12),
        ("nu:3", 8),
        ("inv:d4_paper", 12),
        ("inv:quaternion_paper", 4),
        ("inv:rot(4)", 30),
        ("inv:conjugate:d4_paper", 12),
    ],
)
def test_rf_profile_matches_the_full_family_scan(case, r_max):
    spec, budget = FULL_FAMILY_CASES[case]
    full = full_family(case)
    got = rf_profile(spec, r_max, index_budget=budget)
    assert not got.partial
    expected = _scan_profile(spec, r_max, budget, lambda v: _full_divisibility(v, full))
    assert got == expected


@pytest.mark.parametrize(
    "argv,kind,budget,r_max,csv,warning",
    [
        (
            ["--index-budget", "8", "rf", "catalog:d4_paper", "--family", "inv", "--rmax", "6"],
            "inv",
            8,
            6,
            "r,rf,witness_vector,witness_index\n"
            "1,2,0 0 1,2,partial=1\n"
            "2,8,0 2 0,8,partial=1\n"
            "3,8,0 2 0,8,partial=1\n",
            "profile truncated by index budget",
        ),
        (
            ["--index-budget", "30", "rf", "catalog:d4_paper", "--family", "com", "--rmax", "4"],
            "com",
            30,
            4,
            "r,rf,witness_vector,witness_index\n1,8,0 1 0,8,partial=1\n",
            "profile truncated: the com family (coefficient box 2) has no further lattice"
            " of index <= 30",
        ),
    ],
)
def test_partial_profiles_match_the_ball_scan(capsys, argv, kind, budget, r_max, csv, warning):
    assert run(argv + ["--csv", "-"]) == EXIT_COMPUTE
    captured = capsys.readouterr()
    assert captured.out == csv
    assert captured.err == f"warning: {warning}\n"
    spec = _spec(kind, "d4_paper")
    got = rf_profile(spec, r_max, index_budget=budget)
    assert got.partial
    assert got == _scan_profile(_spec(kind, "d4_paper"), r_max, index_budget=budget)


def test_rf_profile_confirms_each_distinct_witness_once(monkeypatch):
    calls = []

    def counting(v, spec, index_budget=DEFAULT_INDEX_BUDGET):
        calls.append(v)
        return divisibility(v, spec, index_budget)

    monkeypatch.setattr(rg, "divisibility", counting)
    prof = rf_profile(FamilySpec("inv", catalog_rep("d4_paper")), 24)
    assert calls == sorted(set(calls), key=calls.index)
    assert calls == [vec for vec, _ in dict.fromkeys(prof.witnesses)]


def test_a_witness_with_another_divisibility_is_refused(monkeypatch):
    monkeypatch.setattr(rg, "divisibility", lambda v, spec, index_budget: 3)
    with pytest.raises(UnsoundProfile, match=r"RF\(1\) = 2 has witness \(0, 0, 1\)"):
        rf_profile(FamilySpec("inv", catalog_rep("d4_paper")), 4)


OPTIMIZED_CHECK = """
import sys
import rfva.rfgrowth as rg
from rfva.catalog import catalog_rep
from rfva.errors import UnsoundProfile
from rfva.lattice import FamilySpec

print("optimize", sys.flags.optimize, __debug__)
real = rg.divisibility
rg.divisibility = lambda v, spec, index_budget: real(v, spec, index_budget) + 1
try:
    rg.rf_profile(FamilySpec("inv", catalog_rep("d4_paper")), 4)
except UnsoundProfile as exc:
    print("profile checked:", exc)
"""


def test_the_witness_check_runs_under_python_O():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECK],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == [
        "optimize 1 False",
        "profile checked: RF(1) = 2 has witness (0, 0, 1), whose divisibility is 3",
    ]


def test_d4_invariant_profile_to_radius_2519(capsys):
    """The jumps of RF for d4_paper's invariant family, far beyond a ball scan."""
    assert run(["rf", "catalog:d4_paper", "--family", "inv", "--rmax", "2519"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2519
    values = [int(line.split(" = ")[1]) for line in lines]
    jumps = {r: v for r, v in enumerate(values, 1) if r == 1 or v != values[r - 2]}
    assert jumps == {1: 2, 2: 8, 4: 9, 12: 25, 60: 32, 120: 49, 840: 81}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_first_shortest_vector_is_the_first_a_sphere_scan_meets(m):
    """rf_profile takes the lexicographically first shortest vector as the
    witness; the scan took the first one in _ball_shell order."""
    rng = random.Random(200 + m)
    tested = 0
    while tested < 12:
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        if not 0 < abs(det(IntMatrix.from_rows(rows))) <= 60:
            continue
        tested += 1
        lat = hnf(IntMatrix.from_rows(rows))
        lam, shortest = shortest_vectors(lat)
        assert shortest[0] == next(v for v in _ball_shell(m, lam) if lat.contains(v))


def _sampled(prof, radii):
    """The points of prof at the given radii (prof starts at r = 1)."""
    return RFProfile(
        spec=prof.spec,
        radii=radii,
        values=tuple(prof.values[r - 1] for r in radii),
        witnesses=tuple(prof.witnesses[r - 1] for r in radii),
    )


def test_exponent_fit_constant_profile():
    prof = _sampled(rf_profile(NU, 40), (3, 5, 10, 20, 30, 40))
    # replace by a constant to pin the zero-slope case
    const = RFProfile(
        spec=NU,
        radii=prof.radii,
        values=(7,) * len(prof.radii),
        witnesses=prof.witnesses,
    )
    k_hat, _ = exponent_fit(const)
    assert abs(k_hat) < 1e-9


def test_exponent_fit_on_z():
    full = rf_profile(NU, 3000)
    assert full.radii == tuple(range(1, 3001))
    prof = _sampled(full, (3, 10, 30, 100, 300, 1000, 3000))
    k_hat, _ = exponent_fit(prof)
    assert 0.6 <= k_hat <= 1.5


@pytest.mark.parametrize(
    "values",
    ((2, 3, 5, 5, 7, 9, 12), (1, 4, 4, 9, 16, 17, 30), (5, 5, 6, 6, 6, 7, 7)),
)
def test_exponent_fit_matches_numpy_lstsq(values):
    np = pytest.importorskip("numpy")
    radii = (3, 5, 10, 20, 30, 60, 120)
    k_hat, residual = exponent_fit(RFProfile(NU, radii, values, ((),) * len(radii)))
    xs = np.log(np.log(np.array(radii, dtype=float)))
    a = np.vstack([xs, np.ones_like(xs)]).T
    (slope, _), (res,), _, _ = np.linalg.lstsq(a, np.log(np.array(values, dtype=float)), rcond=None)
    assert abs(k_hat - slope) < 1e-12
    assert abs(residual - res) < 1e-12


@pytest.mark.parametrize("r_max", (0, -2))
def test_rf_profile_rejects_an_empty_scan(r_max):
    with pytest.raises(ValueError, match="r_max must be at least 1"):
        rf_profile(NU, r_max)


def test_exponent_fit_insufficient_data():
    prof = rf_profile(NU, 4)
    with pytest.raises(InsufficientData):
        exponent_fit(prof)


def test_lower_bound_certificate_quaternion():
    q8 = catalog_rep("quaternion_paper")
    report = lower_bound_certificate(q8, 4, samples=30)
    assert report.k == 2
    assert all(report.arithmetic_ok)
    assert all(report.enumeration_ok)
    assert report.certificates_passed == report.certificates_total == 30
    assert report.vectors[2] == (6, 0, 0, 0)  # lcm(1,2,3) e_1
    assert report.vectors[0] == (1, 0, 0, 0)  # s = 1 is vacuous


@pytest.mark.parametrize("name", ("quaternion_paper", "std_sym(4)"))
def test_lower_bound_certificate_computes_the_commutant_basis_once(monkeypatch, name):
    rep = catalog_rep(name)
    solved = []
    real = rd.saturate

    # commutant_basis is the only caller of saturate: one call per solve
    def counting(vecs):
        solved.append(vecs)
        return real(vecs)

    monkeypatch.setattr(rd, "saturate", counting)
    rd.commutant_basis.cache_clear()
    lower_bound_certificate(rep, 3, samples=5)
    assert len(solved) == 1
    # a second certificate on an equal rep reuses the memoized basis
    lower_bound_certificate(close_group(rep.generators), 2, samples=3)
    assert len(solved) == 1


def _certify_every_draw(rep, s_max, samples, seed=rd.DEFAULT_SEED):
    """lower_bound_certificate as first written: one certificate per draw."""
    k = rd.exponent_k(rep, seed=seed)
    m = rep.degree
    basis = rd.commutant_basis(rep).matrices
    rng = random.Random(seed)
    passed = 0
    total = 0
    while total < samples:
        coeffs = [rng.randint(-5, 5) for _ in basis]
        b = IntMatrix.from_rows([[0] * m] * m)
        for cf, e in zip(coeffs, basis):
            b = b + e.scale(cf)
        if det(b) == 0:
            continue
        total += 1
        cert = rg.commutant_certificate(rep, b, seed=seed)
        if cert.passed and cert.det == cert.x**cert.k:
            passed += 1
    com_lattices = list(enumerate_family(FamilySpec("com", rep), DEFAULT_INDEX_BUDGET))
    s_values, vectors, arith, enum_ok = [], [], [], []
    for s in range(1, s_max + 1):
        l = math.lcm(*range(1, s + 1))
        v = tuple(l if i == 0 else 0 for i in range(m))
        s_values.append(s)
        vectors.append(v)
        arith.append(all(l % x == 0 for x in range(1, s + 1)))
        enum_ok.append(all(lat.index >= s**k for lat in com_lattices if not lat.contains(v)))
    return LowerBoundReport(
        k=k,
        s_values=tuple(s_values),
        vectors=tuple(vectors),
        arithmetic_ok=tuple(arith),
        enumeration_ok=tuple(enum_ok),
        certificates_passed=passed,
        certificates_total=total,
    )


@pytest.mark.parametrize(
    "name, conjugated_by, samples",
    (
        ("quaternion_paper", None, 200),
        ("std_sym(3)", None, 200),
        ("std_sym(4)", None, 200),
        ("quaternion_paper", 21, 60),
        ("std_sym(3)", 22, 60),
        ("std_sym(4)", 23, 60),
    ),
)
def test_lower_bound_certificate_matches_one_certificate_per_draw(name, conjugated_by, samples):
    rep = catalog_rep(name)
    if conjugated_by is not None:
        rep = _conjugate(rep, conjugated_by)
    report = lower_bound_certificate(rep, 4, samples=samples)
    assert report == _certify_every_draw(rep, 4, samples)
    assert report.certificates_passed == report.certificates_total == samples


def _counting_certificates(monkeypatch, verdict=None):
    """Replace rg.commutant_certificate by a recorder of each B it certifies;
    verdict(b, cert) may return another certificate or raise."""
    real = rg.commutant_certificate
    calls = []

    def counting(rep, b, **kwargs):
        calls.append(b)
        cert = real(rep, b, **kwargs)
        return cert if verdict is None else verdict(b, cert)

    monkeypatch.setattr(rg, "commutant_certificate", counting)
    return calls


def test_each_distinct_sampled_matrix_is_certified_once(monkeypatch):
    rep = catalog_rep("std_sym(4)")
    calls = _counting_certificates(monkeypatch)
    report = lower_bound_certificate(rep, 2, samples=200)
    # the commutant is Z*I, so the 200 draws are the 10 matrices c*I, c != 0
    assert len(calls) == len(set(calls)) == 10
    assert report.certificates_total == report.certificates_passed == 200
    # nothing is kept between calls
    lower_bound_certificate(rep, 2, samples=200)
    assert len(calls) == 20


def test_a_stored_matrix_is_not_checked_for_singularity_again(monkeypatch):
    """det runs once per draw that is not a stored B: every singular draw
    and the first draw of each nonsingular B."""
    rep = catalog_rep("std_sym(4)")
    seen = []
    monkeypatch.setattr(rg, "det", lambda b: seen.append(b) or det(b))
    report = lower_bound_certificate(rep, 2, samples=200)
    # the commutant is Z*I, so each draw is one coefficient c and B = c*I
    rng = random.Random(rd.DEFAULT_SEED)
    draws = []
    while sum(1 for c in draws if c) < 200:
        draws.append(rng.randint(-5, 5))
    expected = [c for i, c in enumerate(draws) if c == 0 or c not in draws[:i]]
    assert seen == [IntMatrix.identity(3).scale(c) for c in expected]
    assert draws.count(0) > 0 and len(expected) == draws.count(0) + 10
    assert report == _certify_every_draw(rep, 2, 200)


def test_a_failed_matrix_fails_each_of_its_draws(monkeypatch):
    rep = catalog_rep("std_sym(4)")
    bad = IntMatrix.identity(3).scale(-2)

    def fail_bad(b, cert):
        if b != bad:
            return cert
        return dataclasses.replace(cert, checks=cert.checks + (("stub", False),))

    calls = _counting_certificates(monkeypatch, fail_bad)
    report = lower_bound_certificate(rep, 2, samples=200)
    assert calls.count(bad) == 1
    del calls[:]
    assert report == _certify_every_draw(rep, 2, 200)
    # the oracle certified every draw, so calls holds each draw of bad
    failed = report.certificates_total - report.certificates_passed
    assert failed == calls.count(bad) > 1


@pytest.mark.parametrize("with_certificate", (True, False))
def test_a_raised_certificate_failure_fails_each_of_its_draws(monkeypatch, with_certificate):
    """commutant_certificate raises CertificateFailed for a failed check, so
    the suite counts the raise as that B's verdict instead of aborting."""
    rep = catalog_rep("std_sym(4)")
    bad = IntMatrix.identity(3).scale(-2)

    def refuse_bad(b, cert):
        if b != bad:
            return cert
        raise CertificateFailed("stub refusal", cert if with_certificate else None)

    calls = _counting_certificates(monkeypatch, refuse_bad)
    report = lower_bound_certificate(rep, 2, samples=200)
    assert calls.count(bad) == 1
    monkeypatch.undo()
    draws = _counting_certificates(monkeypatch)
    passing = _certify_every_draw(rep, 2, 200)
    # the oracle certified every draw, so draws holds each draw of bad
    failed = report.certificates_total - report.certificates_passed
    assert failed == draws.count(bad) > 1
    assert passing.certificates_passed == 200
    assert dataclasses.replace(report, certificates_passed=200) == passing


def test_lower_bound_needs_irreducible():
    with pytest.raises(NotIrreducible):
        lower_bound_certificate(catalog_rep("d4_paper"), 2, samples=5)


def test_smallest_valid_prime_examples():
    assert smallest_valid_prime(2520, 8) == 17
    assert smallest_valid_prime(1, 8) == 17
    assert smallest_valid_prime(17, 8) == 41
    assert smallest_valid_prime(6, 1) == 5


@pytest.mark.parametrize(
    "name, bounds",
    (
        ("trivial(1)", (1, 2, 3, 5)),
        ("rot(4)", (4, 5, 12, 13, 30)),
        ("perm_sym(3)", (6, 7, 12, 13)),
        ("d4_paper", (16, 17, 40, 41)),
        ("perm_sym(4)", (72, 73, 96, 97)),
    ),
)
def test_prime_searches_agree(name, bounds):
    """exponent_report, upper_bound_witness and smallest_valid_prime share
    one search: exponent_report takes the SPLIT_PRIMES least primes = 1 mod
    |H| within the bound, and the others the least one."""
    rep = catalog_rep(name)
    vector = (1,) + (0,) * (rep.degree - 1)
    for bound in bounds:
        primes = [
            p
            for p in range(2, bound + 1)
            if (p - 1) % rep.order == 0 and all(p % d for d in range(2, p))
        ]
        if len(primes) < rd.SPLIT_PRIMES:
            with pytest.raises(PrimeSearchFailed):
                rd.exponent_report(rep, prime_bound=bound)
        else:
            report = rd.exponent_report(rep, prime_bound=bound)
            assert report.primes == tuple(primes[: rd.SPLIT_PRIMES])
        if not primes:
            with pytest.raises(PrimeSearchFailed):
                upper_bound_witness(rep, vector, prime_bound=bound)
            with pytest.raises(SearchBoundExceeded):
                smallest_valid_prime(1, rep.order, bound)
            continue
        assert upper_bound_witness(rep, vector, prime_bound=bound).prime == primes[0]
        assert smallest_valid_prime(1, rep.order, bound) == primes[0]


def test_lower_bound_certificate_keeps_the_prime_search_bound():
    # k comes from an exponent report over three primes = 1 mod 8: 17, 41, 73
    q8 = catalog_rep("quaternion_paper")
    with pytest.raises(PrimeSearchFailed):
        lower_bound_certificate(q8, 2, samples=2, prime_bound=72)
    assert lower_bound_certificate(q8, 2, samples=2, prime_bound=73).k == 2


def test_chebyshev_psi_values():
    assert math.isclose(chebyshev_psi(10), math.log(2520), rel_tol=1e-12)
    assert math.isclose(chebyshev_psi(2), math.log(2), rel_tol=1e-12)
    assert math.isclose(chebyshev_psi(3), math.log(6), rel_tol=1e-12)
