"""Divisibility functions, RF profiles, and the lower-bound certificate.

D(v) is the minimal index of a family lattice omitting v; RF(r) is its
maximum over the punctured l1-ball of radius r (the word metric on Z^m with
standard generators, a free choice up to equivalence).

rf_profile does not scan the ball.  Let L_n be the intersection of the
family's lattices of index <= n (Bou-Rabee & McReynolds, Bull. LMS 2011).
Then D(v) = min{n : v not in L_n}, so RF(r) = min{n : lambda_1(L_n) > r},
with lambda_1 the least l1 norm of a nonzero vector (exactalg.shortest_vectors,
a branch and bound over the HNF basis after Fincke & Pohst, Math. Comp. 1985).
RF is a step function that jumps to N at r = lambda_1(L_(N-1)).
* Witness: for RF(r) = N, the first vector a scan of the l1-spheres meets
  with D = N, i.e. the first vector of least norm in L_(N-1) in the scan's
  order: one vector per +-v pair, the one whose first nonzero entry is
  positive, ordered by (v_0, ..., v_(m-2), -v_(m-1)).  One divisibility call
  confirms each distinct witness (UnsoundProfile otherwise).
* Budget: under an index budget B the profile ends before the first r with
  lambda_1(L_B) <= r, where a vector in every family lattice of index <= B
  is first met, and is marked partial.

exponent_fit is a diagnostic only: asymptotic equivalence cannot be decided
from finite data.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    CertificateFailed,
    DimensionMismatch,
    InsufficientData,
    NotIrreducible,
    UnsoundLattice,
    UnsoundProfile,
    ZeroVector,
)
from .exactalg import (
    IntMatrix,
    Lattice,
    _bareiss,
    _isprime,
    _primes_one_mod,
    det,
    intersection,
    shortest_vectors,
)
from .grouprep import Rep
from .lattice import FamilySpec, _com_box, enumerate_family, family_by_index
from .repdecomp import (
    DEFAULT_SEED,
    commutant_basis,
    commutant_certificate,
    exponent_k,
    q_split,
)

DEFAULT_INDEX_BUDGET = 10_000
DEFAULT_SAMPLES = 200


@dataclass(frozen=True)
class RFProfile:
    """RF(r) samples with the maximizing vector and its divisibility per r."""

    spec: FamilySpec
    radii: tuple[int, ...]
    values: tuple[int, ...]
    witnesses: tuple[tuple[tuple[int, ...], int], ...]  # (vector, D(vector))
    partial: bool = False


@dataclass(frozen=True)
class LowerBoundReport:
    """Per-s verdicts for D_Com(v_s) >= s^k on a Q-irreducible rep."""

    k: int
    s_values: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]
    arithmetic_ok: tuple[bool, ...]  # v_s in x*Z^m for every x <= s
    enumeration_ok: tuple[bool, ...]  # enumerated Com lattices omitting v_s have index >= s^k
    certificates_passed: int
    certificates_total: int


def _scalar_upper_bound(v):
    """Index of the smallest scalar lattice q*Z^m omitting v (always valid)."""
    g = 0
    for x in v:
        g = math.gcd(g, x)
    q = 2
    while g % q == 0:
        q += 1
    return q ** len(v)


def divisibility(v, spec: FamilySpec, index_budget: int = DEFAULT_INDEX_BUDGET) -> int:
    """min{ index(N) : N in the family, v not in N }, early exit in index order.

    For nu and inv the family holds the lattices of index 1 and of
    prime-power index, whose minimum is the same as over all of theirs (see
    the lattice module docstring).  The family is read from the spec's
    cached, index-ordered prefix (see enumerate_family): each FamilySpec
    enumerates its family once, the prefix grows by whole indices as vectors
    need it, and it lives as long as the spec, so repeated calls should share
    one spec.
    """
    v = tuple(int(x) for x in v)
    if all(x == 0 for x in v):
        raise ZeroVector("divisibility of the zero vector is infinite by convention")
    if len(v) != spec.rep.degree:
        raise DimensionMismatch(
            f"vector of length {len(v)} against a rank-{spec.rep.degree} family"
        )
    scanned = 0
    for lat in enumerate_family(spec, index_budget):
        if not lat.contains(v):
            return lat.index
        scanned += 1
    raise BudgetExceeded(
        f"no omitting lattice of index <= {index_budget}",
        upper_bound=_scalar_upper_bound(v),
        index_budget=index_budget,
        lattices_scanned=scanned,
    )


def rf_profile(
    spec: FamilySpec,
    r_max: int,
    index_budget: int = DEFAULT_INDEX_BUDGET,
) -> RFProfile:
    """Exact RF over l1-balls from the intersections L_n (module docstring).

    L_n grows one index at a time, intersected only with the lattices that
    do not already contain it; nu and inv hold lattices of index 1 and of
    prime-power index only, which give the same L_n as all of theirs (see
    the lattice module docstring).  lambda_1 is computed once per new L_n.
    The witness is the lexicographically first vector of least norm in L_(N-1),
    which is the first in the scan's order too: if p + (c,) and p + (-c,),
    p nonzero, both have the least norm, their sum and difference show
    |c| = |p|_1, so (0, ..., 0, 2|c|) has it as well and precedes both in
    either order.
    """
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    batches = family_by_index(spec, index_budget)
    lat = Lattice(basis=IntMatrix.identity(spec.rep.degree), index=1)
    lam, shortest = shortest_vectors(lat)
    value = witness = None
    out_r, out_v, out_w = [], [], []
    for r in range(1, r_max + 1):
        while lam <= r:
            batch = next(batches, None)
            if batch is None:
                return RFProfile(spec, tuple(out_r), tuple(out_v), tuple(out_w), partial=True)
            n, lats = batch
            grown = lat
            for other in lats:
                if not all(other.contains(row) for row in grown.basis.entries):
                    grown = intersection(grown, other)
            if grown is not lat:
                value, witness = n, shortest[0]
                lat = grown
                lam, shortest = shortest_vectors(lat)
        if not out_w or out_w[-1] != (witness, value):
            d = divisibility(witness, spec, index_budget)
            if d != value:
                raise UnsoundProfile(
                    f"RF({r}) = {value} has witness {witness}, whose divisibility is {d}"
                )
        out_r.append(r)
        out_v.append(value)
        out_w.append((witness, value))
    return RFProfile(spec, tuple(out_r), tuple(out_v), tuple(out_w))


def exponent_fit(profile: RFProfile):
    """Diagnostic least-squares slope of log RF(r) against log log r.

    Requires at least 5 usable points spanning a factor of 10 in r.  Returns
    (k_hat, residual); no asymptotic claim is implied.
    """
    pts = [
        (r, v)
        for r, v in zip(profile.radii, profile.values)
        if r >= 3 and v >= 1
    ]
    if len(pts) < 5 or pts[-1][0] < 10 * pts[0][0]:
        raise InsufficientData(
            "need >= 5 points with radii spanning a factor of 10"
        )
    xs = [math.log(math.log(r)) for r, _ in pts]
    ys = [math.log(v) for _, v in pts]
    x_bar = sum(xs) / len(xs)
    y_bar = sum(ys) / len(ys)
    slope = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / sum(
        (x - x_bar) ** 2 for x in xs
    )
    residual = sum((y - y_bar - slope * (x - x_bar)) ** 2 for x, y in zip(xs, ys))
    return slope, residual


def lower_bound_certificate(
    rep: Rep,
    s_max: int,
    samples: int = DEFAULT_SAMPLES,
    *,
    index_budget: int = DEFAULT_INDEX_BUDGET,
) -> LowerBoundReport:
    """Finite verification of D_Com(v_s) >= s^k for v_s = lcm(1..s) e_1.

    Three checks: lcm arithmetic (v_s lies in x Z^m for x <= s), sampled
    commutant certificates (det B = x^k and x Z^m inside Im B), and the
    box-enumerated Com family (every enumerated lattice omitting v_s has
    index >= s^k).  Every nonsingular draw B counts toward samples, but each
    distinct B is certified once per call and its verdict reused for its
    repeats; a B whose certificate fails (CertificateFailed) fails each of
    its draws.  The last check is over the enumerated family only, read by
    one Bareiss elimination per box matrix (_com_least_omitting).
    """
    if min(s_max, samples) < 1:
        raise ValueError("all bounds must be positive")
    if not q_split(rep).irreducible:
        raise NotIrreducible("the lower bound needs a Q-irreducible representation")
    k = exponent_k(rep)
    m = rep.degree
    comm = commutant_basis(rep)
    rng = random.Random(DEFAULT_SEED)
    verdicts = {}
    passed = 0
    total = 0
    while total < samples:
        b = comm.combination([rng.randint(-5, 5) for _ in comm.matrices])
        # only a nonsingular B is stored, so a stored one needs no det
        ok = verdicts.get(b)
        if ok is None:
            if det(b) == 0:
                continue
            try:
                ok = commutant_certificate(rep, b).passed
            except CertificateFailed:
                ok = False
            verdicts[b] = ok
        total += 1
        passed += ok
    s_values = tuple(range(1, s_max + 1))
    lcms = [math.lcm(*range(1, s + 1)) for s in s_values]
    least = _com_least_omitting(rep, lcms, index_budget)
    return LowerBoundReport(
        k=k,
        s_values=s_values,
        vectors=tuple((l,) + (0,) * (m - 1) for l in lcms),
        arithmetic_ok=tuple(all(l % x == 0 for x in s_values[:s]) for s, l in zip(s_values, lcms)),
        enumeration_ok=tuple(n is None or n >= s**k for s, n in zip(s_values, least)),
        certificates_passed=passed,
        certificates_total=total,
    )


def _com_least_omitting(rep: Rep, lcms, index_budget: int) -> list[int | None]:
    """For each l in lcms, the least index |det B| of an image Im B omitting
    l e_1 (None if there is none), over the com box's B with 0 < |det B| <=
    index_budget: commutant_image_lattices' minima, with no lattice built.

    One Bareiss elimination of [B | e_1] gives det B and y = det(B) B^-1 e_1,
    checked as B y = det(B) e_1 (UnsoundLattice otherwise).  e_1 has order
    o = |det B| / gcd(det B, y) in Z^m / Im B, so l e_1 is in Im B iff o | l.
    """
    e1 = (1,) + (0,) * (rep.degree - 1)
    orders = {}
    for b in _com_box(rep):
        d, y = _bareiss(b.entries, e1)
        if d == 0 or abs(d) > index_budget:
            continue
        if b.apply(y) != tuple(d * x for x in e1):
            raise UnsoundLattice(f"B y = det(B) e_1 fails for the Bareiss y of B = {b.entries}")
        o = abs(d) // math.gcd(d, *y)
        orders[o] = min(orders.get(o, abs(d)), abs(d))
    return [min((n for o, n in orders.items() if l % o), default=None) for l in lcms]


def smallest_valid_prime(m: int, n: int) -> int:
    """Least prime p with p = 1 mod n and p not dividing m."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    return next(p for p in _primes_one_mod(n) if m % p)


def chebyshev_psi(s: int) -> float:
    """log lcm(1..s), via the exact prime-power product, then one float log."""
    if s < 2:
        raise ValueError("chebyshev_psi needs s >= 2")
    lcm = 1
    for p in filter(_isprime, range(2, s + 1)):
        pe = p
        while pe * p <= s:
            pe *= p
        lcm *= pe
    return math.log(lcm)
