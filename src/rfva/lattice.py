"""Finite-index sublattices of Z^m: membership, enumeration, witnesses.

Families:
  nu  -- all finite-index sublattices (exhaustive HNF enumeration);
  inv -- those invariant under a representation (exhaustive filter);
  com -- images of integer matrices commuting with the representation,
         enumerated over a bounded coefficient box (NOT exhaustive; the
         universal statements about Com go through the certificate instead).

Enumeration order is fixed (index, then lexicographic basis) so divisibility
minima are reproducible.

Each FamilySpec enumerates its family once.  enumerate_family serves every
call on one spec from a cached, index-ordered prefix of the family: for nu and
inv, one prefix per rank m that grows one whole index at a time, and only as
far as a caller asks; for com, one list per index budget.  The cache lives as
long as the spec does.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

import sympy

from .errors import (
    DimensionMismatch,
    PrimeSearchFailed,
    SingularMatrix,
    UnknownName,
    UnsoundWitness,
    ZeroVector,
)
from .exactalg import (
    IntMatrix,
    Lattice,
    _primes_one_mod,
    _solve,
    det,
    hnf,
)
from .grouprep import Rep
from .repdecomp import DEFAULT_SEED, commutant_basis, split_mod_p

FAMILY_KINDS = ("nu", "inv", "com")
DEFAULT_COEFFICIENT_BOX = 2
DEFAULT_PRIME_SEARCH_BOUND = 200_000


@dataclass(frozen=True)
class FamilySpec:
    """Which family of sublattices D is minimized over."""

    kind: str  # "nu" | "inv" | "com"
    rep: Rep | None = None
    coefficient_box: int = DEFAULT_COEFFICIENT_BOX
    # Enumerated lattices, filled on first use: rank m -> _Prefix for nu and
    # inv, index budget -> list for com; see enumerate_family.
    _cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise UnknownName(f"unknown family kind {self.kind!r}")
        if self.kind in ("inv", "com") and self.rep is None:
            raise UnknownName(f"family {self.kind!r} needs a representation")

    @property
    def exhaustive(self) -> bool:
        return self.kind != "com"


@dataclass(frozen=True)
class Witness:
    """An invariant lattice of index p^d omitting a given vector, d <= k."""

    lattice: Lattice
    prime: int
    dimension: int
    vector: tuple[int, ...]

    @property
    def index(self) -> int:
        return self.lattice.index


def lattice_from_matrix(b: IntMatrix) -> Lattice:
    """Im B = B(Z^m), the Z-span of the columns, as a canonical HNF lattice."""
    if det(b) == 0:
        raise SingularMatrix("image lattice needs a nonsingular matrix")
    return hnf(b.transpose())


def contains(lat: Lattice, v) -> bool:
    v = tuple(v)
    if len(v) != lat.dimension:
        raise DimensionMismatch(
            f"vector of length {len(v)} against a rank-{lat.dimension} lattice"
        )
    return lat.contains(v)


def _hnf_rows(diag, m):
    """All reduced upper-triangular bases with the given positive diagonal."""

    def rec(i, rows):
        if i == m:
            yield [list(r) for r in rows]
            return
        # row i: zeros before the diagonal, diag[i], then reduced entries
        def fill(j, row):
            if j == m:
                yield from rec(i + 1, rows + [row])
                return
            for a in range(diag[j]):
                yield from fill(j + 1, row + [a])

        yield from fill(i + 1, [0] * i + [diag[i]])

    yield from rec(0, [])


def _diagonals(m, n):
    """Ordered tuples of positive integers of length m with product n."""
    if m == 1:
        yield (n,)
        return
    for d in sympy.divisors(n):
        for rest in _diagonals(m - 1, n // d):
            yield (d,) + rest


def enumerate_sublattices(m: int, max_index: int):
    """Every sublattice of Z^m of index <= max_index, exactly once.

    Ordered by index, then lexicographically by basis rows.
    """
    for n in range(1, max_index + 1):
        batch = []
        for diag in _diagonals(m, n):
            for rows in _hnf_rows(diag, m):
                batch.append(rows)
        batch.sort()
        for rows in batch:
            yield Lattice(basis=IntMatrix.from_rows(rows), index=n)


def is_invariant_lattice(lat: Lattice, rep: Rep) -> bool:
    """phi(g) b in L for every basis row b suffices (finite group, det +-1)."""
    if lat.dimension != rep.degree:
        raise DimensionMismatch("lattice rank does not match representation degree")
    for g in rep.generators:
        for i in range(lat.dimension):
            if not lat.contains(g.apply(lat.basis.row(i))):
                return False
    return True


def commutant_image_lattices(rep: Rep, box: int, max_index: int):
    """HNF-distinct images of box-bounded integer commutant combinations."""
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
        # odometer over the coefficient box
        pos = 0
        while pos < c and coeffs[pos] == box:
            coeffs[pos] = -box
            pos += 1
        if pos == c:
            break
        coeffs[pos] += 1
    found.sort(key=lambda lat: (lat.index, lat.basis.entries))
    return found


def _sublattice_count(m: int, n: int) -> int:
    """Number of sublattices of Z^m of index n: column j of an HNF basis has
    j entries reduced modulo diag[j]."""
    return sum(
        math.prod(d**j for j, d in enumerate(diag)) for diag in _diagonals(m, n)
    )


@dataclass
class _Prefix:
    """A nu or inv family's lattices of index <= done, in enumeration order,
    and the stream of all sublattices of Z^m the next index is read from."""

    source: Iterator[Lattice]
    done: int = 0
    lattices: list = field(default_factory=list)


def enumerate_family(spec: FamilySpec, m: int, max_index: int):
    """Stream the family's lattices of index <= max_index, index-ordered.

    Every call on one spec reads the spec's cached prefix of the family and
    grows it by whole indices only as far as the caller consumes, so each
    lattice is enumerated (and, for inv, tested for invariance) once per spec.
    """
    if spec.kind != "nu" and spec.rep.degree != m:
        raise DimensionMismatch("family representation degree does not match m")
    if spec.kind == "com":
        lats = spec._cache.get(max_index)
        if lats is None:
            lats = spec._cache[max_index] = commutant_image_lattices(
                spec.rep, spec.coefficient_box, max_index
            )
        yield from lats
        return
    i = 0
    while True:
        prefix = spec._cache.get(m)
        if prefix is None:
            prefix = spec._cache[m] = _Prefix(enumerate_sublattices(m, sys.maxsize))
        lats = prefix.lattices
        while i < len(lats) and lats[i].index <= max_index:
            yield lats[i]
            i += 1
        if i < len(lats) or prefix.done >= max_index:
            return
        # Grow by exactly the next index, drawing its sublattices from source.
        n = prefix.done + 1
        try:
            batch = [
                lat
                for lat in islice(prefix.source, _sublattice_count(m, n))
                if spec.kind == "nu" or is_invariant_lattice(lat, spec.rep)
            ]
        except BaseException:
            # The source may have lost part of the batch: start this m afresh.
            spec._cache.pop(m, None)
            raise
        lats.extend(batch)
        prefix.done = n


def upper_bound_witness(
    rep: Rep,
    v,
    seed: int = DEFAULT_SEED,
    prime_bound: int = DEFAULT_PRIME_SEARCH_BOUND,
) -> Witness:
    """Invariant lattice of index p^d (d <= k) omitting v, via splitting mod p.

    p is the smallest prime = 1 mod |H| not dividing a chosen nonzero entry
    of v; the lattice is the preimage of the sum of all mod-p constituents
    except one carrying a nonzero component of v (smallest such dimension).
    """
    v = tuple(int(x) for x in v)
    if len(v) != rep.degree:
        raise DimensionMismatch("vector length does not match representation degree")
    if all(x == 0 for x in v):
        raise ZeroVector("the witness construction needs a nonzero vector")
    a = next(x for x in v if x != 0)
    p = next((p for p in _primes_one_mod(rep.order, prime_bound) if a % p), None)
    if p is None:
        raise PrimeSearchFailed(
            f"no prime = 1 mod {rep.order} coprime to {a} below {prime_bound}"
        )
    cons = split_mod_p(rep, p, seed=seed)
    subspaces = cons.subspaces
    full_basis = [vec for _, basis in subspaces for vec in basis]
    a_rows = [[full_basis[t][i] for t in range(rep.degree)] for i in range(rep.degree)]
    (coords,) = _solve(a_rows, [v], p)
    chosen = None
    offset = 0
    for si, (dim, basis) in enumerate(subspaces):
        block = coords[offset : offset + dim]
        offset += dim
        if any(c != 0 for c in block):
            if chosen is None or dim < subspaces[chosen][0]:
                chosen = si
    if chosen is None:
        raise UnsoundWitness(f"v is zero mod the chosen prime {p}")
    dim = subspaces[chosen][0]
    stack = [
        list(vec)
        for si, (_, basis) in enumerate(subspaces)
        if si != chosen
        for vec in basis
    ]
    stack += [[p if i == j else 0 for j in range(rep.degree)] for i in range(rep.degree)]
    lat = hnf(IntMatrix.from_rows(stack))
    if lat.index != p**dim:
        raise UnsoundWitness(f"witness index {lat.index} is not {p}^{dim}")
    if lat.contains(v):
        raise UnsoundWitness("witness lattice contains the vector")
    if not is_invariant_lattice(lat, rep):
        raise UnsoundWitness("witness lattice is not invariant")
    return Witness(lattice=lat, prime=p, dimension=dim, vector=v)
