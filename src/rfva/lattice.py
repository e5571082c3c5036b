"""Finite-index sublattices of Z^m: membership, enumeration, witnesses.

Families:
  nu  -- all finite-index sublattices (every HNF basis is enumerated);
  inv -- all those invariant under a representation, built directly;
  com -- images of integer matrices commuting with the representation,
         enumerated over a bounded coefficient box (NOT complete; the
         universal statements about Com go through the certificate instead).

The inv family is built, not filtered.  Let N be invariant of index p^e.
Then M0 = {x : px in N} is invariant and M0/N is a nonzero F_p[H]-module;
the preimage M of a simple submodule of it is invariant, of index p^(e-d)
with d its dimension, and pM is in N.  So N/pM is a codimension-d submodule
of M/pM, and its annihilator is a simple, hence cyclic, d-dimensional
submodule of the dual action u -> A_g u mod p, with A_g the action of g in
M's basis.  The lattices of index p^e are therefore the preimages of the
annihilators of the cyclic d-dimensional dual submodules, over every
invariant M of index p^(e-d), d = 1..min(e, m), de-duplicated by HNF basis.
For d = 1 these are the lines in the common eigenspaces of the A_g; for
d >= 2, where p^d <= p^e keeps p small, the spins of one vector per line of
F_p^m (the MeatAxe spin: Parker 1984; Holt & Rees, J. Austral. Math. Soc.
1994).  An invariant lattice of composite index n = p^e * r (p prime, not
dividing r) is the intersection of one of index p^e and one of index r, by
the Chinese remainder theorem.  Every built lattice is checked for its index
and its invariance (UnsoundLattice otherwise).

Enumeration order is fixed (index, then lexicographic basis) so divisibility
minima are reproducible.

Each FamilySpec enumerates its family once.  family_by_index serves every
call on one spec, index by index, from a cached prefix of the family: for nu
and inv, one prefix per rank m that grows one whole index at a time, and only
as far as a caller asks; for com, one list per index budget.  The cache lives
as long as the spec does, and enumerate_family is the same family as one
stream of lattices.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import groupby, islice, product
from typing import Iterator

from .errors import (
    DimensionMismatch,
    PrimeSearchFailed,
    SingularMatrix,
    UnknownName,
    UnsoundLattice,
    UnsoundWitness,
    ZeroVector,
)
from .exactalg import (
    IntMatrix,
    IntPoly,
    Lattice,
    _divisors,
    _kernel,
    _least_prime_power,
    _matrix_minpoly,
    _pivot_rows,
    _primes_one_mod,
    _solve,
    _spanned,
    det,
    hnf,
    intersection,
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
        if self.coefficient_box < 0:
            raise ValueError("the coefficient box must be non-negative")


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
    for d in _divisors(n):
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
    """HNF-distinct images Im B of index <= max_index, sorted by (index, basis),
    for B = sum c_i E_i over the commutant basis with every |c_i| <= box.

    Im(-B) = Im(B), so one coefficient vector of each pair +-c is visited: the
    one whose last nonzero entry is positive (the zero vector gives B = 0).
    """
    if box < 0:
        raise ValueError("the coefficient box must be non-negative")
    comm = commutant_basis(rep)
    found = {}
    for coeffs in product(range(-box, box + 1), repeat=len(comm.matrices)):
        if next((c for c in reversed(coeffs) if c), 0) <= 0:
            continue
        b = comm.combination(coeffs)
        d = det(b)
        if d != 0 and abs(d) <= max_index:
            lat = lattice_from_matrix(b)
            found.setdefault(lat.basis, lat)
    return sorted(found.values(), key=lambda lat: (lat.index, lat.basis.entries))


def _sublattice_count(m: int, n: int) -> int:
    """Number of sublattices of Z^m of index n: column j of an HNF basis has
    j entries reduced modulo diag[j]."""
    return sum(
        math.prod(d**j for j, d in enumerate(diag)) for diag in _diagonals(m, n)
    )


@dataclass
class _Prefix:
    """A nu or inv family's lattices of index <= done, by index.

    nu reads each index from source, the stream of all sublattices of Z^m;
    inv builds it from the lattices of smaller index.
    """

    source: Iterator[Lattice] | None = None
    done: int = 0
    by_index: dict = field(default_factory=dict)


def enumerate_family(spec: FamilySpec, m: int, max_index: int):
    """Stream the family's lattices of index <= max_index, index-ordered.

    nu reads every sublattice of Z^m; inv builds only the invariant ones, by
    mod-p submodule steps at prime powers and intersections at other indices
    (see the module docstring), and checks each with is_invariant_lattice.
    The stream reads family_by_index, so every call on one spec shares the
    spec's cached prefix.
    """
    for _, batch in family_by_index(spec, m, max_index):
        yield from batch


def family_by_index(spec: FamilySpec, m: int, max_index: int):
    """(n, the family's lattices of index n, sorted by basis) for each index
    n <= max_index at which the family has any, in increasing n.

    Every call on one spec reads the spec's cached family: for nu and inv a
    prefix that grows by one whole index at a time, and only as far as the
    caller reads, so each lattice is enumerated once per spec; for com the
    one list of the commutant images of index <= max_index.
    """
    if spec.kind != "nu" and spec.rep.degree != m:
        raise DimensionMismatch("family representation degree does not match m")
    if spec.kind == "com":
        lats = spec._cache.get(max_index)
        if lats is None:
            lats = spec._cache[max_index] = commutant_image_lattices(
                spec.rep, spec.coefficient_box, max_index
            )
        for n, batch in groupby(lats, key=lambda lat: lat.index):
            yield n, list(batch)
        return
    for n in range(1, max_index + 1):
        prefix = spec._cache.get(m)
        if prefix is None:
            source = enumerate_sublattices(m, sys.maxsize) if spec.kind == "nu" else None
            prefix = spec._cache[m] = _Prefix(source)
        # An interrupted nu batch drops the prefix, so a new one may lag.
        while prefix.done < n:
            k = prefix.done + 1
            if spec.kind == "inv":
                prefix.by_index[k] = _invariant_batch(spec.rep, prefix, k)
            else:
                try:
                    prefix.by_index[k] = list(islice(prefix.source, _sublattice_count(m, k)))
                except BaseException:
                    # The source may have lost part of the batch: start this m afresh.
                    spec._cache.pop(m, None)
                    raise
            prefix.done = k
        if prefix.by_index[n]:
            yield n, prefix.by_index[n]


def _invariant_batch(rep: Rep, prefix: _Prefix, n: int) -> list[Lattice]:
    """The invariant lattices of index n, sorted by basis, each one checked.

    Those of every smaller index are in prefix.by_index.
    """
    if n == 1:
        batch = [Lattice(basis=IntMatrix.identity(rep.degree), index=1)]
    else:
        p, e = _least_prime_power(n)
        q = p**e
        if q == n:
            batch = _prime_power_batch(rep, prefix, p, e)
        else:
            batch = [
                intersection(a, b)
                for a in prefix.by_index[q]
                for b in prefix.by_index[n // q]
            ]
    batch.sort(key=lambda lat: lat.basis.entries)
    for lat in batch:
        if lat.index != n:
            raise UnsoundLattice(f"built lattice has index {lat.index}, not {n}")
        if not is_invariant_lattice(lat, rep):
            raise UnsoundLattice(f"built lattice of index {n} is not invariant")
    return batch


def _prime_power_batch(rep: Rep, prefix: _Prefix, p: int, e: int) -> list[Lattice]:
    """Invariant lattices of index p^e, unsorted: for each invariant M of
    index p^(e-d), the preimages in M of the codimension-d submodules of M/pM
    whose annihilators are cyclic (see the module docstring)."""
    roots = [_roots_mod(g, p) for g in rep.generators]
    found = {}
    for d in range(1, min(e, rep.degree) + 1):
        for lat in prefix.by_index[p ** (e - d)]:
            basis = lat.basis.entries
            actions = [[_coordinates(lat, g.apply(b)) for b in basis] for g in rep.generators]
            if d == 1:
                duals = _eigenlines(actions, roots, p)
            else:
                duals = _cyclic_submodules(actions, p, d)
            for dual in duals:
                # c B lies in N iff c annihilates the dual submodule mod p
                rows = [_combine(w, basis) for w in _kernel(dual, p)]
                rows += [[p * x for x in b] for b in basis]
                sub = _spanned(rows)
                found.setdefault(sub.basis, sub)
    return list(found.values())


def _roots_mod(g: IntMatrix, p: int) -> list[int]:
    """The eigenvalues of g in F_p: the roots of its minimal polynomial mod p.

    They are also the eigenvalues mod p of g in the basis of any invariant
    lattice, as the characteristic polynomial over Z is the same.
    """
    poly = IntPoly(tuple(_matrix_minpoly([list(r) for r in g.entries], p)))
    return [lam for lam in range(p) if poly(lam) % p == 0]


def _coordinates(lat: Lattice, v) -> list[int]:
    """c with c B = v, for the HNF basis B of a lattice holding v."""
    v = list(v)
    coords = []
    for i, row in enumerate(lat.basis.entries):
        c, rem = divmod(v[i], row[i])
        if rem:
            raise UnsoundLattice("the image of a basis vector left an invariant lattice")
        coords.append(c)
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return coords


def _line_reps(k: int, p: int):
    """One nonzero vector of F_p^k per line: its first nonzero entry is 1."""
    for lead in range(k):
        for tail in product(range(p), repeat=k - lead - 1):
            yield (0,) * lead + (1,) + tail


def _apply_mod(a, u, p):
    return [sum(x * y for x, y in zip(row, u)) % p for row in a]


def _combine(coeffs, vectors):
    """sum c_i v_i over the integers."""
    return [sum(c * v[j] for c, v in zip(coeffs, vectors)) for j in range(len(vectors[0]))]


def _eigenlines(actions, roots, p):
    """The 1-dimensional submodules of u -> A u mod p, A in actions.

    A line is one iff it lies in a common eigenspace: intersect the
    eigenspaces of each A in turn, then take every line of what is left.
    """
    m = len(actions[0])
    spaces = [[[int(i == j) for i in range(m)] for j in range(m)]]
    for a, lams in zip(actions, roots):
        narrowed = []
        for space in spaces:
            for lam in lams:
                # the x with (A - lam) sum x_j s_j = 0, s_j the vectors of space
                shifted = [[y - lam * x for x, y in zip(s, _apply_mod(a, s, p))] for s in space]
                kern = _kernel([list(row) for row in zip(*shifted)], p)
                if kern:
                    narrowed.append([_combine(x, space) for x in kern])
        spaces = narrowed
    for space in spaces:
        for c in _line_reps(len(space), p):
            yield [_combine(c, space)]


def _spin(u, actions, p, d):
    """The smallest submodule holding u, as RREF rows, or None if its
    dimension exceeds d."""
    rows, rank = [u], 1
    while rank <= d:
        images = [_apply_mod(a, v, p) for a in actions for v in rows]
        grown, pivots = _pivot_rows(rows + images, p)
        if len(pivots) == rank:
            return tuple(tuple(r) for r in grown)
        rows, rank = grown, len(pivots)
    return None


def _cyclic_submodules(actions, p, d):
    """The d-dimensional submodules of u -> A u mod p (A in actions) that
    one vector spins up: every simple one among them.

    One vector per line of F_p^m is tried; p^d is at most the index, so
    for d >= 2 the lines are few.
    """
    found = {_spin(u, actions, p, d) for u in _line_reps(len(actions[0]), p)}
    return [sub for sub in found if sub is not None and len(sub) == d]


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
