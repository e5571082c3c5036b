"""Finite-index sublattices of Z^m: membership, enumeration, witnesses.

Families:
  nu  -- the sublattices of prime-power index (and Z^m itself), every HNF
         basis of such an index enumerated;
  inv -- those of them invariant under a representation, built directly;
  com -- images of integer matrices commuting with the representation,
         enumerated over the coefficient box COEFFICIENT_BOX (NOT complete;
         the universal statements about Com go through the certificate
         instead).

nu and inv keep only the indices 1 and p^e.  A lattice N of index p^e * r, p
prime, p not dividing r > 1, equals (N + p^e Z^m) meet (N + r Z^m), by the
Chinese remainder theorem; both parts have smaller index, and both are
invariant when N is.  So a vector outside N is outside one of them: N is
never the least index of a family lattice omitting a vector, and it never
changes the intersection of the family's lattices of smaller index.
Divisibility and RF are the same over the kept lattices as over all of them.

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
1994).  Every built lattice is checked for its index and its invariance
(UnsoundLattice otherwise).

No mod-p work is repeated.  The eigenvalues mod p are the roots of the
generators' integer characteristic polynomials, computed once per family
and reduced once per prime; each lattice's action matrices are computed
once and read by the steps at the next m powers of p; and a spin multiplies
only the vectors that join its echelon basis, and a line inside a submodule
already found is not spun.

Enumeration order is fixed (index, then lexicographic basis) so divisibility
minima are reproducible.

Each FamilySpec enumerates its family once.  family_by_index serves every
call on one spec, index by index, from a cached prefix of the family: for nu
and inv, one prefix per spec that grows one whole index at a time, and only
as far as a caller asks; for com, one list per index budget.  The cache lives
as long as the spec does, and enumerate_family is the same family as one
stream of lattices.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import groupby, islice, product
from operator import mul
from typing import Iterator

from .errors import (
    DimensionMismatch,
    PrimeSearchFailed,
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
    _least_prime_power,
    _primes_one_mod,
    _spanned,
    charpoly,
    det,
    hnf,
    kernel_fp,
)
from .grouprep import Rep
from .repdecomp import DEFAULT_PRIME_BOUND, DEFAULT_SEED, commutant_basis, split_mod_p

FAMILY_KINDS = ("nu", "inv", "com")
COEFFICIENT_BOX = 2


@dataclass(frozen=True)
class FamilySpec:
    """Which family of sublattices of Z^m, m = rep.degree, D is minimized
    over: for nu and inv, its lattices of index 1 or a prime power (see the
    module docstring)."""

    kind: str  # "nu" | "inv" | "com"
    rep: Rep
    # Enumerated lattices, filled on first use: "prefix" -> _Prefix for nu
    # and inv, index budget -> list for com; see enumerate_family.
    _cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise UnknownName(f"unknown family kind {self.kind!r}")


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
    """Im B = B(Z^m), the Z-span of the columns, as a canonical HNF lattice;
    hnf raises SingularMatrix for a singular B."""
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


def commutant_image_lattices(rep: Rep, max_index: int):
    """HNF-distinct images Im B of index <= max_index, sorted by (index, basis),
    for B = sum c_i E_i over the commutant basis with every |c_i| <=
    COEFFICIENT_BOX.

    Im(-B) = Im(B), so one coefficient vector of each pair +-c is visited: the
    one whose last nonzero entry is positive (the zero vector gives B = 0).
    """
    box = COEFFICIENT_BOX
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
    """A nu or inv family's lattices of index <= done, by index; the list
    at an index that is neither 1 nor a prime power is empty.

    nu reads each index from source, the stream of all sublattices of Z^m;
    inv builds it from the lattices of smaller index.  inv also keeps what
    its mod-p steps would otherwise redo at every index: the generators'
    integer characteristic polynomials (charpolys), their roots mod each
    prime met so far (roots, by prime), and the action matrices of each
    lattice a prime-power step has read (actions, by basis), which the
    steps at the next m powers of that prime read again.
    """

    source: Iterator[Lattice] | None = None
    done: int = 0
    by_index: dict = field(default_factory=dict)
    charpolys: list[IntPoly] = field(default_factory=list)
    roots: dict = field(default_factory=dict)
    actions: dict = field(default_factory=dict)


def enumerate_family(spec: FamilySpec, max_index: int):
    """Stream the family's lattices of index <= max_index, index-ordered.

    nu reads every sublattice of Z^m and keeps those of index 1 or a prime
    power; inv builds only the invariant ones of those indices, by mod-p
    submodule steps (see the module docstring), and checks each with
    is_invariant_lattice.  The stream reads family_by_index, so every call
    on one spec shares the spec's cached prefix.
    """
    for _, batch in family_by_index(spec, max_index):
        yield from batch


def family_by_index(spec: FamilySpec, max_index: int):
    """(n, the family's lattices of index n, sorted by basis) for each index
    n <= max_index at which the family has any, in increasing n; for nu and
    inv, n is 1 or a prime power (see the module docstring).

    Every call on one spec reads the spec's cached family: for nu and inv a
    prefix that grows by one whole index at a time, and only as far as the
    caller reads, so each lattice is enumerated once per spec; for com the
    one list of the commutant images of index <= max_index.
    """
    if spec.kind == "com":
        lats = spec._cache.get(max_index)
        if lats is None:
            lats = spec._cache[max_index] = commutant_image_lattices(spec.rep, max_index)
        for n, batch in groupby(lats, key=lambda lat: lat.index):
            yield n, list(batch)
        return
    m = spec.rep.degree
    for n in range(1, max_index + 1):
        prefix = spec._cache.get("prefix")
        if prefix is None:
            if spec.kind == "nu":
                prefix = _Prefix(source=enumerate_sublattices(m, sys.maxsize))
            else:
                prefix = _Prefix(charpolys=[charpoly(g) for g in spec.rep.generators])
            spec._cache["prefix"] = prefix
        # An interrupted nu batch drops the prefix, so a new one may lag.
        while prefix.done < n:
            k = prefix.done + 1
            if spec.kind == "nu":
                try:
                    # every batch is read, kept or not, to keep the stream aligned
                    batch = list(islice(prefix.source, _sublattice_count(m, k)))
                except BaseException:
                    # The source may have lost part of the batch: start afresh.
                    spec._cache.pop("prefix", None)
                    raise
            p, e = _least_prime_power(k) if k > 1 else (1, 0)
            if p**e != k:
                batch = []
            elif spec.kind == "inv":
                batch = _invariant_batch(spec.rep, prefix, p, e)
            prefix.by_index[k] = batch
            prefix.done = k
        if prefix.by_index[n]:
            yield n, prefix.by_index[n]


def _invariant_batch(rep: Rep, prefix: _Prefix, p: int, e: int) -> list[Lattice]:
    """The invariant lattices of index n = p^e (p = 1 for n = 1), sorted by
    basis, each one checked.

    Those of every smaller index are in prefix.by_index.
    """
    n = p**e
    if n == 1:
        batch = [Lattice(basis=IntMatrix.identity(rep.degree), index=1)]
    else:
        batch = _prime_power_batch(rep, prefix, p, e)
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
    roots = prefix.roots.get(p)
    if roots is None:
        roots = prefix.roots[p] = _roots_mod(prefix.charpolys, p)
    found = {}
    for d in range(1, min(e, rep.degree) + 1):
        for lat in prefix.by_index[p ** (e - d)]:
            basis = lat.basis.entries
            actions = prefix.actions.get(lat.basis)
            if actions is None:
                actions = prefix.actions[lat.basis] = _action(lat, rep)
            if d == 1:
                duals = _eigenlines(actions, roots, p)
            else:
                duals = _cyclic_submodules(actions, p, d)
            for dual in duals:
                # c B lies in N iff c annihilates the dual submodule mod p
                rows = [_combine(w, basis) for w in kernel_fp(dual, p)]
                rows += [[p * x for x in b] for b in basis]
                sub = _spanned(rows)
                found.setdefault(sub.basis, sub)
    return list(found.values())


def _roots_mod(polys: list[IntPoly], p: int) -> list[list[int]]:
    """The roots in F_p of each integer polynomial, reduced mod p.

    For the generators' characteristic polynomials these are their
    eigenvalues in F_p, and also the eigenvalues mod p of their actions in
    the basis of any invariant lattice, whose characteristic polynomials
    over Z are the same.
    """
    roots = []
    for f in polys:
        coeffs = [c % p for c in f.coeffs]
        roots.append(
            [lam for lam in range(p) if sum(c * lam**i for i, c in enumerate(coeffs)) % p == 0]
        )
    return roots


def _action(lat: Lattice, rep: Rep) -> list[list[list[int]]]:
    """For each generator g, the matrix whose row i holds the coordinates
    of g b_i in the HNF basis b of an invariant lattice."""
    basis = lat.basis.entries
    return [[_coordinates(lat, g.apply(b)) for b in basis] for g in rep.generators]


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
    return [sum(map(mul, row, u)) % p for row in a]


def _combine(coeffs, vectors):
    """sum c_i v_i over the integers."""
    return [sum(map(mul, coeffs, col)) for col in zip(*vectors)]


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
                kern = kernel_fp([list(row) for row in zip(*shifted)], p)
                if kern:
                    narrowed.append([_combine(x, space) for x in kern])
        spaces = narrowed
    for space in spaces:
        for c in _line_reps(len(space), p):
            yield [_combine(c, space)]


def _spin(u, actions, p, d):
    """The smallest submodule holding u, as RREF rows, or None if its
    dimension exceeds d.

    The RREF rows grow one vector at a time: a vector is reduced against
    them, and if anything is left it is scaled to pivot 1, cleared from the
    other rows' entries in its pivot column, and joins them.  Only the
    vectors that join are multiplied by the A in actions, once each, and
    their images wait in a queue; the span is a submodule when the queue is
    empty, and the spin stops as soon as a (d+1)-th vector would join.
    """
    rows = {}  # pivot column -> the RREF row with pivot 1 there
    queue = [list(u)]
    while queue:
        v = queue.pop()
        for c, row in rows.items():
            if v[c]:
                f = v[c]
                v = [(x - f * y) % p for x, y in zip(v, row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            continue
        if len(rows) == d:
            return None
        inv = pow(v[lead], -1, p)
        v = [x * inv % p for x in v]
        for c, row in rows.items():
            if row[lead]:
                f = row[lead]
                rows[c] = [(x - f * y) % p for x, y in zip(row, v)]
        rows[lead] = v
        queue += [_apply_mod(a, v, p) for a in actions]
    return tuple(tuple(rows[c]) for c in sorted(rows))


def _in_span(u, rows, p):
    """Whether u lies in the F_p-span of RREF rows."""
    rest = list(u)
    for row in rows:
        f = rest[row.index(1)]  # the entry at the row's pivot, its first nonzero
        if f:
            rest = [(x - f * y) % p for x, y in zip(rest, row)]
    return not any(rest)


def _cyclic_submodules(actions, p, d):
    """The d-dimensional submodules of u -> A u mod p (A in actions) that
    one vector spins up: every simple one among them.

    One vector per line of F_p^m is spun, except a vector inside a
    submodule already found: its spin lies in that one, so it is the same
    submodule or one of dimension < d, which is dropped anyway.  p^d is at
    most the index, so for d >= 2 the lines are few.
    """
    found = []
    for u in _line_reps(len(actions[0]), p):
        if any(_in_span(u, sub, p) for sub in found):
            continue
        sub = _spin(u, actions, p, d)
        if sub is not None:
            found.append(sub)
    return [sub for sub in found if len(sub) == d]


def upper_bound_witness(
    rep: Rep,
    v,
    seed: int = DEFAULT_SEED,
    prime_bound: int = DEFAULT_PRIME_BOUND,
) -> Witness:
    """Invariant lattice of index p^d (d <= k) omitting v, via splitting mod p.

    p is the smallest prime = 1 mod |H| not dividing a chosen nonzero entry
    of v.  The lattice is the preimage of the sum of all mod-p constituents
    but one, plus p Z^m.  It omits v exactly when v has a nonzero component
    in the constituent left out, so omission decides which one: the first
    of least dimension whose preimage omits v.
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
    subspaces = split_mod_p(rep, p, seed=seed).subspaces
    scalars = [[p if i == j else 0 for j in range(rep.degree)] for i in range(rep.degree)]
    for chosen in sorted(range(len(subspaces)), key=lambda si: subspaces[si][0]):
        stack = [
            list(vec)
            for si, (_, basis) in enumerate(subspaces)
            if si != chosen
            for vec in basis
        ]
        lat = hnf(IntMatrix.from_rows(stack + scalars))
        if not lat.contains(v):
            break
    else:
        raise UnsoundWitness(f"no constituent's preimage mod {p} omits v")
    dim = subspaces[chosen][0]
    if lat.index != p**dim:
        raise UnsoundWitness(f"witness index {lat.index} is not {p}^{dim}")
    if not is_invariant_lattice(lat, rep):
        raise UnsoundWitness("witness lattice is not invariant")
    return Witness(lattice=lat, prime=p, dimension=dim, vector=v)
