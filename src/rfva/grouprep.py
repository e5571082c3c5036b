"""Finite matrix groups given by integer generator matrices.

A Rep materializes the multiplicative closure of its generators by a
deterministic breadth-first search, so element and conjugacy-class ordering
are reproducible across runs (character tables reference classes through
generator words resolved against this ordering).

Each Rep builds its group tables once, on first use, and keeps them in a
private cache that is not part of its value: the element index, the inverse
of every element and the conjugacy classes. Building them costs
O(|H|*#gens) matrix products and table lookups:

* the right-multiplication table holds the index of e*g for every element e
  and generator g;
* inverses follow the breadth-first tree from the identity: e = e'g gives
  e^-1 = g^-1 e'^-1, so only the generators are inverted (by adjugate, in
  Rep.inverse);
* each class is the orbit of an element under y -> g^-1 y g for the
  generators g alone, found by lookups in the two tables above.

Soundness checks raise typed errors, so they also run under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotAClassFunction, NotAPartition, NotFinite, NotInvertible
from .exactalg import IntMatrix, adjugate, det

DEFAULT_ELEMENT_BOUND = 20_000


@dataclass(frozen=True)
class Rep:
    """An integral representation: generator images plus their finite closure."""

    degree: int
    generators: tuple[IntMatrix, ...]
    elements: tuple[IntMatrix, ...]
    # Hash and group tables, filled on first use; see _tables.
    _cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    def __hash__(self) -> int:
        h = self._cache.get("hash")
        if h is None:
            h = self._cache["hash"] = hash((self.degree, self.generators, self.elements))
        return h

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_index(self, m: IntMatrix) -> int:
        return _tables(self).index[m]

    def inverse(self, m: IntMatrix) -> IntMatrix:
        """Inverse of a matrix of determinant +-1, by adjugate. _build_tables
        calls it on the generators only and reaches every other element's
        inverse by index."""
        d = det(m)
        return adjugate(m) if d == 1 else -adjugate(m)

    def resolve_word(self, word) -> IntMatrix:
        """Product of generator images for a word of generator indices."""
        acc = IntMatrix.identity(self.degree)
        for g in word:
            acc = acc * self.generators[g]
        return acc


@dataclass(frozen=True)
class ConjClasses:
    """Partition of the element list into conjugacy classes, BFS-ordered."""

    representatives: tuple[int, ...]  # element indices
    members: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.members)

    def __len__(self) -> int:
        return len(self.representatives)


@dataclass(frozen=True)
class ClassFunction:
    """One integer value per conjugacy class, in ConjClasses order."""

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RepReport:
    degree: int
    order: int
    class_count: int
    abelian: bool


def close_group(generators, element_bound: int = DEFAULT_ELEMENT_BOUND) -> Rep:
    """BFS closure of the generator images under multiplication.

    Raises NotInvertible unless every generator has determinant +-1, and
    NotFinite when the closure exceeds element_bound.
    """
    gens = tuple(
        g if isinstance(g, IntMatrix) else IntMatrix.from_rows(g) for g in generators
    )
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].rows
    for g in gens:
        if not g.is_square() or g.rows != degree:
            raise NotInvertible("generators must be square of equal degree")
        if det(g) not in (1, -1):
            raise NotInvertible("generator determinant must be +1 or -1")
    identity = IntMatrix.identity(degree)
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for e in frontier:
            for g in gens:
                prod = e * g
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
                    next_frontier.append(prod)
                    if len(elements) > element_bound:
                        raise NotFinite(
                            f"closure exceeded element bound {element_bound}"
                        )
        frontier = next_frontier
    return Rep(degree=degree, generators=gens, elements=tuple(elements))


@dataclass(frozen=True)
class _Tables:
    index: dict[IntMatrix, int]
    inverse: tuple[int, ...]
    classes: ConjClasses


def _tables(rep: Rep) -> _Tables:
    tables = rep._cache.get("tables")
    if tables is None:
        tables = rep._cache["tables"] = _build_tables(rep)
    return tables


def _build_tables(rep: Rep) -> _Tables:
    elements = rep.elements
    index = {m: i for i, m in enumerate(elements)}
    # right[i][g] is the index of elements[i] * generators[g]
    right = [[index[e * g] for g in rep.generators] for e in elements]
    gen_inverses = [rep.inverse(g) for g in rep.generators]
    start = index[IntMatrix.identity(rep.degree)]
    inverse = [None] * len(elements)
    inverse[start] = start
    queue = [start]
    for i in queue:
        for g_inv, j in zip(gen_inverses, right[i]):
            if inverse[j] is None:
                inverse[j] = index[g_inv * elements[inverse[i]]]
                queue.append(j)
    inverse = tuple(inverse)
    classes = _class_orbits(right, inverse)
    _check_partition(classes, len(elements))
    return _Tables(index=index, inverse=inverse, classes=classes)


def _class_orbits(right, inverse) -> ConjClasses:
    """Orbits of y -> g^-1 y g over the generators g, by index lookup.

    With z = y g, g^-1 y g is the inverse of z^-1 g. Classes are ordered by
    their first member in element order and their members sorted.
    """
    assigned = [False] * len(right)
    reps = []
    members = []
    for i in range(len(right)):
        if assigned[i]:
            continue
        assigned[i] = True
        orbit = [i]
        for y in orbit:
            for g, z in enumerate(right[y]):
                c = inverse[right[inverse[z]][g]]
                if not assigned[c]:
                    assigned[c] = True
                    orbit.append(c)
        reps.append(i)
        members.append(tuple(sorted(orbit)))
    return ConjClasses(representatives=tuple(reps), members=tuple(members))


def _check_partition(classes: ConjClasses, order: int) -> None:
    covered = sorted(i for m in classes.members for i in m)
    if covered != list(range(order)):
        raise NotAPartition("conjugacy classes do not partition the group")
    bad = [len(m) for m in classes.members if order % len(m)]
    if bad:
        raise NotAPartition(f"class sizes {bad} do not divide |H| = {order}")


def conjugacy_classes(rep: Rep) -> ConjClasses:
    """Classes ordered by their first-discovered member in BFS element order."""
    return _tables(rep).classes


def character_of_rep(rep: Rep, classes: ConjClasses | None = None) -> ClassFunction:
    """Trace per conjugacy class; NotAClassFunction unless constant on each class."""
    if classes is None:
        classes = conjugacy_classes(rep)
    values = []
    for member_ids in classes.members:
        traces = {rep.elements[i].trace() for i in member_ids}
        if len(traces) != 1:
            raise NotAClassFunction(
                f"trace takes values {sorted(traces)} on one conjugacy class"
            )
        values.append(traces.pop())
    return ClassFunction(values=tuple(values))


def validate_rep(rep: Rep) -> RepReport:
    classes = conjugacy_classes(rep)
    return RepReport(
        degree=rep.degree,
        order=rep.order,
        class_count=len(classes),
        abelian=is_abelian_image(rep),
    )


def is_abelian_image(rep: Rep) -> bool:
    """True iff the image group is abelian (generator pairs suffice)."""
    gens = rep.generators
    return all(
        gens[i] * gens[j] == gens[j] * gens[i]
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    )
