"""Finite matrix groups given by integer generator matrices.

A Rep materializes the multiplicative closure of its generators by a
deterministic breadth-first search, so element and conjugacy-class ordering
are reproducible across runs (character tables reference classes through
generator words resolved against this ordering).

The search forms e*g for every element e and generator g.  Row i of e*g is
(row i of e)*g, and row i of e is the image of the i-th unit row under e, so
the rows of all elements are the orbits of the m unit rows: at most m*|H|
rows, and usually far fewer (at most 2m for a signed permutation group).  So
each generator keeps a table from a row to that row times g, and multiplies
each distinct row once, by dot products; e*g then costs m table lookups, and
the product is looked up by its entries.

close_group keeps what it learns: the index of every element and the
right-multiplication table, which holds the index of e*g for every e and g.
The other group tables are built once, on first use, in a private cache that
is not part of the Rep's value: the inverse of every element and the
conjugacy classes.  They cost O(|H|*#gens^2) table lookups and #gens
adjugates, and no matrix products:

* left multiplication by an element h follows the breadth-first tree from the
  identity: e = e'g gives he = (he')g, a lookup in the right table;
* inverses follow the same tree: e = e'g gives e^-1 = g^-1 e'^-1, left
  multiplication by g^-1, so only the generators are inverted (by adjugate, in
  Rep.inverse);
* each class is the orbit of an element under y -> g^-1 y g for the
  generators g alone, found by lookups in the right and inverse tables.

Soundness checks raise typed errors, so they also run under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .errors import NotAClassFunction, NotAPartition, NotFinite, NotInvertible
from .exactalg import IntMatrix, adjugate, det

DEFAULT_ELEMENT_BOUND = 20_000


@dataclass(frozen=True)
class Rep:
    """An integral representation: generator images plus their finite closure."""

    degree: int
    generators: tuple[IntMatrix, ...]
    elements: tuple[IntMatrix, ...]
    # From close_group: index[e] is the position of e in elements, and
    # right[i][g] the index of elements[i] * generators[g].
    index: dict[IntMatrix, int] = field(repr=False, compare=False)
    right: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    # Hash, inverse table and classes, filled on first use; see _tables.
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
        return self.index[m]

    def inverse(self, m: IntMatrix) -> IntMatrix:
        """Inverse of a matrix of determinant +-1, by adjugate; NotInvertible
        for any other determinant. _build_tables calls it on the generators
        only and reaches every other element's inverse by index."""
        d = det(m)
        if d not in (1, -1):
            raise NotInvertible(f"determinant {d} is not +1 or -1")
        return adjugate(m) if d == 1 else -adjugate(m)

    def resolve_word(self, word) -> IntMatrix:
        """Product of generator images for a word of generator indices, read
        from the right-multiplication table."""
        i = 0  # the identity
        for g in word:
            i = self.right[i][g]
        return self.elements[i]


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


class _RightProduct(dict):
    """row -> row * g for one generator g; each distinct row is multiplied
    once, by dot products with the columns of g, and then looked up."""

    def __init__(self, g: IntMatrix):
        super().__init__()
        self.g_cols = tuple(zip(*g.entries))

    def __missing__(self, row):
        out = self[row] = tuple([sum(map(mul, row, col)) for col in self.g_cols])
        return out


def close_group(generators, element_bound: int = DEFAULT_ELEMENT_BOUND) -> Rep:
    """BFS closure of the generator images under multiplication, e * g read
    row by row from one _RightProduct per generator (see the module notes).

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
    times = [_RightProduct(g).__getitem__ for g in gens]
    identity = IntMatrix.identity(degree)
    elements = [identity]
    index = {identity: 0}
    # the same positions, keyed by the entries
    position = {identity.entries: 0}
    right = []
    # elements grows while it is read, so it is read in breadth-first order
    for e in elements:
        row = []
        for times_g in times:
            prod = tuple(map(times_g, e.entries))
            j = position.get(prod)
            if j is None:
                j = position[prod] = len(elements)
                new = IntMatrix(prod)
                index[new] = j
                elements.append(new)
                if len(elements) > element_bound:
                    raise NotFinite(f"closure exceeded element bound {element_bound}")
            row.append(j)
        right.append(tuple(row))
    return Rep(
        degree=degree,
        generators=gens,
        elements=tuple(elements),
        index=index,
        right=tuple(right),
    )


@dataclass(frozen=True)
class _Tables:
    inverse: tuple[int, ...]
    classes: ConjClasses


def _tables(rep: Rep) -> _Tables:
    tables = rep._cache.get("tables")
    if tables is None:
        tables = rep._cache["tables"] = _build_tables(rep)
    return tables


def _left_multiplication(right, start) -> list[int]:
    """The index of h * e for every element e, h the element at index start.

    elements[0] is the identity, and every later element is first reached as
    right[i][g] from an earlier i, where h * e * g = (h * e) * g.
    """
    out = [None] * len(right)
    out[0] = start
    for i, row in enumerate(right):
        for heg, j in zip(right[out[i]], row):
            if out[j] is None:
                out[j] = heg
    return out


def _build_tables(rep: Rep) -> _Tables:
    right = rep.right
    # left[g][i] is the index of generators[g]^-1 * elements[i]
    left = [_left_multiplication(right, rep.index[rep.inverse(g)]) for g in rep.generators]
    inverse = [None] * len(right)
    inverse[0] = 0
    for i, row in enumerate(right):
        for g_inv, j in zip(left, row):
            if inverse[j] is None:
                inverse[j] = g_inv[inverse[i]]
    inverse = tuple(inverse)
    classes = _class_orbits(right, inverse)
    _check_partition(classes, len(right))
    return _Tables(inverse=inverse, classes=classes)


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


def character_of_rep(rep: Rep) -> ClassFunction:
    """Trace per conjugacy class; NotAClassFunction unless constant on each class."""
    values = []
    for member_ids in conjugacy_classes(rep).members:
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
    """True iff the image group is abelian (generator pairs suffice).

    right[0][i] is the index of generator i, so right[right[0][i]][j] is the
    index of the product of generators i and j.
    """
    right = rep.right
    n = len(rep.generators)
    return all(
        right[right[0][i]][j] == right[right[0][j]][i]
        for i in range(n)
        for j in range(i + 1, n)
    )
