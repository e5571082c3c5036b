"""Named representations, companion matrices, and character tables.

The catalog covers the worked examples (the D4 crystallographic action, the
quaternion action on Z^4, the invariant-but-not-commutant sublattice) plus
parameterized families: perm_sym(n), std_sym(n), rot(4), trivial(m), and
block-diagonal products of entries.
"""

from __future__ import annotations

import re

from .errors import NotInvariant, UnknownName
from .exactalg import IntMatrix
from .grouprep import DEFAULT_ELEMENT_BOUND, Rep, close_group
from .repdecomp import CharacterTable

D4_GENERATORS = (
    ((-1, 1, -1), (-2, 0, -1), (2, -1, 2)),
    ((-3, 0, -2), (0, 1, 0), (4, 0, 3)),
)

QUATERNION_GENERATORS = (
    ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),  # phi(i)
    ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0)),  # phi(j)
    ((0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0), (-1, 0, 0, 0)),  # phi(k)
)

QUATERNION_COMMUTANT_B = (
    (1, -1, -2, 0),
    (1, 1, 0, 2),
    (2, 0, 1, -1),
    (0, -2, 1, 1),
)

INVARIANT_DET2 = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (1, 1, 1, 2),
)


def _perm_matrix(perm):
    """Permutation matrix sending e_j to e_{perm[j]} (columns permuted)."""
    n = len(perm)
    return IntMatrix.from_rows(
        [[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)]
    )


def _sym_generators(n):
    """Transposition (0 1) and the n-cycle, as permutation matrices."""
    t = list(range(n))
    t[0], t[1] = t[1], t[0]
    c = [(i + 1) % n for i in range(n)]
    return _perm_matrix(t), _perm_matrix(c)


def _std_sym_generators(n):
    """The (n-1)-dimensional complement in the basis v_i = e_i - e_{i+1}."""
    out = []
    for g in _sym_generators(n):
        rows = [[0] * (n - 1) for _ in range(n - 1)]
        for t in range(n - 1):
            img = [g[i, t] - g[i, t + 1] for i in range(n)]  # g(e_t - e_{t+1})
            # coordinates in v-basis: coeff of v_s is sum of img[0..s]
            acc = 0
            for s in range(n - 1):
                acc += img[s]
                rows[s][t] = acc
            if acc + img[n - 1] != 0:
                raise NotInvariant("the sum-zero sublattice is not invariant")
        out.append(IntMatrix.from_rows(rows))
    return tuple(out)


_CALL = re.compile(r"^([a-z_]+)\((.*)\)$")


def _split_top_level(args: str):
    parts = []
    depth = 0
    cur = []
    for ch in args:
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


def _int_argument(head, args, name, least):
    """The single integer argument of a parameterized family, checked >= least."""
    if len(args) == 1 and re.fullmatch(r"\d+", args[0]) and int(args[0]) >= least:
        return int(args[0])
    got = ",".join(args)
    raise UnknownName(f"{head}({name}) needs an integer {name} >= {least}, got {got!r}")


def catalog_rep(name: str, element_bound: int = DEFAULT_ELEMENT_BOUND) -> Rep:
    """Resolve a catalog name to a Rep; raises UnknownName otherwise."""
    return close_group(_generators(name), element_bound)


def _generators(name: str) -> tuple[IntMatrix, ...]:
    """The generator matrices of a catalog name; a product's are read from
    its entries' generators, so only the product is closed."""
    name = name.strip()
    if name == "d4_paper":
        return tuple(map(IntMatrix.from_rows, D4_GENERATORS))
    if name == "quaternion_paper":
        return tuple(map(IntMatrix.from_rows, QUATERNION_GENERATORS))
    m = _CALL.match(name)
    if not m:
        raise UnknownName(f"unknown catalog representation {name!r}")
    head, args = m.group(1), _split_top_level(m.group(2))
    if head == "rot":
        if args != ["4"]:
            raise UnknownName("only rot(4) is provided")
        return (IntMatrix.from_rows([[0, -1], [1, 0]]),)
    if head == "trivial":
        ident = IntMatrix.identity(_int_argument(head, args, "m", 1))
        return (ident, ident)
    if head in ("perm_sym", "std_sym"):
        n = _int_argument(head, args, "n", 2)
        return _sym_generators(n) if head == "perm_sym" else _std_sym_generators(n)
    if head == "product":
        if len(args) != 2:
            raise UnknownName("product takes exactly two entries")
        left, right = _generators(args[0]), _generators(args[1])
        gens = [_block_diag(g, IntMatrix.identity(right[0].rows)) for g in left]
        gens += [_block_diag(IntMatrix.identity(left[0].rows), g) for g in right]
        return tuple(gens)
    raise UnknownName(f"unknown catalog representation {name!r}")


def _block_diag(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n, k = a.rows, b.rows
    rows = []
    for i in range(n):
        rows.append(list(a.row(i)) + [0] * k)
    for i in range(k):
        rows.append([0] * n + list(b.row(i)))
    return IntMatrix.from_rows(rows)


# Catalog representation -> names of catalog matrices commuting with it, the
# worked commutant-certificate examples that ship with the representation.
COMMUTANT_EXAMPLES = {"quaternion_paper": ("quaternion_commutant",)}


def catalog_matrix(name: str) -> IntMatrix:
    """Companion matrices of the worked examples."""
    if name == "quaternion_commutant":
        return IntMatrix.from_rows(QUATERNION_COMMUTANT_B)
    if name == "invariant_det2_lattice":
        return IntMatrix.from_rows(INVARIANT_DET2)
    raise UnknownName(f"unknown catalog matrix {name!r}")


_D4_TABLE = CharacterTable(
    class_words=((), (0,), (0, 0), (0, 1), (1,)),
    class_sizes=(1, 2, 1, 2, 2),
    rows=(
        (1, 1, 1, 1, 1),
        (1, 1, 1, -1, -1),
        (1, -1, 1, 1, -1),
        (1, -1, 1, -1, 1),
        (2, 0, -2, 0, 0),
    ),
)

_Q8_TABLE = CharacterTable(
    class_words=((), (0, 0), (0,), (1,), (0, 1)),
    class_sizes=(1, 1, 2, 2, 2),
    rows=(
        (1, 1, 1, 1, 1),
        (1, 1, 1, -1, -1),
        (1, 1, -1, 1, -1),
        (1, 1, -1, -1, 1),
        (2, -2, 0, 0, 0),
    ),
)

_S3_TABLE = CharacterTable(
    class_words=((), (0,), (1,)),
    class_sizes=(1, 3, 2),
    rows=(
        (1, 1, 1),
        (1, -1, 1),
        (2, 0, -1),
    ),
)

_S4_TABLE = CharacterTable(
    class_words=((), (0,), (1, 1), (1,), (0, 1)),
    class_sizes=(1, 6, 3, 6, 8),
    rows=(
        (1, 1, 1, 1, 1),
        (1, -1, 1, -1, 1),
        (2, 0, 2, 0, -1),
        (3, 1, -1, -1, 0),
        (3, -1, -1, 1, 0),
    ),
)


def catalog_character_table(name: str) -> CharacterTable:
    name = name.strip()
    if name == "d4_paper":
        return _D4_TABLE
    if name == "quaternion_paper":
        return _Q8_TABLE
    if name in ("perm_sym(3)", "std_sym(3)"):
        return _S3_TABLE
    if name in ("perm_sym(4)", "std_sym(4)"):
        return _S4_TABLE
    m = _CALL.match(name)
    if m and m.group(1) == "trivial":
        return CharacterTable(class_words=((),), class_sizes=(1,), rows=((1,),))
    raise UnknownName(f"no catalog character table for {name!r}")


CATALOG_NAMES = (
    "d4_paper",
    "quaternion_paper",
    "rot(4)",
    "trivial(m)",
    "perm_sym(n)",
    "std_sym(n)",
    "product(a,b)",
)
