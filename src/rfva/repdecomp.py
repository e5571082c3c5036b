"""Decomposition of integral representations and the growth exponent k.

Three mutually cross-checking routes to the exponent live here:

* splitting the reduction mod p for primes p = 1 (mod |H|), where the prime
  field is a splitting field, giving k as the maximal constituent dimension;
* the character-table route (inner products against supplied irreducible
  characters);
* the commutant-matrix certificate for Q-irreducible representations, which
  checks det B = x^k together with x*Z^m inside Im B for commuting B.

Rational splitting is randomized (seeded); Q-irreducibility is certified by
a deterministic sweep over small commutant combinations followed by a run of
consecutive random draws whose minimal polynomials are all irreducible.  The
failure mode is a clean InconclusiveSplit, never a silently wrong split.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice
from operator import mul

from .errors import (
    BadPrime,
    CertificateFailed,
    InconclusiveSplit,
    InconsistentSplit,
    InexactDivision,
    LengthMismatch,
    NotAPower,
    NotCommuting,
    NotInvariant,
    NotIrreducible,
    NotOrthonormal,
    PrimeSearchFailed,
    SingularMatrix,
    UnresolvedClassWord,
    UnsoundCommutant,
    UnsoundSplit,
)
from .exactalg import (
    IntMatrix,
    IntPoly,
    _identity,
    _isprime,
    _mat_mul,
    _mat_scale,
    _matrix_minpoly,
    _pivot_rows,
    _poly_eval_matrix,
    _primes_one_mod,
    _quotient,
    _scaled_inverse,
    _scaled_kernel,
    adjugate,
    charpoly_and_adjugate,
    det,
    factor_over_integers,
    factor_over_prime_field,
    hnf,
    kernel_q,
    poly_kth_root,
    row_echelon_transform,
    saturate,
)
from .grouprep import Rep, character_of_rep, close_group, conjugacy_classes

DEFAULT_SEED = 0
CONSECUTIVE_IRREDUCIBLE = 20
SPLIT_TRY_BUDGET = 200
DEFAULT_PRIME_BOUND = 200_000
SPLIT_PRIMES = 3


# ---------------------------------------------------------------------------
# commutant bases


@dataclass(frozen=True)
class CommutantBasis:
    """Z-basis of the integer matrices B with B g = g B for all generators g."""

    matrices: tuple

    @cached_property
    def _entries(self):
        """Entry (r, s) of every basis matrix, as one tuple per entry."""
        return tuple(tuple(zip(*rows)) for rows in zip(*(e.entries for e in self.matrices)))

    def combination(self, coeffs) -> IntMatrix:
        """sum c_i E_i over the basis, one integer dot product per entry."""
        return IntMatrix(
            tuple(tuple(sum(map(mul, coeffs, entry)) for entry in row) for row in self._entries)
        )


def _commutation_system(generators, m):
    """Rows of the linear system (B g - g B = 0) in the m^2 unknowns vec(B).

    Each generator g is given by its rows, so g[k][j] is its (k, j) entry.
    """
    rows = []
    for g in generators:
        for i in range(m):
            for j in range(m):
                row = [0] * (m * m)
                for k in range(m):
                    row[i * m + k] += g[k][j]
                    row[k * m + j] -= g[i][k]
                rows.append(row)
    return rows


@lru_cache(maxsize=None)
def commutant_basis(rep: Rep) -> CommutantBasis:
    """Solve the commutation system for all generators over Q.

    Memoized like q_split and exponent_report: the result is immutable.
    """
    m = rep.degree
    rows = _commutation_system([g.entries for g in rep.generators], m)
    vecs = kernel_q(rows)
    if not vecs:
        raise UnsoundCommutant("the commutant has no identity matrix")
    zbasis = saturate(vecs)
    mats = tuple(
        IntMatrix.from_rows([zbasis.row(i)[r * m : (r + 1) * m] for r in range(m)])
        for i in range(zbasis.rows)
    )
    for b in mats:
        if any(b * g != g * b for g in rep.generators):
            raise UnsoundCommutant("a commutant basis matrix does not commute")
    return CommutantBasis(matrices=mats)


# ---------------------------------------------------------------------------
# generic invariant-subspace splitting over a field


class _ModuleSplitter:
    """Splits F_p^m (p prime) or Q^m (p=None) into irreducible invariant parts.

    A subspace is held by a basis of int ambient rows: over F_p in [0, p),
    and over Q without the common denominator of a rational basis, which
    cancels in coordinates.  Each basis gets one coordinate map, cached:
    pivot columns P where its d x d minor M is nonsingular, and s M^-1 with
    s = 1 over F_p and s the least common denominator of M^-1 over Q.  The
    coordinates of v in the span are v[P] (s M^-1) / s, and restricting a
    matrix is one such product per basis vector plus one back-product check
    that the image lies in the span.  Over Q the restricted generators, the
    commutation system, the commutant and the candidates are int matrices up
    to one recorded scale each; no kernel, minimal polynomial or split
    depends on the scales, so none of this forms a Fraction.

    Splitting elements z are drawn from the commutant of the restricted
    action.  When z's minimal polynomial is f0^a0 g with f0 irreducible and
    coprime to g != 1, the subspace is the direct sum of the primary parts
    ker f0(z)^a0 and ker g(z) (Hoffman & Kunze, Linear Algebra, 6.8), and
    both are invariant because z commutes with the action.  A minimal
    polynomial that is a power of one irreducible gives no split.
    """

    def __init__(self, rep: Rep, p: int | None, rng: random.Random):
        self.rep = rep
        self.p = p
        self.rng = rng
        self._maps = {}  # basis -> (pivot columns, s M^-1 by columns, s, basis columns)

    # -- subspace plumbing

    def coordinate_map(self, basis):
        """(P, s M^-1 by columns, s, basis by columns), once per basis."""
        key = tuple(map(tuple, basis))
        found = self._maps.get(key)
        if found is None:
            d = len(key)
            pivots = _pivot_rows(key, self.p)[1]
            if len(pivots) != d:
                raise UnsoundSplit(f"a {d}-dimensional subspace basis has rank {len(pivots)}")
            inverse, scale = _scaled_inverse([[row[c] for c in pivots] for row in key], self.p)
            found = self._maps[key] = (pivots, list(zip(*inverse)), scale, list(zip(*key)))
        return found

    def scaled_action(self, mat, basis):
        """(s R, s) for R the action of mat on span(basis) in basis
        coordinates (column t: the coordinates of mat(basis[t])) and s the
        basis's coordinate scale; UnsoundSplit if an image leaves the span."""
        p = self.p
        pivots, inverse_cols, scale, basis_cols = self.coordinate_map(basis)
        columns = []
        for b in basis:
            image = mat.apply(b)
            head = [image[c] for c in pivots]
            coords = [sum(map(mul, head, col)) for col in inverse_cols]
            back = [sum(map(mul, coords, col)) for col in basis_cols]
            if p is None:
                ok = all(x == scale * y for x, y in zip(back, image))
            else:
                coords = [x % p for x in coords]
                ok = all((x - y) % p == 0 for x, y in zip(back, image))
            if not ok:
                raise UnsoundSplit(
                    f"a matrix maps the {len(basis)}-dimensional subspace outside itself"
                )
            columns.append(coords)
        return [list(row) for row in zip(*columns)], scale

    def restrict(self, mat, basis):
        """Action of an ambient matrix on a subspace, in basis coordinates.

        Column t holds the coordinates of mat(basis[t]); over Q an entry is
        an int when it is integral and a Fraction otherwise.
        """
        action, scale = self.scaled_action(mat, basis)
        if scale == 1:
            return action
        return [[_quotient(x, scale, None) for x in row] for row in action]

    def coords_to_ambient(self, coord_vecs, basis):
        rows = _mat_mul(coord_vecs, basis, self.p)
        if self.p is None:
            # one common scale is free over Q: keep the rows small
            g = math.gcd(*(x for row in rows for x in row))
            if g > 1:
                rows = [[x // g for x in row] for row in rows]
        return [tuple(row) for row in rows]

    # -- splitting element candidates

    def candidate_stream(self, commutant, scale):
        """Deterministic sweep first, then seeded random small combinations.

        Over Q the commutant holds s X_i, s its common scale, and a
        candidate z = sum c_i X_i comes as z times the least common
        denominator of its entries: that is z' / gcd(s, content z') for
        z' = sum c_i (s X_i), an int matrix with the same minimal
        polynomial factors up to scaling.
        """
        p = self.p
        c = len(commutant)
        if p is None:
            lo, hi = -10, 10

            def clear(z):
                g = math.gcd(scale, *(x for row in z for x in row))
                return [[x // g for x in row] for row in z] if g > 1 else z

        else:
            lo, hi = 0, p - 1

            def clear(z):
                return [[x % p for x in row] for row in z]

        for z in commutant:
            yield clear(z), False
        for i in range(c):
            for j in range(i + 1, c):
                a, b = commutant[i], commutant[j]
                yield clear([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]), False
                yield clear([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]), False
        entries = [list(zip(*rows)) for rows in zip(*commutant)]
        while True:
            coeffs = [self.rng.randint(lo, hi) for _ in range(c)]
            yield clear([[sum(map(mul, coeffs, e)) for e in row] for row in entries]), True

    def factor_minpoly(self, z):
        coeffs = _matrix_minpoly(z, self.p)
        if self.p is None:
            if any(x.denominator != 1 for x in coeffs):
                raise UnsoundSplit("minimal polynomial of an integer matrix is not integral")
            content, factors = factor_over_integers(IntPoly(tuple(coeffs)))
            if content != 1:
                raise UnsoundSplit(f"monic minimal polynomial has content {content}")
            return [(f.coeffs, mult) for f, mult in factors]
        return factor_over_prime_field(tuple(coeffs), self.p)

    def primary_part(self, z, factors):
        """The product of f(z)^a over the (f, a) in factors."""
        acc = None
        for f, a in factors:
            fz = _poly_eval_matrix(list(f), z, self.p)
            for _ in range(a):
                acc = fz if acc is None else _mat_mul(acc, fz, self.p)
        return acc

    def split(self, basis):
        """Recursive full decomposition; returns a list of bases."""
        d = len(basis)
        if d == 1:
            return [list(basis)]
        gens = [self.scaled_action(g, basis)[0] for g in self.rep.generators]
        vecs, scale = _scaled_kernel(_commutation_system(gens, d), self.p)
        commutant = [[list(v[r * d : (r + 1) * d]) for r in range(d)] for v in vecs]
        if len(commutant) == 1:
            return [list(basis)]
        consecutive = streak = tries = 0
        for z, is_random in self.candidate_stream(commutant, scale):
            if tries == SPLIT_TRY_BUDGET:
                break
            tries += 1
            factors = self.factor_minpoly(z)
            if len(factors) == 1:
                if factors[0][1] > 1:
                    consecutive = 0
                elif is_random and len(factors[0][0]) > 1:
                    consecutive += 1
                    streak = max(streak, consecutive)
                    if consecutive >= CONSECUTIVE_IRREDUCIBLE and self.p is None:
                        return [list(basis)]
                continue
            consecutive = 0
            w_coords = _scaled_kernel(self.primary_part(z, factors[:1]), self.p)[0]
            c_coords = _scaled_kernel(self.primary_part(z, factors[1:]), self.p)[0]
            if not w_coords or not c_coords or len(w_coords) + len(c_coords) != d:
                raise UnsoundSplit(
                    f"primary kernels of dimensions {len(w_coords)} and {len(c_coords)} "
                    f"do not fill the {d}-dimensional subspace"
                )
            w_basis = self.coords_to_ambient(w_coords, basis)
            c_basis = self.coords_to_ambient(c_coords, basis)
            return self.split(w_basis) + self.split(c_basis)
        raise InconclusiveSplit("Q" if self.p is None else f"F_{self.p}", d, tries, streak)


# ---------------------------------------------------------------------------
# splitting mod p


@dataclass(frozen=True)
class ConstituentGroup:
    """An isotypic group of irreducible constituents of equal dimension."""

    dimension: int
    multiplicity: int
    bases: tuple  # one subspace basis per copy


@dataclass(frozen=True)
class Constituents:
    field: object  # "Q" or the source prime p
    groups: tuple[ConstituentGroup, ...]

    @property
    def dimensions(self) -> tuple[int, ...]:
        """Sorted multiset of constituent dimensions (with multiplicity)."""
        dims = []
        for g in self.groups:
            dims.extend([g.dimension] * g.multiplicity)
        return tuple(sorted(dims))

    @property
    def subspaces(self):
        out = []
        for g in self.groups:
            for b in g.bases:
                out.append((g.dimension, b))
        return out


@lru_cache(maxsize=None)
def split_mod_p(rep: Rep, p: int, seed: int = DEFAULT_SEED) -> Constituents:
    """Full decomposition of F_p^m into irreducible invariant subspaces.

    Requires p = 1 (mod |H|), which makes F_p a splitting field and the module
    semisimple.  Isotypic grouping is by the character of the restricted
    action (ordinary characters suffice because p does not divide |H|).
    Memoized like q_split and exponent_report: the result is immutable.
    """
    if not _isprime(p):
        raise BadPrime(f"{p} is not prime")
    if rep.order > 1 and p % rep.order != 1:
        raise BadPrime(f"{p} is not congruent to 1 mod |H| = {rep.order}")
    splitter = _ModuleSplitter(rep, p, random.Random(seed))
    full = [tuple(1 if i == j else 0 for i in range(rep.degree)) for j in range(rep.degree)]
    parts = splitter.split(full)
    # verify and group by character on conjugacy-class representatives
    classes = conjugacy_classes(rep)
    keyed = {}
    order = []
    for basis in parts:
        d = len(basis)
        traces = []
        for ci in classes.representatives:
            r = splitter.restrict(rep.elements[ci], basis)
            traces.append(sum(r[i][i] for i in range(d)) % p)
        key = (d, tuple(traces))
        if key not in keyed:
            keyed[key] = []
            order.append(key)
        keyed[key].append(tuple(tuple(v) for v in basis))
    groups = tuple(
        ConstituentGroup(dimension=key[0], multiplicity=len(keyed[key]), bases=tuple(keyed[key]))
        for key in order
    )
    total = sum(g.dimension * g.multiplicity for g in groups)
    if total != rep.degree:
        raise UnsoundSplit(f"constituent dimensions sum to {total}, not {rep.degree}")
    return Constituents(field=p, groups=groups)


# ---------------------------------------------------------------------------
# the exponent


@dataclass(frozen=True)
class ExponentReport:
    k: int
    primes: tuple[int, ...]
    dimensions: tuple[int, ...]
    # sorted constituent dimensions at each prime, in primes order
    dimensions_by_prime: tuple[tuple[int, ...], ...]

    @property
    def stable(self) -> bool:
        """True iff every prime gave the same dimension multiset."""
        return all(d == self.dimensions for d in self.dimensions_by_prime)


@lru_cache(maxsize=None)
def exponent_report(
    rep: Rep,
    seed: int = DEFAULT_SEED,
    prime_bound: int = DEFAULT_PRIME_BOUND,
) -> ExponentReport:
    """k = max constituent dimension, cross-checked over several primes.

    Uses the SPLIT_PRIMES smallest primes congruent to 1 mod |H|; the
    constituent dimension multisets must agree across all of them
    (InconsistentSplit if they do not, which would indicate a bug rather than
    bad input).
    """
    primes = list(islice(_primes_one_mod(rep.order, prime_bound), SPLIT_PRIMES))
    if len(primes) < SPLIT_PRIMES:
        raise PrimeSearchFailed(
            f"fewer than {SPLIT_PRIMES} primes = 1 mod {rep.order} below {prime_bound}"
        )
    by_prime = tuple(split_mod_p(rep, p, seed=seed).dimensions for p in primes)
    report = ExponentReport(
        k=max(by_prime[0]),
        primes=tuple(primes),
        dimensions=by_prime[0],
        dimensions_by_prime=by_prime,
    )
    if not report.stable:
        raise InconsistentSplit(
            f"dimensions {by_prime} disagree across primes {report.primes}"
        )
    return report


def exponent_k(
    rep: Rep, seed: int = DEFAULT_SEED, prime_bound: int = DEFAULT_PRIME_BOUND
) -> int:
    """exponent_report's k.  Every caller in the package passes seed and
    prime_bound by keyword, as here, so their calls share one cache entry."""
    return exponent_report(rep, seed=seed, prime_bound=prime_bound).k


# ---------------------------------------------------------------------------
# rational splitting


@dataclass(frozen=True)
class QComponent:
    """An H-invariant direct summand K_i of Q^m, with an integral structure.

    The rows of basis_numerator, divided by denominator, form a Z-basis of
    the projected lattice P_i(Z^m); rep gives the H-action in that basis.
    """

    dimension: int
    basis_numerator: IntMatrix
    denominator: int
    rep: Rep


@dataclass(frozen=True)
class QSplit:
    components: tuple[QComponent, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(c.dimension for c in self.components))

    @property
    def irreducible(self) -> bool:
        return len(self.components) == 1


@lru_cache(maxsize=None)
def q_split(rep: Rep, seed: int = DEFAULT_SEED) -> QSplit:
    """Decompose Q^m into Q-irreducible invariant subspaces.

    Randomized (seeded) but certified: reducible subspaces are split by
    kernels of factored commutant minimal polynomials, and irreducibility is
    declared either deterministically (commutant of dimension one) or after a
    run of consecutive random commutant draws with irreducible minimal
    polynomial.  Raises InconclusiveSplit if neither happens in budget.
    """
    m = rep.degree
    splitter = _ModuleSplitter(rep, None, random.Random(seed))
    parts = splitter.split([tuple(int(i == j) for i in range(m)) for j in range(m)])
    if len(parts) == 1:
        comp = QComponent(
            dimension=m, basis_numerator=IntMatrix.identity(m), denominator=1, rep=rep
        )
        return QSplit(components=(comp,))
    all_vecs = [v for part in parts for v in part]
    if len(all_vecs) != m:
        raise UnsoundSplit(f"Q-constituent bases hold {len(all_vecs)} vectors, not {m}")
    # S has the basis vectors as columns; the projection onto part i along
    # the others is S E_i S^-1, whose transpose times s is
    # (rows of s S^-1 at part i)^T (the part's vectors)
    s_inv, scale = _scaled_inverse([list(col) for col in zip(*all_vecs)], None)
    components = []
    offset = 0
    for part in parts:
        d = len(part)
        block = s_inv[offset : offset + d]
        offset += d
        scaled_t = _mat_mul(list(zip(*block)), part, None)
        # the projection commutes with the action, so P(Z^m) is H-invariant;
        # its transpose times its least common denominator has int rows
        common = math.gcd(scale, *(x for row in scaled_t for x in row))
        denom = scale // common
        int_rows = [[x // common for x in row] for row in scaled_t]
        h, _ = row_echelon_transform(IntMatrix.from_rows(int_rows))
        num_rows = [r for r in h if any(x != 0 for x in r)]
        if len(num_rows) != d:
            raise UnsoundSplit(f"projected lattice has rank {len(num_rows)}, not {d}")
        basis_num = IntMatrix.from_rows(num_rows)
        # the rows of basis_num / denom span the lattice, and denom cancels
        # in coordinates
        child_gens = [splitter.restrict(g, basis_num.entries) for g in rep.generators]
        if any(not isinstance(x, int) for g in child_gens for row in g for x in row):
            raise UnsoundSplit("a generator acts non-integrally on a projected lattice")
        child = close_group(
            [IntMatrix.from_rows(g) for g in child_gens], element_bound=rep.order + 1
        )
        if rep.order % child.order:
            raise UnsoundSplit(
                f"constituent image order {child.order} does not divide |H| = {rep.order}"
            )
        components.append(
            QComponent(
                dimension=d, basis_numerator=basis_num, denominator=denom, rep=child
            )
        )
    return QSplit(components=tuple(components))


# ---------------------------------------------------------------------------
# character route


@dataclass(frozen=True)
class CharacterTable:
    """Irreducible character table with classes referenced by generator words."""

    class_words: tuple[tuple[int, ...], ...]
    class_sizes: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CharacterDecomposition:
    k: int
    multiplicities: tuple[int, ...]
    chi: tuple[int, ...]  # character of the representation, in table class order
    identity_column: int


def inner_product(a, b, class_sizes) -> Fraction:
    """Standard character inner product <a, b> = (1/|H|) sum |C| a(C) b(C)."""
    va, vb, sizes = tuple(a), tuple(b), tuple(class_sizes)
    if not (len(va) == len(vb) == len(sizes)):
        raise LengthMismatch("class functions and sizes must have equal length")
    order = sum(sizes)
    return Fraction(sum(s * x * y for s, x, y in zip(sizes, va, vb)), order)


def k_from_character_table(rep: Rep, table: CharacterTable) -> CharacterDecomposition:
    """Decompose the trace character against a supplied irreducible table.

    Table classes are given by generator words; these are resolved against the
    BFS closure and matched (bijectively, with size agreement) to the computed
    conjugacy classes.  The rows must be orthonormal for the table sizes.
    k is the largest degree (value at the identity class) with multiplicity
    at least one.
    """
    classes = conjugacy_classes(rep)
    n_cls = len(classes)
    if len(table.class_words) != n_cls or len(table.class_sizes) != n_cls:
        raise UnresolvedClassWord(
            f"table has {len(table.class_words)} classes, group has {n_cls}"
        )
    col_to_class = []
    for w in table.class_words:
        try:
            el = rep.resolve_word(w)
            idx = rep.element_index(el)
        except (IndexError, KeyError) as exc:
            raise UnresolvedClassWord(f"cannot resolve class word {w}") from exc
        cls = next(ci for ci, mem in enumerate(classes.members) if idx in mem)
        col_to_class.append(cls)
    if len(set(col_to_class)) != n_cls:
        raise UnresolvedClassWord("class words do not hit every conjugacy class")
    for col, cls in enumerate(col_to_class):
        if table.class_sizes[col] != classes.sizes[cls]:
            raise UnresolvedClassWord(
                f"class size mismatch at column {col}: "
                f"table says {table.class_sizes[col]}, group says {classes.sizes[cls]}"
            )
    for i, r1 in enumerate(table.rows):
        for j, r2 in enumerate(table.rows):
            expected = 1 if i == j else 0
            if inner_product(r1, r2, table.class_sizes) != expected:
                raise NotOrthonormal(f"rows {i} and {j} are not orthonormal")
    chi_all = character_of_rep(rep)
    chi = tuple(chi_all.values[cls] for cls in col_to_class)
    mults = []
    for row in table.rows:
        ip = inner_product(chi, row, table.class_sizes)
        if ip.denominator != 1 or ip < 0:
            raise NotOrthonormal(
                "representation character does not decompose over this table"
            )
        mults.append(int(ip))
    identity_idx = rep.element_index(IntMatrix.identity(rep.degree))
    identity_cls = next(ci for ci, mem in enumerate(classes.members) if identity_idx in mem)
    identity_col = col_to_class.index(identity_cls)
    residual = [
        c - sum(m * row[j] for m, row in zip(mults, table.rows))
        for j, c in enumerate(chi)
    ]
    if any(residual):
        raise NotOrthonormal("table rows do not span the representation character")
    k = max(row[identity_col] for m, row in zip(mults, table.rows) if m > 0)
    return CharacterDecomposition(
        k=k, multiplicities=tuple(mults), chi=chi, identity_column=identity_col
    )


# ---------------------------------------------------------------------------
# invariant lattices from matrices and the commutant certificate


def conjugate_rep(rep: Rep, b: IntMatrix) -> Rep:
    """The action on the sublattice Im(B), i.e. B^-1 phi(.) B, when invariant."""
    d = det(b)
    if d == 0:
        raise SingularMatrix("conjugating matrix must be nonsingular")
    lat = hnf(b.transpose())
    adj = adjugate(b)
    new_gens = []
    for g in rep.generators:
        gb = g * b
        for j in range(rep.degree):
            if not lat.contains(gb.col(j)):
                raise NotInvariant("Im(B) is not invariant under the action")
        num = adj * gb
        if any(x % d for row in num.entries for x in row):
            raise InexactDivision(f"adj(B) g B is not divisible by det B = {d}")
        new_gens.append(
            IntMatrix.from_rows(
                [[num[i, j] // d for j in range(rep.degree)] for i in range(rep.degree)]
            )
        )
    return close_group(new_gens, element_bound=rep.order + 1)


@dataclass(frozen=True)
class Certificate:
    """Verified data of the commutant-matrix lemma for a Q-irreducible rep.

    f is the (degree n) minimal polynomial of B, the charpoly is f^k, x is the
    field norm of the eigenvalue, and the recorded checks witness
    det B = x^k, B*M = -f(0)*I for M = sum_{i>=1} a_i B^{i-1},
    Adj(B) = -(x^k/f(0))*M, and x*Z^m inside Im(B), the last by the integer
    preimage Y = -(x/f(0))*M with B*Y = x*I.
    """

    k: int
    n: int
    f: IntPoly
    x: int
    det: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def commutant_certificate(
    rep: Rep,
    b: IntMatrix,
    seed: int = DEFAULT_SEED,
    prime_bound: int = DEFAULT_PRIME_BOUND,
) -> Certificate:
    """Check the constructive lemma for a matrix commuting with the action.

    The products run on integer rows, and the charpoly and the adjugate of
    B come from one Faddeev-LeVerrier run.  x*Z^m inside Im(B) is shown by a
    witness: for an integer Y with B*Y = x*I, the column Y e_j is a preimage
    of x*e_j.
    """
    if b.rows != rep.degree or not b.is_square():
        raise NotCommuting("matrix degree does not match the representation")
    b_rows = b.entries
    if any(
        _mat_mul(b_rows, g.entries, None) != _mat_mul(g.entries, b_rows, None)
        for g in rep.generators
    ):
        raise NotCommuting("matrix does not commute with all generators")
    d = det(b)
    if d == 0:
        raise SingularMatrix("certificate requires a nonsingular matrix")
    if not q_split(rep, seed=seed).irreducible:
        raise NotIrreducible("the representation is not irreducible over Q")
    k = exponent_k(rep, seed=seed, prime_bound=prime_bound)
    cp, adj = charpoly_and_adjugate(b)
    try:
        f = poly_kth_root(cp, k)
    except NotAPower as exc:
        raise CertificateFailed(f"charpoly is not a k-th power: {exc}") from exc
    n = f.degree
    a0 = f(0)
    x = a0 if n % 2 == 0 else -a0
    ident = _identity(rep.degree)
    # M = a_1 I + a_2 B + ... + a_n B^(n-1), by Horner from a_n = 1
    m_rows = ident
    for a in reversed(f.coeffs[1:-1]):
        m_rows = _mat_mul(m_rows, b_rows, None)
        for i, row in enumerate(m_rows):
            row[i] += a
    checks = []
    checks.append(("det_is_x_pow_k", d == x**k))
    checks.append(("b_times_m", _mat_mul(b_rows, m_rows, None) == _mat_scale(ident, -a0, None)))
    if x**k % a0 != 0:
        raise InexactDivision(f"x^k = {x**k} is not divisible by f(0) = {a0}")
    adj_rows = [list(row) for row in adj.entries]
    checks.append(("adjugate", adj_rows == _mat_scale(m_rows, -(x**k // a0), None)))
    # the preimage Y = -(x/f(0)) M of x I; integral, as x = +-f(0)
    x_units = x % a0 == 0 and _mat_mul(
        b_rows, _mat_scale(m_rows, -(x // a0), None), None
    ) == _mat_scale(ident, x, None)
    checks.append(("x_lattice_in_image", x_units))
    cert = Certificate(k=k, n=n, f=f, x=x, det=d, checks=tuple(checks))
    if not cert.passed:
        failed = [name for name, ok in cert.checks if not ok]
        raise CertificateFailed(f"certificate checks failed: {failed}", cert)
    return cert
