"""Exact linear algebra and polynomial arithmetic over Z, Q and prime fields.

Everything here is exact: matrices carry arbitrary-precision integers (or
residues mod a prime), and no operation ever rounds.  Elimination over Q is
fraction-free on integer rows, and the kernels and inverses it gives are
int matrices with one recorded scale; a fractions.Fraction is formed only
for a result that is rational by contract (_rref, _solve, kernel_q,
saturate's input, a non-integral _quotient).  Conventions fixed once for
the whole package:

* lattices are stored by a row-style Hermite normal form (rows are basis
  vectors, basis upper triangular, entries above the diagonal reduced into
  [0, diagonal)), which makes the basis a canonical form;
* polynomials store coefficients in ascending degree with no trailing zeros.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, compress, count, zip_longest
from operator import add, mul

from .errors import (
    DimensionMismatch,
    InexactDivision,
    NotAPower,
    PrimalityUnknown,
    RfvaError,
    SingularMatrix,
    UnsoundMinpoly,
    ZeroSpan,
)


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("matrices must have at least one row and column")
        if len(set(map(len, self.entries))) != 1:
            raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> IntMatrix:
        return IntMatrix(tuple(zip(*self.entries)))

    def trace(self) -> int:
        if not self.is_square():
            raise DimensionMismatch("trace of a non-square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))

    def __add__(self, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return IntMatrix(
            tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self.entries, other.entries))
        )

    def __neg__(self) -> IntMatrix:
        return IntMatrix(tuple(tuple(-a for a in row) for row in self.entries))

    def scale(self, c: int) -> IntMatrix:
        return IntMatrix(tuple(tuple(c * a for a in row) for row in self.entries))

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        bt = tuple(zip(*other.entries))
        return IntMatrix(
            tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in self.entries])
        )

    def apply(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        return tuple(sum(map(mul, row, v)) for row in self.entries)


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients ascending, canonical (no trailing zeros)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        if c == (0,):
            raise ValueError("zero polynomial is rejected at construction")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: IntPoly) -> IntPoly:
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(tuple(out))

    def pow(self, e: int) -> IntPoly:
        result = IntPoly((1,))
        for _ in range(e):
            result = result * self
        return result


# ---------------------------------------------------------------------------
# lattices (full rank sublattices of Z^m in canonical row HNF)


@dataclass(frozen=True)
class Lattice:
    """Finite-index sublattice of Z^m: canonical row-HNF basis plus its index."""

    basis: IntMatrix
    index: int

    @property
    def dimension(self) -> int:
        return self.basis.rows

    def contains(self, v) -> bool:
        """Membership by forward substitution on the triangular HNF basis."""
        v = list(v)
        n = self.basis.rows
        if len(v) != n:
            raise DimensionMismatch("vector length does not match lattice rank")
        for i in range(n):
            d = self.basis[i, i]
            if v[i] % d != 0:
                return False
            c = v[i] // d
            if c:
                row = self.basis.row(i)
                v = [a - c * b for a, b in zip(v, row)]
        return all(x == 0 for x in v)


def _echelon(rows, u=None) -> list[int]:
    """Integer row echelon form by gcd steps, in place; returns the pivot columns.

    For each column in turn, the row with the least nonzero |entry| at or
    below the pivot row moves to the pivot row and the rows below it are
    reduced by floor quotients, until the column below the pivot is clear.
    The pivot is then made positive.  Zero rows end at the bottom, and the
    first len(pivots) rows are the echelon basis.  Every row operation is
    repeated on u when it is given, so that u * (input) = (output) holds for
    u starting at the identity.
    """
    n = len(rows)
    pivots = []
    r = 0
    for j in range(len(rows[0]) if rows else 0):
        if r == n:
            break
        while True:
            cand = [i for i in range(r, n) if rows[i][j] != 0]
            if not cand:
                break
            best = min(cand, key=lambda i: abs(rows[i][j]))
            rows[r], rows[best] = rows[best], rows[r]
            if u is not None:
                u[r], u[best] = u[best], u[r]
            pivot_row = rows[r]
            cleared = True
            for i in range(r + 1, n):
                if rows[i][j] != 0:
                    q = rows[i][j] // pivot_row[j]
                    rows[i] = [a - q * b for a, b in zip(rows[i], pivot_row)]
                    if u is not None:
                        u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                    if rows[i][j] != 0:
                        cleared = False
            if cleared:
                break
        if rows[r][j] != 0:
            if rows[r][j] < 0:
                rows[r] = [-a for a in rows[r]]
                if u is not None:
                    u[r] = [-a for a in u[r]]
            pivots.append(j)
            r += 1
    return pivots


def _hermite(rows) -> tuple[list[list[int]], list[int]]:
    """Row HNF of the lattice the integer rows span: (basis rows, pivots).

    _echelon, then zero rows dropped and the entries above each pivot
    reduced into [0, pivot).  The input is not modified.
    """
    rows = [list(r) for r in rows]
    pivots = _echelon(rows)
    rows = rows[: len(pivots)]
    for lower, j in enumerate(pivots):
        pivot_row = rows[lower]
        for i in range(lower):
            q = rows[i][j] // pivot_row[j]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], pivot_row)]
    return rows, pivots


def hnf(m: IntMatrix) -> Lattice:
    """Canonical lattice spanned by the rows of M, which may be any number.

    The rows are generators; they must span a full-rank sublattice of Z^cols
    (SingularMatrix otherwise), and the result is its row HNF and index.
    """
    return _spanned(m.entries)


def _spanned(rows) -> Lattice:
    """hnf on a sequence of integer generator rows."""
    basis, pivots = _hermite(rows)
    if len(pivots) != len(rows[0]):
        raise SingularMatrix("rows do not span a full-rank lattice")
    index = 1
    for i, row in enumerate(basis):
        index *= row[i]
    return Lattice(basis=IntMatrix.from_rows(basis), index=index)


def intersection(a: Lattice, b: Lattice) -> Lattice:
    """A ∩ B for any two lattices of one rank.

    For coprime indices s = [Z^m:A] and t = [Z^m:B]: sZ^m ⊆ A gives
    sB ⊆ A ∩ B, and likewise tA ⊆ A ∩ B; conversely, with us + vt = 1, every
    x in A ∩ B is u(sx) + v(tx).  So A ∩ B = sB + tA.  For any indices, the
    (x, y) with xA = yB form the integer row kernel of [A; -B], and A ∩ B is
    the span of their xA.
    """
    if a.dimension != b.dimension:
        raise DimensionMismatch("intersection of lattices of different ranks")
    s, t = a.index, b.index
    if math.gcd(s, t) == 1:
        return _spanned(b.basis.scale(s).entries + a.basis.scale(t).entries)
    m = a.dimension
    cols = tuple(zip(*a.basis.entries))
    kernel = integer_row_kernel(IntMatrix(a.basis.entries + (-b.basis).entries))
    return _spanned([[sum(map(mul, u[:m], col)) for col in cols] for u in kernel])


def shortest_vectors(lat: Lattice) -> tuple[int, list[tuple[int, ...]]]:
    """lambda_1, the least l1 norm of a nonzero vector of the lattice, and
    every vector of that norm, one per +-v pair (first nonzero entry
    positive), in lexicographic order.

    Branch and bound over the triangular HNF basis (Fincke & Pohst, Math.
    Comp. 1985, here with the l1 norm): entry j of c B is t_j + c_j d_j,
    with d_j the j-th diagonal entry and t_j fixed by c_0 .. c_(j-1), so the
    entries are chosen one at a time, least |entry| first, and a branch ends
    as soon as its partial norm exceeds the least norm found so far.  The
    last entry takes only the values of least |x| in its residue class.
    """
    basis = lat.basis.entries
    m = len(basis)
    best = min(sum(map(abs, row)) for row in basis)
    found = []

    def descend(j, acc, used, started):
        nonlocal best, found
        d = basis[j][j]
        x0 = acc[j] % d
        if j == m - 1:
            if not started:
                values = (d,)
            elif 2 * x0 == d:
                values = (x0, -x0)
            else:
                values = (min(x0, x0 - d, key=abs),)
            for x in values:
                norm = used + abs(x)
                if norm < best:
                    best, found = norm, []
                if norm == best:
                    found.append(acc[:j] + (x,))
            return
        # entries x0 + k d and x0 - (k + 1) d, in order of |x|
        row = basis[j]
        for k in count():
            ups = (x0 + k * d, x0 - (k + 1) * d) if started else (k * d,)
            live = False
            for x in ups:
                if used + abs(x) > best:
                    continue
                live = True
                c = (x - acc[j]) // d
                nxt = tuple(map(add, acc, (c * b for b in row))) if c else acc
                descend(j + 1, nxt, used + abs(x), started or x != 0)
            if not live:
                return

    descend(0, (0,) * m, 0, False)
    return best, sorted(found)


def row_echelon_transform(m: IntMatrix) -> tuple[list[list[int]], list[list[int]]]:
    """Unimodular U with U*M in integer row echelon form; returns (H, U).

    Works for rectangular M; zero rows of H sit at the bottom and the matching
    rows of U span the integer row kernel of M (a saturated lattice).  The
    entries above the pivots of H are not reduced.
    """
    rows = [list(r) for r in m.entries]
    n = len(rows)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    _echelon(rows, u)
    return rows, u


def integer_row_kernel(m: IntMatrix) -> list[tuple[int, ...]]:
    """Z-basis of {v : v*M = 0}; the result is saturated by construction."""
    h, u = row_echelon_transform(m)
    return [tuple(u[i]) for i in range(len(h)) if all(x == 0 for x in h[i])]


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if not m.is_square():
        raise DimensionMismatch("determinant of a non-square matrix")
    a = [list(r) for r in m.entries]
    n = m.rows
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@lru_cache(maxsize=None)
def _faddeev_leverrier(m: IntMatrix) -> tuple[tuple[int, ...], IntMatrix]:
    """Charpoly coefficients (ascending) and the adjugate, both exact.

    The scalar divisions in the recursion are exact for integer input.  With
    charpoly = X^n + c_1 X^(n-1) + ... + c_n the adjugate is
    (-1)^(n+1) * (M^(n-1) + c_1 M^(n-2) + ... + c_(n-1) I).  Memoized, so a
    charpoly and an adjugate of one matrix share one run; the result is
    immutable.
    """
    n = m.rows
    coeffs_desc = [1]
    mk = m
    horner = IntMatrix.identity(n)  # accumulates M^(k-1) + c_1 M^(k-2) + ...
    for k in range(1, n + 1):
        ck = -mk.trace()
        if ck % k != 0:
            raise InexactDivision(f"charpoly step {k}: {ck} is not divisible by {k}")
        ck //= k
        coeffs_desc.append(ck)
        if k < n:
            horner = _plus_scalar(horner * m, ck)
            mk = m * _plus_scalar(mk, ck)
    if n == 1:
        adj = IntMatrix.identity(1)
    else:
        adj = horner if n % 2 == 1 else -horner
    return tuple(reversed(coeffs_desc)), adj


def _plus_scalar(a: IntMatrix, c: int) -> IntMatrix:
    """A + cI, adding c on the diagonal only."""
    return IntMatrix(
        tuple(row[:i] + (row[i] + c,) + row[i + 1 :] for i, row in enumerate(a.entries))
    )


def charpoly(m: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial, exact integer coefficients."""
    if not m.is_square():
        raise DimensionMismatch("charpoly of a non-square matrix")
    return IntPoly(_faddeev_leverrier(m)[0])


def adjugate(m: IntMatrix) -> IntMatrix:
    """Adjugate matrix: M * adjugate(M) = det(M) * identity, exactly."""
    if not m.is_square():
        raise DimensionMismatch("adjugate of a non-square matrix")
    if m.rows == 1:
        return IntMatrix.identity(1)
    return _faddeev_leverrier(m)[1]


def minpoly(m: IntMatrix) -> IntPoly:
    """Monic minimal polynomial of an integer matrix (integral by Gauss)."""
    if not m.is_square():
        raise DimensionMismatch("minpoly of a non-square matrix")
    coeffs = _matrix_minpoly(m.entries, None)
    if any(x.denominator != 1 for x in coeffs):
        raise UnsoundMinpoly("minimal polynomial of an integer matrix is not integral")
    return IntPoly(tuple(int(x) for x in coeffs))


# ---------------------------------------------------------------------------
# linear algebra over a field: lists of rows over Q (p None; entries int or
# Fraction) or over F_p (p prime, entries in [0, p)).  Elimination over Q is
# fraction-free: _pivot_rows keeps every pivot row a primitive integer row,
# and the kernels, inverses and minimal polynomials read their results off
# those rows as int entries with one common scale.  _rref and kernel_q,
# whose results are Fractions, divide at the end.


def _fval(x, p):
    return Fraction(x) if p is None else x % p


def _mat_mul(a, b, p):
    bt = list(zip(*b))
    if p is None:
        return [[sum(map(mul, row, col)) for col in bt] for row in a]
    return [[sum(map(mul, row, col)) % p for col in bt] for row in a]


def _mat_scale(a, c, p):
    if p is None:
        return [[c * x for x in row] for row in a]
    return [[(c * x) % p for x in row] for row in a]


def _identity(n):
    """The n x n identity, with int entries: 0 and 1 lie in Q and in every F_p."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _over_content(row):
    """An integer row divided by the gcd of its entries (a zero row as it is)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _quotient(x, y, p):
    """x / y in the field: mod p, or over Q the int x // y when y divides x
    and the Fraction x / y otherwise."""
    if p is not None:
        return x * pow(y, -1, p) % p
    q, r = divmod(x, y)
    return Fraction(x, y) if r else q


def _pivot_rows(rows, p):
    """The nonzero rows of the reduced row echelon form, each up to a scale,
    and the pivot columns; the input is not modified (the elimination runs
    on a copy).

    Over F_p the rows are the reduced rows themselves (pivot entries 1).
    The nonzero entries (j, y) of the pivot row are listed once per pivot,
    and every other row with entry f in the pivot column gets
    row[j] - f * y at those j alone, in place: the commutation systems
    solved here are mostly zeros.

    Over Q the elimination is fraction-free (Bareiss, Math. Comp. 1968):
    each row is scaled to a primitive integer row, and every other row r
    with entry f in the pivot column c becomes pv * r - f * (pivot row) over
    its content, pv the pivot.  Reduced row i is then row i divided by its
    pivot entry; since row i is primitive, |pivot entry| is the least common
    denominator of reduced row i, so the rows are fixed by the row space up
    to sign.
    """
    if p is None:
        a = []
        for row in rows:
            den = math.lcm(*(x.denominator for x in row))
            a.append(_over_content([x.numerator * (den // x.denominator) for x in row]))
    else:
        a = [[x % p for x in row] for row in rows]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        if p is None:
            pivot_row = a[r]
            pv = pivot_row[c]
            for i in range(n_rows):
                f = a[i][c]
                if i == r or not f:
                    continue
                a[i] = _over_content([pv * x - f * y for x, y in zip(a[i], pivot_row)])
        else:
            inv = pow(a[r][c], p - 2, p)
            pivot_row = a[r] = [(x * inv) % p for x in a[r]]
            support = list(compress(enumerate(pivot_row), pivot_row))
            for row in a:
                f = row[c]
                if f and row is not pivot_row:
                    for j, y in support:
                        row[j] = (row[j] - f * y) % p
        pivots.append(c)
        r += 1
    # rows past the last pivot row are zero
    return a[: len(pivots)], pivots


def _rref(rows, p):
    """Reduced row echelon form of a matrix over Q (p None) or F_p.

    Returns (reduced rows, pivot columns); the input is not modified.  The
    form is unique, so the kernels, solutions, inverses and ranks derived
    from it do not depend on how it was reached.  Every entry of the result
    over Q is a Fraction.
    """
    red, pivots = _pivot_rows(rows, p)
    zero = [_fval(0, p)] * (len(rows[0]) if rows else 0)
    if p is None:
        red = [[Fraction(x, row[c]) for x in row] for row, c in zip(red, pivots)]
    return red + [zero[:] for _ in range(len(rows) - len(pivots))], pivots


def _scaled_kernel(rows, p):
    """(basis of {v : A v = 0}, s), one vector per free column of the RREF.

    Vector fc is s times the one that is 1 at fc, 0 at the other free
    columns and minus reduced row i's entry at fc at pivot i.  s is 1 over
    F_p; over Q it is the least s > 0 that makes every vector integral, the
    lcm of the pivot entries of _pivot_rows, so the vectors are int tuples
    fixed by the kernel alone.
    """
    red, pivots = _pivot_rows(rows, p)
    n_cols = len(rows[0])
    scale = 1 if p is not None else math.lcm(*(row[c] for row, c in zip(red, pivots)))
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [0] * n_cols
        v[fc] = scale
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc] % p if p is not None else -row[fc] * (scale // row[pc])
        basis.append(tuple(v))
    return basis, scale


def _kernel(rows, p):
    """Basis of {v : A v = 0}: _scaled_kernel's vectors (int tuples)."""
    return _scaled_kernel(rows, p)[0]


def _solve(a_rows, rhs_cols, p):
    """Solve A X = B column by column, free unknowns 0; RfvaError if inconsistent."""
    d = len(a_rows[0])
    aug = [list(row) + [col[i] for col in rhs_cols] for i, row in enumerate(a_rows)]
    red, pivots = _rref(aug, p)
    if pivots and pivots[-1] >= d:
        raise RfvaError("inconsistent linear system (vector not in subspace)")
    sols = [[_fval(0, p)] * d for _ in rhs_cols]
    for i, c in enumerate(pivots):
        for j, sol in enumerate(sols):
            sol[c] = red[i][d + j]
    return sols


def _scaled_inverse(a, p):
    """(s A^-1, s) for a square field matrix A, by Gauss-Jordan on [A | I].

    s is 1 over F_p; over Q it is the least s > 0 that makes s A^-1
    integral, so s A^-1 has int entries.  SingularMatrix if A is singular.
    """
    n = len(a)
    red, pivots = _pivot_rows([list(row) + ident for row, ident in zip(a, _identity(n))], p)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    if p is not None:
        return [row[n:] for row in red], 1
    scale = math.lcm(*(row[i] for i, row in enumerate(red)))
    return [[x * (scale // row[i]) for x in row[n:]] for i, row in enumerate(red)], scale


def _rank(rows, p):
    return len(_pivot_rows(rows, p)[1])


def _poly_eval_matrix(coeffs, m, p):
    """Evaluate an ascending-coefficient polynomial at a square field matrix."""
    n = len(m)
    acc = _mat_scale(_identity(n), coeffs[-1], p)
    for c in reversed(coeffs[:-1]):
        acc = _mat_mul(acc, m, p)
        for i in range(n):
            acc[i][i] = acc[i][i] + c if p is None else (acc[i][i] + c) % p
    return acc


def _matrix_minpoly(m, p):
    """Monic minimal polynomial (ascending coefficients) of a field matrix.

    Finds the least d with M^d in the span of I, M, ..., M^(d-1); the
    pivot rows of the columns vec(M^0), ..., vec(M^d) hold its coordinates
    there.  Over Q a coefficient is an int when it is integral (always, for
    an integer matrix) and a Fraction otherwise.
    """
    n = len(m)
    powers = [_identity(n)]
    for d in range(1, n + 1):
        powers.append(_mat_mul(powers[-1], m, p))
        red, pivots = _pivot_rows(
            [[pw[r][c] for pw in powers] for r in range(n) for c in range(n)], p
        )
        if len(pivots) == d:
            return [_quotient(-row[d], row[i], p) for i, row in enumerate(red)] + [1]
    raise UnsoundMinpoly(f"no annihilating polynomial of degree <= {n} (Cayley-Hamilton)")


# ---------------------------------------------------------------------------
# primes and divisors; the prime search shared by the splits, the witnesses
# and the lower bound

# no strong pseudoprime to the first 13 prime bases is below _MR_LIMIT
# (Sorenson & Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _isprime(n: int) -> bool:
    """Deterministic Miller-Rabin; PrimalityUnknown at or above _MR_LIMIT."""
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    if n >= _MR_LIMIT:
        raise PrimalityUnknown(f"{n} is beyond the deterministic primality range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n passes base b iff b^d = 1 or b^(d 2^r) = n - 1 for some r < s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending, by trial division."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def _least_prime_power(n: int) -> tuple[int, int]:
    """(p, e): the least prime p dividing n >= 2 and its exponent in n."""
    p = _divisors(n)[1]
    return p, next(e for e in count(1) if n % p ** (e + 1))


def _primes_one_mod(n: int, bound: int):
    """Primes p <= bound with p = 1 mod n, in increasing order."""
    candidate = n + 1
    while candidate <= bound:
        if _isprime(candidate):
            yield candidate
        candidate += n


# ---------------------------------------------------------------------------
# kernels over Q and F_p


def kernel(m) -> list[tuple]:
    """Basis of the right null space over Q of an IntMatrix or a nested
    sequence of Fractions/ints."""
    return kernel_q(m.entries if isinstance(m, IntMatrix) else m)


def kernel_q(rows: list[list[Fraction]]) -> list[tuple[Fraction, ...]]:
    """The RREF kernel basis over Q, with Fraction entries."""
    vecs, scale = _scaled_kernel(rows, None)
    return [tuple(Fraction(x, scale) for x in v) for v in vecs]


def kernel_fp(rows: list[list[int]], p: int) -> list[tuple[int, ...]]:
    return _kernel(rows, p)


# ---------------------------------------------------------------------------
# factorization over F_p (Cantor & Zassenhaus, Math. Comp. 1981) and over Z
# (Zassenhaus, J. Number Theory 1969: factor mod p, Hensel-lift past the
# Mignotte bound, recombine by trial division), on ascending lists without
# trailing zeros ([] is zero) with entries in [0, p), or [0, p^a) when lifted.


def _gf_strip(f):
    while f and not f[-1]:
        f.pop()
    return f


def _gf_sub(f, g, p):
    return _gf_strip([(a - b) % p for a, b in zip_longest(f, g, fillvalue=0)])


def _gf_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _gf_strip([c % p for c in out])


def _gf_prod(fs, p):
    return reduce(lambda f, g: _gf_mul(f, g, p), fs, [1])


def _gf_divmod(f, g, p):
    """Quotient and remainder of f by g, whose leading coefficient is a unit mod p."""
    r, dg, inv = list(f), len(g) - 1, pow(g[-1], -1, p)
    q = [0] * max(len(f) - dg, 0)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + dg] * inv % p
        for j in range(dg):
            r[k + j] = (r[k + j] - c * g[j]) % p
    return q, _gf_strip(r[:dg])


def _gf_gcd(f, g, p):
    """Monic gcd of f and g, not both zero."""
    while g:
        f, g = g, _gf_divmod(f, g, p)[1]
    return _gf_divmod(f, f[-1:], p)[0]  # made monic


def _gf_xgcd(f, g, p):
    """(s, t) with s f + t g = 1 for coprime f and g (extended Euclid)."""
    r0, r1, s0, s1, t0, t1 = f, g, [1], [], [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    return _gf_divmod(s0, r0, p)[0], _gf_divmod(t0, r0, p)[0]  # r0 is a unit


def _gf_powmod(f, n, g, p):
    """f^n mod g, by repeated squaring."""
    out, f = [1], _gf_divmod(f, g, p)[1]
    for bit in bin(n)[2:]:
        out = _gf_divmod(_gf_mul(out, out, p), g, p)[1]
        if bit == "1":
            out = _gf_divmod(_gf_mul(out, f, p), g, p)[1]
    return out


def _gf_diff(f, p):
    return _gf_strip([i * c % p for i, c in enumerate(f)][1:])


def _gf_sqf(f, p):
    """[(g, e)]: monic f = prod g^e, the g square-free and pairwise coprime.  The loop
    on f / gcd(f, f') takes the factors of multiplicity prime to p; the rest is a
    p-th power, sum a_i x^(ip) = (sum a_i x^i)^p."""
    out, n = [], 1
    while len(f) > 1:
        if df := _gf_diff(f, p):
            g = _gf_gcd(f, df, p)
            h, i = _gf_divmod(f, g, p)[0], 1
            while len(h) > 1:
                common = _gf_gcd(g, h, p)
                part = _gf_divmod(h, common, p)[0]
                if len(part) > 1:
                    out.append((part, i * n))
                g, h, i = _gf_divmod(g, common, p)[0], common, i + 1
            f = g
        f, n = f[::p], n * p
    return out


def _gf_factor_sqf(f, p):
    """The monic irreducible factors of a square-free monic f: gcd(f, x^(p^d) - x)
    for each degree d, then gcd(f, a^((p^d-1)/2) - 1), or for p = 2 the trace
    a + a^2 + ... + a^(2^(d-1)), splits for about half of all a.  The random a
    come from a fixed-seed generator of its own, never from the caller's."""
    rng, by_degree, d, h = random.Random(0), [], 0, [0, 1]
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _gf_powmod(h, p, f, p)
        g = _gf_gcd(f, _gf_sub(h, [0, 1], p), p)
        if len(g) > 1:
            by_degree.append((g, d))
            f = _gf_divmod(f, g, p)[0]
            h = _gf_divmod(h, f, p)[1]
    if len(f) > 1:
        by_degree.append((f, len(f) - 1))
    out = []
    while by_degree:
        f, d = by_degree.pop()
        if len(f) - 1 == d:
            out.append(f)
            continue
        t = s = _gf_strip([rng.randrange(p) for _ in range(len(f) - 1)])
        if p > 2:
            t = _gf_sub(_gf_powmod(s, (p**d - 1) // 2, f, p), [1], p)
        for _ in range(d - 1 if p == 2 else 0):
            s = _gf_divmod(_gf_mul(s, s, p), f, p)[1]
            t = _gf_sub(t, s, p)  # minus is plus mod 2
        g = _gf_gcd(f, t, p)
        by_degree += [(g, d), (_gf_divmod(f, g, p)[0], d)] if 1 < len(g) < len(f) else [(f, d)]
    return out


def _factor_key(factor):
    """sympy's order of factors: length, multiplicity, descending coefficients."""
    return len(factor[0]), factor[1], factor[0][::-1]


def _zz_divmod(f, g):
    """(q, f - q g) over Z, q by floor division on lc(g) at each step: g divides f
    in Z[x] iff the remainder is zero, and for f scaled by lc(g)^(deg f - deg g + 1)
    every step is exact, so the remainder is the pseudo-remainder, of degree < deg g."""
    r, q = list(f), [0] * (len(f) - len(g) + 1)
    for k in reversed(range(len(q))):
        q[k] = r[k + len(g) - 1] // g[-1]
        for j, c in enumerate(g):
            r[k + j] -= q[k] * c
    return q, _gf_strip(r)


def _primitive(f):
    """f over the gcd of its entries, with a positive leading coefficient."""
    g = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    return [c // g for c in f]


def _hensel_lift(f, factors, p, a):
    """The monic F_i = factors[i] mod p with f = lc(f) prod F_i mod p^a, for the
    distinct monic irreducible factors of f mod p: f = lc(f) g h, g and h the
    products of the two halves, is lifted a digit a step, then each half inside."""
    pa = p**a
    f = [c * pow(f[-1], -1, pa) % pa for c in f]
    if len(factors) == 1:
        return [f]
    half = len(factors) // 2
    g, h = _gf_prod(factors[:half], p), _gf_prod(factors[half:], p)
    s, t = _gf_xgcd(g, h, p)
    for m in (p**i for i in range(1, a)):
        # (g + m dg)(h + m dh) = f mod m p needs g dh + h dg = e mod p:
        # t e = q g + dg, and g divides e - h dg exactly
        e = _gf_strip([(x - y) // m % p for x, y in zip(f, _gf_mul(g, h, pa))])
        q, dg = _gf_divmod(_gf_mul(t, e, p), g, p)
        dh = _gf_divmod(_gf_sub(e, _gf_mul(h, dg, p), p), g, p)[0]
        g = [x + m * y for x, y in zip_longest(g, dg, fillvalue=0)]
        h = [x + m * y for x, y in zip_longest(h, dh, fillvalue=0)]
    return _hensel_lift(g, factors[:half], p, a) + _hensel_lift(h, factors[half:], p, a)


def _zassenhaus(g):
    """Irreducible factors over Z of a square-free primitive g with lc > 0."""
    for p in filter(_isprime, count(2)):
        gp = [c % p for c in g]
        if g[-1] % p and len(_gf_gcd(gp, _gf_diff(gp, p), p)) == 1:
            break
    modular = _gf_factor_sqf(_gf_divmod(gp, gp[-1:], p)[0], p)
    # lc(g) times a factor has coefficients below the Mignotte bound
    # lc(g) 2^n |g|_2, n = len(g) - 1; p^a above twice it recovers them
    a, bound = 1, g[-1] * 2 ** len(g) * (math.isqrt(sum(c * c for c in g)) + 1)
    while p**a <= bound:
        a += 1
    pa, lifted, found, size = p**a, _hensel_lift(g, modular, p, a), [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(lifted, size):
            cand = _gf_prod([[g[-1]], *subset], pa)
            cand = _primitive([c - pa if 2 * c > pa else c for c in cand])
            quotient, remainder = _zz_divmod(g, cand)
            if not remainder:
                found.append(cand)
                g, lifted = quotient, [h for h in lifted if h not in subset]
                break
        else:
            size += 1
    return found + [g]


def factor_over_prime_field(coeffs: tuple[int, ...], p: int) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factors over F_p with multiplicity, in sympy's gf_factor order.

    Polynomials are ascending coefficients reduced mod p; the product of the
    [(factor, multiplicity), ...] is the input mod p.  The factors are monic; a
    leading coefficient c other than 1 comes first as the factor ((c,), 1).
    """
    f = _gf_strip([c % p for c in coeffs])
    if not f:
        raise ValueError("zero polynomial")
    monic = _gf_divmod(f, f[-1:], p)[0]
    factors = [(tuple(h), e) for g, e in _gf_sqf(monic, p) for h in _gf_factor_sqf(g, p)]
    return [((f[-1],), 1)] * (f[-1] != 1) + sorted(factors, key=_factor_key)


def factor_over_integers(f: IntPoly) -> tuple[int, list[tuple[IntPoly, int]]]:
    """Factor into content and Z-irreducible factors with multiplicity.

    Returns (content, factors) with content * prod(g^e) == f exactly, in the
    order of sympy's dup_factor_list.  The content has the sign of the leading
    coefficient; the factors are primitive with positive leading coefficients.
    """
    j = next(i for i, x in enumerate(f.coeffs) if x)
    rest = _primitive(list(f.coeffs[j:]))
    content = f.coeffs[-1] // rest[-1]
    factors = [([0, 1], j)] * (j > 0)
    if len(rest) > 1:
        # the square-free part g / gcd(g, g'), by Euclid over Q on primitive
        # pseudo-remainders; a nonzero constant remainder means gcd 1
        a, b = rest, [i * x for i, x in enumerate(rest)][1:]
        while len(b) > 1:
            r = _zz_divmod([x * b[-1] ** (len(a) - len(b) + 1) for x in a], b)[1]
            a, b = b, r and _primitive(r)
        for h in _zassenhaus(rest if b else _zz_divmod(rest, _primitive(a))[0]):
            e = 0
            while not (division := _zz_divmod(rest, h))[1]:
                rest, e = division[0], e + 1
            factors.append((h, e))
    return content, [(IntPoly(tuple(h)), e) for h, e in sorted(factors, key=_factor_key)]


def poly_kth_root(f: IntPoly, k: int) -> IntPoly:
    """Monic g in Z[x] with g^k == f; NotAPower if there is none.

    Works on the reversal f~(t) = t^n f(1/t), a power series with constant
    term 1. Its k-th root h = f~^(1/k) satisfies f~ h' = (1/k) f~' h, which
    gives h_0 = 1 and
        h_j = (1/j) * sum_{i=1..j} (i(k+1)/k - j) * f~_i * h_(j-i).
    If g exists, h_0..h_(n/k) are the coefficients of g reversed, so each is
    an integer; a monic k-th root in Z[x] is unique (Gauss's lemma), and
    g^k == f is confirmed exactly before g is returned.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not f.is_monic():
        raise ValueError("poly_kth_root expects a monic polynomial")
    if f.degree % k != 0:
        raise NotAPower(f"degree {f.degree} not divisible by {k}")
    if k == 1:
        return f
    rev = f.coeffs[::-1]  # rev[i] is the coefficient of t^i in f~
    e = f.degree // k
    h = [1]
    for j in range(1, e + 1):
        num = sum(
            (i * (k + 1) - j * k) * rev[i] * h[j - i] for i in range(1, j + 1)
        )
        if num % (j * k) != 0:
            raise NotAPower("polynomial is not a perfect k-th power")
        h.append(num // (j * k))
    g = IntPoly(tuple(reversed(h)))
    if g.pow(k) != f:
        raise NotAPower("polynomial is not a perfect k-th power")
    return g


# ---------------------------------------------------------------------------
# saturation


def saturate(vectors) -> IntMatrix:
    """Integer basis of (Q-span of the input vectors) intersected with Z^n.

    Input vectors may have Fraction or int entries; rows of the result form a
    Z-basis of the saturated lattice, HNF-normalized per subspace dimension.
    ZeroSpan when no vector is given or all of them are zero.
    """
    vecs = [tuple(Fraction(x) for x in v) for v in vectors]
    if not any(any(v) for v in vecs):
        raise ZeroSpan("the vectors span only the zero space, which has no basis")
    n = len(vecs[0])
    # null space of the span: columns u with V u = 0
    null = kernel_q([list(v) for v in vecs])
    if not null:
        return IntMatrix.identity(n)
    # clear denominators columnwise; N has null vectors as columns
    cleared = []
    for u in null:
        den = math.lcm(*(x.denominator for x in u))
        cleared.append(tuple(int(x * den) for x in u))
    ncols = IntMatrix.from_rows(list(zip(*cleared)))  # n x q
    basis, _ = _hermite(integer_row_kernel(ncols))
    return IntMatrix.from_rows(basis)


# ---------------------------------------------------------------------------
# Smith normal form


def snf(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... | d_n of a nonsingular square matrix.

    Row echelon forms of A and of its transpose alternate until A is
    diagonal: every round keeps the lattice's invariant factors, and the
    positive pivots only shrink to divisors, so this ends (Kannan & Bachem,
    SIAM J. Comput. 1979).  Each pair of diagonal entries is then replaced by
    its gcd and lcm, which sorts them into a divisibility chain.
    """
    if not m.is_square():
        raise DimensionMismatch("snf of a non-square matrix")
    if det(m) == 0:
        raise SingularMatrix("matrix is singular")
    n = m.rows
    a = [list(r) for r in m.entries]
    while any(a[i][j] for i in range(n) for j in range(n) if i != j):
        _echelon(a)
        a = [list(col) for col in zip(*a)]
    diag = [abs(a[i][i]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return tuple(diag)
