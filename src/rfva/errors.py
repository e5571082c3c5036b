"""Exception hierarchy shared by all rfva modules."""


class RfvaError(Exception):
    """Base class for all errors raised by this package."""


class InternalFailure(RfvaError):
    """Base class of the tool's own failed checks (the CLI exits with 3)."""


class LimitReached(RfvaError):
    """Base class of exhausted budgets and bounds (the CLI exits with 1)."""


class SingularMatrix(RfvaError):
    pass


class NotAPower(RfvaError):
    pass


class DimensionMismatch(RfvaError):
    pass


class NotFinite(LimitReached):
    pass


class NotInvertible(RfvaError):
    pass


class UnknownName(RfvaError):
    pass


class BadPrime(RfvaError):
    pass


class InconsistentSplit(InternalFailure):
    """Constituent dimensions disagree across primes; indicates a bug."""


class PrimalityUnknown(RfvaError):
    """A number beyond the range where the primality test is exact."""


class InconclusiveSplit(LimitReached):
    """The randomized splitting could not split or certify irreducibility.

    Carries the field ("Q" or "F_p"), the subspace dimension, the candidates
    tried and the longest run of random draws with irreducible minimal polynomial.
    """

    def __init__(self, field, dimension, tries, streak):
        super().__init__(
            "could not split or certify irreducibility within the retry budget "
            f"(field {field}, subspace dimension {dimension}, {tries} tries, "
            f"longest irreducible streak {streak})"
        )
        self.field, self.dimension, self.tries, self.streak = field, dimension, tries, streak


class NotAPartition(InternalFailure):
    """Computed conjugacy classes do not partition the group; indicates a bug."""


class NotAClassFunction(InternalFailure):
    """The trace is not constant on a conjugacy class; indicates a bug."""


class UnsoundWitness(InternalFailure):
    """A constructed witness lattice fails its own check; indicates a bug."""


class UnsoundLattice(InternalFailure):
    """A constructed family lattice or intersection fails its own check; indicates a bug."""


class UnsoundProfile(InternalFailure):
    """An RF profile's witness has another divisibility than its value; indicates a bug."""


class UnsoundCommutant(InternalFailure):
    """A computed commutant basis matrix does not commute; indicates a bug."""


class UnsoundSplit(InternalFailure):
    """A splitting step fails its own check; indicates a bug."""


class UnsoundMinpoly(InternalFailure):
    """A minimal polynomial fails Cayley-Hamilton or Gauss's lemma; indicates a bug."""


class InexactDivision(InternalFailure):
    """An integer division that must be exact left a remainder; indicates a bug."""


class ZeroSpan(RfvaError):
    """Vectors that span only {0}, or no vectors, where a basis is needed."""


class LengthMismatch(RfvaError):
    pass


class NotOrthonormal(RfvaError):
    pass


class UnresolvedClassWord(RfvaError):
    pass


class NotInvariant(RfvaError):
    pass


class NotCommuting(RfvaError):
    pass


class NotIrreducible(RfvaError):
    pass


class CertificateFailed(InternalFailure):
    """A commutant certificate check failed; carries the partial certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ZeroVector(RfvaError):
    pass


class BudgetExceeded(LimitReached):
    """Enumeration budget ran out.

    Carries the best upper bound found so far, the index budget, and how many
    family lattices were tested before it ran out.
    """

    def __init__(self, message, upper_bound=None, index_budget=None, lattices_scanned=None):
        super().__init__(message)
        self.upper_bound = upper_bound
        self.index_budget = index_budget
        self.lattices_scanned = lattices_scanned


class InsufficientData(RfvaError):
    pass


class IoFailure(RfvaError):
    pass
