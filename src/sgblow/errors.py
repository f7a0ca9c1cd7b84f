"""Exception types shared across the library.

Every error the library raises derives from SgblowError.  Input checks raise
domain errors (exit 2 from the CLI).  Once a pair has passed its input check,
any failure while building it or a verdict on it is an InvariantViolation on
that pair (a bug, exit 3); EquivalenceViolation is one kind of it.  Errors
that carry a witness expose it as attributes.
"""


class SgblowError(Exception):
    """Base class for all library errors."""


class EmptyGenerators(SgblowError):
    """A generating set was empty where at least one value is required."""


class NotCofinite(SgblowError):
    """The generated set has infinite complement (gcd of generators is not 1)."""


class WindowTooLarge(SgblowError):
    """A semigroup's window of bits is too wide for an integer bitmask.

    Attribute width is the number of bits the window would need.
    """

    def __init__(self, width: int, what: str):
        self.width = width
        super().__init__(f"{what} spans {width} bits, too many to represent")


class ZeroMissing(SgblowError):
    """An explicit semigroup description does not contain 0."""


class NotClosed(SgblowError):
    """An explicit set is not closed under addition.

    Attributes a, b give the witness pair whose sum is missing.
    """

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b
        super().__init__(f"not closed under addition: {a} + {b} = {a + b} is missing")


class CarrierMismatch(SgblowError):
    """Two ideals over different semigroups were combined."""


class NotNested(SgblowError):
    """A length l(E/F) was requested for F not contained in E.

    Attribute witness is an element of F outside E.
    """

    def __init__(self, witness: int):
        self.witness = witness
        super().__init__(f"not nested: {witness} lies in the smaller set but not the larger")


class NotIntegral(SgblowError):
    """A closure operation needs an ideal contained in the semigroup itself."""


class RegularRing(SgblowError):
    """The semigroup is all of N; the requested invariant is empty/degenerate."""


class PrincipalIdeal(SgblowError):
    """Blow-up analysis needs a non-principal ideal."""


class NotProper(SgblowError):
    """Blow-up analysis needs an ideal contained in the maximal ideal."""


class DegenerateBlowup(SgblowError):
    """The blow-up equals the semigroup itself.

    No longer raised: Lambda contains E - e, so Lambda = S would make E = e + S
    principal, and the analysis reports that case as an InvariantViolation.
    Kept so that code importing it still runs.
    """


class InvariantViolation(SgblowError):
    """An internal cross-check failed (a bug, never a property of the input)."""


class EquivalenceViolation(InvariantViolation):
    """Members of a proven-equivalent condition group disagreed (a bug)."""


class UnknownStatement(SgblowError):
    """A statement id is not in the catalog."""


class GrammarError(SgblowError):
    """Text input could not be parsed.  Attribute position is a 0-based offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")
