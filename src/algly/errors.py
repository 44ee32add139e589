"""Exception types shared across the package."""


class AlglyError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AlglyError):
    """Polynomial text could not be parsed.

    `offset` is the byte position of the offending token in the input.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class VariableIndexError(ParseError):
    """Variable index outside 1..nvars."""


class ExponentError(ParseError):
    """Exponent is not a non-negative integer literal."""


class DimensionMismatchError(AlglyError):
    """Operands disagree on the number of variables, or a point has the wrong length."""


class CertificateError(AlglyError):
    """A supplied certificate is malformed: a repeated basis entry, a Q of
    the wrong shape or not symmetric, a basis or Q that is not numeric."""


class ZeroPolynomialError(AlglyError):
    """An operation that requires a nonzero polynomial received the zero polynomial."""


class DegreeError(AlglyError):
    """Actual polynomial degree is unusable or differs from the declared one."""


class OriginNotInteriorError(AlglyError):
    """P(0) >= 0: the origin is not strictly inside the candidate set."""


class NoPositiveRootError(AlglyError):
    """A ray from the origin never meets the level set (unbounded direction)."""

    def __init__(self, x, message: str = "no positive root along this direction"):
        super().__init__(f"{message}: x={tuple(x)}")
        self.x = tuple(x)


class MultiplePositiveRootsError(AlglyError):
    """A ray meets the level set more than once (star-convexity violated)."""

    def __init__(self, x, roots, message: str = "multiple positive roots along this direction"):
        super().__init__(f"{message}: x={tuple(x)}, roots={tuple(roots)}")
        self.x = tuple(x)
        self.roots = tuple(roots)


class DegenerateGradientError(AlglyError):
    """The boundary-normal term grad(P).y vanished numerically; the decay rate is undefined."""


class DecayRateOverflowError(AlglyError):
    """The decay rate tau_dot is too large for a float (tau far past unit scale)."""


class MixedDegreesError(AlglyError):
    """Vector-field components are not homogeneous of one common degree."""
