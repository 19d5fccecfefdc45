"""Exception types shared across the library."""


class DworkLabError(Exception):
    """Base class for all library errors."""


class ConfigError(DworkLabError):
    """Invalid run configuration (CLI exit code 2)."""


class NotPrime(ConfigError):
    pass


class OddPrimeRequired(ConfigError):
    pass


class PrecisionTooLow(ConfigError):
    pass


class DirectionOutOfRange(ConfigError):
    """A z-direction index outside 1..n."""


class InvalidParameter(ConfigError, ValueError):
    """A user-supplied parameter (level, genus, precision, ...) out of range."""


class SearchExhausted(DworkLabError):
    pass


class NotAUnit(DworkLabError):
    pass


class CtxMismatch(DworkLabError):
    pass


class NonUnitAtNegativeExponent(DworkLabError):
    pass


class NotDivisible(DworkLabError):
    pass


class ZeroPolynomial(DworkLabError):
    pass


class IndexOutOfRange(DworkLabError):
    pass


class UnsupportedArity(DworkLabError):
    pass


class SizeCapExceeded(DworkLabError):
    pass


class SingularModP(DworkLabError):
    pass


class NotFactored(DworkLabError):
    pass


class NotAdmissible(DworkLabError):
    pass


class DegenerateTuple(DworkLabError):
    pass


class NonUnitDifference(DworkLabError):
    pass


class OutsideDomain(DworkLabError):
    pass


class TooLarge(DworkLabError):
    pass
