"""Exception hierarchy shared by all entropyne modules."""


class EntropyneError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(EntropyneError):
    pass


class NumericalFailure(EntropyneError):
    pass


class DomainError(EntropyneError):
    pass


class ZeroTemperature(DomainError):
    pass


class InvalidState(EntropyneError):
    pass


class DimensionMismatch(EntropyneError):
    pass


class UnsupportedQ(DomainError):
    pass


class SupportDeficient(EntropyneError):
    pass


class BlochNormExceeded(EntropyneError):
    pass


class InvalidGaussian(EntropyneError):
    pass


class UnphysicalCovariance(EntropyneError):
    pass


class DivergentPartition(DomainError):
    pass


class NegativeBeta(DomainError):
    pass


class BracketError(EntropyneError):
    pass


class TruncationUnstable(EntropyneError):
    pass


class QuadratureUnstable(EntropyneError):
    pass
