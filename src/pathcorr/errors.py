"""Exception hierarchy and warnings for pathcorr.

Every exception raised deliberately by this package derives from
:class:`PathcorrError`, so callers can catch the whole family with a single
``except`` clause.  The subclasses are semantic: they name the violated
precondition rather than the place where it was detected, and the same
condition raises the same class no matter which routine noticed it first.

Every integer argument of the library (node indices and node sets,
truncation lengths, counts, dimensions and seeds) is checked by one
rule, :func:`_whole`: a whole number passes, be it a plain or numpy
integer or an integral float such as 3.0, and anything else (a
fraction, NaN, inf, a string) is refused with the class of the call
site, never truncated.  This module imports only the standard library,
so every layer of the package can use it.
"""

from __future__ import annotations

import numbers
import operator

__all__ = [
    "PathcorrError",
    "NotSquare",
    "NotSymmetric",
    "NotPositiveDefinite",
    "EntryOutOfRange",
    "MissingScale",
    "SingularMatrix",
    "SingularRestrictedBlock",
    "SingularBlock",
    "DenominatorNonPositive",
    "DegenerateDenominator",
    "QOutOfRange",
    "EmptyRemainder",
    "DimensionMismatch",
    "IndexOutOfRange",
    "UndefinedAtZero",
    "ParamOutOfBound",
    "DegenerateColumn",
    "SingularSampleCovariance",
    "SpectralRadiusTooLarge",
    "FileFormatError",
    "IllConditionedWarning",
]


def _whole(value, name: str, error: type, lo: int, hi: int | None = None) -> int:
    """``value`` as an int, if it is a whole number in lo..hi; else ``error``.

    ``hi`` None means no upper limit.  Integers of any kind pass, and so
    does a real number with no fractional part; a bool counts as the
    integer it is.  The range is compared on the converted int, which
    keeps per-node checks in pair loops as cheap as a bare ``int()``.
    """
    try:
        v = operator.index(value)
    except TypeError:
        whole = isinstance(value, numbers.Real) and float(value).is_integer()
        v = int(value) if whole else None
    if v is not None and lo <= v and (hi is None or v <= hi):
        return v
    span = f"between {lo} and {hi}" if hi is not None else f"of at least {lo}"
    raise error(f"{name} must be a whole number {span}, got {value!r}")


class PathcorrError(Exception):
    """Base class for all errors raised by pathcorr."""


class NotSquare(PathcorrError):
    """A matrix argument is not square."""


class NotSymmetric(PathcorrError):
    """A matrix argument is not symmetric within tolerance."""


class NotPositiveDefinite(PathcorrError):
    """A matrix that must be positive definite is not."""


class EntryOutOfRange(PathcorrError):
    """A matrix entry violates the range its form demands.

    Covers a nonzero diagonal where zeros are required, a non-unit
    diagonal where ones are required, and off-diagonal magnitudes at or
    beyond 1 in correlation-type matrices.
    """


class MissingScale(PathcorrError):
    """A conversion needs node scales that the graph does not carry."""


class SingularMatrix(PathcorrError):
    """A matrix that must be inverted is singular."""


class SingularRestrictedBlock(PathcorrError):
    """The interior block ``1 - R[K, K]`` of a restricted sum is singular."""


class SingularBlock(PathcorrError):
    """The block ``(1 - R)[S, S]`` eliminated by marginalisation is singular."""


class DenominatorNonPositive(PathcorrError):
    """A normalising factor ``1 - (loop sum)`` is zero or negative."""


class DegenerateDenominator(PathcorrError):
    """A chain formula denominator is zero or negative."""


class QOutOfRange(PathcorrError):
    """A rescaling parameter q lies outside its admissible interval."""


class EmptyRemainder(PathcorrError):
    """A node subset operation would leave no nodes behind."""


class DimensionMismatch(PathcorrError):
    """Two arguments that must agree in shape or length do not."""


class IndexOutOfRange(PathcorrError):
    """A node index or label is out of range, unknown, or repeated."""


class UndefinedAtZero(PathcorrError):
    """A quantity is undefined at coupling zero."""


class ParamOutOfBound(PathcorrError):
    """A family parameter violates its positive-definiteness bound."""


class DegenerateColumn(PathcorrError):
    """A factor loading column is identically zero."""


class SingularSampleCovariance(PathcorrError):
    """A sample covariance matrix is singular and cannot be inverted."""


class SpectralRadiusTooLarge(PathcorrError):
    """An operator series does not converge: spectral radius is >= 1."""


class FileFormatError(PathcorrError):
    """A matrix file does not conform to the documented layout."""


class IllConditionedWarning(UserWarning):
    """A linear solve involved a badly conditioned matrix.

    Emitted, never raised.  The computation still returns its result; the
    warning signals that the reported digits may be degraded.
    """
