"""Validated matrix representations and exact conversions among them.

A multivariate Gaussian system can be described interchangeably by its
covariance matrix C, its precision matrix Omega = C^-1, its marginal
(Pearson) correlation matrix P, or its partial correlation graph R.  The
graph form splits the precision into a diagonal scale and a coupling
pattern,

    Omega = Lambda (1 - R) Lambda,      Lambda = diag(sqrt(omega_ii)),

so that r_ij = -omega_ij / sqrt(omega_ii omega_jj) measures the direct
coupling of nodes i and j with everything else held fixed, while

    rho_ij = [(1 - R)^-1]_ij / sqrt([(1 - R)^-1]_ii [(1 - R)^-1]_jj)

recovers the marginal correlation.  The last identity is the
matrix-inversion oracle: every path-sum expansion elsewhere in this
package is tested against it.

All types are frozen dataclasses holding read-only arrays; every
operation is a pure function, so values can be shared freely across
threads.  A graph keeps its oracle result and its spectral radius,
each filled on first use: the fill is idempotent, so a race between
threads at worst computes the same read-only value twice.  Results of
exact conversions are not validated again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    EntryOutOfRange,
    IllConditionedWarning,
    IndexOutOfRange,
    MissingScale,
    NotPositiveDefinite,
    NotSquare,
    NotSymmetric,
    ParamOutOfBound,
    SingularMatrix,
)

# Default tolerances.  Symmetry is judged relative to the largest entry
# magnitude, positive definiteness relative to the largest eigenvalue.
TOL_SYM = 1e-9
TOL_PD = 1e-12

# Condition number of (1 - R) beyond which oracle results are flagged.
COND_WARN = 1e8

__all__ = [
    "TOL_SYM",
    "TOL_PD",
    "COND_WARN",
    "CovarianceMatrix",
    "PrecisionMatrix",
    "MarginalCorrelationMatrix",
    "PartialCorrelationGraph",
    "SpectralReport",
    "validate_covariance",
    "validate_precision",
    "validate_marginal",
    "validate_partial_graph",
    "cov_to_marginal",
    "cov_to_precision",
    "precision_to_cov",
    "precision_to_partial",
    "partial_to_precision",
    "partial_to_marginal_oracle",
    "spectral_report",
]


def _as_square(raw) -> np.ndarray:
    m = np.asarray(raw, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise EntryOutOfRange("matrix entries must be finite")
    return m


def _symmetrize(m: np.ndarray, what: str) -> np.ndarray:
    """Average m with its transpose; reject asymmetry beyond TOL_SYM.

    The tolerance is relative to the largest entry magnitude (absolute
    for the zero matrix).
    """
    asym = float(np.max(np.abs(m - m.T)))
    scale = float(np.max(np.abs(m)))
    rel = asym / scale if scale > 0.0 else asym
    if rel > TOL_SYM:
        raise NotSymmetric(
            f"{what} asymmetric: relative asymmetry {rel:.3e} exceeds {TOL_SYM:.3e}"
        )
    return (m + m.T) / 2.0


def _check_pd(m: np.ndarray, what: str) -> tuple:
    """Reject m unless its eigenvalues exceed TOL_PD times the largest.

    Returns the smallest and the largest eigenvalue.
    """
    w = np.linalg.eigvalsh(m)
    lo, hi = float(w[0]), float(w[-1])
    if hi <= 0.0 or lo <= TOL_PD * hi:
        raise NotPositiveDefinite(
            f"{what} not positive definite: eigenvalue range [{lo:.6e}, {hi:.6e}]"
        )
    return lo, hi


def _freeze(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _coerce_labels(labels, dim: int):
    if labels is None:
        return None
    if isinstance(labels, str):
        raise IndexOutOfRange(
            f"labels must be a sequence of names, not the string {labels!r}"
        )
    labels = tuple(str(x) for x in labels)
    if len(labels) != dim:
        raise IndexOutOfRange(
            f"got {len(labels)} labels for a {dim}-node system"
        )
    if len(set(labels)) != len(labels):
        raise IndexOutOfRange("node labels must be unique")
    return labels


def default_labels(dim: int) -> tuple:
    """Generated node names x1..xd, used when no labels are attached."""
    return tuple(f"x{k + 1}" for k in range(dim))


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive-definite covariance matrix.

    Construct directly or through :func:`validate_covariance`; either
    way the checks run once.
    """

    entries: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        m = _as_square(self.entries)
        m = _symmetrize(m, "covariance matrix")
        _check_pd(m, "covariance matrix")
        object.__setattr__(self, "entries", _freeze(m))
        object.__setattr__(self, "labels", _coerce_labels(self.labels, m.shape[0]))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PrecisionMatrix:
    """Symmetric positive-definite precision (inverse covariance) matrix."""

    entries: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        m = _as_square(self.entries)
        m = _symmetrize(m, "precision matrix")
        _check_pd(m, "precision matrix")
        object.__setattr__(self, "entries", _freeze(m))
        object.__setattr__(self, "labels", _coerce_labels(self.labels, m.shape[0]))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class MarginalCorrelationMatrix:
    """Marginal (Pearson) correlation matrix: unit diagonal, PSD."""

    entries: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        m = _as_square(self.entries)
        m = _symmetrize(m, "correlation matrix")
        d = np.diag(m)
        if np.max(np.abs(d - 1.0)) > TOL_SYM:
            raise EntryOutOfRange("correlation matrix diagonal must be 1")
        off = m - np.diag(d)
        if np.max(np.abs(off)) > 1.0:
            raise EntryOutOfRange(
                "correlation magnitudes cannot exceed 1"
            )
        m = m.copy()
        np.fill_diagonal(m, 1.0)
        # Semi-definiteness only: perfectly correlated pairs are legal.
        w = np.linalg.eigvalsh(m)
        if float(w[0]) < -TOL_PD * max(float(w[-1]), 1.0):
            raise NotPositiveDefinite(
                f"correlation matrix has eigenvalue {float(w[0]):.6e} < 0"
            )
        object.__setattr__(self, "entries", _freeze(m))
        object.__setattr__(self, "labels", _coerce_labels(self.labels, m.shape[0]))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PartialCorrelationGraph:
    """Partial correlation graph: couplings R with (1 - R) positive definite.

    Parameters
    ----------
    weights : array
        Symmetric matrix R with zero diagonal; entry r_ij is the partial
        correlation of nodes i and j.  Off-diagonal magnitudes must stay
        below 1 and (1 - R) must be positive definite.  Note that the
        latter does not bound the spectral radius of R away from 1: the
        most negative eigenvalue of R may be -1 or below, in which case
        path series on the graph require rescaling before truncation.
    scale : array, optional
        Node scales lambda_i = sqrt(omega_ii) of the underlying
        precision matrix.  Kept so precision round-trips are exact;
        graphs built from R alone carry no scale and cannot be turned
        back into a precision matrix.
    labels : sequence of str, optional
        Node names, unique.  Generated as x1..xd when absent.
    """

    weights: np.ndarray
    scale: np.ndarray | None = None
    labels: tuple | None = None

    def __post_init__(self):
        m = _as_square(self.weights)
        m = _symmetrize(m, "partial correlation matrix")
        d = np.diag(m)
        if np.max(np.abs(d)) > TOL_SYM:
            raise EntryOutOfRange("partial correlation diagonal must be 0")
        m = m.copy()
        np.fill_diagonal(m, 0.0)
        if np.max(np.abs(m)) >= 1.0:
            raise EntryOutOfRange(
                "partial correlation magnitudes must be below 1"
            )
        lo, hi = _check_pd(np.eye(m.shape[0]) - m, "(1 - R)")
        object.__setattr__(self, "weights", _freeze(m))
        # cond(1 - R) from the same eigenvalues, kept for the oracle.
        object.__setattr__(self, "_cond", hi / lo)
        if self.scale is not None:
            try:
                s = np.asarray(self.scale, dtype=float).reshape(-1)
            except (TypeError, ValueError) as exc:
                raise ParamOutOfBound(f"scale entries must be numbers: {exc}") from exc
            if s.shape[0] != m.shape[0]:
                raise IndexOutOfRange(
                    f"scale vector has length {s.shape[0]}, expected {m.shape[0]}"
                )
            if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
                raise ParamOutOfBound("scale entries must be finite and positive")
            object.__setattr__(self, "scale", _freeze(s))
        object.__setattr__(self, "labels", _coerce_labels(self.labels, m.shape[0]))

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def node_labels(self) -> tuple:
        """Attached labels, or generated x1..xd (built once)."""
        return self.labels if self.labels is not None else default_labels(self.dim)

    def label_index(self, label: str) -> int:
        try:
            return self.node_labels.index(str(label))
        except ValueError:
            raise IndexOutOfRange(f"unknown node label {label!r}") from None

    @cached_property
    def _inverse(self) -> _Inverse:
        """The oracle's factorisation results, computed on first use."""
        return _invert(self)

    @cached_property
    def _nu(self) -> float:
        """Spectral radius nu(R), computed on first use."""
        return float(np.max(np.abs(np.linalg.eigvalsh(self.weights))))


class _Inverse(NamedTuple):
    """What one inversion of (1 - R) yields, kept on its graph.

    ``marginal`` is the oracle matrix P and ``cov_diag`` the read-only
    diagonal of C = (1 - R)^-1 (so C = D^1/2 P D^1/2, D = diag(C)).
    """

    marginal: MarginalCorrelationMatrix
    cov_diag: np.ndarray


def _derived(cls, m: np.ndarray, labels):
    """A ``cls`` holding the result of an exact conversion, unchecked.

    Only for entries computed from an already validated matrix, exactly
    symmetric and with the diagonal set: the constructor's averaging
    and eigenvalue check would change no bit of them.  Finiteness is
    still checked, since an inverse can overflow.
    """
    out = object.__new__(cls)
    object.__setattr__(out, "entries", _freeze(_as_square(m)))
    object.__setattr__(out, "labels", labels)
    return out


@dataclass(frozen=True)
class SpectralReport:
    """Spectral radii of R and of |R|, with the implied summation regime.

    regime is one of:

    - ``"absolute"``: nu(|R|) < 1, every path series converges absolutely
      and may be summed in any order;
    - ``"conditional"``: nu(R) < 1 <= nu(|R|), series converge only when
      paths are grouped by length, in ascending order;
    - ``"rescale-required"``: nu(R) >= 1, truncated series diverge and
      the graph must be rescaled before expansion.
    """

    nu_R: float
    nu_R_plus: float
    regime: str


def validate_covariance(raw) -> CovarianceMatrix:
    """Validate a raw square array as a covariance matrix.

    Asymmetry up to :data:`TOL_SYM` (relative to the largest entry) is
    repaired by averaging with the transpose; anything larger raises
    :class:`NotSymmetric`.  Positive definiteness requires the smallest
    eigenvalue to exceed :data:`TOL_PD` times the largest.
    """
    return CovarianceMatrix(np.asarray(raw, dtype=float))


def validate_precision(raw) -> PrecisionMatrix:
    """Validate a raw square array as a precision matrix."""
    return PrecisionMatrix(np.asarray(raw, dtype=float))


def validate_marginal(raw, labels=None) -> MarginalCorrelationMatrix:
    """Validate a raw square array as a marginal correlation matrix."""
    return MarginalCorrelationMatrix(np.asarray(raw, dtype=float), labels=labels)


def validate_partial_graph(raw, scale=None, labels=None) -> PartialCorrelationGraph:
    """Validate a raw square array as a partial correlation graph."""
    return PartialCorrelationGraph(np.asarray(raw, dtype=float), scale=scale, labels=labels)


def cov_to_marginal(C: CovarianceMatrix) -> MarginalCorrelationMatrix:
    """Marginal correlations rho_ij = c_ij / sqrt(c_ii c_jj)."""
    if not isinstance(C, CovarianceMatrix):
        C = validate_covariance(C)
    c = C.entries
    s = np.sqrt(np.diag(c))
    p = c / np.outer(s, s)
    np.fill_diagonal(p, 1.0)
    return _derived(MarginalCorrelationMatrix, p, C.labels)


def cov_to_precision(C: CovarianceMatrix) -> PrecisionMatrix:
    """Precision matrix Omega = C^-1 via a Cholesky solve."""
    if not isinstance(C, CovarianceMatrix):
        C = validate_covariance(C)
    try:
        cf = scipy.linalg.cho_factor(C.entries, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrix(f"covariance matrix is singular: {exc}") from exc
    omega = scipy.linalg.cho_solve(cf, np.eye(C.dim))
    return _derived(PrecisionMatrix, (omega + omega.T) / 2.0, C.labels)


def precision_to_cov(Omega: PrecisionMatrix) -> CovarianceMatrix:
    """Covariance matrix C = Omega^-1 via a Cholesky solve."""
    if not isinstance(Omega, PrecisionMatrix):
        Omega = validate_precision(Omega)
    try:
        cf = scipy.linalg.cho_factor(Omega.entries, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrix(f"precision matrix is singular: {exc}") from exc
    c = scipy.linalg.cho_solve(cf, np.eye(Omega.dim))
    return _derived(CovarianceMatrix, (c + c.T) / 2.0, Omega.labels)


def precision_to_partial(Omega: PrecisionMatrix) -> PartialCorrelationGraph:
    """Split a precision matrix into scales and a coupling graph.

    r_ij = -omega_ij / sqrt(omega_ii omega_jj) off the diagonal, zero on
    it; the scale vector sqrt(omega_ii) is stored on the graph so
    :func:`partial_to_precision` can reassemble Omega exactly.
    """
    if not isinstance(Omega, PrecisionMatrix):
        Omega = validate_precision(Omega)
    om = Omega.entries
    lam = np.sqrt(np.diag(om))
    r = -om / np.outer(lam, lam)
    np.fill_diagonal(r, 0.0)
    return PartialCorrelationGraph(r, scale=lam, labels=Omega.labels)


def partial_to_precision(g: PartialCorrelationGraph) -> PrecisionMatrix:
    """Reassemble Omega = Lambda (1 - R) Lambda from a scaled graph."""
    if g.scale is None:
        raise MissingScale(
            "graph carries no node scales; it cannot define a precision matrix"
        )
    lam = g.scale
    m = np.eye(g.dim) - g.weights
    omega = np.outer(lam, lam) * m
    return _derived(PrecisionMatrix, omega, g.labels)


def _invert(g: PartialCorrelationGraph) -> _Inverse:
    m = np.eye(g.dim) - g.weights
    try:
        cf = scipy.linalg.cho_factor(m, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrix(f"(1 - R) is singular: {exc}") from exc
    minv = scipy.linalg.cho_solve(cf, np.eye(g.dim))
    c = np.diag(minv)
    s = np.sqrt(c)
    p = minv / np.outer(s, s)
    p = (p + p.T) / 2.0
    np.fill_diagonal(p, 1.0)
    return _Inverse(_derived(MarginalCorrelationMatrix, p, g.labels), _freeze(c))


def partial_to_marginal_oracle(g: PartialCorrelationGraph) -> MarginalCorrelationMatrix:
    """Exact marginal correlations by inversion of (1 - R).

    This is the reference every path expansion is compared against:

        rho_ij = [(1-R)^-1]_ij / sqrt([(1-R)^-1]_ii [(1-R)^-1]_jj).

    The inverse is taken through a Cholesky solve of (1 - R); the
    node scales drop out, so unscaled graphs are fine.  The result is
    computed once per graph object and cached on it, so repeated calls
    return the same read-only matrix.  When the condition number of
    (1 - R) exceeds ``COND_WARN`` an :class:`IllConditionedWarning`
    reports it alongside the result, on every call.
    """
    inv = g._inverse
    if g._cond > COND_WARN:
        warnings.warn(
            f"(1 - R) has condition number {g._cond:.3e}; "
            "oracle correlations may lose accuracy",
            IllConditionedWarning,
            stacklevel=2,
        )
    return inv.marginal


def spectral_report(g: PartialCorrelationGraph) -> SpectralReport:
    """Spectral radii nu(R), nu(|R|) and the summation regime."""
    nu = g._nu
    nu_plus = float(np.max(np.abs(np.linalg.eigvalsh(np.abs(g.weights)))))
    # Equal-matrix case aside, tiny eigensolver noise can leave
    # nu_plus a few ulp under nu although nu <= nu_plus holds exactly.
    nu_plus = max(nu_plus, nu)
    if nu >= 1.0:
        regime = "rescale-required"
    elif nu_plus >= 1.0:
        regime = "conditional"
    else:
        regime = "absolute"
    return SpectralReport(nu_R=nu, nu_R_plus=nu_plus, regime=regime)
