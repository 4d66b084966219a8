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
threads.  A graph keeps its oracle matrix P, the one cached route to
every rho_ij (closed pairs in :mod:`pathcorr.pathsum` read its entries),
and its spectral radius, each filled on first use: the fill is
idempotent, so a race between threads at worst computes the same
read-only value twice.  A conversion
takes only its typed input, never a raw array, and its result is not
validated again; every graph read off precision entries is split and checked
once, by one helper here.  Each type's constructor has two entries and one
tail, ``_settle``: a caller's array passes the raw-input checks first; a
result computed from a validated object (a conversion, the oracle, a graph
read off precision entries, a severed graph's principal block or the two
graphs of a latent reduction, written from their weights) is exactly
symmetric with its diagonal set and enters at the tail, through
``_Matrix._computed``.  Every Cholesky factorisation goes through one helper;
every whole-matrix inverse (the oracle's (1 - R)^-1, the covariance and
precision conversions, the sampler's precision) through :func:`_spd_inverse`,
one in-place factor and LAPACK's dpotri, exactly symmetric; and every
restricted block inverse W[E, K] (1 - W_K)^-1 W[K, E] is Y^T Y, Y from :func:`_whitened`.
Every end of a symmetric spectrum (nu(R), a correlation matrix's lowest
eigenvalue) comes from :func:`_spectrum_ends`: one tridiagonal
reduction, then a bisection for each end, never the whole spectrum.
nu(|R|) comes from a certified Collatz-Wielandt bracket, a few O(d^2)
power steps (:func:`_perron_bracket`); :func:`_spectrum_ends` of |R| is
its fallback where |R| has a zero row, where the bracket's width has not
halved within two steps, or where nu(R) < 1 and the bracket holds 1.
Every square input is checked by one helper, :func:`_square`; every array
argument becomes floats through :func:`_floats`.  One rule keeps arrays: kept
arrays are frozen in place (:func:`_keep`); a caller's array is copied once
(:func:`_freeze`), and is never frozen or written.  One rule builds them:
each d x d result is made in the one array it keeps.  1 - m is
:func:`_one_minus`, written into one array; the elementwise forms with an
outer product (``c / np.outer(s, s)``) run over blocks of rows
(:func:`_rows`, :func:`_by_outer`); and a helper handed an array nothing
else holds (``_cho``, ``_check_pd``, ``_spd_inverse``, ``_spectrum_ends``,
``_precision_graph``) works in it, with no switch to copy it instead.
Every such form gives the bits of the whole-array numpy expression,
signed zeros included.  A computed symmetric
product is a Gram product of one array (one syrk, mirrored), so only a
caller's raw array (:func:`_square`) is averaged with its transpose.
Node names are checked once, by :func:`_labels`, and kept by every derived object.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    EntryOutOfRange,
    IllConditionedWarning,
    IndexOutOfRange,
    MissingScale,
    NotPositiveDefinite,
    NotSymmetric,
    SingularBlock,
    SingularMatrix,
    _instance,
    _shown,
)

# Default tolerances.  Symmetry is judged relative to the largest entry
# magnitude.  A positive-definite matrix needs a Cholesky factor and a
# reciprocal condition estimate (1-norm, from the factor) above TOL_PD.
TOL_SYM = 1e-9
TOL_PD = 1e-12

# Condition estimate of (1 - R), from the same check, beyond which oracle
# results are flagged.
COND_WARN = 1e8

# _floats' words for non-finite floats, said of an overflowed result too.
_NOT_FINITE = "matrix entries must be finite real numbers, got float64 entries"

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


def _floats(values, name: str, shape: tuple) -> np.ndarray:
    """``values`` as a float array of ``shape`` (None: any length on that axis).

    A string, complex, ragged or non-finite entry raises EntryOutOfRange,
    another shape DimensionMismatch.  Nothing is parsed or reshaped, and a
    float array may come back as it is: the result is read, never written.
    """
    try:
        a = np.asarray(values)
        real = a.dtype.kind in "biuf" or all(isinstance(x, numbers.Real) for x in a.flat)
        a = a.astype(float, copy=False) if real else a
    except (ValueError, OverflowError) as exc:  # ragged rows; an int beyond the float range
        raise EntryOutOfRange(f"{name} must be an array of real numbers: {exc}") from None
    if a.dtype != float or not np.all(np.isfinite(a)):
        raise EntryOutOfRange(f"{name} must be finite real numbers, got {a.dtype} entries")
    if a.ndim != len(shape) or any(n not in (None, k) for n, k in zip(shape, a.shape)):
        want = str(shape).replace("None", "any")
        raise DimensionMismatch(f"{name} must have shape {want}, got shape {a.shape}")
    return a


def _square(raw, what: str) -> np.ndarray:
    """``raw`` as a square float array averaged with its transpose; asymmetry
    beyond TOL_SYM, relative to the largest entry magnitude (absolute for
    the zero matrix), raises :class:`NotSymmetric` naming ``what``."""
    m = _floats(raw, "matrix entries", (None, None))
    if m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    # The one result holds |m - m.T| before (m + m.T) / 2.
    out = np.subtract(m, m.T)
    asym = float(np.max(np.abs(out, out=out)))
    np.add(m, m.T, out=out)
    out /= 2.0
    scale = _largest_magnitude(m)
    rel = asym / scale if scale > 0.0 else asym
    if rel > TOL_SYM:
        raise NotSymmetric(
            f"{what} asymmetric: relative asymmetry {rel:.3e} exceeds {TOL_SYM:.3e}"
        )
    return out


def _rows(n: int) -> list:
    """Slices of about 1/16 of n rows, 16384 entries at least: an elementwise
    pass over them needs no n x n temporary, gives the same bits as the
    whole pass and, on small n, makes few calls."""
    step = max(-(-n // 16), -(-16384 // n))
    return [slice(k, k + step) for k in range(0, n, step)]


def _largest_magnitude(m: np.ndarray) -> float:
    """max |m_ij| without an |m| temporary (NaN when m holds one)."""
    return max(float(np.max(m)), -float(np.min(m)))


def _one_minus(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 - m in one array, ``out`` (m itself, say) or a fresh one.

    Off the diagonal it holds 0.0 - m_ij, as ``np.eye(d) - m`` does, never
    -m_ij, whose zeros carry the other sign."""
    diagonal = 1.0 - np.diagonal(m)
    out = np.subtract(0.0, m, out=out)
    np.fill_diagonal(out, diagonal)
    return out


def _by_outer(op, m: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``op(m, np.outer(v, v))`` written into ``out`` (m itself, say), one
    block of rows at a time: no d x d outer product is formed."""
    for rows in _rows(len(m)):
        op(m[rows], np.outer(v[rows], v), out=out[rows])
    return out


def _diagonal(m: np.ndarray, value: float, what: str) -> None:
    """Set m's diagonal to ``value``, if no entry is off it by more than TOL_SYM."""
    if np.max(np.abs(np.diag(m) - value)) > TOL_SYM:
        raise EntryOutOfRange(f"{what} diagonal must be {value:g}")
    np.fill_diagonal(m, value)


def _check_pd(m: np.ndarray, what: str) -> float:
    """Reject m unless it has a Cholesky factor and an rcond above TOL_PD.

    m is a symmetric array nothing else holds: it is divided by its
    largest diagonal entry (rcond does not depend on scale, and at unit
    scale its estimate cannot underflow) and overwritten by its factor.
    rcond estimates 1 / (||m||_1 ||m^-1||_1), with ||m^-1||_1 from LAPACK's
    dpocon (Hager's estimator with Higham's probe) or from the smallest
    pivot, whichever is larger.  Its inverse, returned, is at most
    cond_1(m) <= d cond_2(m), and in practice near or above cond_2(m),
    though it may fall below it.
    """
    top = float(np.max(np.diagonal(m)))
    if not top > 0.0:
        raise NotPositiveDefinite(
            f"{what} is not positive definite: largest diagonal entry {top:.6e}"
        )
    if top != 1.0:
        m /= top
    f = m.T  # the same symmetric matrix in Fortran order, so LAPACK works in place
    norm = float(scipy.linalg.lapack.dlange("1", f))
    low, _ = _cho(f, NotPositiveDefinite, what)
    rcond, _ = scipy.linalg.lapack.dpocon(low, norm, uplo="L")
    # Each pivot L_ii^2 is at least lambda_min(m), so min L_ii^2 / ||m||_1 is
    # a second upper bound on rcond: it catches a near-singular block that
    # the estimator's probe vectors miss (a 2-node component, say).
    rcond = min(float(rcond), float(np.min(np.diagonal(low))) ** 2 / norm)
    if not rcond > TOL_PD:
        raise NotPositiveDefinite(
            f"{what} is not positive definite: reciprocal condition estimate "
            f"{rcond:.6e} <= TOL_PD = {TOL_PD:.0e}"
        )
    return 1.0 / rcond


def _spectrum_ends(m: np.ndarray) -> tuple:
    """(lambda_min, lambda_max) of a symmetric, finite m nothing else holds.

    One reduction to tridiagonal form (LAPACK's dsytrd, about 4/3 d^3
    flops), then one bisection (dstebz) for each end: the rest of the
    spectrum is never computed.  A zero end reads +0.0.  A C-ordered m
    is reduced in place: its diagonal and upper triangle are overwritten,
    its strict lower triangle is left as it was.
    """
    d = len(m)
    top = _largest_magnitude(m)
    if d == 1 or top == 0.0:
        return float(m[0, 0]) + 0.0, float(m[0, 0]) + 0.0
    # As LAPACK's dsyevd and dsyevr do, a matrix far from unit size is brought to
    # it first, by a power of two, exactly: the reduction and the bisection
    # drop entries whose squares underflow.  The scaled copy is the one reduced.
    exponent = 0 if 2.0**-256 < top < 2.0**256 else math.frexp(top)[1]
    if exponent:
        m = np.ldexp(m, -exponent)
    lwork, _ = scipy.linalg.lapack.dsytrd_lwork(d, lower=True)
    # m.T: m in Fortran order, so the reduction works in place; its lower
    # triangle is m's upper one, which m's symmetry makes the same numbers.
    _, diagonal, offdiagonal, _, _ = scipy.linalg.lapack.dsytrd(
        m.T, lower=True, lwork=int(lwork), overwrite_a=True)
    # The first and the d-th smallest eigenvalue alone (range "I", coded 2),
    # as scipy's eigvalsh_tridiagonal(select="i") asks for them, less its
    # checks: about 30 us a call at small d.
    found = [scipy.linalg.lapack.dstebz(diagonal, offdiagonal, 2, 0.0, 0.0, k, k, 0.0, "E")
             for k in (1, d)]
    ends = [w[0] for _, w, _, _, info in found if info == 0]
    if len(ends) < 2:
        # dstebz can miss a cluster of equal eigenvalues at an end (a
        # complete graph's top one, say); the tridiagonal's whole spectrum,
        # in O(d^2) flops, cannot.
        spectrum, info = scipy.linalg.lapack.dsterf(diagonal, offdiagonal)
        if info != 0:
            raise scipy.linalg.LinAlgError(f"dsterf did not converge: info {info}")
        ends = spectrum[[0, -1]]
    return tuple(math.ldexp(float(x), exponent) + 0.0 for x in ends)


def _perron_bracket(a: np.ndarray) -> tuple | None:
    """(lo, hi, nu) for a nonnegative symmetric a: lo <= nu(a) <= hi, or None.

    Unshifted power steps y = a x from x = 1.  For every positive x,
    min_i y_i / x_i <= nu(a) <= max_i y_i / x_i (Collatz-Wielandt), and
    each step's bracket lies inside the last.  Once it is at most 1e-13 of
    its top wide, nu is the Rayleigh quotient x.y / x.x, which lies in
    [lo, nu(a)]; lo and hi are then widened by d eps, the relative roundoff
    of a sum of d nonnegative terms, so the bracket holds for the computed
    ratios too.  None where the steps cannot serve: a zero row (an
    isolated node), or a width that has not halved within two steps (a
    bipartite or slowly mixing a, such as a chain's).  O(d^2) a step; a
    is only read.
    """
    x = np.ones(len(a))
    widths = [math.inf, math.inf]  # two steps back, one step back
    while True:
        y = a @ x
        ratio = y / x
        lo, hi = float(ratio.min()), float(ratio.max())
        if not 0.0 < lo <= hi < math.inf:
            return None
        width = hi - lo
        if width <= 1e-13 * hi:
            slack = len(a) * math.ulp(1.0)
            return lo * (1.0 - slack), hi * (1.0 + slack), float(x @ y) / float(x @ x)
        if width > widths[0] / 2.0:
            return None
        widths = [widths[1], width]
        x = y / hi


def _cho(m: np.ndarray, error, what: str) -> tuple:
    """cho_factor(m, lower=True), in place when m, held by nothing else, is in
    Fortran order; a failure raises ``error`` naming ``what``."""
    try:
        return scipy.linalg.cho_factor(m, lower=True, overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:
        raise error(f"{what} is not positive definite: {exc}") from exc


def _spd_inverse(m: np.ndarray, what: str) -> np.ndarray:
    """m^-1, exactly symmetric, for a positive-definite m nothing else holds.

    m is overwritten: factorised in place through :func:`_cho`, then
    inverted in place by LAPACK's dpotri, which writes the lower triangle
    only; the upper one is mirrored from it.  About d^3 flops, against
    2 d^3 for a factor and a solve with the identity.
    """
    low, _ = _cho(m.T, SingularMatrix, what)  # m.T: Fortran order, so in place
    x, info = scipy.linalg.lapack.dpotri(low, lower=True, overwrite_c=True)
    if info != 0:
        raise SingularMatrix(f"{what} is singular: dpotri info {info}")
    for k in range(1, len(x)):  # column by column: contiguous in Fortran order
        x[:k, k] = x[k, :k]
    return x.T


def _whitened(w: np.ndarray, ends, interior, what: str) -> np.ndarray:
    """Y = L^-1 W[K, E], E = ``ends``, K = ``interior``, 1 - W_K = L L^T (no rows if K
    is empty): one factor in place, one solve in W[E, K].T (W is exactly symmetric)."""
    if len(interior) == 0:
        return np.zeros((0, len(ends)))
    mk = w[np.ix_(interior, interior)]
    low, _ = _cho(_one_minus(mk, out=mk).T, SingularBlock, what)  # .T: in place
    return scipy.linalg.solve_triangular(
        low, w[np.ix_(ends, interior)].T, lower=True, overwrite_b=True)


def _paths_through(w: np.ndarray, ends, interior, what: str) -> np.ndarray:
    """W[E, K] (1 - W_K)^-1 W[K, E] = Y^T Y, Y = :func:`_whitened`: numpy forms
    it with one syrk and mirrors it, so it is exactly symmetric."""
    y = _whitened(w, ends, interior, what)
    return y.T @ y


def _freeze(m: np.ndarray) -> np.ndarray:
    """A read-only float copy of a caller's array m; m itself stays as it was."""
    return _keep(np.array(m, dtype=float, copy=True))


def _keep(m: np.ndarray) -> np.ndarray:
    """m, an array nothing else holds, frozen in place with the array that
    owns its memory (a transposed view's base would stay writeable)."""
    m.setflags(write=False)
    if isinstance(m.base, np.ndarray):
        m.base.setflags(write=False)
    return m


def _labels(labels, dim: int) -> tuple:
    """``labels`` as a tuple of ``dim`` unique names, x1..xd when None.

    A name is a nonempty ``str`` with no comma and no leading or trailing
    whitespace, so it fits a comma-separated list; anything else raises
    IndexOutOfRange, and no name is rewritten.  A count other than dim
    raises DimensionMismatch."""
    if labels is None:
        return default_labels(dim)
    if isinstance(labels, str) or not isinstance(labels, Iterable):
        raise IndexOutOfRange(f"labels must be a sequence of names, got {_shown(labels)}")
    labels = tuple(labels)
    for x in labels:
        if not (isinstance(x, str) and x and x == x.strip() and "," not in x):
            raise IndexOutOfRange(
                "node labels must be nonempty strings with no comma and no leading "
                f"or trailing whitespace, got {_shown(x)}"
            )
    if len(labels) != dim:
        raise DimensionMismatch(f"got {len(labels)} labels for a {dim}-node system")
    if len(set(labels)) != len(labels):
        raise IndexOutOfRange("node labels must be unique")
    return labels


def default_labels(dim: int) -> tuple:
    """Generated node names x1..xd, used when no labels are attached."""
    return tuple(f"x{k + 1}" for k in range(dim))


def _positive_definite(self):
    """``__post_init__`` of the two positive-definite types, assigned in each class
    body: the benchmark tracer wraps it there, in the class's own ``__dict__``."""
    m = _square(self.entries, self._what)
    _check_pd(m.copy(), self._what)  # a copy: the check overwrites it
    self._settle(m)


class _Matrix:
    """What the four matrix types share: ``dim`` and the entry for computed results."""

    @property
    def dim(self) -> int:
        return len(self.labels)

    @classmethod
    def _computed(cls, m: np.ndarray, labels=None, **fields):
        """The ``cls`` of entries m computed from a validated object, exactly
        symmetric with its diagonal set and held by nothing else: the raw-input
        checks would change no bit of m, so it enters at :meth:`_settle`."""
        out = object.__new__(cls)
        for name, value in dict(fields, labels=labels).items():
            object.__setattr__(out, name, value)
        out._settle(m)
        return out

    def _settle(self, m: np.ndarray) -> None:
        """The constructor's tail for entries m: finite (an inverse can
        overflow), frozen in place and kept, then the labels."""
        if not np.all(np.isfinite(m)):
            raise EntryOutOfRange(_NOT_FINITE)
        object.__setattr__(self, "entries", _keep(m))
        object.__setattr__(self, "labels", _labels(self.labels, m.shape[0]))


@dataclass(frozen=True)
class CovarianceMatrix(_Matrix):
    """Symmetric positive-definite covariance matrix.

    Construct directly or through :func:`validate_covariance`; either
    way the checks run once.
    """

    entries: np.ndarray
    labels: tuple | None = None

    _what = "covariance matrix"
    __post_init__ = _positive_definite


@dataclass(frozen=True)
class PrecisionMatrix(_Matrix):
    """Symmetric positive-definite precision (inverse covariance) matrix."""

    entries: np.ndarray
    labels: tuple | None = None

    _what = "precision matrix"
    __post_init__ = _positive_definite


@dataclass(frozen=True)
class MarginalCorrelationMatrix(_Matrix):
    """Marginal (Pearson) correlation matrix: unit diagonal, PSD."""

    entries: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        m = _square(self.entries, "correlation matrix")
        _diagonal(m, 1.0, "correlation matrix")
        if _largest_magnitude(m) > 1.0:
            raise EntryOutOfRange("correlation magnitudes cannot exceed 1")
        # Semi-definiteness only: perfectly correlated pairs are legal, and
        # a Cholesky factor fails on them, so this check reads both ends of
        # the spectrum.  The reduction runs in m, which is exactly symmetric
        # with a unit diagonal: the strict lower triangle it leaves restores
        # the rest, bit for bit.
        lo, hi = _spectrum_ends(m)
        for k in range(len(m) - 1):
            m[k, k + 1:] = m[k + 1:, k]
        np.fill_diagonal(m, 1.0)
        if lo < -TOL_PD * max(hi, 1.0):
            raise NotPositiveDefinite(f"correlation matrix has eigenvalue {lo:.6e} < 0")
        self._settle(m)


@dataclass(frozen=True)
class PartialCorrelationGraph(_Matrix):
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
        Node names, checked by :func:`_labels`; x1..xd when absent.
    """

    weights: np.ndarray
    scale: np.ndarray | None = None
    labels: tuple | None = None

    def __post_init__(self):
        # The raw-input checks; _square returns a fresh array, kept as it is.
        m = _square(self.weights, "partial correlation matrix")
        _diagonal(m, 0.0, "partial correlation")
        self._settle(m)

    def _settle(self, m: np.ndarray) -> None:
        """The constructor's tail for weights m: finite |r| < 1, (1 - R)
        positive definite, then the scale and the labels; m is frozen in
        place and kept."""
        top = _largest_magnitude(m)
        if not top < 1.0:
            if not np.isfinite(top):
                raise EntryOutOfRange(_NOT_FINITE)
            raise EntryOutOfRange("partial correlation magnitudes must be below 1")
        cond = _check_pd(_one_minus(m), "(1 - R)")
        object.__setattr__(self, "weights", _keep(m))
        # The check's estimate of cond(1 - R), kept for the oracle's warning.
        object.__setattr__(self, "_cond", cond)
        if self.scale is not None:
            s = _floats(self.scale, "scale", m.shape[:1])
            if np.any(s <= 0.0):
                raise EntryOutOfRange("scale entries must be positive")
            object.__setattr__(self, "scale", _freeze(s))
        object.__setattr__(self, "labels", _labels(self.labels, m.shape[0]))

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise IndexOutOfRange(f"unknown node label {_shown(label)}") from None

    @cached_property
    def _inverse(self) -> MarginalCorrelationMatrix:
        """The oracle matrix P, from one inversion of (1 - R) on first use."""
        minv = _spd_inverse(_one_minus(self.weights), "(1 - R)")
        return MarginalCorrelationMatrix._computed(_correlations(minv, out=minv), self.labels)

    @cached_property
    def _ends(self) -> tuple:
        """(lambda_min, lambda_max) of R, from one reduction on first use."""
        return _spectrum_ends(np.array(self.weights))

    @cached_property
    def _nu(self) -> float:
        """Spectral radius nu(R) = max(-lambda_min, lambda_max), from the cached ends."""
        lo, hi = self._ends
        return max(hi, -lo)


@dataclass(frozen=True)
class SpectralReport:
    """Spectral radii of R and of |R|, with the implied summation regime.

    regime is one of:

    - ``"absolute"``: nu(|R|) < 1, every path series converges absolutely
      and may be summed in any order;
    - ``"conditional"``: nu(R) < 1 <= nu(|R|), series converge only when
      paths are grouped by length, in ascending order;
    - ``"rescale-required"``: nu(R) >= 1, some pairs' truncated series
      may diverge (those where R off the pair reaches 1); expansion
      refuses those pairs and asks for a rescaled graph.
    """

    nu_R: float
    nu_R_plus: float
    regime: str


def validate_covariance(raw) -> CovarianceMatrix:
    """Validate a raw square array as a covariance matrix.

    Asymmetry up to :data:`TOL_SYM` (relative to the largest entry) is
    repaired by averaging with the transpose; anything larger raises
    :class:`NotSymmetric`.  Positive definiteness requires a Cholesky
    factor and a reciprocal condition estimate above :data:`TOL_PD`; the
    estimate (1-norm, from the factor) sits near or above cond_2 and at
    most d cond_2, and does not depend on the matrix's scale.
    """
    return CovarianceMatrix(raw)


def validate_precision(raw) -> PrecisionMatrix:
    """Validate a raw square array as a precision matrix."""
    return PrecisionMatrix(raw)


def validate_marginal(raw, labels=None) -> MarginalCorrelationMatrix:
    """Validate a raw square array as a marginal correlation matrix."""
    return MarginalCorrelationMatrix(raw, labels=labels)


def validate_partial_graph(raw, scale=None, labels=None) -> PartialCorrelationGraph:
    """Validate a raw square array as a partial correlation graph."""
    return PartialCorrelationGraph(raw, scale=scale, labels=labels)


def _correlations(c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c_ij / sqrt(c_ii c_jj), with a unit diagonal, in ``out`` (c itself,
    say) or a fresh array; exactly symmetric when c is."""
    s = np.sqrt(np.diag(c))
    p = _by_outer(np.divide, c, s, np.empty(c.shape) if out is None else out)
    np.fill_diagonal(p, 1.0)
    return p


def cov_to_marginal(C: CovarianceMatrix) -> MarginalCorrelationMatrix:
    """Marginal correlations rho_ij = c_ij / sqrt(c_ii c_jj)."""
    C = _instance(C, CovarianceMatrix, "C")
    return MarginalCorrelationMatrix._computed(_correlations(C.entries), C.labels)


def cov_to_precision(C: CovarianceMatrix) -> PrecisionMatrix:
    """Precision matrix Omega = C^-1 via a Cholesky inverse."""
    C = _instance(C, CovarianceMatrix, "C")
    omega = _spd_inverse(np.array(C.entries), "covariance matrix")
    return PrecisionMatrix._computed(omega, C.labels)


def precision_to_cov(Omega: PrecisionMatrix) -> CovarianceMatrix:
    """Covariance matrix C = Omega^-1 via a Cholesky inverse."""
    Omega = _instance(Omega, PrecisionMatrix, "Omega")
    c = _spd_inverse(np.array(Omega.entries), "precision matrix")
    return CovarianceMatrix._computed(c, Omega.labels)


def precision_to_partial(Omega: PrecisionMatrix) -> PartialCorrelationGraph:
    """Split a precision matrix into scales and a coupling graph.

    r_ij = -omega_ij / sqrt(omega_ii omega_jj) off the diagonal, zero on
    it; the scale vector sqrt(omega_ii) is stored on the graph so
    :func:`partial_to_precision` can reassemble Omega exactly.
    """
    Omega = _instance(Omega, PrecisionMatrix, "Omega")
    return _precision_graph(np.array(Omega.entries), Omega.labels)


def _precision_graph(om: np.ndarray, labels, scale=1.0) -> PartialCorrelationGraph:
    """The graph of precision entries ``om``, written in node scales ``scale``.

    r_ij = -om_ij / sqrt(om_ii om_jj); the graph's scale is ``scale *
    sqrt(diag(om))``, or none when ``scale`` is None.  ``om`` is an exactly
    symmetric array nothing else holds, as every producer builds it: it is
    split in place, not symmetrised, and becomes the weights, so R is exactly
    symmetric with a zero diagonal; it is checked once, by the constructor's
    tail: (1 - R) is positive definite exactly when om is.
    """
    lam = np.sqrt(np.diag(om))
    r = _by_outer(np.divide, np.negative(om, out=om), lam, om)
    np.fill_diagonal(r, 0.0)
    lam = None if scale is None else scale * lam
    return PartialCorrelationGraph._computed(r, labels, scale=lam)


def partial_to_precision(g: PartialCorrelationGraph) -> PrecisionMatrix:
    """Reassemble Omega = Lambda (1 - R) Lambda from a scaled graph."""
    g = _instance(g, PartialCorrelationGraph, "g")
    if g.scale is None:
        raise MissingScale(
            "graph carries no node scales; it cannot define a precision matrix"
        )
    omega = _one_minus(g.weights)
    return PrecisionMatrix._computed(_by_outer(np.multiply, omega, g.scale, omega), g.labels)


def partial_to_marginal_oracle(g: PartialCorrelationGraph) -> MarginalCorrelationMatrix:
    """Exact marginal correlations by inversion of (1 - R).

    This is the reference every path expansion is compared against:

        rho_ij = [(1-R)^-1]_ij / sqrt([(1-R)^-1]_ii [(1-R)^-1]_jj).

    The inverse is one in-place Cholesky factor of (1 - R) inverted by
    LAPACK's dpotri, so P is exactly symmetric with a unit diagonal; the
    node scales drop out, so unscaled graphs are fine.  The result is
    computed once per graph object and cached on it, so repeated calls
    return the same read-only matrix.  When the estimate of cond(1 - R)
    from the graph's construction check exceeds ``COND_WARN``, an
    :class:`IllConditionedWarning` reports it alongside the result, on
    every call.
    """
    return _checked_inverse(_instance(g, PartialCorrelationGraph, "g"))


def _checked_inverse(g: PartialCorrelationGraph) -> MarginalCorrelationMatrix:
    """``g._inverse``, with an :class:`IllConditionedWarning` on every call
    when the estimate of cond(1 - R) exceeds ``COND_WARN``, issued at the
    caller's caller."""
    p = g._inverse
    if g._cond > COND_WARN:
        warnings.warn(
            f"(1 - R) has condition estimate {g._cond:.3e}; "
            "oracle correlations may lose accuracy",
            IllConditionedWarning,
            stacklevel=3,
        )
    return p


def spectral_report(g: PartialCorrelationGraph) -> SpectralReport:
    """Spectral radii nu(R), nu(|R|) and the summation regime.

    nu(R) is the value the default rescaling reads, cached on the graph
    from one reduction of R to tridiagonal form.  |R| is symmetric and
    nonnegative, so by Perron-Frobenius nu(|R|) is its largest
    eigenvalue.  It is read from a certified Collatz-Wielandt bracket, a
    few O(d^2) power steps on |R| (:func:`_perron_bracket`).  The top end
    from one reduction of |R| is read instead in three cases: |R| has a
    zero row (an isolated node); the bracket's width has not halved
    within two steps (a bipartite or slowly mixing graph, such as a
    chain); or nu(R) < 1 and 1 lies in the bracket, which then cannot
    decide the regime.
    """
    nu = _instance(g, PartialCorrelationGraph, "g")._nu
    # |R| is a fresh, finite array: the bracket reads it, a reduction
    # overwrites it.
    plus = np.abs(g.weights)
    bracket = _perron_bracket(plus)
    if bracket is None or (nu < 1.0 and bracket[0] <= 1.0 <= bracket[1]):
        _, perron = _spectrum_ends(plus)
    else:
        perron = bracket[2]
    # nu <= nu(|R|) holds exactly, but roundoff in either route can leave
    # the computed root a few ulp under nu.
    nu_plus = max(perron, nu)
    if nu >= 1.0:
        regime = "rescale-required"
    elif nu_plus >= 1.0:
        regime = "conditional"
    else:
        regime = "absolute"
    return SpectralReport(nu_R=nu, nu_R_plus=nu_plus, regime=regime)
