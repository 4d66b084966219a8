"""Gaussian conditional mutual information from the coupling graph.

For a Gaussian system split into disjoint node sets A, B and the
remainder Z, the conditional mutual information I(A; B | Z) is a log
determinant built from blocks of the coupling matrix R:

    T = R_AB (1 - R_BB)^-1 R_BA (1 - R_AA)^-1,
    I(A; B | Z) = -1/2 ln det(1 - T).

Conditioning on Z never appears explicitly: partial correlations
already hold everything else fixed, so :class:`TriPartition` takes A
and B and derives Z.  The same quantity expands into a trace series,

    I = sum_(n>=1) tr(T^n) / (2 n),

whose n-th term collects the closed paths that alternate n times
between A and B.  It is sum_k lambda_k^n / (2 n) over the eigenvalues
of the pencil X v = lambda M_A v, X = R_AB (1 - R_BB)^-1 R_BA and
M_A = 1 - R_AA, which are those of T; the series converges whenever
they lie in (-1, 1), which every positive-definite system satisfies.
With X = Y^T Y, Y = L_B^-1 R_BA and M_A = L_A L_A^T (L Cholesky factors),
they are the eigenvalues of the exactly symmetric z z^T, z = L_A^-1 Y^T.
A rescaled variant sums the series of T(q) = (1 - q) 1 + q T, whose
spectrum is 1 - q + q lambda, and adds (d_A / 2) ln q, using that
1 - T(q) = q (1 - T).

With A = {i}, B every node but i and j, and Z = {j}, X is the closed
loop sum l at i avoiding j: :func:`loop_sum_mi_identity` returns l and
I = -1/2 ln(1 - l) from the one factorisation behind l.  Everything
here reads its input as a Gaussian density; information is in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DenominatorNonPositive,
    DimensionMismatch,
    IndexOutOfRange,
    ParamOutOfBound,
    PathcorrError,
    SingularBlock,
    SpectralRadiusTooLarge,
    _instance,
    _parts,
    _whole,
)
from .matrices import (
    PartialCorrelationGraph,
    PrecisionMatrix,
    _cho,
    _one_minus,
    _whitened,
    precision_to_partial,
)
from .pathsum import _check_length, _check_pair, _check_q, star_path_sum_closed

# Trace series defaults: hard cap on the number of terms, and the size
# below which the last term and the tail bound end the summation early.
N_MAX_DEFAULT = 1000
TERM_FLOOR = 1e-14

# The most negative value numerical roundoff may drive a mutual
# information to; anything lower signals an inconsistent input.
NEG_FLOOR = -1e-12

__all__ = [
    "N_MAX_DEFAULT",
    "TERM_FLOOR",
    "TriPartition",
    "InfoResult",
    "conditional_mi_closed",
    "conditional_mi_series",
    "loop_sum_mi_identity",
]


@dataclass(frozen=True)
class TriPartition:
    """Disjoint nonempty node sets A and B of a ``dim``-node system, and Z,
    every other node, worked out rather than given: the formulas read only
    the A and B blocks of R, so they condition on all the rest."""

    dim: int
    A: tuple
    B: tuple
    Z: tuple = field(init=False)

    def __post_init__(self):
        dim = _whole(self.dim, "dim", ParamOutOfBound, 0)
        A, B = _parts(dim, A=self.A, B=self.B)
        if not A or not B:
            raise IndexOutOfRange("A and B must both be nonempty")
        Z = tuple(sorted(set(range(dim)).difference(A, B)))
        for name, value in zip(("dim", "A", "B", "Z"), (dim, A, B, Z)):
            object.__setattr__(self, name, value)

    @classmethod
    def complement(cls, dim: int, A, B) -> "TriPartition":
        """``TriPartition(dim, A, B)``: A, B and every other node as Z."""
        return cls(dim=dim, A=A, B=B)


@dataclass(frozen=True)
class InfoResult:
    """A conditional mutual information value, in nats.

    ``method`` records the route ("closed" or "trace-series");
    ``series_terms`` holds the per-order contributions tr(T^n)/(2n)
    when the series route produced the value (the q-offset, if any, is
    not part of the terms).
    """

    nats: float
    method: str
    series_terms: tuple | None = None

    def __post_init__(self):
        if self.nats < NEG_FLOOR:
            raise PathcorrError(
                f"mutual information came out {self.nats:.3e} < 0; "
                "the input system is not consistently positive definite"
            )


def _coupling_graph(system) -> PartialCorrelationGraph:
    system = _instance(system, (PartialCorrelationGraph, PrecisionMatrix), "system")
    return precision_to_partial(system) if isinstance(system, PrecisionMatrix) else system


def _logdet_spd(m: np.ndarray, what: str) -> float:
    cf, _ = _cho(m, SingularBlock, what)
    return 2.0 * float(np.sum(np.log(np.diag(cf))))


def _blocks(system, part: TriPartition) -> tuple:
    """(M_A, Y): M_A = 1 - R_AA, Y = L_B^-1 R_BA (1 - R_BB = L_B L_B^T), X = Y^T Y."""
    r = _coupling_graph(system).weights
    part = _instance(part, TriPartition, "part")
    if r.shape[0] != part.dim:
        raise DimensionMismatch(f"partition is over {part.dim} nodes, system has {r.shape[0]}")
    a, b = part.A, part.B
    y = _whitened(r, a, b, "1 - R[B, B]")
    m_a = r[np.ix_(a, a)]
    return _one_minus(m_a, out=m_a), y


def conditional_mi_closed(system, part: TriPartition) -> InfoResult:
    """I(A; B | Z) by the closed determinant form.

    Evaluated as 1/2 [ln det(1 - R_AA) - ln det(1 - R_AA - X)] with
    X = R_AB (1 - R_BB)^-1 R_BA, both determinants through Cholesky
    factors; this equals -1/2 ln det(1 - T) without ever forming the
    nonsymmetric T.  Accepts a coupling graph or a precision matrix.
    """
    m_a, y = _blocks(system, part)
    conditional = m_a - y.T @ y  # before M_A is factorised, maybe in place
    nats = 0.5 * (
        _logdet_spd(m_a, "1 - R[A, A]")
        - _logdet_spd(conditional, "the conditional covariance block")
    )
    return InfoResult(nats=nats, method="closed")


def conditional_mi_series(
    system,
    part: TriPartition,
    n_max: int = N_MAX_DEFAULT,
    q: float | None = None,
) -> InfoResult:
    """I(A; B | Z) by the trace series of T, truncated at n_max terms.

    Term n is sum_k lambda_k^n / (2 n) over the eigenvalues of the
    pencil X v = lambda M_A v: those of z z^T, z = L_A^-1 Y^T.  Terms
    are added in ascending order n = 1, 2, ... and the sum stops early
    once the last term and the tail bound d_A rho^(n+1) /
    (2 (n + 1) (1 - rho)), rho the spectral radius of the summed
    matrix, are both below ``TERM_FLOOR``.  With a rescaling parameter
    q the series runs over T(q) = (1 - q) 1 + q T, whose eigenvalues
    are 1 - q + q lambda, and the exact offset (d_A / 2) ln q is added;
    q must lie in (0, 2 / (1 + nu(T))).  Without q, a spectral radius
    of T at or above 1 raises :class:`SpectralRadiusTooLarge` (a valid
    positive-definite system never reaches it).  A sum cut at n_max that comes out below zero
    raises :class:`ParamOutOfBound`, and so does an n_max outside the truncation lengths
    ``pathsum._check_length`` accepts.
    """
    n_max = _check_length(n_max, "n_max")
    m_a, y = _blocks(system, part)
    d_a = m_a.shape[0]
    low, _ = _cho(m_a, SingularBlock, "1 - R[A, A]")
    z = scipy.linalg.solve_triangular(low, y.T, lower=True)
    lam = np.linalg.eigvalsh(z @ z.T)
    nu = rho = float(np.max(np.abs(lam)))
    offset = 0.0
    if q is not None:
        q = _check_q(q, nu)
        lam = 1.0 - q + q * lam
        offset = 0.5 * d_a * math.log(q)
        rho = float(np.max(np.abs(lam)))
    elif nu >= 1.0:
        raise SpectralRadiusTooLarge(
            f"spectral radius of T is {nu:.6g} >= 1; rescale with q or "
            "use the closed form"
        )
    tail_scale = d_a / (2.0 * (1.0 - rho)) if rho < 1.0 else math.inf
    terms = []
    total = 0.0
    power = lam
    for n in range(1, n_max + 1):
        term = float(np.sum(power)) / (2.0 * n)
        terms.append(term)
        total += term
        if abs(term) < TERM_FLOOR and tail_scale * rho ** (n + 1) / (n + 1) < TERM_FLOOR:
            break
        power = power * lam
    else:
        if offset + total < NEG_FLOOR:
            raise ParamOutOfBound(
                f"trace series cut at n_max={n_max} terms with q={q} came out "
                f"{offset + total:.3e} < 0; raise n_max or q, or use the closed form"
            )
    return InfoResult(
        nats=offset + total, method="trace-series", series_terms=tuple(terms)
    )


def loop_sum_mi_identity(system, i: int, j: int) -> tuple:
    """Closed loop sum at i avoiding j, and the information it encodes.

    Returns the pair (loop_sum, mi) with mi = I(X_i; rest | X_j), the
    conditional mutual information between node i and all nodes other
    than i and j, given j.  The two are locked together:

        loop_sum = 1 - exp(-2 mi),

    so both come from the one factorisation behind the loop sum (the
    tests check the identity); a loop sum >= 1 raises DenominatorNonPositive.
    Needs at least three nodes, else there is no "rest" to talk to.
    """
    system = _coupling_graph(system)
    i, j = _check_pair(i, j, system.dim)
    if system.dim < 3:
        raise IndexOutOfRange("identity needs at least 3 nodes")
    loop = star_path_sum_closed(system, i, i, avoid=(j,))
    if not loop < 1.0:
        raise DenominatorNonPositive(f"loop sum at node {i} avoiding {j} is {loop:.6g} >= 1")
    return loop, -0.5 * math.log1p(-loop)
