"""Gaussian conditional mutual information from the coupling graph.

For a Gaussian system split into disjoint node sets A, B and the
remainder Z, the conditional mutual information I(A; B | Z) is a log
determinant built from blocks of the coupling matrix R:

    T = R_AB (1 - R_BB)^-1 R_BA (1 - R_AA)^-1,
    I(A; B | Z) = -1/2 ln det(1 - T).

Conditioning on Z never appears explicitly: partial correlations
already hold everything else fixed, which is exactly the conditioning
the formula needs.  The same quantity expands into a trace series,

    I = sum_(n>=1) tr(T^n) / (2 n),

whose n-th term collects the closed paths that alternate n times
between A and B; the series converges whenever the spectral radius of
T is below 1, which every positive-definite system satisfies.  A
rescaled variant sums the series of T(q) = (1 - q) 1 + q T and adds
(d_A / 2) ln q, using that 1 - T(q) = q (1 - T).

Everything here interprets its input as a Gaussian density; the
information is returned in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    IndexOutOfRange,
    ParamOutOfBound,
    PathcorrError,
    QOutOfRange,
    SingularBlock,
    SpectralRadiusTooLarge,
    _whole,
)
from .matrices import (
    PartialCorrelationGraph,
    PrecisionMatrix,
    _cho,
    _spd_solve,
    precision_to_partial,
)
from .pathsum import _check_node, _check_pair, _check_q, star_path_sum_closed

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
    """Disjoint node sets A, B, Z covering a system; Z may be empty.

    Build with explicit sets, or through :meth:`complement`, which
    fills Z with every node outside A and B.
    """

    dim: int
    A: tuple
    B: tuple
    Z: tuple = ()

    def __post_init__(self):
        dim = _whole(self.dim, "dim", IndexOutOfRange, 0)
        a, b, z = (
            sorted(_check_node(v, dim, f"{name} node") for v in getattr(self, name))
            for name in "ABZ"
        )
        if not a or not b:
            raise IndexOutOfRange("A and B must both be nonempty")
        sa, sb, sz = set(a), set(b), set(z)
        if len(sa) != len(a) or len(sb) != len(b) or len(sz) != len(z):
            raise IndexOutOfRange("a node repeats within a part")
        if sa & sb or sa & sz or sb & sz:
            raise IndexOutOfRange("A, B, Z must be disjoint")
        if sa | sb | sz != set(range(dim)):
            raise IndexOutOfRange(
                "A, B, Z together must cover every node; "
                "use TriPartition.complement to fill Z"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "A", tuple(a))
        object.__setattr__(self, "B", tuple(b))
        object.__setattr__(self, "Z", tuple(z))

    @classmethod
    def complement(cls, dim: int, A, B) -> "TriPartition":
        a, b = set(A), set(B)
        z = set(range(_whole(dim, "dim", IndexOutOfRange, 0))) - a - b
        return cls(dim=dim, A=tuple(a), B=tuple(b), Z=tuple(z))


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
    if isinstance(system, PartialCorrelationGraph):
        return system
    if isinstance(system, PrecisionMatrix):
        return precision_to_partial(system)
    raise TypeError(
        "expected a PartialCorrelationGraph or PrecisionMatrix, "
        f"got {type(system).__name__}"
    )


def _logdet_spd(m: np.ndarray, what: str) -> float:
    cf, _ = _cho(m, SingularBlock, what)
    return 2.0 * float(np.sum(np.log(np.diag(cf))))


def _blocks(system, part: TriPartition) -> tuple:
    """(M_A, X) with M_A = 1 - R_AA and X = R_AB (1 - R_BB)^-1 R_BA."""
    r = _coupling_graph(system).weights
    if r.shape[0] != part.dim:
        raise IndexOutOfRange(
            f"partition is over {part.dim} nodes, system has {r.shape[0]}"
        )
    a = list(part.A)
    b = list(part.B)
    m_a = np.eye(len(a)) - r[np.ix_(a, a)]
    m_b = np.eye(len(b)) - r[np.ix_(b, b)]
    r_ab = r[np.ix_(a, b)]
    x = r_ab @ _spd_solve(m_b, r_ab.T, SingularBlock, "1 - R[B, B]")
    x = (x + x.T) / 2.0
    return m_a, x


def conditional_mi_closed(system, part: TriPartition) -> InfoResult:
    """I(A; B | Z) by the closed determinant form.

    Evaluated as 1/2 [ln det(1 - R_AA) - ln det(1 - R_AA - X)] with
    X = R_AB (1 - R_BB)^-1 R_BA, both determinants through Cholesky
    factors; this equals -1/2 ln det(1 - T) without ever forming the
    nonsymmetric T.  Accepts a coupling graph or a precision matrix.
    """
    m_a, x = _blocks(system, part)
    nats = 0.5 * (
        _logdet_spd(m_a, "1 - R[A, A]")
        - _logdet_spd(m_a - x, "the conditional covariance block")
    )
    return InfoResult(nats=nats, method="closed")


def conditional_mi_series(
    system,
    part: TriPartition,
    n_max: int = N_MAX_DEFAULT,
    q: float | None = None,
) -> InfoResult:
    """I(A; B | Z) by the trace series of T, truncated at n_max terms.

    Terms are added in ascending order n = 1, 2, ... and the sum stops
    early once the last term and the tail bound d_A rho^(n+1) /
    (2 (n + 1) (1 - rho)), rho the spectral radius of the summed
    matrix, are both below ``TERM_FLOOR``.  With a rescaling parameter
    q the series runs over T(q) = (1 - q) 1 + q T and the exact offset
    (d_A / 2) ln q is added; q must lie in (0, 2 / (1 + nu(T))).
    Without q, a spectral radius of T at or above 1 raises
    :class:`SpectralRadiusTooLarge` (a valid positive-definite system
    never reaches it).  A sum cut at n_max that comes out below zero
    raises :class:`ParamOutOfBound`.
    """
    n_max = _whole(n_max, "n_max", QOutOfRange, 1)
    m_a, x = _blocks(system, part)
    d_a = m_a.shape[0]
    t = _spd_solve(m_a, x, SingularBlock, "1 - R[A, A]")
    # Generalized symmetric eigenproblem X v = lambda M_A v gives the
    # spectrum of T = X (M_A)^-1 without forming it.
    lam = scipy.linalg.eigh(x, m_a, eigvals_only=True)
    nu = rho = float(np.max(np.abs(lam)))
    offset = 0.0
    if q is not None:
        q = _check_q(q, nu)
        t = (1.0 - q) * np.eye(d_a) + q * t
        offset = 0.5 * d_a * math.log(q)
        rho = float(np.max(np.abs(1.0 - q + q * lam)))
    elif nu >= 1.0:
        raise SpectralRadiusTooLarge(
            f"spectral radius of T is {nu:.6g} >= 1; rescale with q or "
            "use the closed form"
        )
    tail_scale = d_a / (2.0 * (1.0 - rho)) if rho < 1.0 else math.inf
    terms = []
    total = 0.0
    power = t.copy()
    for n in range(1, n_max + 1):
        term = float(np.trace(power)) / (2.0 * n)
        terms.append(term)
        total += term
        if abs(term) < TERM_FLOOR and tail_scale * rho ** (n + 1) / (n + 1) < TERM_FLOOR:
            break
        if n < n_max:
            power = power @ t
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

    and the function checks that identity to 1e-10 before returning.
    Needs at least three nodes, else there is no "rest" to talk to.
    """
    system = _coupling_graph(system)
    dim = system.dim
    i, j = _check_pair(i, j, dim)
    if dim < 3:
        raise IndexOutOfRange("identity needs at least 3 nodes")
    loop = star_path_sum_closed(system, i, i, avoid=(j,))
    rest = tuple(v for v in range(dim) if v not in (i, j))
    part = TriPartition(dim=dim, A=(i,), B=rest, Z=(j,))
    mi = conditional_mi_closed(system, part).nats
    residual = abs(loop - (1.0 - math.exp(-2.0 * mi)))
    if residual > 1e-10:
        raise PathcorrError(
            f"loop sum and information disagree by {residual:.3e}; "
            "the system is numerically inconsistent"
        )
    return float(loop), float(mi)
