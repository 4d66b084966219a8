"""Generators for test systems: random, factor-built, and structured.

Reproducibility contract: random draws come from the counter-based
Philox 4x64 generator seeded with a 64-bit key, and Gaussian deviates
are produced by the inverse normal CDF applied to its uniforms.  Both
choices are deterministic given the seed, with no rejection steps, so
identical seeds give bit-identical output on any platform with a
conforming Philox and ndtri.  ``GENERATOR_ID`` names this pairing and
is embedded in file provenance blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import (
    DegenerateColumn,
    DimensionMismatch,
    NotPositiveDefinite,
    ParamOutOfBound,
    SingularSampleCovariance,
    _whole,
)
from .matrices import (
    CovarianceMatrix,
    PartialCorrelationGraph,
    SpectralReport,
    _precision_graph,
    _spd_solve,
    spectral_report,
)

# Identifier for the pinned RNG algorithm + Gaussian transform pair.
GENERATOR_ID = "philox4x64-10/inverse-cdf"

__all__ = [
    "GENERATOR_ID",
    "SampleSpec",
    "SampleResult",
    "FactorModel",
    "MartingaleSpec",
    "sample_partial_graph",
    "factor_model_partial",
    "canonical_graph",
    "martingale_covariance",
]


@dataclass(frozen=True)
class SampleSpec:
    """Recipe for one sampled system: dimension, sample count, seed.

    ``n`` must exceed ``d`` so the sample covariance is invertible
    (with probability 1); the seed is a 64-bit unsigned integer.
    """

    d: int
    n: int
    seed: int

    def __post_init__(self):
        d = _whole(self.d, "dimension d", ParamOutOfBound, 1)
        # More samples than dimensions, so the sample covariance inverts.
        n = _whole(self.n, "sample count n", ParamOutOfBound, d + 1)
        seed = _whole(self.seed, "seed", ParamOutOfBound, 0, 2**64 - 1)
        for name, value in (("d", d), ("n", n), ("seed", seed)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SampleResult:
    """A sampled coupling graph plus its spectral classification.

    ``flagged`` is True when nu(R) >= 1: the draw falls outside the
    plain path-expansion regime and the caller decides whether to
    discard it or rescale.  The graph itself is always valid.
    """

    graph: PartialCorrelationGraph
    spectral: SpectralReport
    flagged: bool


def sample_partial_graph(spec: SampleSpec) -> SampleResult:
    """Draw n iid standard-Gaussian d-vectors, return the implied graph.

    The sample covariance S uses denominator n, the precision is
    Omega = S^-1, and the graph is its partial-correlation form.
    Spectral radius at or above 1 is reported through ``flagged``
    rather than raised; a singular S raises
    :class:`SingularSampleCovariance`.
    """
    gen = np.random.Generator(np.random.Philox(key=spec.seed))
    u = gen.random((spec.n, spec.d))
    # Uniforms live in [0, 1); clamp into the open interval before the
    # inverse CDF so the tails stay finite.
    x = scipy.special.ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
    xc = x - x.mean(axis=0)
    s = (xc.T @ xc) / spec.n
    s = (s + s.T) / 2.0
    omega = _spd_solve(s, np.eye(spec.d), SingularSampleCovariance, "sample covariance")
    graph = _precision_graph(omega, None)
    report = spectral_report(graph)
    return SampleResult(
        graph=graph, spectral=report, flagged=bool(report.nu_R >= 1.0)
    )


@dataclass(frozen=True)
class FactorModel:
    """d factors over d variables: row l of ``weights`` is the mixing
    vector of factor l, ``variances`` its variance (default all 1).

    The implied precision sum_l v_l w_l w_l^T must be positive
    definite; a variable carried by no factor at all raises
    :class:`DegenerateColumn`.
    """

    weights: np.ndarray
    variances: np.ndarray | None = None

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionMismatch(
                f"weights must be d rows of d entries, got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ParamOutOfBound("weights must be finite")
        d = w.shape[0]
        if self.variances is None:
            v = np.ones(d)
        else:
            v = np.array(self.variances, dtype=float).reshape(-1)
            if v.shape[0] != d:
                raise DimensionMismatch(
                    f"expected {d} factor variances, got {v.shape[0]}"
                )
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ParamOutOfBound("factor variances must be positive and finite")
        diag = (v[:, None] * w**2).sum(axis=0)
        if np.any(diag == 0):
            dead = int(np.argmin(diag))
            raise DegenerateColumn(
                f"variable {dead} appears in no factor; its precision is zero"
            )
        omega = (v[:, None] * w).T @ w
        eigs = np.linalg.eigvalsh((omega + omega.T) / 2.0)
        if eigs[0] <= 0:
            raise NotPositiveDefinite(
                f"implied precision has eigenvalue {eigs[0]:.3e} <= 0"
            )
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "variances", v)

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def factor_model_partial(fm: FactorModel) -> PartialCorrelationGraph:
    """Partial correlations of a factor model, by the direct formula.

    r_ij = -sum_l v_l w_li w_lj / sqrt(sum_l v_l w_li^2 * sum_l v_l w_lj^2)

    for i != j; each pairwise term carries its factor's variance.  The
    result equals converting the implied precision, but is evaluated
    straight from the weights.
    """
    w = fm.weights
    v = fm.variances
    cross = (v[:, None] * w).T @ w
    diag = np.diag(cross).copy()
    if np.any(diag <= 0):
        dead = int(np.argmin(diag))
        raise DegenerateColumn(
            f"variable {dead} appears in no factor; its precision is zero"
        )
    denom = np.sqrt(np.outer(diag, diag))
    r = -cross / denom
    np.fill_diagonal(r, 0.0)
    return PartialCorrelationGraph(weights=r, scale=np.sqrt(diag))


def _chain_weights(d: int, r: float) -> np.ndarray:
    m = np.zeros((d, d))
    idx = np.arange(d - 1)
    m[idx, idx + 1] = r
    m[idx + 1, idx] = r
    return m


def canonical_graph(kind: str, **params) -> PartialCorrelationGraph:
    """Build one of the named reference topologies.

    kind "chain":        params d >= 2, |r| <= 1/2.
    kind "ring":         params d >= 3, |r| < 1/2 (strict: the ring
                         closes a cycle, so the chain's edge case
                         fails positive definiteness).
    kind "one_many_one": params d >= 3, (d-2) r^2 < 1/2; nodes 1 and d
                         each couple with weight r to every middle
                         node, middles are mutually uncoupled.
    kind "example_R":    params r12, r13, r23, r24, r34; the 4-node
                         graph with no 1-4 edge.

    Violating a bound raises :class:`ParamOutOfBound`.
    """
    if kind in ("chain", "ring", "one_many_one"):
        d_min = 2 if kind == "chain" else 3
        d = _whole(params.pop("d"), f"{kind} d", ParamOutOfBound, d_min)
        r = float(params.pop("r"))
        _no_extras(kind, params)
    if kind == "chain":
        if abs(r) > 0.5:
            raise ParamOutOfBound(f"chain needs |r| <= 1/2, got {r}")
        return PartialCorrelationGraph(weights=_chain_weights(d, r))
    if kind == "ring":
        if abs(r) >= 0.5:
            raise ParamOutOfBound(f"ring needs |r| < 1/2, got {r}")
        m = _chain_weights(d, r)
        m[0, d - 1] = m[d - 1, 0] = r
        return PartialCorrelationGraph(weights=m)
    if kind == "one_many_one":
        if (d - 2) * r * r >= 0.5:
            raise ParamOutOfBound(
                f"one_many_one needs (d-2) r^2 < 1/2, got {(d - 2) * r * r:.4g}"
            )
        m = np.zeros((d, d))
        m[0, 1 : d - 1] = r
        m[1 : d - 1, 0] = r
        m[d - 1, 1 : d - 1] = r
        m[1 : d - 1, d - 1] = r
        return PartialCorrelationGraph(weights=m)
    if kind == "example_R":
        vals = {key: float(params.pop(key)) for key in ("r12", "r13", "r23", "r24", "r34")}
        _no_extras(kind, params)
        m = np.zeros((4, 4))
        for key, val in vals.items():
            i, j = int(key[1]) - 1, int(key[2]) - 1
            m[i, j] = m[j, i] = val
        try:
            return PartialCorrelationGraph(weights=m)
        except NotPositiveDefinite as exc:
            raise ParamOutOfBound(f"example_R weights are not admissible: {exc}") from exc
    raise ValueError(f"unknown canonical kind {kind!r}")


def _no_extras(kind: str, params: dict):
    if params:
        raise TypeError(f"unexpected parameters for {kind}: {sorted(params)}")


@dataclass(frozen=True)
class MartingaleSpec:
    """Discrete-time process E(X_t | past) = alpha X_{t-1} over
    ``horizon`` steps with independent innovations of the given
    positive variances (one per step, the first being Var(X_1))."""

    horizon: int
    alpha: float
    innovation_variances: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "horizon", _whole(self.horizon, "horizon", ParamOutOfBound, 1))
        if not np.isfinite(self.alpha):
            raise ParamOutOfBound("alpha must be finite")
        v = np.array(self.innovation_variances, dtype=float).reshape(-1)
        if v.shape[0] != self.horizon:
            raise DimensionMismatch(
                f"expected {self.horizon} innovation variances, got {v.shape[0]}"
            )
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ParamOutOfBound("innovation variances must be positive and finite")
        v.setflags(write=False)
        object.__setattr__(self, "innovation_variances", v)


def martingale_covariance(spec: MartingaleSpec) -> CovarianceMatrix:
    """Covariance of (X_1 .. X_T) for the scaled-martingale process.

    Var(X_1) = v_1, Var(X_t) = alpha^2 Var(X_{t-1}) + v_t, and
    Cov(X_s, X_t) = alpha^(t-s) Var(X_s) for s <= t.  Positive
    innovation variances keep it positive definite for any alpha.
    """
    t_n = spec.horizon
    v = spec.innovation_variances
    var = np.empty(t_n)
    var[0] = v[0]
    for t in range(1, t_n):
        var[t] = spec.alpha**2 * var[t - 1] + v[t]
    cov = np.empty((t_n, t_n))
    for s in range(t_n):
        for t in range(s, t_n):
            cov[s, t] = cov[t, s] = spec.alpha ** (t - s) * var[s]
    return CovarianceMatrix(entries=cov)
