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

import math
from dataclasses import dataclass

import numpy as np

from .chains import _chain_r
from .errors import (
    DimensionMismatch,
    EntryOutOfRange,
    NotPositiveDefinite,
    ParamOutOfBound,
    _instance,
    _real,
    _shown,
    _whole,
)
from .matrices import (
    CovarianceMatrix,
    PartialCorrelationGraph,
    SpectralReport,
    _floats,
    _freeze,
    _precision_graph,
    _spd_inverse,
    spectral_report,
)

# Identifier for the pinned RNG algorithm + Gaussian transform pair.
GENERATOR_ID = "philox4x64-10/inverse-cdf"

# Largest n * d a sample may hold, checked before anything is drawn: one
# draw keeps one n x d float array alive, about 80 MB at the cap.
MAX_ENTRIES = 10_000_000
_MAX_SIDE = math.isqrt(MAX_ENTRIES)  # largest d with d x d floats within the cap

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
    (with probability 1), and n * d may not exceed ``MAX_ENTRIES``; the
    seed is a 64-bit unsigned integer.
    """

    d: int
    n: int
    seed: int

    def __post_init__(self):
        d = _whole(self.d, "dimension d", ParamOutOfBound, 1)
        # More samples than dimensions, so the sample covariance inverts.
        n = _whole(self.n, "sample count n", ParamOutOfBound, d + 1)
        if n * d > MAX_ENTRIES:
            raise ParamOutOfBound(
                f"n * d must be at most {MAX_ENTRIES}, got n={_shown(n)} and d={_shown(d)}"
            )
        seed = _whole(self.seed, "seed", ParamOutOfBound, 0, 2**64 - 1)
        for name, value in (("d", d), ("n", n), ("seed", seed)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SampleResult:
    """A sampled coupling graph plus its spectral classification.

    ``flagged`` is True in the "rescale-required" regime (nu(R) >= 1):
    some pairs' plain truncated series may diverge, and expansion refuses
    those pairs; the caller decides whether to discard the draw or
    rescale.  The graph is always valid.
    """

    graph: PartialCorrelationGraph
    spectral: SpectralReport

    @property
    def flagged(self) -> bool:
        return self.spectral.regime == "rescale-required"


def sample_partial_graph(spec: SampleSpec) -> SampleResult:
    """Draw n iid standard-Gaussian d-vectors, return the implied graph.

    The sample covariance S uses denominator n, the precision is
    Omega = S^-1, and the graph is its partial-correlation form.
    Spectral radius at or above 1, where some pairs' plain truncated
    series may diverge, is reported through ``flagged`` rather than
    raised; a singular S raises :class:`SingularMatrix`, as any whole
    matrix that must be inverted does.
    """
    spec = _instance(spec, SampleSpec, "spec")
    gen = np.random.Generator(np.random.Philox(key=spec.seed))
    x = gen.random((spec.n, spec.d))
    # Imported here, not with the module: scipy.special costs every
    # process that imports pathcorr tens of milliseconds, and only this
    # inverse CDF needs it.
    from scipy.special import ndtri

    # Uniforms live in [0, 1); clamp into the open interval before the
    # inverse CDF so the tails stay finite.  Each step runs in the drawn array.
    ndtri(np.clip(x, 1e-300, 1.0 - 1e-16, out=x), out=x)
    x -= x.mean(axis=0)
    s = (x.T @ x) / spec.n  # a Gram product: exactly symmetric
    del x  # the n x d draw is not read again
    omega = _spd_inverse(s, "sample covariance")
    graph = _precision_graph(omega, None)
    return SampleResult(graph=graph, spectral=spectral_report(graph))


def _variances(values, n: int, what: str) -> np.ndarray:
    """``values`` as a read-only vector of n positive, finite variances."""
    v = _floats(values, f"{what} variances", (n,))
    if np.any(v <= 0):
        raise EntryOutOfRange(f"{what} variances must be positive")
    return _freeze(v)


@dataclass(frozen=True)
class FactorModel:
    """d factors over d variables: row l of ``weights`` is the mixing
    vector of factor l, ``variances`` its variance (default all 1).

    The implied precision sum_l v_l w_l w_l^T must be positive
    definite, else :class:`NotPositiveDefinite`, whose message names a
    variable carried by no factor at all.  Its graph is built and checked here.
    """

    weights: np.ndarray
    variances: np.ndarray | None = None

    def __post_init__(self):
        w = _floats(self.weights, "weights", (None, None))
        if not 0 < w.shape[0] == w.shape[1]:
            raise DimensionMismatch(f"weights must be square and nonempty, got shape {w.shape}")
        d = w.shape[0]
        v = _variances(np.ones(d) if self.variances is None else self.variances, d, "factor")
        diag = (v[:, None] * w**2).sum(axis=0)
        if np.any(diag == 0):
            dead = int(np.argmin(diag))
            raise NotPositiveDefinite(
                f"variable {dead} appears in no factor; its precision is zero"
            )
        a = np.sqrt(v)[:, None] * w
        try:
            graph = _precision_graph(a.T @ a, None)  # a Gram product: exactly symmetric
        except (NotPositiveDefinite, EntryOutOfRange) as exc:
            # A partial correlation of magnitude 1 is a singular precision.
            raise NotPositiveDefinite(f"implied precision: {exc}") from exc
        object.__setattr__(self, "_graph", graph)
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "variances", v)

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def factor_model_partial(fm: FactorModel) -> PartialCorrelationGraph:
    """Partial correlations of a factor model.

    r_ij = -sum_l v_l w_li w_lj / sqrt(sum_l v_l w_li^2 * sum_l v_l w_lj^2)

    for i != j; each pairwise term carries its factor's variance.  This
    is the graph of the implied precision sum_l v_l w_l w_l^T, split
    like any other precision, with scales sqrt(sum_l v_l w_li^2).
    """
    return _instance(fm, FactorModel, "fm")._graph


def _chain_weights(d: int, r: float) -> np.ndarray:
    m = np.zeros((d, d))
    idx = np.arange(d - 1)
    m[idx, idx + 1] = r
    m[idx + 1, idx] = r
    return m


_CANONICAL_PARAMS = {
    "chain": ("d", "r"),
    "ring": ("d", "r"),
    "one_many_one": ("d", "r"),
    "example_R": ("r12", "r13", "r23", "r24", "r34"),
}


def canonical_graph(kind: str, **params) -> PartialCorrelationGraph:
    """Build one of the named reference topologies.

    kind "chain":        params 2 <= d <= 3162, |r| <= 1/2.
    kind "ring":         params 3 <= d <= 3162, |r| < 1/2 (strict: the ring
                         closes a cycle, so the chain's edge case
                         fails positive definiteness).
    kind "one_many_one": params 3 <= d <= 3162, (d-2) r^2 < 1/2; nodes 1 and d
                         each couple with weight r to every middle
                         node, middles are mutually uncoupled.
    kind "example_R":    params r12, r13, r23, r24, r34; the 4-node
                         graph with no 1-4 edge.

    Violating a bound, an unknown kind, a missing or extra parameter,
    and weights the graph constructor refuses (a 1 - R too close to
    singular, just inside a bound) raise :class:`ParamOutOfBound`.
    """
    names = _CANONICAL_PARAMS.get(kind)
    if names is None:
        raise ParamOutOfBound(f"unknown kind {kind!r}; kinds: {', '.join(_CANONICAL_PARAMS)}")
    if set(params) != set(names):
        raise ParamOutOfBound(f"{kind} takes {', '.join(names)}, got {', '.join(sorted(params))}")
    if kind == "example_R":
        m = np.zeros((4, 4))
        for key in names:
            i, j = int(key[1]) - 1, int(key[2]) - 1
            m[i, j] = m[j, i] = _real(params[key], key, ParamOutOfBound)
    elif kind == "chain":
        d = _whole(params["d"], "chain d", ParamOutOfBound, 2, _MAX_SIDE)
        m = _chain_weights(d, _chain_r(params["r"]))
    else:
        d = _whole(params["d"], f"{kind} d", ParamOutOfBound, 3, _MAX_SIDE)
        r = _real(params["r"], f"{kind} r", ParamOutOfBound)
        if kind == "ring":
            if abs(r) >= 0.5:
                raise ParamOutOfBound(f"ring needs |r| < 1/2, got {r}")
            m = _chain_weights(d, r)
            m[0, d - 1] = m[d - 1, 0] = r
        else:
            if (d - 2) * r * r >= 0.5:
                raise ParamOutOfBound(
                    f"one_many_one needs (d-2) r^2 < 1/2, got {(d - 2) * r * r:.4g}"
                )
            m = np.zeros((d, d))
            m[0, 1 : d - 1] = m[1 : d - 1, 0] = m[d - 1, 1 : d - 1] = m[1 : d - 1, d - 1] = r
    try:
        return PartialCorrelationGraph(weights=m)
    except (NotPositiveDefinite, EntryOutOfRange) as exc:
        raise ParamOutOfBound(f"{kind} weights are not admissible: {exc}") from exc


@dataclass(frozen=True)
class MartingaleSpec:
    """Discrete-time process E(X_t | past) = alpha X_{t-1} over
    ``horizon`` <= 3162 steps with independent innovations of the given
    positive variances (one per step, the first being Var(X_1))."""

    horizon: int
    alpha: float
    innovation_variances: np.ndarray

    def __post_init__(self):
        horizon = _whole(self.horizon, "horizon", ParamOutOfBound, 1, _MAX_SIDE)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha", ParamOutOfBound))
        v = _variances(self.innovation_variances, self.horizon, "innovation")
        object.__setattr__(self, "innovation_variances", v)


def martingale_covariance(spec: MartingaleSpec) -> CovarianceMatrix:
    """Covariance of (X_1 .. X_T) for the scaled-martingale process.

    Var(X_1) = v_1, Var(X_t) = alpha^2 Var(X_{t-1}) + v_t, and
    Cov(X_s, X_t) = alpha^(t-s) Var(X_s) for s <= t.  Positive
    innovation variances make it positive definite for any alpha, but with
    |alpha| > 1 its reciprocal condition estimate falls to ``TOL_PD`` as T grows
    and the covariance check raises :class:`NotPositiveDefinite`: with unit
    innovations, from T = 19 at alpha = 2, 31 at 1.5, 117 at 1.1 and 891 at 1.01.
    """
    spec = _instance(spec, MartingaleSpec, "spec")
    t_n = spec.horizon
    v = spec.innovation_variances
    var = np.empty(t_n)
    var[0] = v[0]
    for t in range(1, t_n):
        var[t] = spec.alpha**2 * var[t - 1] + v[t]
    cov = np.empty((t_n, t_n))
    for k in range(t_n):  # lag k: the entries (s, s + k) and (s + k, s)
        s = np.arange(t_n - k)
        cov[s, s + k] = cov[s + k, s] = spec.alpha**k * var[: t_n - k]
    return CovarianceMatrix(entries=cov)
