"""One rule for every real-valued argument: finite numbers pass, nothing is parsed.

Each row of ``SITES`` puts a value at one real argument of the library
(a chain coupling r, a rescaling q, a canonical weight, alpha) and names
the class that site raises.  A numeric string, NaN, either infinity
and, where the argument has no default, None must each raise that
class; numpy scalars of a value exact in every float width must give
exactly the plain-float result.

Each row of ``ARRAYS`` puts a value at one array argument (a matrix,
the graph's scale, factor weights and variances, innovation variances).
Every array follows one rule, whatever the site: a string, complex or
NaN entry and ragged rows raise EntryOutOfRange, and a vector given as
a 2-D array of the right size raises DimensionMismatch rather than
being flattened.  An ndarray gives exactly the plain-list result and
stays writeable and unchanged.  ``WRONG_SHAPES`` holds one argument of
the wrong shape or length per site, each refused with DimensionMismatch.
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import pytest

from pathcorr import (
    ChainSpec,
    CovarianceMatrix,
    DimensionMismatch,
    EntryOutOfRange,
    FactorModel,
    MarginalCorrelationMatrix,
    MartingaleSpec,
    ParamOutOfBound,
    PartialCorrelationGraph,
    PrecisionMatrix,
    QOutOfRange,
    TriPartition,
    amplification_factor,
    canonical_graph,
    chain_sums,
    conditional_mi_series,
    correlation_length,
    factor_model_partial,
    l_infinity,
    l_infinity_series,
    martingale_covariance,
    rescale,
    verify_reduction,
)
from pathcorr.fileio import matrix_from_kind
from test_whole_numbers import G, PART, RED


EXAMPLE = {"r12": 0.25, "r13": 0.125, "r23": -0.25, "r24": 0.25, "r34": 0.125}


def example_with(key):
    return lambda v: canonical_graph("example_R", **{**EXAMPLE, key: v}).weights.tolist()


@dataclass(frozen=True)
class Site:
    """``call(v)`` puts v at one real argument; ``plain`` is a valid float there."""

    id: str
    call: Callable
    plain: float
    error: type


SITES = [
    Site("chain-r", lambda v: chain_sums(ChainSpec(d=5, r=v)).c, 0.25, ParamOutOfBound),
    Site("correlation-length", correlation_length, 0.25, ParamOutOfBound),
    Site("l-infinity", l_infinity, 0.25, ParamOutOfBound),
    Site("l-infinity-series", lambda v: l_infinity_series(v, 10), 0.25, ParamOutOfBound),
    Site("amplification-r", lambda v: amplification_factor(2, 1, v), 0.25, ParamOutOfBound),
    Site("rescale-q", lambda v: rescale(G, v).weights.tolist(), 0.5, QOutOfRange),
    Site("mi-series-q", lambda v: conditional_mi_series(G, PART, q=v).nats, 0.5, QOutOfRange),
    Site("canonical-chain-r",
         lambda v: canonical_graph("chain", d=4, r=v).weights.tolist(), 0.25, ParamOutOfBound),
    Site("canonical-ring-r",
         lambda v: canonical_graph("ring", d=4, r=v).weights.tolist(), 0.25, ParamOutOfBound),
    Site("canonical-one-many-one-r",
         lambda v: canonical_graph("one_many_one", d=4, r=v).weights.tolist(),
         0.25, ParamOutOfBound),
    *(Site(f"example-{key}", example_with(key), val, ParamOutOfBound)
      for key, val in EXAMPLE.items()),
    Site("alpha",
         lambda v: martingale_covariance(
             MartingaleSpec(horizon=3, alpha=v, innovation_variances=np.ones(3))
         ).entries.tolist(),
         0.5, ParamOutOfBound),
]
SITE_IDS = [s.id for s in SITES]

COV = [[2.0, 0.5], [0.5, 1.0]]
FOUR = [1.0, 2.0, 3.0, 4.0]
# Upper bidiagonal, so every factor mixes two variables.
MIXING = (np.eye(4) + np.diag([0.5, 0.5, 0.5], 1)).tolist()


@dataclass(frozen=True)
class ArraySite:
    """``call(v)`` puts v at one array argument; ``plain`` is a valid list there."""

    id: str
    call: Callable
    plain: list


ARRAYS = [
    ArraySite("graph-weights",
              lambda v: PartialCorrelationGraph(v).weights.tolist(), G.weights.tolist()),
    ArraySite("covariance", lambda v: CovarianceMatrix(v).entries.tolist(), COV),
    ArraySite("precision", lambda v: PrecisionMatrix(v).entries.tolist(), COV),
    ArraySite("marginal",
              lambda v: MarginalCorrelationMatrix(v).entries.tolist(), [[1.0, 0.3], [0.3, 1.0]]),
    ArraySite("graph-scale",
              lambda v: PartialCorrelationGraph(G.weights, scale=v).scale.tolist(), FOUR),
    ArraySite("factor-weights",
              lambda v: factor_model_partial(FactorModel(weights=v)).weights.tolist(), MIXING),
    ArraySite("factor-variances",
              lambda v: factor_model_partial(FactorModel(MIXING, variances=v)).weights.tolist(),
              FOUR),
    ArraySite("innovation-variances",
              lambda v: martingale_covariance(MartingaleSpec(4, 0.5, v)).entries.tolist(), FOUR),
    ArraySite("matrix-from-kind",
              lambda v: matrix_from_kind("covariance", v).entries.tolist(), COV),
]
ARRAY_IDS = [s.id for s in ARRAYS]
VECTORS = [s for s in ARRAYS if np.ndim(s.plain) == 1]


def with_first(plain, change):
    """``plain`` with its first entry x replaced by change(x)."""
    if isinstance(plain[0], list):
        return [[change(plain[0][0]), *plain[0][1:]], *plain[1:]]
    return [change(plain[0]), *plain[1:]]


def ragged(plain):
    """Rows of unequal length holding the entries of ``plain``."""
    if isinstance(plain[0], list):
        return [plain[0][:-1], *plain[1:]]
    return [plain[:1], plain[1:]]


@pytest.mark.parametrize("site", SITES, ids=SITE_IDS)
@pytest.mark.parametrize(
    "bad",
    [str, lambda p: float("nan"), lambda p: float("inf"), lambda p: float("-inf"),
     lambda p: 10**400, lambda p: 10**5000],
    ids=["numeric-string", "nan", "inf", "-inf", "int-beyond-float", "int-too-long-to-print"],
)
def test_not_a_finite_number_raises_the_site_class(site, bad):
    with pytest.raises(site.error, match="finite real number"):
        site.call(bad(site.plain))


# q = None asks for the default rescaling; every other real argument has no default.
REQUIRED = [s for s in SITES if not s.id.endswith("-q")]


@pytest.mark.parametrize("site", REQUIRED, ids=[s.id for s in REQUIRED])
def test_none_raises_the_site_class(site):
    with pytest.raises(site.error, match="finite real number"):
        site.call(None)


@pytest.mark.parametrize("site", SITES, ids=SITE_IDS)
@pytest.mark.parametrize("kind", [np.float64, np.float32], ids=["float64", "float32"])
def test_numpy_scalars_match_plain_float(site, kind):
    assert site.call(kind(site.plain)) == site.call(site.plain)


def test_real_fields_are_stored_as_float():
    assert type(ChainSpec(d=3, r=np.float32(0.25)).r) is float
    spec = MartingaleSpec(horizon=3, alpha=np.float32(0.5), innovation_variances=np.ones(3))
    assert type(spec.alpha) is float
    assert MartingaleSpec(3, True, np.ones(3)).alpha == 1.0


@pytest.mark.parametrize("site", ARRAYS, ids=ARRAY_IDS)
@pytest.mark.parametrize(
    "bad",
    [lambda p: with_first(p, str), lambda p: with_first(p, lambda x: x + 0.2j), ragged,
     lambda p: with_first(p, lambda x: float("nan"))],
    ids=["numeric-string", "complex", "ragged", "nan"],
)
def test_not_a_finite_real_array_raises_the_site_class(site, bad):
    with pytest.raises(EntryOutOfRange, match="real numbers"):
        site.call(bad(site.plain))


@pytest.mark.parametrize("site", VECTORS, ids=[s.id for s in VECTORS])
def test_two_dimensional_vector_is_not_flattened(site):
    with pytest.raises(DimensionMismatch, match="must have shape"):
        site.call(np.reshape(site.plain, (2, -1)).tolist())


WRONG_SHAPES = [
    ("non-square-matrix", lambda: CovarianceMatrix(np.ones((2, 3))),
     r"expected a square matrix, got shape \(2, 3\)"),
    ("graph-scale", lambda: PartialCorrelationGraph(G.weights, scale=FOUR[:3]),
     r"scale must have shape \(4,\), got shape \(3,\)"),
    ("label-count", lambda: PartialCorrelationGraph(G.weights, labels=("a", "b", "c")),
     "got 3 labels for a 4-node system"),
    ("factor-weights", lambda: FactorModel(weights=np.ones((2, 3))),
     "weights must be square and nonempty"),
    ("factor-variances", lambda: FactorModel(MIXING, variances=FOUR[:3]),
     r"factor variances must have shape \(4,\)"),
    ("innovation-variances", lambda: MartingaleSpec(4, 0.5, FOUR[:3]),
     r"innovation variances must have shape \(4,\)"),
    ("partition-vs-system",
     lambda: conditional_mi_series(G, TriPartition(dim=5, A=(0,), B=(3,))),
     "partition is over 5 nodes, system has 4"),
    ("reduced-dim", lambda: verify_reduction(G, replace(RED, latent_count=RED.latent_count + 1)),
     "reduced graph has"),
]


@pytest.mark.parametrize("call,message", [(c, m) for _, c, m in WRONG_SHAPES],
                         ids=[i for i, _, _ in WRONG_SHAPES])
def test_wrong_shape_or_length_raises_dimension_mismatch(call, message):
    with pytest.raises(DimensionMismatch, match=message):
        call()


@pytest.mark.parametrize("site", ARRAYS, ids=ARRAY_IDS)
def test_ndarray_matches_list_and_stays_the_callers(site):
    given = np.array(site.plain)
    assert site.call(given) == site.call(site.plain)
    assert given.flags.writeable
    assert given.tolist() == site.plain
