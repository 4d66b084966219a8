"""One rule for every typed argument: the right object passes, nothing is converted.

Each row of ``SITES`` puts a value at one typed argument of the library
(a graph, a matrix, a spec, a partition, a query or a reduction) and
names that argument.  An ndarray, None, a tuple and a typed object of
the wrong kind must each raise :class:`ParamOutOfBound` whose message
names the argument, never a bare ``AttributeError`` or ``TypeError``;
a raw array reaches a conversion only through a constructor.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from pathcorr import (
    ChainSpec,
    CovarianceMatrix,
    ParamOutOfBound,
    PathQuery,
    PrecisionMatrix,
    RescaledGraph,
    SampleSpec,
    TriPartition,
    chain_pair_corr,
    chain_sums,
    conditional_mi_closed,
    conditional_mi_series,
    convergence_profile,
    cov_to_marginal,
    cov_to_precision,
    detect_separating_nodes,
    endpoint_corr_recurrence,
    enumerate_paths,
    factor_model_partial,
    factorisation_residual,
    latent_reduce,
    loop_sum_mi_identity,
    marginal_corr_closed,
    marginal_corr_expansion,
    marginalize_nodes,
    martingale_covariance,
    partial_to_marginal_oracle,
    partial_to_precision,
    path_sum_truncated,
    precision_to_cov,
    precision_to_partial,
    rescale,
    sample_partial_graph,
    sever_nodes,
    spectral_report,
    star_path_sum_closed,
    star_path_sum_truncated,
    validate_partial_graph,
    verify_reduction,
)
from pathcorr import fileio


def _graph():
    w = np.zeros((4, 4))
    for (a, b), r in {(0, 1): 0.3, (1, 2): 0.4, (2, 3): 0.2, (0, 2): 0.1}.items():
        w[a, b] = w[b, a] = r
    return validate_partial_graph(w, scale=[1.0, 2.0, 0.5, 1.5])


G = _graph()
RG = rescale(G, 0.5)
COV = CovarianceMatrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
PREC = PrecisionMatrix(np.array([[2.0, -0.3], [-0.3, 1.0]]))
PART = TriPartition(dim=4, A=(0,), B=(3,))
QUERY = PathQuery(source=0, target=3, max_length=3)
RED = latent_reduce(G, [2])
CHAIN = ChainSpec(d=6, r=0.3)
SAMPLE = SampleSpec(d=3, n=20, seed=1)


@dataclass(frozen=True)
class Site:
    """``call(v)`` puts v at the typed argument ``name``; ``wrong`` is an
    object of a package type that argument does not take."""

    id: str
    name: str
    call: Callable
    wrong: object


SITES = [
    # Conversions take their typed input only; the oracle and the
    # spectral report a plain graph only.
    Site("cov-to-marginal", "C", cov_to_marginal, PREC),
    Site("cov-to-precision", "C", cov_to_precision, PREC),
    Site("precision-to-cov", "Omega", precision_to_cov, COV),
    Site("precision-to-partial", "Omega", precision_to_partial, COV),
    Site("partial-to-precision", "g", partial_to_precision, RG),
    Site("oracle", "g", partial_to_marginal_oracle, RG),
    Site("spectral-report", "g", spectral_report, RG),
    # Sums, expansions and profiles take a graph, rescaled or not.
    Site("enumerate-paths", "g", lambda v: list(enumerate_paths(v, QUERY)), PREC),
    Site("enumerate-query", "query", lambda v: list(enumerate_paths(G, v)), PART),
    Site("path-sum", "g", lambda v: path_sum_truncated(v, 0, 3, 4), PREC),
    Site("star-sum", "g", lambda v: star_path_sum_truncated(v, 0, 3, 4), PREC),
    Site("closed-sum", "g", lambda v: star_path_sum_closed(v, 0, 3), PREC),
    Site("expansion", "g", lambda v: marginal_corr_expansion(v, 0, 3, 5), PREC),
    Site("closed", "g", lambda v: marginal_corr_closed(v, 0, 3), PREC),
    Site("rescale", "g", lambda v: rescale(v, 0.5), PREC),
    Site("profile", "g", lambda v: convergence_profile(v, 0, 3, 4), PREC),
    Site("rescaled-base", "base", lambda v: RescaledGraph(base=v, q=0.5), RG),
    # Transforms take a plain graph.
    Site("sever", "g", lambda v: sever_nodes(v, [0]), RG),
    Site("marginalize", "g", lambda v: marginalize_nodes(v, [0]), RG),
    Site("marginalize-paths", "g", lambda v: marginalize_nodes(v, [0], method="paths"), RG),
    Site("separators", "g", detect_separating_nodes, RG),
    Site("residual", "g", lambda v: factorisation_residual(v, 2, [0], [3]), RG),
    Site("latent-reduce", "g", lambda v: latent_reduce(v, [2]), RG),
    Site("verify-graph", "g", lambda v: verify_reduction(v, RED), RG),
    Site("verify-reduction", "reduction", lambda v: verify_reduction(G, v), G),
    # Chains take a ChainSpec.
    Site("chain-sums", "spec", chain_sums, SAMPLE),
    Site("chain-pair", "spec", lambda v: chain_pair_corr(v, 1, 2), SAMPLE),
    Site("endpoint-recurrence", "spec", endpoint_corr_recurrence, SAMPLE),
    # Information takes a graph or a precision matrix, and a TriPartition.
    Site("mi-closed", "system", lambda v: conditional_mi_closed(v, PART), RG),
    Site("mi-series", "system", lambda v: conditional_mi_series(v, PART), COV),
    Site("mi-identity", "system", lambda v: loop_sum_mi_identity(v, 0, 3), RG),
    Site("mi-closed-part", "part", lambda v: conditional_mi_closed(G, v), QUERY),
    Site("mi-series-part", "part", lambda v: conditional_mi_series(PREC, v), QUERY),
    # Samplers take their specs and models.
    Site("sample", "spec", sample_partial_graph, CHAIN),
    Site("factor-model", "fm", factor_model_partial, G),
    Site("martingale", "spec", martingale_covariance, SAMPLE),
    # Files hold the four matrix types.
    Site("kind-of", "obj", fileio.kind_of, RG),
]

BAD = {
    "ndarray": lambda site: np.eye(4),
    "none": lambda site: None,
    "tuple": lambda site: (6, 0.3),
    "wrong-kind": lambda site: site.wrong,
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("site", SITES, ids=[s.id for s in SITES])
def test_wrong_object_refused_by_name(site, bad):
    value = BAD[bad](site)
    with pytest.raises(ParamOutOfBound, match=rf"^{site.name} must be a \w+"):
        site.call(value)


def test_message_names_the_accepted_and_the_given_types():
    with pytest.raises(ParamOutOfBound) as exc:
        marginal_corr_closed(np.eye(4), 0, 1)
    assert str(exc.value) == "g must be a PartialCorrelationGraph or RescaledGraph, got ndarray"


def test_check_builds_nothing():
    # The closed pair reads the base graph's oracle; checking a rescaled
    # graph must not form its dense weights either.
    rg = rescale(G, 0.5)
    assert marginal_corr_closed(rg, 0, 3) == pytest.approx(marginal_corr_closed(G, 0, 3), abs=1e-15)
    assert "weights" not in vars(rg)

