"""One rule for every integer argument: whole numbers pass, nothing is truncated.

Each row of ``SITES`` puts a value at one integer argument of the
library (a node index, a node in a node set, a length, a count, a
dimension or a seed) and names the class that site raises.  A fraction,
NaN, inf and a numeric string must each raise that class; a whole float
and numpy integers must give exactly the plain-int result.  Every node
set follows one rule too: a node that repeats is refused, not merged.
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import pytest

from pathcorr import errors
from pathcorr import (
    ChainSpec,
    IndexOutOfRange,
    MartingaleSpec,
    ParamOutOfBound,
    PathQuery,
    SampleSpec,
    TriPartition,
    amplification_factor,
    canonical_graph,
    chain_pair_corr,
    conditional_mi_series,
    convergence_profile,
    enumerate_paths,
    factorisation_residual,
    latent_reduce,
    l_infinity_series,
    loop_sum_mi_identity,
    marginal_corr_closed,
    marginal_corr_expansion,
    marginalize_nodes,
    martingale_covariance,
    path_sum_truncated,
    sample_partial_graph,
    sever_nodes,
    star_path_sum_closed,
    star_path_sum_truncated,
    validate_partial_graph,
    verify_reduction,
)


def _graph():
    w = np.zeros((4, 4))
    for (a, b), r in {(0, 1): 0.3, (1, 2): 0.4, (2, 3): 0.2, (0, 2): 0.1}.items():
        w[a, b] = w[b, a] = r
    return validate_partial_graph(w)


G = _graph()
PART = TriPartition(dim=4, A=(0,), B=(3,))
SPEC = ChainSpec(d=6, r=0.3)
RED = latent_reduce(G, [2])


def paths(query):
    return list(enumerate_paths(G, query))


@dataclass(frozen=True)
class Site:
    """``call(v)`` puts v at one integer argument; ``plain`` is a valid int there."""

    id: str
    call: Callable
    plain: int
    error: type


SITES = [
    # Node indices.
    Site("closed-i", lambda v: marginal_corr_closed(G, v, 2), 0, IndexOutOfRange),
    Site("expansion-j", lambda v: marginal_corr_expansion(G, 0, v, 5), 2, IndexOutOfRange),
    Site("profile-i", lambda v: convergence_profile(G, v, 3, 4), 1, IndexOutOfRange),
    Site("path-sum-i", lambda v: path_sum_truncated(G, v, 3, 4), 1, IndexOutOfRange),
    Site("star-sum-j", lambda v: star_path_sum_truncated(G, 0, v, 4), 3, IndexOutOfRange),
    Site("star-sum-avoid",
         lambda v: star_path_sum_truncated(G, 0, 0, 4, avoid=(v,)), 2, IndexOutOfRange),
    Site("closed-sum-within",
         lambda v: star_path_sum_closed(G, 0, 3, within=(v,)), 2, IndexOutOfRange),
    Site("enumerate-source",
         lambda v: paths(PathQuery(source=v, target=3, max_length=3)), 1, IndexOutOfRange),
    Site("query-forbidden",
         lambda v: paths(PathQuery(0, 3, 3, interior_forbidden={v})), 1, IndexOutOfRange),
    Site("query-allowed",
         lambda v: paths(PathQuery(0, 3, 3, interior_allowed={v})), 2, IndexOutOfRange),
    Site("sever", lambda v: sever_nodes(G, [v]).weights.tolist(), 1, IndexOutOfRange),
    Site("marginalize",
         lambda v: marginalize_nodes(G, [v]).weights.tolist(), 1, IndexOutOfRange),
    Site("residual-k", lambda v: factorisation_residual(G, v, [0], [3]), 2, IndexOutOfRange),
    Site("residual-I", lambda v: factorisation_residual(G, 2, [v], [3]), 0, IndexOutOfRange),
    Site("tripartition-A",
         lambda v: TriPartition(dim=4, A=(v,), B=(3,)), 0, IndexOutOfRange),
    Site("tripartition-dim",
         lambda v: TriPartition(dim=v, A=(0,), B=(3,)), 4, ParamOutOfBound),
    Site("complement-B", lambda v: TriPartition.complement(4, [0], [v]), 3, IndexOutOfRange),
    Site("complement-dim", lambda v: TriPartition.complement(v, [0], [3]), 4, ParamOutOfBound),
    Site("verify-kept",
         lambda v: verify_reduction(G, replace(RED, kept=(0, v, 3))), 1, IndexOutOfRange),
    Site("mi-identity-i", lambda v: loop_sum_mi_identity(G, v, 3), 0, IndexOutOfRange),
    Site("chain-pair-i", lambda v: chain_pair_corr(SPEC, v, 5), 2, IndexOutOfRange),
    Site("chain-pair-j", lambda v: chain_pair_corr(SPEC, 2, v), 5, IndexOutOfRange),
    # Lengths and counts.
    Site("star-sum-L", lambda v: star_path_sum_truncated(G, 0, 3, v), 4, ParamOutOfBound),
    Site("profile-L", lambda v: convergence_profile(G, 0, 3, v), 4, ParamOutOfBound),
    Site("query-max-length",
         lambda v: paths(PathQuery(0, 3, v)), 3, ParamOutOfBound),
    Site("n-max", lambda v: conditional_mi_series(G, PART, n_max=v), 50, ParamOutOfBound),
    Site("chain-d", lambda v: ChainSpec(d=v, r=0.3), 6, ParamOutOfBound),
    Site("amplification-k", lambda v: amplification_factor(v, 1, 0.3), 2, ParamOutOfBound),
    Site("amplification-m", lambda v: amplification_factor(1, v, 0.3), 2, ParamOutOfBound),
    Site("series-terms", lambda v: l_infinity_series(0.3, v), 10, ParamOutOfBound),
    Site("sample-d",
         lambda v: sample_partial_graph(SampleSpec(d=v, n=20, seed=1)).graph.weights.tolist(),
         3, ParamOutOfBound),
    Site("sample-n",
         lambda v: sample_partial_graph(SampleSpec(d=3, n=v, seed=1)).graph.weights.tolist(),
         20, ParamOutOfBound),
    Site("sample-seed",
         lambda v: sample_partial_graph(SampleSpec(d=3, n=20, seed=v)).graph.weights.tolist(),
         1, ParamOutOfBound),
    Site("canonical-d",
         lambda v: canonical_graph("chain", d=v, r=0.3).weights.tolist(), 4, ParamOutOfBound),
    Site("canonical-ring-d",
         lambda v: canonical_graph("ring", d=v, r=0.3).weights.tolist(), 4, ParamOutOfBound),
    Site("horizon",
         lambda v: martingale_covariance(
             MartingaleSpec(horizon=v, alpha=0.5, innovation_variances=np.ones(3))
         ).entries.tolist(),
         3, ParamOutOfBound),
]
SITE_IDS = [s.id for s in SITES]


@pytest.mark.parametrize("site", SITES, ids=SITE_IDS)
@pytest.mark.parametrize(
    "bad",
    [
        lambda p: p + 0.5,
        lambda p: float("nan"),
        lambda p: float("inf"),
        lambda p: str(p),
    ],
    ids=["fraction", "nan", "inf", "numeric-string"],
)
def test_not_a_whole_number_raises_the_site_class(site, bad):
    value = bad(site.plain)
    with pytest.raises(site.error, match="whole number"):
        site.call(value)


@pytest.mark.parametrize("site", SITES, ids=SITE_IDS)
@pytest.mark.parametrize("kind", [float, np.int64, np.int32], ids=["float", "int64", "int32"])
def test_whole_values_match_plain_int(site, kind):
    assert site.call(kind(site.plain)) == site.call(site.plain)


def test_whole_fields_are_stored_as_int():
    spec = SampleSpec(d=np.int32(3), n=20.0, seed=np.uint64(7))
    assert (spec.d, spec.n, spec.seed) == (3, 20, 7)
    assert all(type(v) is int for v in (spec.d, spec.n, spec.seed))
    assert type(MartingaleSpec(3.0, 0.5, np.ones(3)).horizon) is int
    assert type(PathQuery(0, 1, np.int64(2)).max_length) is int


def test_out_of_range_names_both_ends():
    with pytest.raises(IndexOutOfRange, match="between 0 and 3, got 4"):
        marginal_corr_closed(G, 0, 4)
    with pytest.raises(IndexOutOfRange, match="between 0 and 3, got an int of 16610 bits"):
        marginal_corr_closed(G, 0, 10**5000)
    with pytest.raises(ParamOutOfBound, match="between 0 and 99998, got -1"):
        amplification_factor(-1, 1, 0.3)


def test_a_container_too_long_to_print_is_named_by_its_type():
    assert errors._shown([10**5000]) == "a list"
    with pytest.raises(ParamOutOfBound, match="chain d must be a whole number .*, got a list$"):
        canonical_graph("chain", d=[10**5000], r=0.3)


ARRAY_SETS = [
    ("sever", lambda s: sever_nodes(G, s).weights.tolist(), [1, 2]),
    ("marginalize", lambda s: marginalize_nodes(G, s).weights.tolist(), [1, 2]),
    ("avoid", lambda s: star_path_sum_truncated(G, 0, 0, 4, avoid=s), [1, 3]),
    ("within", lambda s: star_path_sum_closed(G, 0, 3, within=s), [1, 2]),
    ("query", lambda s: paths(PathQuery(0, 3, 3, interior_forbidden=s)), [1]),
    ("residual", lambda s: factorisation_residual(G, 2, s, [3]), [0, 1]),
    ("tripartition", lambda s: TriPartition(dim=4, A=s, B=(3,)), [0, 1]),
    ("complement", lambda s: TriPartition.complement(4, s, [3]), [0, 1]),
]


@pytest.mark.parametrize("call,nodes", [(c, n) for _, c, n in ARRAY_SETS],
                         ids=[i for i, _, _ in ARRAY_SETS])
@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.intp])
def test_numpy_int_arrays_as_node_sets(call, nodes, dtype):
    assert call(np.array(nodes, dtype=dtype)) == call(nodes)


@pytest.mark.parametrize("call,nodes", [(c, n) for _, c, n in ARRAY_SETS],
                         ids=[i for i, _, _ in ARRAY_SETS])
def test_repeated_node_raises_the_site_class(call, nodes):
    with pytest.raises(IndexOutOfRange, match=f"node {nodes[0]} repeats"):
        call(nodes + [nodes[0]])


@pytest.mark.parametrize("call,nodes", [(c, n) for _, c, n in ARRAY_SETS],
                         ids=[i for i, _, _ in ARRAY_SETS])
def test_bare_node_is_not_a_node_set(call, nodes):
    for bare in (nodes[0], 10**5000):  # the second too long for repr()
        with pytest.raises(IndexOutOfRange, match="collection of nodes"):
            call(bare)


@pytest.mark.parametrize("kept", [(0, 1.5, 3), (0, "1", 3), (0, 1, 0), (0, 1, 4)],
                         ids=["fraction", "string", "repeat", "out-of-range"])
def test_verify_reduction_refuses_a_malformed_kept_node(kept):
    with pytest.raises(IndexOutOfRange):
        verify_reduction(G, replace(RED, kept=kept))
