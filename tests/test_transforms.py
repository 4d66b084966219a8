"""Severing, marginalisation, separators, and latent reduction."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcorr import (
    DenominatorNonPositive,
    DimensionMismatch,
    EmptyRemainder,
    IndexOutOfRange,
    ParamOutOfBound,
    PartialCorrelationGraph,
    PrecisionMatrix,
    SeparatorReport,
    SingularBlock,
    detect_separating_nodes,
    factorisation_residual,
    latent_reduce,
    marginalize_nodes,
    partial_to_marginal_oracle,
    partial_to_precision,
    precision_to_partial,
    sever_nodes,
    validate_partial_graph,
    verify_reduction,
)
from pathcorr import matrices, pathsum, transforms
from pathcorr.transforms import TOL_FACT

from conftest import complete_graph, scaled_random_graph


def chain_graph(d, r, **kw):
    w = np.zeros((d, d))
    for k in range(d - 1):
        w[k, k + 1] = w[k + 1, k] = r
    return PartialCorrelationGraph(w, **kw)


def star_graph(d, r):
    """Node 0 coupled to every other node, no other links."""
    w = np.zeros((d, d))
    w[0, 1:] = w[1:, 0] = r
    return validate_partial_graph(w)


class TestSever:
    def test_weights_kept_verbatim(self):
        g = scaled_random_graph(10, 6, 0.7)
        sub = sever_nodes(g, {1, 4})
        kept = [0, 2, 3, 5]
        assert np.array_equal(sub.weights, g.weights[np.ix_(kept, kept)])

    def test_unlabelled_graph_keeps_names(self):
        assert sever_nodes(chain_graph(4, 0.3), {1}).labels == ("x1", "x3", "x4")

    def test_labels_and_scale_carried(self):
        g = chain_graph(
            4, 0.3, scale=np.array([1.0, 2.0, 3.0, 4.0]), labels=("a", "b", "c", "d")
        )
        sub = sever_nodes(g, {1})
        assert sub.labels == ("a", "c", "d")
        assert np.array_equal(sub.scale, [1.0, 3.0, 4.0])

    def test_empty_set_is_identity(self):
        g = chain_graph(3, 0.3)
        assert sever_nodes(g, set()) is g

    def test_removing_everything_rejected(self):
        g = chain_graph(3, 0.3)
        with pytest.raises(EmptyRemainder):
            sever_nodes(g, {0, 1, 2})

    def test_severing_weakens_marginal_correlations(self):
        # Dropping a node kills every path through it, so surviving
        # pairs can only lose correlation; marginalising keeps it.
        g = star_graph(4, 0.4)
        full = partial_to_marginal_oracle(g).entries[1, 2]
        severed = partial_to_marginal_oracle(sever_nodes(g, {3})).entries[1, 2]
        marg = partial_to_marginal_oracle(marginalize_nodes(g, {3})).entries[1, 2]
        assert abs(severed) < abs(full)
        assert marg == pytest.approx(full, abs=1e-12)


@pytest.mark.parametrize("removed", [[0], [1, 2], [0, 4]])
def test_index_arrays_act_like_lists(removed):
    # A one-element array [0] is falsy, a longer one has no truth value:
    # the removed set must be read as indices, never tested as a whole.
    g = scaled_random_graph(12, 5, 0.7)
    as_array = np.array(removed)
    for op in (sever_nodes, marginalize_nodes):
        out = op(g, as_array)
        assert out.dim == g.dim - len(removed)
        assert np.array_equal(out.weights, op(g, removed).weights)
    red, red_array = latent_reduce(g, removed), latent_reduce(g, as_array)
    assert red_array.kept == red.kept
    assert np.array_equal(red_array.reduced_graph.weights, red.reduced_graph.weights)


class TestMarginalize:
    def test_marginal_correlations_invariant(self):
        g = scaled_random_graph(20, 7, 0.8)
        kept = [0, 1, 2, 3, 4]
        red = marginalize_nodes(g, {5, 6})
        before = partial_to_marginal_oracle(g).entries[np.ix_(kept, kept)]
        after = partial_to_marginal_oracle(red).entries
        assert np.max(np.abs(before - after)) < 1e-12

    def test_block_route_matches_path_route(self):
        # Reference: M' = 1 - P built entry by entry from the public closed
        # star and loop sums through S, split as r'_ab = -M'_ab /
        # sqrt(M'_aa M'_bb).  Both method names run the one computation.
        removed, kept = {2, 5}, [0, 1, 3, 4]
        for seed in range(5):
            g = scaled_random_graph(30 + seed, 6, 0.75)
            p = np.array(
                [[pathsum.star_path_sum_closed(g, a, b, within=removed) for b in kept] for a in kept]
            )
            m = np.eye(len(kept)) - p
            lam = np.sqrt(np.diag(m))
            ref = -m / np.outer(lam, lam)
            np.fill_diagonal(ref, 0.0)
            a = marginalize_nodes(g, removed, method="block")
            b = marginalize_nodes(g, removed, method="paths")
            assert np.max(np.abs(a.weights - ref)) < 1e-12
            assert np.array_equal(a.weights, b.weights)

    def test_new_partials_equal_conditioned_subgraph_oracle(self):
        # After removing S, the partial correlation of a kept pair is
        # the marginal correlation of that pair in the induced subgraph
        # on the pair plus S (conditioning on the other kept nodes and
        # severing are the same operation).
        g = scaled_random_graph(41, 6, 0.7)
        red = marginalize_nodes(g, {4, 5})
        kept = [0, 1, 2, 3]
        for a, b in itertools.combinations(range(4), 2):
            keep = sorted({kept[a], kept[b], 4, 5})
            sub = sever_nodes(g, set(range(6)) - set(keep))
            ia, ib = keep.index(kept[a]), keep.index(kept[b])
            oracle = partial_to_marginal_oracle(sub).entries[ia, ib]
            assert red.weights[a, b] == pytest.approx(oracle, abs=1e-12)

    def test_precision_schur_consistency(self):
        # With scales attached, the reduced precision matrix is exactly
        # the Schur complement of the original one.
        rng = np.random.default_rng(7)
        base = scaled_random_graph(52, 6, 0.7)
        g = PartialCorrelationGraph(base.weights, scale=rng.uniform(0.5, 2.0, 6))
        removed = [1, 3]
        kept = [0, 2, 4, 5]
        omega = partial_to_precision(g).entries
        schur = omega[np.ix_(kept, kept)] - omega[np.ix_(kept, removed)] @ np.linalg.inv(
            omega[np.ix_(removed, removed)]
        ) @ omega[np.ix_(removed, kept)]
        red = marginalize_nodes(g, removed)
        assert np.max(np.abs(partial_to_precision(red).entries - schur)) < 1e-12

    def test_scale_updated_by_paths_route_too(self):
        rng = np.random.default_rng(8)
        base = scaled_random_graph(53, 5, 0.6)
        g = PartialCorrelationGraph(base.weights, scale=rng.uniform(0.5, 2.0, 5))
        a = marginalize_nodes(g, {4}, method="block")
        b = marginalize_nodes(g, {4}, method="paths")
        assert np.max(np.abs(a.scale - b.scale)) < 1e-12

    def test_empty_set_is_identity(self):
        g = chain_graph(3, 0.3)
        assert marginalize_nodes(g, set()) is g

    def test_removing_everything_rejected(self):
        g = chain_graph(3, 0.3)
        with pytest.raises(EmptyRemainder):
            marginalize_nodes(g, {0, 1, 2})

    def test_unknown_method_rejected(self):
        g = chain_graph(3, 0.3)
        with pytest.raises(ParamOutOfBound, match="magic"):
            marginalize_nodes(g, {2}, method="magic")

    def test_singular_block_mapped(self, monkeypatch):
        g = chain_graph(4, 0.3)

        def explode(*a, **k):
            raise scipy.linalg.LinAlgError("boom")

        monkeypatch.setattr(scipy.linalg, "cho_factor", explode)
        with pytest.raises(SingularBlock):
            marginalize_nodes(g, {3})

    def test_path_route_divergence_guard(self, monkeypatch):
        # Loop sums through the removed set cannot reach 1 for a valid
        # graph; force the condition to check the guard.
        g = chain_graph(4, 0.3)

        def through(w, rows, *a):
            return np.full((len(rows), len(rows)), 1.5)

        monkeypatch.setattr(transforms, "_paths_through", through)
        for method in ("block", "paths"):
            with pytest.raises(DenominatorNonPositive):
                marginalize_nodes(g, {3}, method=method)

    def test_labels_carried(self):
        g = chain_graph(4, 0.3, labels=("a", "b", "c", "d"))
        assert marginalize_nodes(g, {1}).labels == ("a", "c", "d")

    @pytest.mark.parametrize("method", ["block", "paths"])
    def test_unlabelled_graph_keeps_names(self, method):
        g = chain_graph(4, 0.3)
        assert marginalize_nodes(g, {1}, method=method).labels == ("x1", "x3", "x4")


def reference_components(adj, skip=None):
    """Connected components of the nonzero pattern, optionally without one node."""
    d = adj.shape[0]
    seen = np.zeros(d, dtype=bool)
    if skip is not None:
        seen[skip] = True
    comps = []
    for start in range(d):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in np.nonzero(adj[v])[0]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(int(u))
        comps.append(sorted(comp))
    return comps


def reference_separators(g):
    """Separator reports by one component search per removed node."""
    adj = g.weights != 0.0
    base = len(reference_components(adj))
    p = partial_to_marginal_oracle(g).entries
    reports = []
    for k in range(g.dim):
        comps = reference_components(adj, skip=k)
        if len(comps) <= base:
            continue
        residual = 0.0
        for ci in range(len(comps)):
            for cj in range(ci + 1, len(comps)):
                I = comps[ci]
                J = comps[cj]
                sub = p[np.ix_(I, J)]
                outer = np.outer(p[I, k], p[k, J])
                residual = max(residual, float(np.max(np.abs(sub - outer))))
        first = comps[0]
        rest = sorted(v for comp in comps[1:] for v in comp)
        reports.append(
            SeparatorReport(
                node=k,
                components=(frozenset(first), frozenset(rest)),
                factorisation_residual=residual,
            )
        )
    return tuple(reports)


def sparse_pattern(rng, d, shape):
    """Symmetric 0/1 pattern of one of several sparse shapes on d nodes."""
    a = np.zeros((d, d))

    def link(u, v):
        if u != v:
            a[u, v] = a[v, u] = 1.0

    if shape == "random":
        # Mean degree about 1.5: usually disconnected, often with isolated nodes.
        a = np.triu(rng.random((d, d)) < 1.5 / max(d - 1, 1), 1).astype(float)
        a = a + a.T
    elif shape == "tree":
        for v in range(1, d):
            link(v, int(rng.integers(v)))
    elif shape == "cycles":
        # Two cycles sharing one node.
        cut = int(rng.integers(1, d)) if d > 1 else 0
        for block in (range(cut), range(cut - 1, d)):
            block = list(block)
            for u, v in zip(block, block[1:] + block[:1]):
                link(u, v)
    elif shape == "bridged":
        # Two dense blocks joined by a bridge, then isolated nodes.
        n = (2 * d) // 3
        half = n // 2
        for lo, hi in ((0, half), (half, n)):
            for u, v in itertools.combinations(range(lo, hi), 2):
                if rng.random() < 0.6:
                    link(u, v)
        if 0 < half < n:
            link(int(rng.integers(half)), int(rng.integers(half, n)))
    elif shape == "forest":
        for v in range(1, d):
            if rng.random() < 0.7:
                link(v, int(rng.integers(v)))
    perm = rng.permutation(d)
    return a[np.ix_(perm, perm)]


def has_inner_bridge(adj):
    """Whether some edge between two non-leaf nodes is a bridge."""
    base = len(reference_components(adj))
    degree = adj.sum(axis=1)
    for u, v in zip(*np.nonzero(np.triu(adj, 1))):
        if degree[u] > 1 and degree[v] > 1:
            cut = adj.copy()
            cut[u, v] = cut[v, u] = False
            if len(reference_components(cut)) > base:
                return True
    return False


SPARSE_SHAPES = ("random", "tree", "cycles", "bridged", "forest")


def sparse_graph(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 26))
    shape = SPARSE_SHAPES[seed % len(SPARSE_SHAPES)]
    pattern = sparse_pattern(rng, d, shape)
    w = np.triu(pattern * rng.uniform(0.2, 1.0, (d, d)) * rng.choice([-1.0, 1.0], (d, d)), 1)
    w = w + w.T
    nu = float(np.max(np.abs(np.linalg.eigvalsh(w))))
    if nu > 0.0:
        w *= 0.7 / nu
    return validate_partial_graph(w)


class TestSeparators:
    def test_one_search_matches_per_node_reference(self):
        seen = {"disconnected": 0, "isolated": 0, "tree": 0, "cycle": 0, "bridge": 0}
        for seed in range(300):
            g = sparse_graph(seed)
            assert detect_separating_nodes(g) == reference_separators(g), seed
            adj = g.weights != 0.0
            comps = reference_components(adj)
            edges = int(np.sum(adj)) // 2
            seen["disconnected"] += len(comps) > 1
            seen["isolated"] += g.dim > 1 and bool(np.any(~adj.any(axis=1)))
            seen["tree"] += len(comps) == 1 and g.dim > 2 and edges == g.dim - 1
            seen["cycle"] += edges > g.dim - len(comps)
            seen["bridge"] += has_inner_bridge(adj)
        assert all(count >= 10 for count in seen.values()), seen

    def test_one_residual_block_per_cut_subtree(self, monkeypatch):
        calls = []
        real = transforms._cut_residual

        def counting(q, s, a, b, lo, hi):
            calls.append((s, a, b, lo, hi))
            return real(q, s, a, b, lo, hi)

        monkeypatch.setattr(transforms, "_cut_residual", counting)
        # In discovery order the centre of a star sits at position 0 and
        # cuts off six one-node subtrees: one row block for each, against
        # the rest of the star.
        detect_separating_nodes(star_graph(7, 0.3))
        assert calls == [(0, a, a + 1, 0, 7) for a in range(1, 7)]
        # A chain x1..x6 beside six isolated nodes: node k of the chain
        # sits at position k and cuts off the subtree at positions k+1..5.
        # Every block stays in the chain's positions 0..5, but the
        # reported split still covers every node.
        calls.clear()
        w = np.zeros((12, 12))
        for k in range(5):
            w[k, k + 1] = w[k + 1, k] = 0.4
        reports = detect_separating_nodes(validate_partial_graph(w))
        assert [rep.node for rep in reports] == [1, 2, 3, 4]
        assert sorted(calls) == [(k, k + 1, 6, 0, 6) for k in (1, 2, 3, 4)]
        assert reports[0].components == (frozenset({0}), frozenset(range(2, 12)))

    def test_long_chain_interior(self):
        reports = detect_separating_nodes(chain_graph(200, 0.4))
        assert [rep.node for rep in reports] == list(range(1, 199))
        for rep in reports:
            k = rep.node
            assert rep.components == (frozenset(range(k)), frozenset(range(k + 1, 200)))
            assert rep.factorisation_residual < TOL_FACT

    def test_chain_interior_nodes(self):
        g = chain_graph(5, 0.4)
        reports = detect_separating_nodes(g)
        assert [rep.node for rep in reports] == [1, 2, 3]
        middle = reports[1]
        assert middle.components == (frozenset({0, 1}), frozenset({3, 4}))
        assert all(rep.factorisation_residual < TOL_FACT for rep in reports)

    def test_star_center(self):
        reports = detect_separating_nodes(star_graph(5, 0.3))
        assert [rep.node for rep in reports] == [0]
        assert reports[0].factorisation_residual < TOL_FACT

    def test_complete_graph_has_none(self):
        assert detect_separating_nodes(complete_graph(4, 0.3)) == ()

    def test_bridged_blocks(self):
        # Two triangles joined through node 3: the bridge and both of
        # its attachment points separate.
        w = np.zeros((7, 7))
        for i, j in itertools.combinations((0, 1, 2), 2):
            w[i, j] = w[j, i] = 0.3
        for i, j in itertools.combinations((4, 5, 6), 2):
            w[i, j] = w[j, i] = 0.3
        w[2, 3] = w[3, 2] = 0.4
        w[3, 4] = w[4, 3] = 0.4
        g = validate_partial_graph(w)
        reports = detect_separating_nodes(g)
        assert [rep.node for rep in reports] == [2, 3, 4]
        bridge = reports[1]
        assert bridge.components == (frozenset({0, 1, 2}), frozenset({4, 5, 6}))
        assert all(rep.factorisation_residual < TOL_FACT for rep in reports)

    def test_disconnected_input_handled_per_component(self):
        w = np.zeros((6, 6))
        for i, j in ((0, 1), (1, 2), (3, 4), (4, 5)):
            w[i, j] = w[j, i] = 0.4
        g = validate_partial_graph(w)
        assert [rep.node for rep in detect_separating_nodes(g)] == [1, 4]

    def test_structural_and_numerical_criteria_agree(self):
        # On a complete graph no node admits any low-residual
        # bipartition, matching the empty structural answer.
        g = complete_graph(5, 0.2)
        for k in range(5):
            rest = [v for v in range(5) if v != k]
            for size in (1, 2):
                for I in itertools.combinations(rest, size):
                    J = [v for v in rest if v not in I]
                    assert factorisation_residual(g, k, I, J) > TOL_FACT

    def test_residual_vanishes_across_true_separator(self):
        g = chain_graph(5, 0.45)
        assert factorisation_residual(g, 2, [0, 1], [3, 4]) < 1e-12

    def test_residual_validation(self):
        g = chain_graph(4, 0.3)
        with pytest.raises(IndexOutOfRange):
            factorisation_residual(g, 9, [0], [1])
        with pytest.raises(IndexOutOfRange):
            factorisation_residual(g, 1, [], [2])
        with pytest.raises(IndexOutOfRange):
            factorisation_residual(g, 1, [0, 2], [2])
        with pytest.raises(IndexOutOfRange):
            factorisation_residual(g, 1, [0], [1, 3])
        with pytest.raises(IndexOutOfRange):
            factorisation_residual(g, 1, [0], [9])


def one_many_one(d, r):
    w = np.zeros((d, d))
    w[0, 1 : d - 1] = w[1 : d - 1, 0] = r
    w[d - 1, 1 : d - 1] = w[1 : d - 1, d - 1] = r
    return validate_partial_graph(w)


def rank2_cross_graph():
    """Zero within-block couplings, rank-2 cross block with known spectrum."""
    u1 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    u2 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    v1 = np.array([1.0, 0.0, 1.0, 0.0, 1.0]) / np.sqrt(3.0)
    v2 = np.array([0.0, 1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0)
    cross = 0.3 * np.outer(u1, v1) + 0.2 * np.outer(u2, v2)
    w = np.zeros((8, 8))
    w[5:, :5] = cross
    w[:5, 5:] = cross.T
    return validate_partial_graph(w)


class TestLatentReduction:
    def test_hub_structure_is_rank_one(self):
        # Both end nodes couple identically to the 8 middles, so the
        # coupling block R[S, T] has rank 1 with singular value
        # sqrt(16) * 0.2.
        g = one_many_one(10, 0.2)
        red = latent_reduce(g, set(range(1, 9)))
        assert red.latent_count == 1
        assert red.kept == (0, 9)
        assert red.singular_values == pytest.approx((0.8,), abs=1e-12)
        res = verify_reduction(g, red)
        assert res.partial_residual < 1e-12
        assert res.marginal_residual < 1e-10

    def test_singular_values_match_svd_oracle(self):
        g = scaled_random_graph(60, 7, 0.7)
        removed = [4, 5, 6]
        red = latent_reduce(g, removed)
        oracle = np.linalg.svd(
            g.weights[np.ix_(removed, [0, 1, 2, 3])], compute_uv=False
        )
        assert red.singular_values == pytest.approx(tuple(oracle), abs=1e-12)

    def test_singular_block_mapped(self, monkeypatch):
        g = one_many_one(6, 0.2)

        def explode(*a, **k):
            raise scipy.linalg.LinAlgError("boom")

        monkeypatch.setattr(scipy.linalg, "cho_factor", explode)
        with pytest.raises(SingularBlock):
            latent_reduce(g, {1, 2, 3, 4})

    def test_planted_rank_two(self):
        g = rank2_cross_graph()
        red = latent_reduce(g, {5, 6, 7})
        assert red.latent_count == 2
        assert red.singular_values == pytest.approx((0.3, 0.2), abs=1e-12)
        assert red.a_tilde.shape == (2, 3)
        assert red.b_tilde.shape == (2, 5)
        res = verify_reduction(g, red)
        assert res.partial_residual < 1e-12
        assert res.marginal_residual < 1e-10

    def test_full_rank_reduction_is_exact(self):
        g = scaled_random_graph(61, 6, 0.7)
        red = latent_reduce(g, {4, 5})
        assert red.latent_count == 2
        res = verify_reduction(g, red)
        assert res.partial_residual < 1e-12
        assert res.marginal_residual < 1e-10

    def test_enlarged_graph_marginalises_back(self):
        g = scaled_random_graph(62, 6, 0.7)
        red = latent_reduce(g, {3, 5})
        latents = range(g.dim, g.dim + red.latent_count)
        back = marginalize_nodes(red.enlarged_graph, set(latents))
        assert np.max(np.abs(back.weights - g.weights)) < 1e-10
        assert back.labels == g.labels

    def test_reduced_graph_orders_kept_first(self):
        g = one_many_one(6, 0.2)
        red = latent_reduce(g, {1, 2, 3, 4})
        assert red.reduced_graph.dim == 3
        assert red.reduced_graph.labels[:2] == ("x1", "x6")
        assert red.reduced_graph.labels[2] == "Y1"

    def test_default_labels_built_once(self, monkeypatch):
        # Generated labels x1..xd are built once per graph, not once per
        # kept node (d = 60 here, 40 kept).
        calls = []
        real = matrices.default_labels

        def counting(dim):
            calls.append(dim)
            return real(dim)

        monkeypatch.setattr(matrices, "default_labels", counting)
        g = scaled_random_graph(63, 60, 0.7)
        red = latent_reduce(g, set(range(40, 60)))
        assert red.reduced_graph.labels[:2] == ("x1", "x2")
        assert calls == [60]

    def test_sign_convention_matches_column_loop(self):
        # The vectorised signs against the per-column loop they replaced,
        # bit for bit, on small integers (ties, zeros, zero columns).
        from pathcorr.transforms import _signs

        cols = np.random.default_rng(3).integers(-2, 3, (5, 60)).astype(float)
        cols[:, 0] = 0.0
        ref = cols.copy()
        for col in range(ref.shape[1]):
            pivot = int(np.argmax(np.abs(ref[:, col])))
            if ref[pivot, col] < 0.0:
                ref[:, col] = -ref[:, col]
        assert (cols * _signs(cols)).tobytes() == ref.tobytes()
        assert _signs(np.zeros((0, 0))).shape == _signs(np.zeros((3, 0))).shape == (0,)

    def test_latent_labels_avoid_collisions(self):
        g = chain_graph(3, 0.3, labels=("Y1", "b", "c"))
        red = latent_reduce(g, {2})
        assert red.reduced_graph.labels == ("Y1", "b", "Y1_")

    def test_uncoupled_removed_set_needs_no_latents(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 0.3
        w[2, 3] = w[3, 2] = 0.2
        g = validate_partial_graph(w)
        red = latent_reduce(g, {2, 3})
        assert red.latent_count == 0
        assert red.singular_values == ()
        assert red.reduced_graph.dim == 2
        assert np.array_equal(red.reduced_graph.weights, g.weights[:2, :2])

    def test_loading_arrays_read_only(self):
        red = latent_reduce(one_many_one(6, 0.2), {1, 2, 3, 4})
        with pytest.raises(ValueError):
            red.a_tilde[0, 0] = 1.0

    def test_verify_reduction_rejects_mismatch(self):
        g = one_many_one(6, 0.2)
        red = latent_reduce(g, {1, 2, 3, 4})
        bad_count = dataclasses.replace(red, latent_count=5)
        with pytest.raises(DimensionMismatch):
            verify_reduction(g, bad_count)
        bad_kept = dataclasses.replace(red, kept=(0, 99))
        with pytest.raises(DimensionMismatch):
            verify_reduction(g, bad_kept)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), removed=st.integers(0, 4))
def test_marginalisation_preserves_oracle_property(seed, removed):
    g = scaled_random_graph(seed, 5, 0.7)
    kept = [v for v in range(5) if v != removed]
    red = marginalize_nodes(g, {removed})
    before = partial_to_marginal_oracle(g).entries[np.ix_(kept, kept)]
    after = partial_to_marginal_oracle(red).entries
    assert np.max(np.abs(before - after)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_latent_reduction_preserves_kept_partials_property(seed):
    g = scaled_random_graph(seed, 6, 0.6)
    red = latent_reduce(g, {4, 5})
    res = verify_reduction(g, red)
    assert res.partial_residual < 1e-10
    assert res.marginal_residual < 1e-8


def disconnected_graph(seed):
    """A graph of 2-3 dense components in shuffled node order, each node's
    component, and a nonempty proper subset S of one component, c."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 6, size=rng.integers(2, 4))
    w = scipy.linalg.block_diag(
        *(scaled_random_graph(int(rng.integers(2**31)), int(n), rng.uniform(0.2, 0.9)).weights
          for n in sizes)
    )
    perm = rng.permutation(len(w))
    comp = np.repeat(np.arange(len(sizes)), sizes)[perm]
    c = int(rng.integers(len(sizes)))
    members = np.flatnonzero(comp == c)
    S = rng.choice(members, size=int(rng.integers(1, len(members))), replace=False)
    return validate_partial_graph(w[np.ix_(perm, perm)]), comp, c, sorted(int(v) for v in S)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_disconnected_graphs_stay_apart_property(seed):
    g, comp, c, S = disconnected_graph(seed)
    kept = [v for v in range(g.dim) if v not in S]
    apart = comp[kept][:, None] != comp[kept][None, :]
    # Severing and marginalising S couple no two components, not even by roundoff.
    for out in (sever_nodes(g, S), marginalize_nodes(g, S)):
        assert np.all(out.weights[apart] == 0.0)
    red = latent_reduce(g, S)
    res = verify_reduction(g, red)
    assert res.partial_residual <= 1e-12 and res.marginal_residual <= 1e-12
    # The latents couple only to S's own component ...
    latent_to_kept = red.reduced_graph.weights[len(kept):, : len(kept)]
    assert np.all(np.abs(latent_to_kept[:, comp[kept] != c]) <= 1e-12)
    # ... and as many are needed as for that component on its own.
    members = list(np.flatnonzero(comp == c))
    alone = validate_partial_graph(g.weights[np.ix_(members, members)])
    assert latent_reduce(alone, [members.index(v) for v in S]).latent_count == red.latent_count
