"""Path families, truncated sums, closed sums, and rescaling.

The independent references here are explicit walk enumeration (for
truncated per-length sums) and plain numpy inversion (for closed
sums); the two routes are never allowed to share code with the
functions under test.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathcorr import (
    DenominatorNonPositive,
    IllConditionedWarning,
    IndexOutOfRange,
    ParamOutOfBound,
    PathQuery,
    QOutOfRange,
    RescaledGraph,
    SampleSpec,
    SpectralRadiusTooLarge,
    convergence_profile,
    enumerate_paths,
    marginal_corr_closed,
    marginal_corr_expansion,
    partial_to_marginal_oracle,
    path_sum_truncated,
    rescale,
    sample_partial_graph,
    sever_nodes,
    spectral_report,
    star_path_sum_closed,
    star_path_sum_truncated,
    validate_partial_graph,
)
from pathcorr import pathsum

from conftest import complete_graph, scaled_random_graph


def three_chain(r):
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = r
    w[1, 2] = w[2, 1] = r
    return validate_partial_graph(w)


class TestEnumeration:
    def test_three_chain_walks_by_hand(self):
        r = 0.3
        g = three_chain(r)
        paths = list(enumerate_paths(g, PathQuery(source=0, target=2, max_length=4)))
        assert [p.vertices for p in paths] == [
            (0, 1, 2),
            (0, 1, 0, 1, 2),
            (0, 1, 2, 1, 2),
        ]
        assert paths[0].weight == pytest.approx(r**2, abs=1e-15)
        assert paths[1].weight == pytest.approx(r**4, abs=1e-15)
        assert paths[0].length == 2

    def test_ordering_within_length(self):
        g = complete_graph(3, 0.3)
        paths = list(enumerate_paths(g, PathQuery(source=0, target=1, max_length=3)))
        # Lengths ascend; within a length the vertex tuples are in
        # lexicographic order.
        lengths = [p.length for p in paths]
        assert lengths == sorted(lengths)
        for _, group in itertools.groupby(paths, key=lambda p: p.length):
            seqs = [p.vertices for p in group]
            assert seqs == sorted(seqs)

    def test_interior_forbidden_endpoints_exempt(self):
        g = complete_graph(3, 0.3)
        q = PathQuery(
            source=0, target=1, max_length=4, interior_forbidden=frozenset({0, 1})
        )
        seqs = [p.vertices for p in enumerate_paths(g, q)]
        # Star family: endpoints only at the ends, interior is node 2
        # alone, which cannot repeat without a self-loop.
        assert seqs == [(0, 1), (0, 2, 1)]

    def test_interior_allowed(self):
        g = complete_graph(4, 0.2)
        q = PathQuery(
            source=0,
            target=1,
            max_length=3,
            interior_forbidden=frozenset({0, 1}),
            interior_allowed=frozenset({2}),
        )
        seqs = [p.vertices for p in enumerate_paths(g, q)]
        assert seqs == [(0, 1), (0, 2, 1)]

    def test_closed_loop_family(self):
        g = complete_graph(3, 0.4)
        q = PathQuery(
            source=0, target=0, max_length=4, interior_forbidden=frozenset({0, 2})
        )
        seqs = [p.vertices for p in enumerate_paths(g, q)]
        # Only the excursion through node 1 remains, and it cannot
        # linger anywhere.
        assert seqs == [(0, 1, 0)]

    def test_self_loops_on_rescaled(self):
        g = validate_partial_graph(np.array([[0.0, 0.3], [0.3, 0.0]]))
        rg = rescale(g, 0.8)
        q = PathQuery(
            source=0,
            target=0,
            max_length=3,
            interior_forbidden=frozenset({0}),
        )
        paths = list(enumerate_paths(rg, q))
        assert [p.vertices for p in paths] == [(0, 0), (0, 1, 0), (0, 1, 1, 0)]
        assert paths[0].weight == pytest.approx(0.2, abs=1e-15)
        assert paths[2].weight == pytest.approx(0.24 * 0.2 * 0.24, abs=1e-15)

    def test_bad_nodes_rejected(self):
        g = three_chain(0.3)
        with pytest.raises(IndexOutOfRange):
            list(enumerate_paths(g, PathQuery(source=0, target=5, max_length=2)))
        with pytest.raises(IndexOutOfRange):
            list(
                enumerate_paths(
                    g,
                    PathQuery(
                        source=0,
                        target=1,
                        max_length=2,
                        interior_forbidden=frozenset({9}),
                    ),
                )
            )

    def test_arguments_checked_at_the_call(self):
        # No iteration: a wrong argument must fail before the stream is used.
        g = three_chain(0.3)
        with pytest.raises(ParamOutOfBound):
            enumerate_paths(None, PathQuery(0, 1, 2))
        with pytest.raises(ParamOutOfBound):
            enumerate_paths(g, (0, 1, 2))
        with pytest.raises(IndexOutOfRange):
            enumerate_paths(g, PathQuery(source=0, target=5, max_length=2))
        with pytest.raises(IndexOutOfRange):
            enumerate_paths(g, PathQuery(0, 1, 2, interior_allowed=frozenset({9})))

    def test_max_length_validated(self):
        with pytest.raises(ParamOutOfBound):
            PathQuery(source=0, target=1, max_length=0)


def enumerated_per_length(g, i, j, L, avoid=(), within=None):
    """Reference per-length star-family sums via explicit enumeration."""
    dim = g.weights.shape[0] if not isinstance(g, RescaledGraph) else g.dim
    forbidden = {i, j} | set(avoid)
    allowed = None if within is None else frozenset(within)
    q = PathQuery(
        source=i,
        target=j,
        max_length=L,
        interior_forbidden=frozenset(forbidden),
        interior_allowed=allowed,
    )
    per = {ell: 0.0 for ell in range(1, L + 1)}
    for p in enumerate_paths(g, q):
        per[p.length] += p.weight
    return per


class TestTruncatedSums:
    def test_unrestricted_equals_matrix_powers(self):
        g = scaled_random_graph(11, 5, 0.6)
        # The rescaled graph's weights carry the self-loops 1 - q.
        for target, (i, j) in ((g, (0, 3)), (rescale(g, 0.7), (0, 3)), (rescale(g, 0.7), (2, 2))):
            res = path_sum_truncated(target, i, j, 6)
            w = target.weights
            power = np.eye(5)
            for ell in range(1, 7):
                power = power @ w
                assert res.per_length[ell] == pytest.approx(power[i, j], abs=1e-15)
            assert res.total == res.cumulative[6]

    def test_star_family_matches_enumeration(self):
        for seed in range(8):
            g = scaled_random_graph(100 + seed, 4, 0.6)
            for i, j in ((0, 1), (0, 3)):
                res = star_path_sum_truncated(g, i, j, 5)
                ref = enumerated_per_length(g, i, j, 5)
                for ell in range(1, 6):
                    assert res.per_length[ell] == pytest.approx(ref[ell], abs=1e-12)

    def test_loop_family_matches_enumeration(self):
        for seed in range(8):
            g = scaled_random_graph(200 + seed, 4, 0.6)
            res = star_path_sum_truncated(g, 0, 0, 5, avoid=(2,))
            ref = enumerated_per_length(g, 0, 0, 5, avoid=(2,))
            for ell in range(1, 6):
                assert res.per_length[ell] == pytest.approx(ref[ell], abs=1e-12)

    def test_within_family_matches_enumeration(self):
        g = scaled_random_graph(301, 5, 0.6)
        res = star_path_sum_truncated(g, 0, 1, 5, within=(2, 3))
        ref = enumerated_per_length(g, 0, 1, 5, within=(2, 3))
        for ell in range(1, 6):
            assert res.per_length[ell] == pytest.approx(ref[ell], abs=1e-12)

    def test_rescaled_family_matches_enumeration(self):
        g = scaled_random_graph(401, 4, 0.6)
        rg = rescale(g, 0.9)
        res = star_path_sum_truncated(rg, 0, 0, 4)
        ref = enumerated_per_length(rg, 0, 0, 4)
        for ell in range(1, 5):
            assert res.per_length[ell] == pytest.approx(ref[ell], abs=1e-12)
        assert res.per_length[1] == pytest.approx(1.0 - 0.9, abs=1e-15)

    def test_lengths_summed_in_ascending_order(self):
        # The cumulative dict must be the running total of per_length
        # taken in ascending length order.
        g = scaled_random_graph(55, 5, 0.7)
        res = star_path_sum_truncated(g, 0, 2, 7)
        running = 0.0
        for ell in range(1, 8):
            running += res.per_length[ell]
            assert res.cumulative[ell] == pytest.approx(running, abs=1e-15)


def eigen_cumulative(w, i, j, L):
    """Cumulative ij*-path and loop sums (num, l_i, l_j) for l = 1..L from
    the eigendecomposition of the interior block, not repeated products."""
    k = [v for v in range(w.shape[0]) if v not in (i, j)]
    lam, vec = np.linalg.eigh(w[np.ix_(k, k)])
    powers = lam[None, :] ** np.arange(L - 1)[:, None]

    def cumulative(a, b):
        per = np.empty(L)
        per[0] = w[a, b]
        per[1:] = powers @ ((w[a, k] @ vec) * (vec.T @ w[k, b]))
        return np.cumsum(per)

    return cumulative(i, j), cumulative(i, i), cumulative(j, j)


class TestSharedKernel:
    """One propagation serves every truncated path family: star paths,
    loops, avoiding and confined families, and the two-row pass behind
    rho_hat."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        d=st.integers(min_value=3, max_value=7),
        L=st.integers(min_value=1, max_value=6),
        q=st.sampled_from([None, 0.7, 1.1]),
        data=st.data(),
    )
    def test_blocks_match_enumeration(self, seed, d, L, q, data):
        g = scaled_random_graph(seed, d, 0.6)
        g = g if q is None else rescale(g, q)
        i, j = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        nodes = st.sets(st.integers(0, d - 1), max_size=d)
        avoid = data.draw(nodes)
        within = data.draw(st.none() | nodes)
        interior = pathsum._interior_indices(d, {i, j}, avoid, within)
        got = pathsum._per_length_restricted(g.weights, (i, j), (i, j), L, interior)
        sums = {
            (a, b): enumerated_per_length(g, a, b, L, avoid | {i, j}, within)
            for a in (i, j)
            for b in (i, j)
        }
        ref = np.array([[[sums[a, b][ell] for b in (i, j)] for a in (i, j)] for ell in range(1, L + 1)])
        assert got.shape == (L, 2, 2)
        assert np.max(np.abs(got - ref)) <= 1e-12
        # The public star family i -> j and loop family at i read the same
        # kernel; with j avoided, both see the interior above.
        for col, b in ((1, j), (0, i)):
            res = star_path_sum_truncated(g, i, b, L, avoid=avoid | {j}, within=within)
            per = np.array([res.per_length[ell] for ell in range(1, L + 1)])
            assert np.max(np.abs(per - ref[:, 0, col])) <= 1e-12

    @pytest.mark.parametrize("d", [40, 100, 200])
    @pytest.mark.parametrize("q", [None, 0.7])
    def test_rho_hat_matches_eigendecomposition(self, d, q):
        g = scaled_random_graph(d, d, 0.9)
        g = g if q is None else rescale(g, q)
        L = 50
        for i, j in ((0, 1), (d - 1, d // 2), (7, 3)):
            rho, li, lj = pathsum._rho_hat(g, i, j, L, "L")
            num, ref_li, ref_lj = eigen_cumulative(g.weights, i, j, L)
            assert np.max(np.abs(li - ref_li)) <= 1e-12
            assert np.max(np.abs(lj - ref_lj)) <= 1e-12
            got_num = rho * np.sqrt((1.0 - li) * (1.0 - lj))
            assert np.max(np.abs(got_num - num)) <= 1e-12

    @pytest.mark.parametrize("q", [None, 0.7])
    def test_small_within_equals_severed_graph(self, q):
        d = 400
        g = scaled_random_graph(17, d, 0.9)
        i, j, within = 5, 311, (42, 128, 390)
        kept = sorted({i, j, *within})
        small = sever_nodes(g, [v for v in range(d) if v not in kept])
        big, small = (g, small) if q is None else (rescale(g, q), rescale(small, q))
        at = {v: kept.index(v) for v in kept}
        for a, b, avoid in ((i, j, ()), (i, i, (j,)), (j, j, (i,))):
            res = star_path_sum_truncated(big, a, b, 30, avoid=avoid, within=within)
            ref = star_path_sum_truncated(small, at[a], at[b], 30, avoid=[at[v] for v in avoid])
            for ell in range(1, 31):
                assert res.per_length[ell] == pytest.approx(ref.per_length[ell], abs=1e-15)

    def test_one_kernel_call_per_pair(self, monkeypatch):
        calls = []
        kernel = pathsum._per_length_restricted

        def counted(*args):
            calls.append(args[1:3])
            return kernel(*args)

        monkeypatch.setattr(pathsum, "_per_length_restricted", counted)
        g = scaled_random_graph(3, 8, 0.6)
        convergence_profile(g, 2, 5, 20)
        marginal_corr_expansion(rescale(g, 0.8), 2, 5, 20)
        assert calls == [((2, 5), (2, 5))] * 2


class TestClosedSums:
    def test_closed_against_plain_inverse(self):
        for seed in range(6):
            g = scaled_random_graph(500 + seed, 6, 0.75)
            w = g.weights
            interior = [2, 3, 4, 5]
            expected = w[0, 1] + w[0, interior] @ np.linalg.inv(
                np.eye(4) - w[np.ix_(interior, interior)]
            ) @ w[interior, 1]
            assert star_path_sum_closed(g, 0, 1) == pytest.approx(expected, abs=1e-12)

    def test_closed_is_the_truncated_limit(self):
        g = scaled_random_graph(600, 5, 0.6)
        closed = star_path_sum_closed(g, 0, 1)
        trunc = star_path_sum_truncated(g, 0, 1, 200).total
        assert closed == pytest.approx(trunc, abs=1e-13)

    def test_closed_loop_with_avoid(self):
        g = complete_graph(3, 0.4)
        # Loop 0 -> 1 -> 0 resummed: r^2 / (1 - 0) with K = {1}.
        assert star_path_sum_closed(g, 0, 0, avoid=(2,)) == pytest.approx(
            0.16, abs=1e-15
        )

    def test_closed_exists_in_rescale_required_regime(self):
        # nu(R) = 1.35 yet the restricted blocks stay positive
        # definite, so closed sums and the closed correlation work.
        g = complete_graph(4, -0.45)
        rho = marginal_corr_closed(g, 0, 1)
        oracle = partial_to_marginal_oracle(g).entries[0, 1]
        assert rho == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(-9.0 / 38.0, abs=1e-12)

    def test_closed_on_rescaled_matches_scaled_identity(self):
        # star(q) = q star and 1 - loop(q) = q (1 - loop).
        g = scaled_random_graph(700, 5, 0.7)
        q = 0.9
        rg = rescale(g, q)
        star = star_path_sum_closed(g, 0, 1)
        star_q = star_path_sum_closed(rg, 0, 1)
        assert star_q == pytest.approx(q * star, abs=1e-12)
        loop = star_path_sum_closed(g, 0, 0, avoid=(1,))
        loop_q = star_path_sum_closed(rg, 0, 0, avoid=(1,))
        assert 1.0 - loop_q == pytest.approx(q * (1.0 - loop), abs=1e-12)

    def test_empty_interior_is_the_single_edge(self, monkeypatch):
        # With no node allowed inside, the family is the edge i - j alone:
        # the closed sum is w_ij with nothing factorised, and the truncated
        # sum is w_ij at every length.
        pair = validate_partial_graph(np.array([[0.0, 0.3], [0.3, 0.0]]))
        g = scaled_random_graph(810, 5, 0.7)
        cases = [(pair, None), (rescale(pair, 0.5), None), (g, ()), (rescale(g, 0.5), ())]

        def explode(*a, **k):
            raise AssertionError("nothing to factorise")

        monkeypatch.setattr(scipy.linalg, "cho_factor", explode)
        for h, within in cases:
            edge = h.weights[0, 1]
            assert star_path_sum_closed(h, 0, 1, within=within) == edge
            trunc = star_path_sum_truncated(h, 0, 1, 6, within=within)
            assert trunc.cumulative == {L: edge for L in range(1, 7)}


def sample_graph(seed, d, n):
    """The partial correlation graph of n iid standard-normal draws of d
    variables: few draws put nu(R) anywhere from below 1 to far above it."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    omega = np.linalg.inv(x.T @ x / n)
    lam = np.sqrt(np.diag(omega))
    w = -omega / np.outer(lam, lam)
    np.fill_diagonal(w, 0.0)
    return validate_partial_graph(w)


def regime_graphs():
    """Graphs of each summation regime, keyed by the regime's name."""
    graphs = {
        "absolute": [
            validate_partial_graph(0.5 * np.abs(scaled_random_graph(1000 + s, 7, 0.6).weights))
            for s in range(3)
        ],
        "conditional": [scaled_random_graph(1000 + s, 7, 0.9) for s in range(3)],
        "rescale-required": [complete_graph(4, -0.45), sample_graph(42, 8, 16)],
    }
    for regime, gs in graphs.items():
        assert all(spectral_report(g).regime == regime for g in gs)
    return graphs


class TestClosedPairKernel:
    """The cached oracle entry against the star-path form of restricted block inverses."""

    @pytest.mark.parametrize("regime", ["absolute", "conditional", "rescale-required"])
    def test_matches_restricted_blocks(self, regime):
        for base in regime_graphs()[regime]:
            for g in (base, rescale(base), rescale(base, 0.5)):
                for i, j in itertools.permutations(range(g.dim), 2):
                    s = star_path_sum_closed(g, i, j)
                    li = star_path_sum_closed(g, i, i, avoid=(j,))
                    lj = star_path_sum_closed(g, j, j, avoid=(i,))
                    star_form = s / math.sqrt((1.0 - li) * (1.0 - lj))
                    assert marginal_corr_closed(g, i, j) == pytest.approx(star_form, abs=1e-12)

    def test_near_singular_pair_stays_finite(self):
        # 1 - R has eigenvalues 1e-9 and 2: cond = 2e9, so the inverse
        # carries relative errors up to cond * eps ~ 4e-7.
        r = 1.0 - 1e-9
        g = validate_partial_graph(np.array([[0.0, r], [r, 0.0]]))
        with pytest.warns(IllConditionedWarning):
            rho = marginal_corr_closed(g, 0, 1)
        assert math.isfinite(rho)
        assert rho == pytest.approx(r, abs=1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: marginal_corr_closed(g, 0, 1),
            lambda g: marginal_corr_closed(rescale(g), 0, 1),
            lambda g: convergence_profile(g, 0, 1, 3),
            partial_to_marginal_oracle,
        ],
        ids=["closed", "closed-rescaled", "profile", "oracle"],
    )
    def test_warning_names_the_callers_file(self, call):
        r = 1.0 - 1e-9
        g = validate_partial_graph(np.array([[0.0, r], [r, 0.0]]))
        with pytest.warns(IllConditionedWarning) as record:
            call(g)
        assert [w.filename for w in record] == [__file__]

    def test_rescaled_and_base_give_the_same_pairs(self):
        for gs in regime_graphs().values():
            for g in gs:
                rg = rescale(g)
                for i, j in itertools.combinations(range(g.dim), 2):
                    assert marginal_corr_closed(rg, i, j) == marginal_corr_closed(g, i, j)

    @pytest.mark.parametrize("q", [1e-3, 1e-12, 1e-17, 1e-20])
    def test_small_q_cancels_exactly(self, q):
        # 1 - l_i is about q here; forming it as 1 - (1 - m_i) would lose
        # every digit of m_i that q pushed below eps.
        g = validate_partial_graph(np.array([[0, 0.3, 0.2], [0.3, 0, 0.1], [0.2, 0.1, 0]]))
        oracle = partial_to_marginal_oracle(g).entries
        rg = rescale(g, q)
        for i, j in itertools.combinations(range(3), 2):
            assert marginal_corr_closed(rg, i, j) == pytest.approx(oracle[i, j], abs=1e-12)


# The refusal of a truncation whose series diverges.
DIVERGES = r"^R off the pair has spectral radius {nu} >= 1: the truncated series diverges; rescale the graph$"


def interior_radius(g, i, j):
    """Spectral radius of R on the nodes other than i and j, by numpy."""
    keep = [k for k in range(g.dim) if k not in (i, j)]
    return float(np.max(np.abs(np.linalg.eigvalsh(g.weights[np.ix_(keep, keep)]))))


class TestMarginalCorrelation:
    def test_closed_equals_oracle_on_random_graphs(self):
        for seed in range(10):
            g = scaled_random_graph(900 + seed, 6, 0.8)
            oracle = partial_to_marginal_oracle(g).entries
            for i in range(6):
                for j in range(i + 1, 6):
                    assert marginal_corr_closed(g, i, j) == pytest.approx(
                        oracle[i, j], abs=1e-12
                    )

    def test_expansion_converges_to_oracle(self):
        g = scaled_random_graph(950, 5, 0.5)
        oracle = partial_to_marginal_oracle(g).entries[0, 2]
        est = marginal_corr_expansion(g, 0, 2, 200)
        assert est == pytest.approx(oracle, abs=1e-13)

    def test_expansion_gap_shrinks_with_length(self):
        g = scaled_random_graph(960, 6, 0.7)
        oracle = partial_to_marginal_oracle(g).entries[0, 1]
        gaps = [
            abs(marginal_corr_expansion(g, 0, 1, L) - oracle) for L in (2, 6, 12, 24)
        ]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 1e-6

    def test_same_node_rejected(self):
        g = three_chain(0.3)
        with pytest.raises(IndexOutOfRange):
            marginal_corr_expansion(g, 1, 1, 5)
        with pytest.raises(IndexOutOfRange):
            marginal_corr_closed(g, 1, 1)

    def test_length_validated(self):
        g = three_chain(0.3)
        with pytest.raises(ParamOutOfBound):
            marginal_corr_expansion(g, 0, 1, 0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, L: marginal_corr_expansion(g, 0, 1, L),
            lambda g, L: convergence_profile(g, 0, 1, L),
            lambda g, L: path_sum_truncated(g, 0, 1, L),
            lambda g, L: star_path_sum_truncated(g, 0, 0, L, avoid=(1,)),
        ],
        ids=["expansion", "profile", "path-sum", "star-sum"],
    )
    def test_length_capped_before_allocation(self, call):
        # An array of 10**20 floats cannot be allocated; numpy would
        # raise ValueError, so ParamOutOfBound shows the cap came first.
        g = three_chain(0.3)
        for L in (10**20, pathsum.MAX_LENGTH + 1):
            with pytest.raises(ParamOutOfBound, match="between 1 and"):
                call(g, L)

    def test_divergent_truncation_raises(self):
        # Complete graph on 6 nodes, couplings -0.45: nu(R) = 2.25, and
        # the interior block of 4 nodes has spectral radius 1.35, so
        # truncated loop sums grow without bound and first cross 1 at
        # L = 4.  From there on every length is refused as divergent,
        # the odd ones too, whose own loop sums are negative.
        g = complete_graph(6, -0.45)
        for L in range(1, 20):
            if L < 4:
                assert math.isfinite(marginal_corr_expansion(g, 0, 1, L))
                continue
            with pytest.raises(SpectralRadiusTooLarge, match=DIVERGES.format(nu="1.35")):
                marginal_corr_expansion(g, 0, 1, L)

    def test_overflowing_truncation_is_refused(self):
        # Same graph: by L = 1501 (1 - l_i)(1 - l_j) overflows and by
        # L = 2501 the sums do.  Those lengths are refused as divergent,
        # like L = 501; pytest turns numpy's overflow warnings into errors.
        g = complete_graph(6, -0.45)
        for L in (501, 1501, 2501):
            for call in (marginal_corr_expansion, convergence_profile):
                with pytest.raises(SpectralRadiusTooLarge, match=DIVERGES.format(nu="1.35")):
                    call(g, 0, 1, L)

    def test_overflowing_sampled_graph_is_refused(self):
        # nu(R) = 7.3: every sum overflows long before L = 2000.
        g = sample_partial_graph(SampleSpec(d=30, n=40, seed=3)).graph
        nu = f"{interior_radius(g, 0, 1):.6g}"
        assert float(nu) > 1.0
        for call in (marginal_corr_expansion, convergence_profile):
            with pytest.raises(SpectralRadiusTooLarge, match=DIVERGES.format(nu=nu)):
                call(g, 0, 1, 2000)

    def test_divergent_graph_fixed_by_rescaling(self):
        g = complete_graph(6, -0.45)
        oracle = partial_to_marginal_oracle(g).entries[0, 1]
        est = marginal_corr_expansion(rescale(g), 0, 1, 300)
        assert est == pytest.approx(oracle, abs=1e-10)


class TestRescaling:
    def test_default_q_literal(self):
        # nu(R) = 0.5 for a 2-node graph with r = 0.5, so the default
        # q is 0.95 * 2 / 1.5.
        g = validate_partial_graph(np.array([[0.0, 0.5], [0.5, 0.0]]))
        rg = rescale(g)
        assert rg.q == pytest.approx(1.2666666666666666, abs=1e-15)
        # q above 1 puts a negative self-loop on each vertex.
        assert rg.weights[0, 0] == pytest.approx(1.0 - rg.q, abs=1e-15)

    def test_weights_built_once_and_read_only(self):
        g = scaled_random_graph(44, 5, 0.7)
        rg = rescale(g, 0.9)
        w = rg.weights
        assert rg.weights is w
        assert not w.flags.writeable
        assert np.array_equal(w, 0.9 * g.weights + (1.0 - 0.9) * np.eye(5))

    def test_admissible_interval_strict(self):
        g = complete_graph(4, -0.45)
        bound = 2.0 / (1.0 + 1.35)
        for bad in (0.0, -0.1, bound, bound + 0.01):
            with pytest.raises(QOutOfRange):
                rescale(g, bad)
        assert rescale(g, bound - 1e-9).q == pytest.approx(bound - 1e-9)

    def test_rescale_of_rescaled_uses_base(self):
        g = scaled_random_graph(42, 4, 0.5)
        rg = rescale(g, 0.9)
        rg2 = rescale(rg, 1.1)
        assert rg2.base is g
        assert rg2.q == 1.1

    def test_resolvent_identity(self):
        # q (1 - R(q))^-1 = (1 - R)^-1 for admissible q.
        g = scaled_random_graph(43, 5, 0.7)
        m_inv = np.linalg.inv(np.eye(5) - g.weights)
        for q in (0.4, 0.9, 1.05):
            rg = rescale(g, q)
            lhs = q * np.linalg.inv(np.eye(5) - rg.weights)
            assert np.max(np.abs(lhs - m_inv)) < 1e-12

    def test_estimates_independent_of_q(self):
        g = complete_graph(4, -0.45)
        oracle = partial_to_marginal_oracle(g).entries[0, 1]
        bound = 2.0 / (1.0 + 1.35)
        for frac in (0.3, 0.95):
            est = marginal_corr_expansion(rescale(g, frac * bound), 0, 1, 150)
            assert est == pytest.approx(oracle, abs=1e-12)

    def test_smaller_q_converges_slower(self):
        g = complete_graph(4, -0.45)
        oracle = partial_to_marginal_oracle(g).entries[0, 1]
        bound = 2.0 / (1.0 + 1.35)
        gap_small = abs(
            marginal_corr_expansion(rescale(g, 0.3 * bound), 0, 1, 10) - oracle
        )
        gap_big = abs(
            marginal_corr_expansion(rescale(g, 0.95 * bound), 0, 1, 10) - oracle
        )
        assert gap_small > gap_big


class TestConvergenceProfile:
    def test_matches_pointwise_expansion(self):
        g = scaled_random_graph(77, 5, 0.6)
        points = convergence_profile(g, 0, 3, 8)
        assert [p.L for p in points] == list(range(1, 9))
        for p in points:
            assert p.rho_hat == pytest.approx(
                marginal_corr_expansion(g, 0, 3, p.L), abs=1e-15
            )

    def test_gap_column_against_oracle(self):
        g = scaled_random_graph(78, 5, 0.4)
        oracle = partial_to_marginal_oracle(g).entries[0, 1]
        points = convergence_profile(g, 0, 1, 40)
        assert points[-1].abs_gap == pytest.approx(
            abs(points[-1].rho_hat - oracle), abs=1e-15
        )
        assert points[-1].abs_gap < 1e-12

    def test_profile_on_rescaled_compares_to_base_oracle(self):
        g = complete_graph(4, -0.45)
        oracle = partial_to_marginal_oracle(g).entries[0, 1]
        points = convergence_profile(rescale(g), 0, 1, 120)
        assert points[-1].rho_hat == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("q", [None, 0.9])
    def test_expansion_is_last_row(self, q):
        # Pairwise summation (np.sum) of the per-length terms misses
        # these rows in the last bits; ascending running sums match.
        g = scaled_random_graph(0, 5, 0.7)
        g = g if q is None else rescale(g, q)
        points = convergence_profile(g, 0, 1, 40)
        for L in (1, 7, 25, 40):
            assert marginal_corr_expansion(g, 0, 1, L) == points[L - 1].rho_hat

    def test_divergent_profile_stops_at_first_bad_length(self):
        # Same graph as TestMarginalCorrelation.test_divergent_truncation_raises:
        # the profile is refused from L = 4 on, exactly as the expansion is.
        g = complete_graph(6, -0.45)
        for L_max in (4, 5, 10):
            with pytest.raises(SpectralRadiusTooLarge, match=DIVERGES.format(nu="1.35")):
                convergence_profile(g, 0, 1, L_max)
        rows = [p.rho_hat for p in convergence_profile(g, 0, 1, 3)]
        assert rows == [marginal_corr_expansion(g, 0, 1, L) for L in (1, 2, 3)]

    def test_undefined_rows_read_nan_on_a_rescaled_graph(self):
        # Default q on this graph puts the loop sum at node 0 above 1 at
        # L = 2 alone.  A rescaled series converges, so only that length
        # is refused, and the profile carries a NaN row there.
        rg = rescale(sample_partial_graph(SampleSpec(d=30, n=40, seed=3)).graph)
        points = convergence_profile(rg, 0, 1, 50)
        assert [p.L for p in points if math.isnan(p.rho_hat)] == [2]
        assert math.isnan(points[1].abs_gap)
        assert points[-1].rho_hat == marginal_corr_expansion(rg, 0, 1, 50)
        refusal = "^truncated loop sum at L=2 reaches 1.00804 >= 1 at node i; increase L$"
        with pytest.raises(DenominatorNonPositive, match=refusal):
            marginal_corr_expansion(rg, 0, 1, 2)
        with pytest.raises(DenominatorNonPositive, match=refusal):
            convergence_profile(rg, 0, 1, 2)

    def test_convergent_pair_on_a_divergent_graph_is_not_refused(self):
        # nu(R) = 2.02, but R off the pair has spectral radius below 1,
        # so the pair's sums converge: only L = 2, where a loop sum
        # overshoots 1, is refused, and the profile reaches the oracle.
        g = sample_graph(6, 4, 5)
        assert spectral_report(g).nu_R > 2.0 and interior_radius(g, 0, 1) < 1.0
        points = convergence_profile(g, 0, 1, 60)
        assert [p.L for p in points if math.isnan(p.rho_hat)] == [2]
        assert points[-1].abs_gap < 1e-14
        with pytest.raises(DenominatorNonPositive, match="^truncated loop sum at L=2 .*; increase L$"):
            marginal_corr_expansion(g, 0, 1, 2)


def near_one_graph(seed, d, spread, nu):
    """A graph with nu(R) = nu from its most negative eigenvalue: the
    complete graph of couplings -1 plus ``spread`` times a random
    symmetric matrix, scaled to that eigenvalue."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-1.0, 1.0, (d, d))
    w = spread * (p + p.T) / 2.0 - 1.0
    np.fill_diagonal(w, 0.0)
    return validate_partial_graph(w * (nu / -np.linalg.eigvalsh(w)[0]))


class TestNumericalEdges:
    """Truncated loop sums crossing the guard, and nu(R) just above 1."""

    @settings(max_examples=40, deadline=None)
    @given(
        graph=st.none()
        | st.tuples(st.integers(0, 10_000), st.integers(3, 7), st.integers(2, 14)),
        L_max=st.integers(min_value=1, max_value=12),
    )
    @example(graph=None, L_max=10)
    def test_guard_raises_exactly_where_a_loop_sum_crosses(self, graph, L_max):
        # None is the divergent complete graph, whose loop sums cross at L = 4.
        if graph is None:
            g = complete_graph(6, -0.45)
        else:
            seed, d, extra = graph
            g = sample_graph(seed, d, d + extra)
        divergent = interior_radius(g, 0, 1) >= 1.0
        limit = 1.0 - pathsum.DENOM_GUARD
        loops = [star_path_sum_truncated(g, a, a, L_max, avoid=(b,)) for a, b in ((0, 1), (1, 0))]
        crossed = []
        for L in range(1, L_max + 1):
            sums = [res.cumulative[L] for res in loops]
            # This reference propagates one row, the kernel two: they agree
            # to roundoff of the terms summed, so a sum that close to the
            # limit decides nothing.
            room = [
                1e-12 * max(1.0, sum(abs(res.per_length[ell]) for ell in range(1, L + 1)))
                for res in loops
            ]
            if any(abs(x - limit) <= r for x, r in zip(sums, room)):
                crossed.append(None)
            else:
                crossed.append(any(x >= limit for x in sums))

        def outcome(call, L):
            try:
                return call(g, 0, 1, L)
            except (SpectralRadiusTooLarge, DenominatorNonPositive) as exc:
                return type(exc)

        # A crossing up to L refuses a divergent pair; elsewhere only a
        # crossing at L itself refuses.
        for L in range(1, L_max + 1):
            got = outcome(marginal_corr_expansion, L)
            deciding = crossed[:L] if divergent else crossed[L - 1 : L]
            if divergent and True in deciding:
                assert got is SpectralRadiusTooLarge
            elif None not in deciding:
                if crossed[L - 1]:
                    assert got is DenominatorNonPositive
                else:
                    assert math.isfinite(got)
        # The profile is refused exactly where the expansion at L_max is;
        # otherwise its NaN rows are the crossed lengths, and its last row
        # is the expansion bit for bit.
        profile = outcome(convergence_profile, L_max)
        if isinstance(profile, tuple):
            assert profile[-1].rho_hat == got
            for p, c in zip(profile, crossed):
                assert c is None or math.isnan(p.rho_hat) == c
        else:
            assert profile is got

    def test_a_loop_sum_inside_the_guard_band_is_refused(self):
        # Four interior nodes give l_0(2) = 4 c**2 = 1 - 5e-13: below 1, but
        # within DENOM_GUARD of it.  The interior's radius is 3 |c| = 1.5.
        c = -math.sqrt((1 - 5e-13) / 4)
        g = complete_graph(6, c)
        loop = star_path_sum_truncated(g, 0, 0, 2, avoid=(1,)).cumulative[2]
        assert 1.0 - pathsum.DENOM_GUARD < loop < 1.0
        with pytest.raises(SpectralRadiusTooLarge, match="spectral radius 1.5 >= 1"):
            marginal_corr_expansion(g, 0, 1, 2)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        d=st.integers(min_value=3, max_value=7),
        spread=st.floats(min_value=0.0, max_value=0.5),
        nu=st.floats(min_value=1.0 + 1e-6, max_value=1.1),
    )
    def test_rescaling_just_above_one_converges_to_closed(self, seed, d, spread, nu):
        g = near_one_graph(seed, d, spread, nu)
        report = spectral_report(g)
        assert report.regime == "rescale-required"
        closed = marginal_corr_closed(g, 0, 1)
        bound = 2.0 / (1.0 + report.nu_R)
        for q in (0.02 * bound, None, 0.995 * bound):
            rg = rescale(g, q)
            # Every family's tail past L is at most a multiple of radius**L
            # (interior blocks interlace W's spectrum): take it to 1e-14.
            radius = float(np.max(np.abs(np.linalg.eigvalsh(rg.weights))))
            L = math.ceil(math.log(1e-14) / math.log(radius))
            assert marginal_corr_expansion(rg, 0, 1, L) == pytest.approx(closed, abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_truncation_approaches_closed(seed):
    g = scaled_random_graph(seed, 5, 0.6)
    closed = star_path_sum_closed(g, 0, 1)
    trunc = star_path_sum_truncated(g, 0, 1, 150).total
    assert abs(closed - trunc) < 1e-10


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    q=st.floats(min_value=0.2, max_value=1.1),
)
def test_rescale_preserves_oracle(seed, q):
    g = scaled_random_graph(seed, 4, 0.6)
    oracle = partial_to_marginal_oracle(g).entries[0, 1]
    est = marginal_corr_expansion(rescale(g, q), 0, 1, 400)
    assert abs(est - oracle) < 1e-9
