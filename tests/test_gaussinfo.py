"""Conditional mutual information: closed form, trace series, loop identity.

The reference route here is the entropy difference computed with raw
numpy inverses and log-determinants of the implied covariance, and for
the loop sum the conditional variance read from the raw inverse; they
share no code with the functions under test.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcorr import (
    DenominatorNonPositive,
    DimensionMismatch,
    IndexOutOfRange,
    InfoResult,
    ParamOutOfBound,
    PartialCorrelationGraph,
    PathcorrError,
    QOutOfRange,
    SingularBlock,
    SpectralRadiusTooLarge,
    TriPartition,
    conditional_mi_closed,
    conditional_mi_series,
    loop_sum_mi_identity,
    marginalize_nodes,
    partial_to_marginal_oracle,
    partial_to_precision,
    validate_partial_graph,
)
from pathcorr import gaussinfo, matrices
from pathcorr.gaussinfo import TERM_FLOOR
from pathcorr.pathsum import MAX_LENGTH

from conftest import chain_graph, complete_graph, scaled_random_graph


def explode(*a, **k):
    raise scipy.linalg.LinAlgError("boom")


def entropy_difference_oracle(g, part):
    """I(A; B | Z) from covariance log-determinants, raw numpy route."""
    sigma = np.linalg.inv(np.eye(g.dim) - g.weights)

    def h(nodes):
        if not nodes:
            return 0.0
        sub = sigma[np.ix_(list(nodes), list(nodes))]
        return float(np.linalg.slogdet(sub)[1])

    az = sorted(part.A + part.Z)
    bz = sorted(part.B + part.Z)
    return 0.5 * (h(az) + h(bz) - h(sorted(az + list(part.B))) - h(part.Z))


class TestTriPartition:
    def test_sorted_tuples(self):
        part = TriPartition(dim=5, A=(3, 0), B=(4, 1))
        assert part.A == (0, 3) and part.B == (1, 4) and part.Z == (2,)

    def test_nonempty_sides_required(self):
        with pytest.raises(IndexOutOfRange):
            TriPartition(dim=3, A=(), B=(1,))
        with pytest.raises(IndexOutOfRange):
            TriPartition(dim=3, A=(0,), B=())

    def test_disjointness_required(self):
        with pytest.raises(IndexOutOfRange):
            TriPartition(dim=3, A=(0, 1), B=(1, 2))
        with pytest.raises(IndexOutOfRange):
            TriPartition(dim=4, A=(0, 0), B=(1, 2))

    def test_cover_required(self):
        # Z is worked out as every node outside A and B, never given.
        part = TriPartition(dim=6, A=(4, 0), B=(2,))
        assert part.Z == (1, 3, 5)
        assert TriPartition(dim=2, A=(1,), B=(0,)).Z == ()
        with pytest.raises(TypeError):
            TriPartition(dim=4, A=(0,), B=(1,), Z=(2, 3))

    def test_range_checked(self):
        with pytest.raises(IndexOutOfRange):
            TriPartition(dim=3, A=(0,), B=(7,))

    def test_complement_fills_z(self):
        part = TriPartition.complement(6, A=(0, 2), B=(5,))
        assert part.Z == (1, 3, 4)
        explicit = TriPartition(dim=6, A=(0, 2), B=(5,))
        assert part == explicit


class TestClosedForm:
    def test_two_node_literal(self):
        g = validate_partial_graph(np.array([[0.0, 0.3], [0.3, 0.0]]))
        res = conditional_mi_closed(g, TriPartition(dim=2, A=(0,), B=(1,)))
        assert res.nats == pytest.approx(0.04715533973562065, abs=1e-15)
        assert res.nats == pytest.approx(-0.5 * math.log(1.0 - 0.09), abs=1e-15)
        assert res.method == "closed"
        assert res.series_terms is None

    def test_against_entropy_difference(self):
        for seed in range(6):
            g = scaled_random_graph(70 + seed, 7, 0.8)
            for part in (
                TriPartition.complement(7, A=(0, 1), B=(4, 5, 6)),
                TriPartition.complement(7, A=(2,), B=(0, 3)),
                TriPartition(dim=7, A=(0, 1, 2), B=(3, 4, 5, 6)),
            ):
                assert conditional_mi_closed(g, part).nats == pytest.approx(
                    entropy_difference_oracle(g, part), abs=1e-10
                )

    def test_markov_chain_screens(self):
        g = chain_graph(3, 0.4)
        res = conditional_mi_closed(g, TriPartition(dim=3, A=(0,), B=(2,)))
        assert abs(res.nats) < 1e-14

    def test_symmetry_in_arguments(self):
        g = scaled_random_graph(80, 6, 0.7)
        a = conditional_mi_closed(g, TriPartition.complement(6, A=(0, 1), B=(3, 4)))
        b = conditional_mi_closed(g, TriPartition.complement(6, A=(3, 4), B=(0, 1)))
        assert a.nats == pytest.approx(b.nats, abs=1e-12)

    def test_scale_free_through_precision_input(self):
        rng = np.random.default_rng(5)
        base = scaled_random_graph(81, 5, 0.7)
        g = PartialCorrelationGraph(base.weights, scale=rng.uniform(0.5, 3.0, 5))
        part = TriPartition.complement(5, A=(0, 2), B=(3,))
        from_graph = conditional_mi_closed(g, part).nats
        from_precision = conditional_mi_closed(partial_to_precision(g), part).nats
        assert from_graph == pytest.approx(from_precision, abs=1e-12)

    def test_raw_array_rejected(self):
        for system in (np.eye(3), "x"):
            with pytest.raises(ParamOutOfBound, match="PartialCorrelationGraph or PrecisionMatrix"):
                conditional_mi_closed(system, TriPartition(dim=3, A=(0,), B=(1, 2)))

    def test_dim_mismatch_rejected(self):
        g = chain_graph(3, 0.3)
        with pytest.raises(DimensionMismatch):
            conditional_mi_closed(g, TriPartition(dim=4, A=(0,), B=(1, 2, 3)))

    def test_pair_mi_matches_marginal_correlation(self):
        # Integrating out the rest and applying the two-node formula
        # must agree with the direct pairwise information.
        g = scaled_random_graph(82, 6, 0.7)
        rho = partial_to_marginal_oracle(g).entries[1, 4]
        pair = marginalize_nodes(g, set(range(6)) - {1, 4})
        res = conditional_mi_closed(pair, TriPartition(dim=2, A=(0,), B=(1,)))
        assert res.nats == pytest.approx(-0.5 * math.log(1.0 - rho * rho), abs=1e-12)

    def test_works_in_rescale_required_regime(self):
        # nu(R) = 1.35 but T keeps spectrum inside the unit disc for
        # any positive definite system.
        g = complete_graph(4, -0.45)
        part = TriPartition(dim=4, A=(0, 1), B=(2, 3))
        closed = conditional_mi_closed(g, part).nats
        assert closed == pytest.approx(entropy_difference_oracle(g, part), abs=1e-10)
        series = conditional_mi_series(g, part).nats
        assert series == pytest.approx(closed, abs=1e-10)


class TestSeries:
    def test_matches_closed(self):
        for seed in range(6):
            g = scaled_random_graph(90 + seed, 6, 0.8)
            part = TriPartition.complement(6, A=(0, 1), B=(3, 4, 5))
            closed = conditional_mi_closed(g, part).nats
            res = conditional_mi_series(g, part)
            assert res.nats == pytest.approx(closed, abs=1e-10)
            assert res.method == "trace-series"

    def test_leading_term_is_half_trace(self):
        # The explicit matrix route is the reference: every term is
        # tr(T^n) / (2 n) of T or T(q) = (1 - q) 1 + q T, powered by hand.
        g = scaled_random_graph(95, 5, 0.6)
        part = TriPartition.complement(5, A=(0, 1), B=(2, 3, 4))
        a = [0, 1]
        b = [2, 3, 4]
        m_a = np.eye(2) - g.weights[np.ix_(a, a)]
        m_b = np.eye(3) - g.weights[np.ix_(b, b)]
        r_ab = g.weights[np.ix_(a, b)]
        t = np.linalg.inv(m_a) @ r_ab @ np.linalg.inv(m_b) @ r_ab.T
        for q, tq in ((None, t), (0.7, 0.3 * np.eye(2) + 0.7 * t)):
            terms = conditional_mi_series(g, part, q=q).series_terms
            assert len(terms) > 5
            power = np.eye(2)
            for n, term in enumerate(terms, start=1):
                power = power @ tq
                assert term == pytest.approx(np.trace(power) / (2.0 * n), abs=1e-14), (q, n)

    def test_one_factor_of_each_block(self, monkeypatch):
        # 1 - R[B, B] and 1 - R[A, A] are factorised once each, and the
        # spectrum comes from one symmetric eigenvalue call.
        g = scaled_random_graph(98, 7, 0.7)
        part = TriPartition.complement(7, A=(0, 1, 2), B=(4, 5))
        calls = {"cho_factor": 0, "eigvalsh": 0}

        def counted(name, fn):
            def wrapper(*a, **k):
                calls[name] += 1
                return fn(*a, **k)
            return wrapper

        cho_factor, eigvalsh = scipy.linalg.cho_factor, np.linalg.eigvalsh
        monkeypatch.setattr(scipy.linalg, "cho_factor", counted("cho_factor", cho_factor))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
        monkeypatch.setattr(scipy.linalg, "eigh", explode)
        for q in (None, 0.7):
            calls.update(cho_factor=0, eigvalsh=0)
            conditional_mi_series(g, part, q=q)
            assert calls == {"cho_factor": 2, "eigvalsh": 1}, q

    def test_early_stop_below_term_floor(self):
        g = chain_graph(4, 0.1)
        part = TriPartition.complement(4, A=(0,), B=(3,))
        res = conditional_mi_series(g, part, n_max=1000)
        assert len(res.series_terms) < 1000
        assert abs(res.series_terms[-1]) < TERM_FLOOR
        assert res.nats == pytest.approx(sum(res.series_terms), abs=1e-16)

    @pytest.mark.parametrize("n_max", [1, 3, 5])
    def test_cut_series_holds_n_max_terms(self, n_max):
        g = complete_graph(5, -0.3)
        part = TriPartition(dim=5, A=(0, 1), B=(2, 3, 4))
        full = conditional_mi_series(g, part).series_terms
        res = conditional_mi_series(g, part, n_max=n_max)
        assert len(full) > 5
        assert res.series_terms == full[:n_max]
        assert res.nats == sum(full[:n_max])

    def test_default_stop_is_the_first_n_the_tail_bound_allows(self):
        # Only the edge 0-1 couples A = {0} to B = {1}, so the pencil has one
        # eigenvalue, rho = r**2, and term 1 is rho / 2 exactly.  The series
        # stops at the first n whose term and tail bound
        # rho**(n+1) / (2 (n + 1) (1 - rho)) are both below TERM_FLOOR,
        # and the tail it leaves is within that bound.
        part = TriPartition(dim=3, A=(0,), B=(1,))
        for r in np.linspace(0.05, 0.95, 61):
            w = np.zeros((3, 3))
            w[0, 1] = w[1, 0] = r
            res = conditional_mi_series(validate_partial_graph(w), part)
            terms = res.series_terms
            rho = 2.0 * terms[0]

            def bound(n):
                return 1 / (2.0 * (1.0 - rho)) * rho ** (n + 1) / (n + 1)

            met = [n for n in range(1, len(terms) + 1)
                   if abs(terms[n - 1]) < TERM_FLOOR and bound(n) < TERM_FLOOR]
            assert met == [len(terms)], r
            assert -0.5 * math.log1p(-rho) - res.nats <= bound(len(terms)) + 1e-15, r

    def test_truncation_bites_with_tiny_n_max(self):
        g = complete_graph(5, -0.3)
        part = TriPartition(dim=5, A=(0, 1), B=(2, 3, 4))
        closed = conditional_mi_closed(g, part).nats
        short = conditional_mi_series(g, part, n_max=2).nats
        full = conditional_mi_series(g, part).nats
        assert abs(short - closed) > 1e-6
        assert abs(full - closed) < 1e-10

    def test_rescaled_series_matches_closed(self):
        g = scaled_random_graph(96, 6, 0.8)
        part = TriPartition.complement(6, A=(0, 2), B=(1, 4, 5))
        closed = conditional_mi_closed(g, part).nats
        for q in (0.6, 1.0, 1.3):
            res = conditional_mi_series(g, part, q=q)
            assert res.nats == pytest.approx(closed, abs=1e-10), q

    def test_q_interval_enforced(self):
        g = scaled_random_graph(97, 5, 0.6)
        part = TriPartition.complement(5, A=(0,), B=(3, 4))
        for bad in (0.0, -0.5, 2.1):
            with pytest.raises(QOutOfRange):
                conditional_mi_series(g, part, q=bad)

    def test_n_max_validated(self):
        g = chain_graph(3, 0.3)
        part = TriPartition.complement(3, A=(0,), B=(2,))
        with pytest.raises(ParamOutOfBound):
            conditional_mi_series(g, part, n_max=0)

    def test_n_max_checked_before_factorising(self, monkeypatch):
        g = chain_graph(3, 0.3)
        part = TriPartition.complement(3, A=(0,), B=(2,))
        monkeypatch.setattr(scipy.linalg, "cho_factor", explode)
        with pytest.raises(ParamOutOfBound):
            conditional_mi_series(g, part, n_max=0)
        with pytest.raises(SingularBlock):
            conditional_mi_series(g, part)

    def test_n_max_capped_before_factorising(self, monkeypatch):
        g = chain_graph(3, 0.3)
        part = TriPartition.complement(3, A=(0,), B=(2,))
        closed = conditional_mi_closed(g, part).nats
        res = conditional_mi_series(g, part, n_max=MAX_LENGTH)
        assert res.nats == pytest.approx(closed, abs=1e-12)
        monkeypatch.setattr(scipy.linalg, "cho_factor", explode)
        for n_max in (MAX_LENGTH + 1, 10**20):
            with pytest.raises(ParamOutOfBound, match=r"n_max .* between 1 and 100000"):
                conditional_mi_series(g, part, n_max=n_max)

    def test_slow_series_sums_its_tail(self):
        # With q = 0.001 the terms drop below TERM_FLOOR while the tail
        # they leave, about TERM_FLOOR / (1 - rho), is still ~1e-11.
        g = chain_graph(6, 0.3)
        part = TriPartition.complement(6, A=(0, 1), B=(3,))
        closed = conditional_mi_closed(g, part).nats
        res = conditional_mi_series(g, part, n_max=100_000, q=0.001)
        assert len(res.series_terms) < 100_000
        assert abs(res.series_terms[-1]) < TERM_FLOOR
        assert res.nats == pytest.approx(closed, abs=1e-12)

    def test_negative_cut_sum_names_n_max_and_q(self):
        g = chain_graph(6, 0.3)
        part = TriPartition.complement(6, A=(0, 1), B=(3,))
        with pytest.raises(ParamOutOfBound, match=r"n_max=1000 .*q=0\.001"):
            conditional_mi_series(g, part, q=0.001)

    def test_spectral_radius_guard(self, monkeypatch):
        # nu(T) < 1 holds for every valid system, so the guard only
        # fires on a doctored spectrum.
        g = chain_graph(3, 0.3)
        part = TriPartition.complement(3, A=(0,), B=(2,))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: np.array([1.5]))
        with pytest.raises(SpectralRadiusTooLarge):
            conditional_mi_series(g, part)


class TestInfoResult:
    def test_small_negative_roundoff_tolerated(self):
        assert InfoResult(nats=-1e-13, method="closed").nats == -1e-13

    def test_below_floor_rejected(self):
        with pytest.raises(PathcorrError):
            InfoResult(nats=-1e-9, method="closed")


class TestLoopIdentity:
    def test_three_chain_by_hand(self):
        g = chain_graph(3, 0.4)
        loop, mi = loop_sum_mi_identity(g, 0, 2)
        assert loop == pytest.approx(0.16, abs=1e-14)
        assert mi == pytest.approx(-0.5 * math.log(1.0 - 0.16), abs=1e-14)

    def test_identity_on_random_graphs(self):
        for seed in range(5):
            g = scaled_random_graph(110 + seed, 6, 0.8)
            loop, mi = loop_sum_mi_identity(g, 2, 5)
            assert loop == pytest.approx(1.0 - math.exp(-2.0 * mi), abs=1e-10)

    def test_node_validation(self):
        g = chain_graph(4, 0.3)
        with pytest.raises(IndexOutOfRange):
            loop_sum_mi_identity(g, 1, 1)
        with pytest.raises(IndexOutOfRange):
            loop_sum_mi_identity(g, 0, 9)
        with pytest.raises(IndexOutOfRange):
            loop_sum_mi_identity(chain_graph(2, 0.3), 0, 1)

    def test_precision_input_validated_once(self, monkeypatch):
        g = PartialCorrelationGraph(
            scaled_random_graph(120, 6, 0.7).weights, scale=np.linspace(0.5, 2.0, 6)
        )
        precision = partial_to_precision(g)
        checks = []
        original = matrices._check_pd

        def counting(m, what):
            checks.append(np.shape(m))
            return original(m, what)

        # Counted at the definiteness check, which every graph passes
        # through, raw or computed from a validated matrix.
        monkeypatch.setattr(matrices, "_check_pd", counting)
        assert loop_sum_mi_identity(precision, 2, 5) == pytest.approx(
            loop_sum_mi_identity(g, 2, 5), abs=1e-12
        )
        # One graph built from the precision input; the graph input needs none.
        assert checks == [(6, 6)]

    def test_against_raw_inverse_and_entropy_difference(self):
        # Routes that share no arithmetic with the function: the loop sum
        # from the raw inverse S of 1 - R, through the conditional variance
        # S_ii - S_ij^2 / S_jj of X_i given X_j (its variance given all
        # else is 1), and the information from covariance log-determinants.
        for seed, nu in ((130, 0.3), (131, 0.6), (132, 0.8), (133, 0.95), (134, 0.99)):
            g = scaled_random_graph(seed, 6, nu)
            sigma = np.linalg.inv(np.eye(6) - g.weights)
            for i in range(6):
                for j in range(6):
                    if i == j:
                        continue
                    loop, mi = loop_sum_mi_identity(g, i, j)
                    given_j = sigma[i, i] - sigma[i, j] ** 2 / sigma[j, j]
                    assert loop == pytest.approx(1.0 - 1.0 / given_j, abs=1e-12), (seed, i, j)
                    part = TriPartition.complement(6, A=(i,), B=set(range(6)) - {i, j})
                    assert mi == pytest.approx(
                        entropy_difference_oracle(g, part), abs=1e-10
                    ), (seed, i, j)

    def test_one_factor_of_one_block(self, monkeypatch):
        # The loop sum and the information come from one factorisation of
        # 1 - R over the rest; the determinant form is never called.
        g = scaled_random_graph(135, 7, 0.7)
        calls = []
        cho_factor = scipy.linalg.cho_factor

        def counted(*a, **k):
            calls.append(np.shape(a[0]))
            return cho_factor(*a, **k)

        monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
        monkeypatch.setattr(gaussinfo, "conditional_mi_closed", explode)
        for i, j in ((0, 6), (3, 1)):
            calls.clear()
            loop_sum_mi_identity(g, i, j)
            assert calls == [(5, 5)], (i, j)

    def test_inconsistency_detected(self, monkeypatch):
        # A loop sum at 1 leaves X_i no conditional variance: the system is
        # not positive definite to working precision.
        g = chain_graph(4, 0.3)
        monkeypatch.setattr(gaussinfo, "star_path_sum_closed", lambda *a, **k: 1.0)
        with pytest.raises(DenominatorNonPositive, match="loop sum at node 0 avoiding 3 is 1 >= 1"):
            loop_sum_mi_identity(g, 0, 3)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_closed_and_series_agree_property(seed):
    g = scaled_random_graph(seed, 5, 0.7)
    part = TriPartition.complement(5, A=(0, 1), B=(3, 4))
    closed = conditional_mi_closed(g, part).nats
    series = conditional_mi_series(g, part).nats
    assert closed >= 0.0
    assert abs(closed - series) < 1e-9
