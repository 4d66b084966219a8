"""Homogeneous chain recurrences against matrix oracles and closed forms."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcorr import (
    ChainSpec,
    IndexOutOfRange,
    ParamOutOfBound,
    UndefinedAtZero,
    amplification_factor,
    chain_pair_corr,
    chain_sums,
    correlation_length,
    endpoint_corr_recurrence,
    l_infinity,
    l_infinity_series,
    partial_to_marginal_oracle,
    validate_partial_graph,
)
from pathcorr import chains

R_GRID = (-0.45, -0.2, 0.1, 0.3, 0.45, 0.5)


def chain_graph(d, r):
    w = np.zeros((d, d))
    for k in range(d - 1):
        w[k, k + 1] = w[k + 1, k] = r
    return validate_partial_graph(w)


class TestSpec:
    def test_length_validated(self):
        with pytest.raises(IndexOutOfRange):
            ChainSpec(d=0, r=0.3)
        with pytest.raises(IndexOutOfRange):
            ChainSpec(d=2.5, r=0.3)

    def test_coupling_validated(self):
        with pytest.raises(ParamOutOfBound):
            ChainSpec(d=4, r=0.51)
        with pytest.raises(ParamOutOfBound):
            ChainSpec(d=4, r=math.nan)
        assert ChainSpec(d=4, r=0.5).r == 0.5

    def test_fields_coerced(self):
        spec = ChainSpec(d=3.0, r=0.25)
        assert spec.d == 3 and isinstance(spec.d, int)


class TestRecurrences:
    def test_seed_values(self):
        sol = chain_sums(ChainSpec(d=3, r=0.3))
        assert sol.c[2] == 0.3
        assert sol.l[2] == 0.0
        assert sol.rho_endpoints[2] == 0.3
        assert sol.c[3] == pytest.approx(0.09, abs=1e-15)
        assert sol.l[3] == pytest.approx(0.09, abs=1e-15)
        assert sol.rho_endpoints[3] == pytest.approx(0.09 / 0.91, abs=1e-15)

    def test_loop_sums_increase_toward_limit(self):
        sol = chain_sums(ChainSpec(d=30, r=0.45))
        linf = l_infinity(0.45)
        values = [sol.l[k] for k in range(2, 31)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < linf
        assert linf - values[-1] < 5e-3

    def test_half_coupling_endpoint_is_one_over_d(self):
        sol = chain_sums(ChainSpec(d=12, r=0.5))
        for d in range(2, 13):
            assert sol.rho_endpoints[d] == pytest.approx(1.0 / d, abs=1e-12)

    def test_recurrence_route_matches_sum_route(self):
        for r in R_GRID:
            sol = chain_sums(ChainSpec(d=12, r=r))
            for d in range(2, 13):
                assert endpoint_corr_recurrence(ChainSpec(d=d, r=r)) == pytest.approx(
                    sol.rho_endpoints[d], abs=1e-12
                )

    @pytest.mark.parametrize("d,r", [(200, 0.01), (400, 0.05), (1000, 0.2), (3000, 0.3)])
    def test_recurrence_past_underflow_matches_sum_route(self, d, r):
        # rho_d underflows to 0 on these chains; the recurrence stays at 0
        # instead of dividing by it.
        expected = chain_sums(ChainSpec(d=d, r=r)).rho_endpoints[d]
        assert endpoint_corr_recurrence(ChainSpec(d=d, r=r)) == pytest.approx(expected, abs=1e-12)

    def test_recurrence_uncoupled(self):
        assert endpoint_corr_recurrence(ChainSpec(d=6, r=0.0)) == 0.0
        with pytest.raises(IndexOutOfRange):
            endpoint_corr_recurrence(ChainSpec(d=1, r=0.3))


class TestPairCorrelation:
    def test_every_pair_against_matrix_oracle(self):
        for r in R_GRID:
            for d in range(2, 9):
                oracle = partial_to_marginal_oracle(chain_graph(d, r)).entries
                spec = ChainSpec(d=d, r=r)
                for i in range(1, d + 1):
                    for j in range(i + 1, d + 1):
                        assert chain_pair_corr(spec, i, j) == pytest.approx(
                            oracle[i - 1, j - 1], abs=1e-12
                        ), (r, d, i, j)

    def test_endpoints_special_case(self):
        spec = ChainSpec(d=9, r=0.4)
        assert chain_pair_corr(spec, 1, 9) == pytest.approx(
            chain_sums(spec).rho_endpoints[9], abs=1e-15
        )

    def test_uncoupled_pairs_vanish(self):
        assert chain_pair_corr(ChainSpec(d=5, r=0.0), 2, 4) == 0.0

    def test_index_validation(self):
        spec = ChainSpec(d=5, r=0.3)
        for i, j in ((0, 2), (3, 3), (4, 2), (1, 6)):
            with pytest.raises(IndexOutOfRange):
                chain_pair_corr(spec, i, j)

    def test_shared_spec_matches_fresh_specs(self):
        spec = ChainSpec(d=30, r=0.45)
        pairs = list(itertools.combinations(range(1, 31), 2))
        shared = [chain_pair_corr(spec, i, j) for i, j in pairs]
        fresh = [chain_pair_corr(ChainSpec(d=30, r=0.45), i, j) for i, j in pairs]
        assert shared == fresh

    def test_one_recurrence_per_spec(self, monkeypatch):
        calls = []
        original = chains.chain_sums

        def counted(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(chains, "chain_sums", counted)
        spec = ChainSpec(d=12, r=0.3)
        for i, j in itertools.combinations(range(1, 13), 2):
            chain_pair_corr(spec, i, j)
        assert len(calls) == 1

    @pytest.mark.parametrize("r", [0.5, -0.5])
    def test_denominators_stay_positive_at_the_critical_coupling(self, r):
        # l_k grows with r^2 and is 1/2 - 1/(2(k - 1)) at |r| = 1/2, so
        # 1 - l_a - l_b >= 1/(2(a - 1)) + 1/(2(b - 1)): no denominator of
        # the recurrences, a pair or an amplification factor can vanish.
        d = chains.MAX_NODES
        spec = ChainSpec(d=d, r=r)
        l = chain_sums(spec).l
        assert max(abs(l[k] - (0.5 - 0.5 / (k - 1))) for k in l) < 1e-12
        assert max(l.values()) < 0.5 - 1 / (2 * d)
        # The smallest pair denominator: l_(i+1) = l_(j-i+1) at i = d/2, j = d.
        i = d // 2
        assert 1.0 - 2.0 * l[i + 1] == pytest.approx(2.0 / d, rel=1e-6)
        assert abs(chain_pair_corr(spec, i, d)) < 1.0
        assert 1.0 < amplification_factor(d - 2, d - 2, r) < math.inf


class TestCorrelationLength:
    def test_frozen_values(self):
        assert correlation_length(0.1) == pytest.approx(
            0.4362180183069196, abs=1e-15
        )
        assert correlation_length(0.45) == pytest.approx(2.1406615514566, abs=1e-12)

    def test_sign_invariance(self):
        assert correlation_length(-0.3) == correlation_length(0.3)

    def test_divergence_at_half(self):
        assert correlation_length(0.5) == math.inf
        assert correlation_length(-0.5) == math.inf

    def test_domain_errors(self):
        with pytest.raises(UndefinedAtZero):
            correlation_length(0.0)
        with pytest.raises(ParamOutOfBound):
            correlation_length(0.6)

    def test_predicts_decay_slope_on_long_chain(self):
        # |rho_(i,i+n)| ~ exp(-n / xi) deep inside a long chain.
        r = 0.3
        spec = ChainSpec(d=200, r=r)
        seps = np.arange(20, 61)
        logs = np.array(
            [math.log(abs(chain_pair_corr(spec, 50, 50 + n))) for n in seps]
        )
        slope = np.polyfit(seps, logs, 1)[0]
        assert slope == pytest.approx(-1.0 / correlation_length(r), rel=1e-6)


class TestLoopSumLimit:
    def test_closed_form_values(self):
        assert l_infinity(0.0) == 0.0
        assert l_infinity(0.5) == pytest.approx(0.5, abs=1e-15)
        assert l_infinity(0.3) == pytest.approx(0.1, abs=1e-15)

    def test_series_route_agrees(self):
        for r in (0.05, 0.2, 0.4):
            assert l_infinity_series(r, terms=50) == pytest.approx(
                l_infinity(r), abs=5e-13
            )

    def test_series_converges_from_below(self):
        r = 0.4
        partials = [l_infinity_series(r, terms=t) for t in (5, 15, 50)]
        assert partials == sorted(partials)
        assert partials[-1] <= l_infinity(r)

    def test_domain_errors(self):
        with pytest.raises(ParamOutOfBound):
            l_infinity(0.7)
        with pytest.raises(ParamOutOfBound):
            l_infinity_series(0.7)
        with pytest.raises(ParamOutOfBound):
            l_infinity_series(0.3, terms=0)


class TestAmplification:
    def test_frozen_values(self):
        assert amplification_factor(10, 1, 0.1) == pytest.approx(
            1.0102051443364382, abs=1e-12
        )
        assert amplification_factor(10, 1, 0.3) == pytest.approx(
            1.1111111111076142, abs=1e-12
        )
        assert amplification_factor(10, 1, 0.47) == pytest.approx(
            1.4910805192131575, abs=1e-12
        )
        assert amplification_factor(10, 6, 0.47) == pytest.approx(
            1.9515792618255874, abs=1e-12
        )

    def test_equals_ratio_of_chain_correlations(self):
        # gamma(k, m, r) is exactly the correlation of the pair with k
        # intermediates in the extended chain (m extra nodes beyond
        # each end) divided by the same pair's correlation in the bare
        # (k+2)-node chain.
        for r in (0.1, 0.3, 0.45):
            for k in (0, 1, 4, 10):
                for m in (0, 1, 3, 6):
                    extended = chain_pair_corr(
                        ChainSpec(d=2 + k + 2 * m, r=r), m + 1, m + k + 2
                    )
                    bare = chain_pair_corr(ChainSpec(d=k + 2, r=r), 1, k + 2)
                    assert amplification_factor(k, m, r) == pytest.approx(
                        extended / bare, abs=1e-12
                    ), (r, k, m)

    def test_criterion_points_against_matrix_oracle(self):
        # The acceptance-gate points, checked without the recurrence:
        # the pair's entry of the oracle for the extended chain
        # (d = 14 or 24) over its entry for the bare 12-node chain.
        for k, m, r in ((10, 1, 0.1), (10, 1, 0.3), (10, 1, 0.47), (10, 6, 0.47)):
            extended = partial_to_marginal_oracle(chain_graph(k + 2 + 2 * m, r)).entries
            bare = partial_to_marginal_oracle(chain_graph(k + 2, r)).entries
            assert amplification_factor(k, m, r) == pytest.approx(
                extended[m, m + k + 1] / bare[0, k + 1], abs=1e-12
            ), (k, m, r)

    def test_bounded_by_supremum(self):
        # At r = 0.1 and 0.3 the loop sums reach l_inf to machine
        # precision by k, m = 30, so the maximum meets the supremum.
        for r in (0.1, 0.3, 0.47):
            s = math.sqrt(1.0 - 4.0 * r * r)
            supremum = (1.0 + s) / (2.0 * s)
            for k in range(31):
                for m in range(31):
                    assert amplification_factor(k, m, r) <= supremum + 1e-12, (r, k, m)

    def test_identity_at_zero_extension(self):
        assert amplification_factor(5, 0, 0.3) == 1.0

    def test_even_in_r(self):
        assert amplification_factor(4, 2, -0.35) == pytest.approx(
            amplification_factor(4, 2, 0.35), abs=1e-15
        )

    def test_monotone_in_extension(self):
        values = [amplification_factor(6, m, 0.4) for m in range(6)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[0] == 1.0

    def test_domain_errors(self):
        with pytest.raises(ParamOutOfBound):
            amplification_factor(-1, 2, 0.3)
        with pytest.raises(ParamOutOfBound):
            amplification_factor(2, -1, 0.3)
        with pytest.raises(ParamOutOfBound):
            amplification_factor(2, 2, 0.6)


class TestLengthCap:
    """Chains are tabulated up to MAX_NODES nodes, like truncations up to MAX_LENGTH."""

    def test_sums_at_the_cap(self):
        sol = chain_sums(ChainSpec(d=chains.MAX_NODES, r=0.3))
        assert len(sol.c) == len(sol.l) == len(sol.rho_endpoints) == chains.MAX_NODES - 1
        assert sol.l[chains.MAX_NODES] == pytest.approx(l_infinity(0.3), abs=1e-12)

    @pytest.mark.parametrize("d", [chains.MAX_NODES + 1, 10**20])
    def test_longer_chain_refused_before_any_sum(self, d):
        spec = ChainSpec(d=d, r=0.3)
        with pytest.raises(IndexOutOfRange, match=r"chain length d .* between 1 and 100000"):
            chain_sums(spec)
        with pytest.raises(IndexOutOfRange, match="chain length d"):
            chain_pair_corr(spec, 1, 2)

    def test_amplification_at_and_past_the_cap(self):
        top = chains.MAX_NODES - 2
        # Both loop sums sit at l_inf, so gamma is at its supremum 1.125.
        assert amplification_factor(top, top, 0.3) == pytest.approx(1.125, abs=1e-12)
        for k, m, name in ((top + 1, 1, "k"), (1, top + 1, "m"), (10**20, 1, "k")):
            with pytest.raises(ParamOutOfBound, match=rf"^{name} .* between 0 and {top}"):
                amplification_factor(k, m, 0.3)

    def test_endpoint_recurrence_takes_any_length(self):
        # It keeps two numbers, not a table, and stops once rho underflows.
        assert endpoint_corr_recurrence(ChainSpec(d=10**20, r=0.3)) == 0.0

    @pytest.mark.parametrize("r", [0.5, -0.5])
    def test_endpoint_recurrence_at_half_coupling(self, r):
        # rho_d = (+-1)^(d-1) / d never underflows at |r| = 1/2, so a chain
        # past the cap is refused after at most MAX_NODES steps.
        d = 1000
        expected = math.copysign(1.0, r) ** (d - 1) / d
        assert endpoint_corr_recurrence(ChainSpec(d=d, r=r)) == pytest.approx(expected, rel=1e-9)
        with pytest.raises(ParamOutOfBound, match=r"at most 100000, got 100000000000000000000$"):
            endpoint_corr_recurrence(ChainSpec(d=10**20, r=r))


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=7),
    r=st.floats(min_value=-0.49, max_value=0.49),
    data=st.data(),
)
def test_pair_corr_matches_oracle_property(d, r, data):
    i = data.draw(st.integers(min_value=1, max_value=d - 1))
    j = data.draw(st.integers(min_value=i + 1, max_value=d))
    oracle = partial_to_marginal_oracle(chain_graph(d, r)).entries[i - 1, j - 1]
    assert abs(chain_pair_corr(ChainSpec(d=d, r=r), i, j) - oracle) < 1e-10
