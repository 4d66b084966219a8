"""Sampled systems, factor models, canonical topologies, martingales."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import pathcorr
from pathcorr import (
    CovarianceMatrix,
    DegenerateColumn,
    DimensionMismatch,
    FactorModel,
    GENERATOR_ID,
    MartingaleSpec,
    NotPositiveDefinite,
    ParamOutOfBound,
    PrecisionMatrix,
    SampleSpec,
    SingularSampleCovariance,
    canonical_graph,
    cov_to_marginal,
    cov_to_precision,
    detect_separating_nodes,
    factor_model_partial,
    martingale_covariance,
    partial_to_marginal_oracle,
    precision_to_partial,
    sample_partial_graph,
    validate_partial_graph,
)
from pathcorr import sampling


class TestSampleSpec:
    def test_dimension_positive(self):
        with pytest.raises(ParamOutOfBound):
            SampleSpec(d=0, n=5, seed=1)

    def test_more_samples_than_dimensions(self):
        with pytest.raises(ParamOutOfBound):
            SampleSpec(d=5, n=5, seed=1)

    def test_seed_is_uint64(self):
        with pytest.raises(ParamOutOfBound):
            SampleSpec(d=2, n=5, seed=-1)
        with pytest.raises(ParamOutOfBound):
            SampleSpec(d=2, n=5, seed=2**64)
        assert SampleSpec(d=2, n=5, seed=2**64 - 1).seed == 2**64 - 1

    def test_entries_capped_before_any_draw(self):
        # n x d floats are drawn, so n * d past the cap is refused when
        # the spec is built, before anything is drawn.
        top = sampling.MAX_ENTRIES
        assert SampleSpec(d=5, n=top // 5, seed=1).n == top // 5
        for d, n in ((5, top // 5 + 1), (5, 10**20), (10**4, 10**4 + 1)):
            with pytest.raises(ParamOutOfBound, match=rf"^n \* d must be at most {top}"):
                SampleSpec(d=d, n=n, seed=1)


class TestSampling:
    def test_generator_contract_string(self):
        assert GENERATOR_ID == "philox4x64-10/inverse-cdf"

    def test_bit_for_bit_determinism(self):
        a = sample_partial_graph(SampleSpec(d=6, n=40, seed=123))
        b = sample_partial_graph(SampleSpec(d=6, n=40, seed=123))
        assert a.graph.weights.tobytes() == b.graph.weights.tobytes()
        assert a.spectral == b.spectral

    def test_seed_changes_draw(self):
        a = sample_partial_graph(SampleSpec(d=6, n=40, seed=0))
        b = sample_partial_graph(SampleSpec(d=6, n=40, seed=1))
        assert not np.array_equal(a.graph.weights, b.graph.weights)

    def test_pipeline_reproduced_from_raw_generator(self):
        # Rebuild the advertised pipeline with plain numpy calls: same
        # counter generator, inverse CDF, covariance denominator n,
        # matrix inverse instead of the Cholesky solve.
        spec = SampleSpec(d=4, n=60, seed=77)
        gen = np.random.Generator(np.random.Philox(key=77))
        u = gen.random((60, 4))
        x = scipy.special.ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
        xc = x - x.mean(axis=0)
        omega = np.linalg.inv(xc.T @ xc / 60)
        expected = precision_to_partial(PrecisionMatrix((omega + omega.T) / 2.0))
        got = sample_partial_graph(spec).graph
        assert np.max(np.abs(got.weights - expected.weights)) < 1e-10

    def test_large_sample_recovers_independence(self):
        res = sample_partial_graph(SampleSpec(d=2, n=1_000_000, seed=3))
        assert abs(res.graph.weights[0, 1]) < 5e-3
        assert not res.flagged

    def test_undersampled_draw_is_flagged_not_raised(self):
        res = sample_partial_graph(SampleSpec(d=20, n=23, seed=0))
        assert res.flagged
        assert res.spectral.regime == "rescale-required"
        assert res.spectral.nu_R == pytest.approx(4.6744586897446965, abs=1e-12)

    def test_well_sampled_draw_is_calm(self):
        res = sample_partial_graph(SampleSpec(d=5, n=10_000, seed=1))
        assert not res.flagged
        assert res.spectral.regime == "absolute"
        assert res.spectral.nu_R == pytest.approx(0.026126425238093925, abs=1e-12)

    def test_singular_covariance_mapped(self, monkeypatch):
        def explode(*a, **k):
            raise scipy.linalg.LinAlgError("boom")

        monkeypatch.setattr(scipy.linalg, "cho_factor", explode)
        with pytest.raises(SingularSampleCovariance):
            sample_partial_graph(SampleSpec(d=3, n=10, seed=5))


    def test_inverse_cdf_module_imported_on_use(self):
        # A fresh interpreter: this module imports scipy.special itself.
        script = (
            "import sys, pathcorr\n"
            "assert 'scipy.special' not in sys.modules\n"
            "pathcorr.sample_partial_graph(pathcorr.SampleSpec(d=3, n=20, seed=1))\n"
            "assert 'scipy.special' in sys.modules\n"
        )
        path = [str(Path(pathcorr.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr


class TestFactorModel:
    def test_orthonormal_factors_decouple(self):
        fm = FactorModel(weights=np.eye(4))
        g = factor_model_partial(fm)
        assert np.array_equal(g.weights, np.zeros((4, 4)))
        assert np.array_equal(g.scale, np.ones(4))

    def test_hand_worked_three_factor(self):
        # Omega = [[1, 1, 0], [1, 2, 0], [0, 0, 1]].
        fm = FactorModel(
            weights=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        )
        g = factor_model_partial(fm)
        assert g.weights[0, 1] == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-15)
        assert g.weights[0, 2] == 0.0
        assert g.weights[1, 2] == 0.0
        assert g.scale == pytest.approx([1.0, np.sqrt(2.0), 1.0], abs=1e-15)

    def test_direct_formula_matches_precision_route(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            w = 0.3 * rng.normal(size=(5, 5)) + np.eye(5)
            v = rng.uniform(0.5, 2.0, 5)
            fm = FactorModel(weights=w, variances=v)
            direct = factor_model_partial(fm)
            omega = (v[:, None] * w).T @ w
            via_precision = precision_to_partial(PrecisionMatrix(omega))
            assert np.max(np.abs(direct.weights - via_precision.weights)) < 1e-12
            assert np.max(np.abs(direct.scale - via_precision.scale)) < 1e-12

    def test_default_variances_are_ones(self):
        fm = FactorModel(weights=np.eye(3))
        assert np.array_equal(fm.variances, np.ones(3))
        assert fm.dim == 3

    def test_shape_validated(self):
        with pytest.raises(DimensionMismatch):
            FactorModel(weights=np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            FactorModel(weights=np.eye(3), variances=np.ones(2))
        with pytest.raises(DimensionMismatch):
            FactorModel(weights=np.zeros((0, 0)))

    def test_values_validated(self):
        with pytest.raises(ParamOutOfBound):
            FactorModel(weights=np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(ParamOutOfBound):
            FactorModel(weights=np.eye(2), variances=np.array([1.0, 0.0]))

    def test_uncarried_variable_detected(self):
        # Column 1 is zero in every factor: reported as the degenerate
        # variable, not as a generic definiteness failure.
        w = np.array([[1.0, 0.0, 0.5], [0.0, 0.0, 1.0], [0.3, 0.0, 1.0]])
        with pytest.raises(DegenerateColumn):
            FactorModel(weights=w)

    def test_rank_deficiency_without_dead_column(self):
        with pytest.raises(NotPositiveDefinite):
            FactorModel(weights=np.array([[1.0, 1.0], [1.0, 1.0]]))
        # Rank 2: roundoff leaves the smallest eigenvalue of the product
        # just above zero, which the graph's relative test still refuses.
        with pytest.raises(NotPositiveDefinite):
            FactorModel(weights=np.arange(1.0, 10.0).reshape(3, 3))
        # One factor carries both variables alike: r = -1 exactly.
        with pytest.raises(NotPositiveDefinite):
            FactorModel(weights=np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_arrays_read_only(self):
        fm = FactorModel(weights=np.eye(3))
        with pytest.raises(ValueError):
            fm.weights[0, 0] = 2.0


class TestCanonicalGraphs:
    def test_chain_structure(self):
        g = canonical_graph("chain", d=5, r=0.4)
        w = g.weights
        assert np.count_nonzero(w) == 8
        assert all(w[k, k + 1] == 0.4 for k in range(4))

    def test_chain_boundary_coupling_allowed(self):
        assert canonical_graph("chain", d=12, r=0.5).dim == 12
        with pytest.raises(ParamOutOfBound):
            canonical_graph("chain", d=12, r=0.51)
        with pytest.raises(ParamOutOfBound):
            canonical_graph("chain", d=1, r=0.3)

    def test_ring_closes_the_cycle(self):
        chain = canonical_graph("chain", d=6, r=0.3).weights
        ring = canonical_graph("ring", d=6, r=0.3).weights
        diff = ring - chain
        assert diff[0, 5] == 0.3 and diff[5, 0] == 0.3
        assert np.count_nonzero(diff) == 2

    def test_ring_boundary_strict(self):
        with pytest.raises(ParamOutOfBound):
            canonical_graph("ring", d=6, r=0.5)
        with pytest.raises(ParamOutOfBound):
            canonical_graph("ring", d=2, r=0.3)

    @pytest.mark.parametrize("kind, d", [("ring", 5), ("one_many_one", 4)])
    def test_numerically_singular_inside_the_bound(self, kind, d):
        # r = 1/2 - 1e-14 satisfies the stated bound, but 1 - R has
        # rcond near 1e-14: the refusal keeps the documented class.
        with pytest.raises(ParamOutOfBound, match=f"^{kind} weights are not admissible: "):
            canonical_graph(kind, d=d, r=0.5 - 1e-14)

    def test_one_many_one_structure(self):
        g = canonical_graph("one_many_one", d=6, r=0.25)
        w = g.weights
        assert w[0, 5] == 0.0
        assert all(w[0, k] == 0.25 and w[5, k] == 0.25 for k in range(1, 5))
        assert np.count_nonzero(w[1:5, 1:5]) == 0

    def test_one_many_one_end_correlation_literal(self):
        # rho_1d = (d-2) r^2 / (1 - (d-2) r^2); at d=6, r=1/4 this is
        # exactly 1/3.
        g = canonical_graph("one_many_one", d=6, r=0.25)
        rho = partial_to_marginal_oracle(g).entries[0, 5]
        assert rho == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_one_many_one_bound(self):
        with pytest.raises(ParamOutOfBound):
            canonical_graph("one_many_one", d=10, r=0.25)

    def test_example_topology_layout(self):
        g = canonical_graph(
            "example_R", r12=0.2, r13=0.1, r23=-0.2, r24=0.3, r34=0.15
        )
        w = g.weights
        assert w[0, 1] == 0.2 and w[0, 2] == 0.1 and w[1, 2] == -0.2
        assert w[1, 3] == 0.3 and w[2, 3] == 0.15
        assert w[0, 3] == 0.0

    def test_example_topology_inadmissible_weights(self):
        with pytest.raises(ParamOutOfBound):
            canonical_graph(
                "example_R", r12=0.9, r13=0.9, r23=0.9, r24=0.9, r34=0.9
            )

    def test_unknown_kind(self):
        with pytest.raises(ParamOutOfBound, match="lattice"):
            canonical_graph("lattice", d=4, r=0.2)

    def test_extra_params_rejected(self):
        with pytest.raises(ParamOutOfBound, match="got d, q, r"):
            canonical_graph("chain", d=4, r=0.2, q=0.5)

    def test_missing_params_rejected(self):
        with pytest.raises(ParamOutOfBound, match="chain takes d, r, got r"):
            canonical_graph("chain", r=0.3)
        with pytest.raises(ParamOutOfBound, match="example_R takes"):
            canonical_graph("example_R", r12=0.2, r13=0.1, r23=-0.2, r24=0.3)


class TestMartingale:
    def test_hand_worked_horizon_four(self):
        spec = MartingaleSpec(horizon=4, alpha=0.5, innovation_variances=np.ones(4))
        cov = martingale_covariance(spec).entries
        assert np.diag(cov) == pytest.approx([1.0, 1.25, 1.3125, 1.328125], abs=1e-15)
        assert cov[0, 3] == pytest.approx(0.125, abs=1e-15)
        assert cov[1, 2] == pytest.approx(0.5 * 1.25, abs=1e-15)

    def test_zero_alpha_decouples(self):
        v = np.array([1.0, 2.0, 3.0])
        cov = martingale_covariance(
            MartingaleSpec(horizon=3, alpha=0.0, innovation_variances=v)
        ).entries
        assert np.array_equal(cov, np.diag(v))

    def test_correlations_factor_along_time(self):
        # rho(s, u) = rho(s, t) rho(t, u) for s < t < u: the defining
        # signature of a one-step memory process.
        rng = np.random.default_rng(4)
        spec = MartingaleSpec(
            horizon=12, alpha=0.7, innovation_variances=rng.uniform(0.5, 2.0, 12)
        )
        rho = cov_to_marginal(martingale_covariance(spec)).entries
        for s in range(0, 10, 3):
            for t in range(s + 1, 11, 2):
                for u in range(t + 1, 12):
                    assert rho[s, u] == pytest.approx(
                        rho[s, t] * rho[t, u], abs=1e-12
                    )

    def test_partial_structure_is_tridiagonal(self):
        spec = MartingaleSpec(
            horizon=8, alpha=-0.6, innovation_variances=np.full(8, 1.3)
        )
        g = precision_to_partial(cov_to_precision(martingale_covariance(spec)))
        w = g.weights
        for i in range(8):
            for j in range(i + 2, 8):
                assert abs(w[i, j]) < 1e-12

    def test_every_interior_time_separates(self):
        # The separator detector reads the exact zero pattern, so the
        # conversion roundoff (entries near 1e-17) is thresholded away
        # before asking for the structure.
        spec = MartingaleSpec(horizon=6, alpha=0.8, innovation_variances=np.ones(6))
        g = precision_to_partial(cov_to_precision(martingale_covariance(spec)))
        w = np.where(np.abs(g.weights) < 1e-12, 0.0, g.weights)
        reports = detect_separating_nodes(validate_partial_graph(w))
        assert [rep.node for rep in reports] == [1, 2, 3, 4]

    def test_validation(self):
        with pytest.raises(ParamOutOfBound):
            MartingaleSpec(horizon=0, alpha=0.5, innovation_variances=np.ones(0))
        with pytest.raises(DimensionMismatch):
            MartingaleSpec(horizon=3, alpha=0.5, innovation_variances=np.ones(2))
        with pytest.raises(ParamOutOfBound):
            MartingaleSpec(horizon=2, alpha=0.5, innovation_variances=[1.0, 0.0])
        with pytest.raises(ParamOutOfBound):
            MartingaleSpec(horizon=2, alpha=np.inf, innovation_variances=[1.0, 1.0])

    def test_result_type_and_definiteness(self):
        spec = MartingaleSpec(
            horizon=5, alpha=1.4, innovation_variances=np.ones(5)
        )
        cov = martingale_covariance(spec)
        assert isinstance(cov, CovarianceMatrix)
        assert np.all(np.linalg.eigvalsh(cov.entries) > 0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_factor_model_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    w = 0.25 * rng.normal(size=(4, 4)) + np.eye(4)
    fm = FactorModel(weights=w)
    direct = factor_model_partial(fm)
    omega = w.T @ w
    via_precision = precision_to_partial(PrecisionMatrix(omega))
    assert np.max(np.abs(direct.weights - via_precision.weights)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(min_value=-1.5, max_value=1.5),
    horizon=st.integers(min_value=2, max_value=9),
)
def test_martingale_always_admissible_property(alpha, horizon):
    spec = MartingaleSpec(
        horizon=horizon, alpha=alpha, innovation_variances=np.ones(horizon)
    )
    cov = martingale_covariance(spec)
    g = precision_to_partial(cov_to_precision(cov))
    assert g.dim == horizon
