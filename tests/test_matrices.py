"""Matrix forms, conversions, and the inversion oracle.

Expected values fall in three groups: hand-derivable identities
(2-node and 3-chain closed forms), independently recomputed oracles
(plain numpy inversion, written out in the test rather than shared
with the implementation), and frozen spectral literals derived from
the tridiagonal eigenvalue formula.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pathcorr import (
    CovarianceMatrix,
    RescaledGraph,
    DimensionMismatch,
    EntryOutOfRange,
    IllConditionedWarning,
    IndexOutOfRange,
    MarginalCorrelationMatrix,
    MissingScale,
    NotPositiveDefinite,
    NotSymmetric,
    PartialCorrelationGraph,
    PrecisionMatrix,
    SampleSpec,
    SingularBlock,
    SingularMatrix,
    TriPartition,
    conditional_mi_closed,
    conditional_mi_series,
    cov_to_marginal,
    cov_to_precision,
    latent_reduce,
    loop_sum_mi_identity,
    marginalize_nodes,
    partial_to_marginal_oracle,
    partial_to_precision,
    precision_to_cov,
    precision_to_partial,
    rescale,
    sample_partial_graph,
    spectral_report,
    star_path_sum_closed,
    validate_covariance,
    validate_partial_graph,
    validate_precision,
)
from pathcorr import fileio, matrices

from conftest import complete_graph, scaled_random_graph

# Spectral radius of a d=10 chain with r=0.45: the tridiagonal
# eigenvalues are 2 r cos(k pi / (d + 1)), largest at k=1.
CHAIN10_NU = 0.8635436762530477


def chain_weights(d, r):
    w = np.zeros((d, d))
    idx = np.arange(d - 1)
    w[idx, idx + 1] = r
    w[idx + 1, idx] = r
    return w


class TestValidation:
    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            validate_covariance(np.ones((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            validate_covariance(np.zeros((0, 0)))

    def test_not_symmetric(self):
        m = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(NotSymmetric):
            validate_covariance(m)

    def test_small_asymmetry_repaired(self):
        m = np.array([[1.0, 0.2 + 1e-12], [0.2, 1.0]])
        c = validate_covariance(m)
        assert c.entries[0, 1] == c.entries[1, 0]

    def test_custom_tol_sym(self):
        # TOL_SYM is fixed: the validators take no tolerance argument.
        m = np.array([[1.0, 0.2 + 1e-6], [0.2, 1.0]])
        with pytest.raises(NotSymmetric):
            validate_covariance(m)
        with pytest.raises(TypeError):
            validate_covariance(m, tol_sym=1e-5)

    def test_covariance_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            validate_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))
        # The check divides by the largest diagonal entry; a negative or
        # zero one is refused first, so -1 is not rescaled into 1.
        for m in (-np.eye(2), np.zeros((2, 2)), np.diag([-1.0, -4.0])):
            with pytest.raises(NotPositiveDefinite, match="largest diagonal entry"):
                validate_covariance(m)
            with pytest.raises(NotPositiveDefinite, match="largest diagonal entry"):
                validate_precision(m)

    def test_partial_diag_must_vanish(self):
        m = np.array([[0.1, 0.2], [0.2, 0.0]])
        with pytest.raises(EntryOutOfRange):
            validate_partial_graph(m)

    def test_partial_entry_at_one(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(EntryOutOfRange):
            validate_partial_graph(m)

    def test_partial_one_minus_r_not_pd(self):
        # All couplings 0.7 on 3 nodes: nu(R) = 1.4, the large
        # eigenvalue is positive, so (1 - R) is indefinite.
        with pytest.raises(NotPositiveDefinite):
            complete_graph(3, 0.7)

    def test_partial_negative_couplings_large_nu_valid(self):
        # Same magnitude, negative sign: nu(R) = 1.35 but the large
        # eigenvalues of R are negative, so (1 - R) stays positive
        # definite and the graph is valid.
        g = complete_graph(4, -0.45)
        assert spectral_report(g).regime == "rescale-required"

    def test_marginal_diagonal_must_be_one(self):
        m = np.array([[1.0, 0.2], [0.2, 0.9]])
        with pytest.raises(EntryOutOfRange):
            MarginalCorrelationMatrix(m)

    def test_marginal_entry_beyond_one(self):
        m = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(EntryOutOfRange):
            MarginalCorrelationMatrix(m)

    def test_marginal_semi_definite_allowed(self):
        # A perfectly correlated pair is legal for marginal
        # correlations even though it has a zero eigenvalue.
        m = MarginalCorrelationMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert m.entries[0, 1] == 1.0

    def test_marginal_indefinite_rejected(self):
        m = np.array(
            [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
        )
        with pytest.raises(NotPositiveDefinite):
            MarginalCorrelationMatrix(m)

    def test_scale_must_be_positive(self):
        with pytest.raises(EntryOutOfRange):
            PartialCorrelationGraph(chain_weights(2, 0.3), scale=np.array([1.0, -1.0]))

    def test_scale_length_checked(self):
        with pytest.raises(DimensionMismatch):
            PartialCorrelationGraph(chain_weights(2, 0.3), scale=np.ones(3))

    def test_labels_unique(self):
        with pytest.raises(IndexOutOfRange):
            PartialCorrelationGraph(chain_weights(2, 0.3), labels=("a", "a"))

    def test_labels_length(self):
        with pytest.raises(DimensionMismatch):
            PartialCorrelationGraph(chain_weights(2, 0.3), labels=("a",))

    @pytest.mark.parametrize(
        "cls",
        [CovarianceMatrix, PrecisionMatrix, MarginalCorrelationMatrix, PartialCorrelationGraph],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, cls, bad):
        m = np.eye(2) if cls is not PartialCorrelationGraph else chain_weights(2, 0.3)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(EntryOutOfRange):
            cls(m)

    def test_scale_must_be_numeric(self):
        with pytest.raises(EntryOutOfRange):
            PartialCorrelationGraph(chain_weights(2, 0.3), scale=["x", 1.0])

    def test_labels_given_as_one_string_rejected(self):
        with pytest.raises(IndexOutOfRange):
            PartialCorrelationGraph(chain_weights(2, 0.3), labels="ab")

    # A name is refused, never rewritten by str(), unless it is a nonempty
    # string that can stand in a comma-separated node list.
    @pytest.mark.parametrize("kind", ["covariance", "precision", "marginal", "partial"])
    @pytest.mark.parametrize(
        "labels",
        [[1, 2], ["a", 1.0], [b"a", "a"], [None, "b"], ["", "b"], ["a,b", "c"],
         [" a", "b"], ["a", "b\t"], 5],
        ids=["ints", "float", "bytes", "none", "empty", "comma", "lead-space",
             "trail-tab", "not-a-sequence"],
    )
    def test_labels_that_are_not_names_rejected(self, kind, labels):
        m = chain_weights(2, 0.3) if kind == "partial" else np.eye(2)
        with pytest.raises(IndexOutOfRange):
            type(fileio.matrix_from_kind(kind, m))(m, labels=labels)
        with pytest.raises(IndexOutOfRange):
            fileio.matrix_from_kind(kind, m, labels=labels)

    def test_label_index(self):
        g = PartialCorrelationGraph(chain_weights(3, 0.3), labels=("u", "v", "w"))
        assert g.label_index("w") == 2
        with pytest.raises(IndexOutOfRange):
            g.label_index("nope")

    def test_label_index_takes_names_not_numbers(self):
        g = PartialCorrelationGraph(chain_weights(3, 0.3), labels=("1", "2", "3"))
        assert g.label_index("2") == 1
        with pytest.raises(IndexOutOfRange):
            g.label_index(2)

    def test_default_labels(self):
        g = validate_partial_graph(chain_weights(3, 0.3))
        assert g.labels == ("x1", "x2", "x3")
        for cls in (CovarianceMatrix, PrecisionMatrix, MarginalCorrelationMatrix):
            assert cls(np.eye(3)).labels == ("x1", "x2", "x3")

    def test_arrays_frozen(self):
        g = validate_partial_graph(chain_weights(3, 0.3))
        with pytest.raises(ValueError):
            g.weights[0, 1] = 0.9
        with pytest.raises(Exception):
            g.weights = np.zeros((3, 3))


class TestConversions:
    def test_cov_marginal_hand_value(self):
        c = CovarianceMatrix(np.array([[4.0, 1.0], [1.0, 1.0]]))
        rho = cov_to_marginal(c).entries
        assert rho[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_cov_precision_round_trip(self):
        c = CovarianceMatrix(
            np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
        )
        back = precision_to_cov(cov_to_precision(c))
        assert np.max(np.abs(back.entries - c.entries)) < 1e-12

    def test_precision_partial_round_trip(self):
        om = PrecisionMatrix(
            np.array([[2.0, -0.4, 0.0], [-0.4, 1.0, 0.3], [0.0, 0.3, 3.0]]),
            labels=("a", "b", "c"),
        )
        g = precision_to_partial(om)
        back = partial_to_precision(g)
        assert np.max(np.abs(back.entries - om.entries)) < 1e-12
        assert back.labels == ("a", "b", "c")

    def test_partial_signs_flip_from_precision(self):
        om = PrecisionMatrix(np.array([[1.0, 0.4], [0.4, 1.0]]))
        g = precision_to_partial(om)
        assert g.weights[0, 1] == pytest.approx(-0.4, abs=1e-15)

    def test_missing_scale(self):
        g = validate_partial_graph(chain_weights(3, 0.3))
        with pytest.raises(MissingScale):
            partial_to_precision(g)

    def test_two_node_oracle_is_identity(self):
        # For d=2 the marginal correlation equals the partial one.
        for r in (-0.7, -0.2, 0.4, 0.9):
            g = validate_partial_graph(np.array([[0.0, r], [r, 0.0]]))
            rho = partial_to_marginal_oracle(g).entries
            assert rho[0, 1] == pytest.approx(r, abs=1e-12)

    def test_three_chain_closed_forms(self):
        # rho_12 = r12 / sqrt(1 - r23^2); rho_13 = rho_12 rho_23.
        for r12 in (-0.6, -0.3, 0.1, 0.6):
            for r23 in (-0.6, 0.3, 0.5):
                w = np.zeros((3, 3))
                w[0, 1] = w[1, 0] = r12
                w[1, 2] = w[2, 1] = r23
                g = validate_partial_graph(w)
                rho = partial_to_marginal_oracle(g).entries
                e12 = r12 / math.sqrt(1.0 - r23**2)
                e23 = r23 / math.sqrt(1.0 - r12**2)
                assert rho[0, 1] == pytest.approx(e12, abs=1e-14)
                assert rho[1, 2] == pytest.approx(e23, abs=1e-14)
                assert rho[0, 2] == pytest.approx(e12 * e23, abs=1e-14)

    def test_oracle_against_plain_inverse(self):
        # Independent route: numpy inverse, no Cholesky.
        for seed in range(5):
            g = scaled_random_graph(seed, 7)
            minv = np.linalg.inv(np.eye(7) - g.weights)
            s = np.sqrt(np.diag(minv))
            expected = minv / np.outer(s, s)
            got = partial_to_marginal_oracle(g).entries
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_oracle_scale_free(self):
        g = scaled_random_graph(3, 5)
        scaled = PartialCorrelationGraph(
            g.weights, scale=np.array([1.0, 2.0, 0.5, 3.0, 1.5])
        )
        a = partial_to_marginal_oracle(g).entries
        b = partial_to_marginal_oracle(scaled).entries
        assert np.max(np.abs(a - b)) < 1e-14

    def test_cov_to_marginal_matches_partial_oracle(self):
        # Through the full loop: C -> Omega -> graph -> oracle must
        # reproduce the plain normalisation of C.
        c = CovarianceMatrix(
            np.array([[2.0, 0.6, 0.2], [0.6, 1.0, -0.3], [0.2, -0.3, 1.4]])
        )
        direct = cov_to_marginal(c).entries
        via_graph = partial_to_marginal_oracle(
            precision_to_partial(cov_to_precision(c))
        ).entries
        assert np.max(np.abs(direct - via_graph)) < 1e-12

    def test_failed_inverse_mapped(self, monkeypatch):
        # dpotri fails only on a zero pivot, which a factor that passed
        # cho_factor cannot hold; its status is still read.
        monkeypatch.setattr(scipy.linalg.lapack, "dpotri", lambda c, **kw: (c, 1))
        with pytest.raises(SingularMatrix, match="dpotri info 1"):
            precision_to_cov(PrecisionMatrix(np.eye(2)))


# Every route that factorises, each run with the factorisation failing.  A
# failed factorisation raises the class of what failed: a matrix that must
# be positive definite, a whole matrix that must be inverted, or a principal
# block of 1 - R; never a class chosen by the caller.
_PART = TriPartition.complement(4, A=(0,), B=(3,))
_C, _OMEGA = CovarianceMatrix(np.eye(2)), PrecisionMatrix(np.eye(2))
_FAILED_FACTORISATION = [
    ("validate_partial_graph", lambda g: validate_partial_graph(np.array(g.weights)),
     NotPositiveDefinite),
    ("validate_covariance", lambda g: validate_covariance(np.eye(2)), NotPositiveDefinite),
    ("validate_precision", lambda g: validate_precision(np.eye(2)), NotPositiveDefinite),
    ("oracle", partial_to_marginal_oracle, SingularMatrix),
    ("cov_to_precision", lambda g: cov_to_precision(_C), SingularMatrix),
    ("precision_to_cov", lambda g: precision_to_cov(_OMEGA), SingularMatrix),
    ("sample_partial_graph", lambda g: sample_partial_graph(SampleSpec(d=3, n=10, seed=5)),
     SingularMatrix),
    ("star_path_sum_closed", lambda g: star_path_sum_closed(g, 0, 1), SingularBlock),
    ("loop_sum_mi_identity", lambda g: loop_sum_mi_identity(g, 0, 3), SingularBlock),
    ("marginalize_nodes", lambda g: marginalize_nodes(g, {3}), SingularBlock),
    ("latent_reduce", lambda g: latent_reduce(g, {1, 2}), SingularBlock),
    ("conditional_mi_closed", lambda g: conditional_mi_closed(g, _PART), SingularBlock),
    ("conditional_mi_series", lambda g: conditional_mi_series(g, _PART), SingularBlock),
]


@pytest.mark.parametrize(
    "route, error", [pytest.param(f, e, id=name) for name, f, e in _FAILED_FACTORISATION])
def test_failed_factorisation_raises_class_of_what_failed(monkeypatch, route, error):
    # The inputs are built first, the failure forced after, except where
    # building the input is the route: the three validations.
    g = scaled_random_graph(800, 4, 0.5)

    def explode(*a, **k):
        raise scipy.linalg.LinAlgError("boom")

    monkeypatch.setattr(scipy.linalg, "cho_factor", explode)
    with pytest.raises(error, match="boom"):
        route(g)


class TestSpectralReport:
    def test_chain_literal(self):
        g = validate_partial_graph(chain_weights(10, 0.45))
        rep = spectral_report(g)
        assert rep.nu_R == pytest.approx(CHAIN10_NU, abs=1e-13)
        assert rep.nu_R == pytest.approx(2 * 0.45 * math.cos(math.pi / 11), abs=1e-13)
        assert rep.regime == "absolute"

    def test_absolute_regime_sign_invariant_structure(self):
        g = validate_partial_graph(chain_weights(6, -0.3))
        rep = spectral_report(g)
        assert rep.regime == "absolute"
        assert rep.nu_R == pytest.approx(rep.nu_R_plus, abs=1e-12)

    def test_conditional_regime(self):
        # Mixed signs: nu(R) < 1 but nu(|R|) >= 1.  Fixed instance
        # found by seeded search; both radii are frozen.
        rng = np.random.default_rng(2)
        signs = rng.choice([-1.0, 1.0], size=(6, 6))
        a = np.triu(0.28 * signs, 1)
        g = validate_partial_graph(a + a.T)
        rep = spectral_report(g)
        assert rep.regime == "conditional"
        assert rep.nu_R == pytest.approx(0.84, abs=1e-12)
        assert rep.nu_R_plus == pytest.approx(1.4, abs=1e-12)

    def test_rescale_required_regime(self):
        # Complete graph, couplings -0.45: eigenvalues of R are
        # -0.45 * {3, -1, -1, -1}, so nu = 1.35 exactly.
        rep = spectral_report(complete_graph(4, -0.45))
        assert rep.nu_R == pytest.approx(1.35, abs=1e-12)
        assert rep.nu_R_plus == pytest.approx(1.35, abs=1e-12)
        assert rep.regime == "rescale-required"

    def test_nu_plus_never_below_nu(self):
        for seed in range(20):
            rep = spectral_report(scaled_random_graph(seed, 6))
            assert rep.nu_R_plus >= rep.nu_R


class TestOracleCache:
    def test_repeated_calls_share_one_read_only_result(self):
        g = scaled_random_graph(31, 6, 0.8)
        first = partial_to_marginal_oracle(g)
        second = partial_to_marginal_oracle(g)
        assert second is first
        assert np.array_equal(second.entries, first.entries)
        assert not first.entries.flags.writeable
        with pytest.raises(ValueError):
            first.entries[0, 1] = 0.0

    def test_fresh_graph_recomputes_the_same_values(self):
        w = scaled_random_graph(32, 6, 0.8).weights
        a = partial_to_marginal_oracle(validate_partial_graph(w))
        b = partial_to_marginal_oracle(validate_partial_graph(w))
        assert a is not b
        assert np.array_equal(a.entries, b.entries)

    def test_cache_attribute_is_read_only(self):
        g = scaled_random_graph(33, 4, 0.8)
        partial_to_marginal_oracle(g)
        with pytest.raises(AttributeError):
            g._inverse = None
        assert not g._inverse.entries.flags.writeable


class TestFactorOnce:
    @staticmethod
    def count(monkeypatch, module, name) -> list:
        """Record the shape of the first argument of every call to module.name."""
        calls = []
        original = getattr(module, name)

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def count_eigvalsh(self, monkeypatch) -> list:
        return self.count(monkeypatch, np.linalg, "eigvalsh")

    def count_perron(self, monkeypatch) -> list:
        return self.count(monkeypatch, scipy.linalg, "eigh")

    def count_reductions(self, monkeypatch) -> list:
        return self.count(monkeypatch, scipy.linalg.lapack, "dsytrd")

    def test_one_spectral_pass_per_graph(self, monkeypatch):
        g = scaled_random_graph(34, 6, 0.8)
        calls = self.count_eigvalsh(monkeypatch)
        perron = self.count_perron(monkeypatch)
        reductions = self.count_reductions(monkeypatch)
        partial_to_marginal_oracle(g)
        spectral_report(g)
        rg = rescale(g)
        RescaledGraph(g, 0.5 * rg.q)
        # nu(R) once, from one reduction of R; nu(|R|) from the
        # Collatz-Wielandt bracket, with no reduction; no eigensolver;
        # cond(1 - R) came with construction.
        assert reductions == [(6, 6)]
        assert calls == perron == []

    def test_oracle_is_one_factor_and_one_inverse(self, monkeypatch):
        g = scaled_random_graph(37, 6, 0.8)
        chol = self.count(monkeypatch, scipy.linalg, "cho_factor")
        inverse = self.count(monkeypatch, scipy.linalg.lapack, "dpotri")
        solves = self.count(monkeypatch, scipy.linalg, "cho_solve")
        partial_to_marginal_oracle(g)
        assert chol == inverse == [(6, 6)]
        assert solves == []

    def test_derived_graphs_are_checked_once(self, monkeypatch):
        g = scaled_random_graph(36, 7, 0.7)
        eig = self.count_eigvalsh(monkeypatch)
        perron = self.count_perron(monkeypatch)
        reductions = self.count_reductions(monkeypatch)
        chol = self.count(monkeypatch, scipy.linalg, "cho_factor")
        checks = self.count(monkeypatch, matrices, "_check_pd")
        red = latent_reduce(g, [4, 5, 6])
        # The eliminated block 1 - R_SS, factored first, then the reduced
        # graph, checked as a graph only, by one factor and one rcond
        # estimate; the enlarged graph is not built until it is read.
        mu = red.latent_count
        assert eig == perron == reductions == []
        assert chol == [(3, 3), (4 + mu, 4 + mu)]
        assert checks == chol[1:]
        enlarged = red.enlarged_graph
        assert chol[2:] == checks[1:] == [(7 + mu, 7 + mu)]
        # Cached: a second read builds and checks nothing.
        assert red.enlarged_graph is enlarged
        assert len(chol) == 3 and len(checks) == 2
        for calls in (eig, perron, reductions, chol, checks):
            calls.clear()
        sample_partial_graph(SampleSpec(d=5, n=12, seed=3))
        # The sample covariance's inverse, then the graph's check; one
        # reduction of R and one of |R|, for nu(R) and nu(|R|) in its
        # report, are the only eigenvalue work.
        assert chol == [(5, 5), (5, 5)]
        assert checks == [(5, 5)]
        assert reductions == [(5, 5), (5, 5)]
        assert eig == perron == []

    def test_exact_conversions_are_not_checked_again(self, monkeypatch):
        base = scaled_random_graph(35, 6, 0.8)
        g = PartialCorrelationGraph(
            base.weights, scale=np.linspace(0.5, 2.0, 6), labels=list("abcdef")
        )
        omega = partial_to_precision(g)
        c = precision_to_cov(omega)
        calls = self.count_eigvalsh(monkeypatch)
        checks = self.count(monkeypatch, matrices, "_check_pd")
        results = (
            partial_to_marginal_oracle(g),
            cov_to_marginal(c),
            cov_to_precision(c),
            precision_to_cov(omega),
            partial_to_precision(g),
        )
        assert calls == checks == []
        monkeypatch.undo()
        for out in results:
            checked = type(out)(out.entries, labels=out.labels)
            assert np.array_equal(checked.entries, out.entries)
            assert out.labels == checked.labels == g.labels
            assert not out.entries.flags.writeable

    def test_overflowing_inverse_rejected(self):
        tiny = np.eye(2) * 1e-310
        with pytest.raises(EntryOutOfRange):
            cov_to_precision(validate_covariance(tiny))
        with pytest.raises(EntryOutOfRange):
            precision_to_cov(validate_precision(tiny))


class TestConditioning:
    def test_warning_on_near_singular(self):
        g = validate_partial_graph(
            np.array([[0.0, 1.0 - 1e-9], [1.0 - 1e-9, 0.0]])
        )
        with pytest.warns(IllConditionedWarning):
            partial_to_marginal_oracle(g)

    def test_warning_on_every_call(self):
        g = validate_partial_graph(
            np.array([[0.0, 1.0 - 1e-9], [1.0 - 1e-9, 0.0]])
        )
        for _ in range(2):
            with pytest.warns(IllConditionedWarning):
                partial_to_marginal_oracle(g)

    def test_no_warning_when_well_conditioned(self):
        g = validate_partial_graph(chain_weights(4, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", IllConditionedWarning)
            partial_to_marginal_oracle(g)

    def test_hidden_near_singular_pair_warns(self):
        # Nodes 6 and 8 form a component of their own with 1 - R near
        # singular along (1, -1); the estimator's probe vectors are
        # orthogonal or nearly so to it, and its estimate alone reads
        # 3.7e7 against cond_2 = 2e9.  The smallest Cholesky pivot
        # (2e-9) still finds it.
        w = np.zeros((9, 9))
        w[6, 8] = w[8, 6] = -(1.0 - 1e-9)
        g = validate_partial_graph(w)
        assert g._cond >= 1e9 / 2
        with pytest.warns(IllConditionedWarning):
            partial_to_marginal_oracle(g)


# Coupling patterns for the near-singular battery: dense signed, dense
# positive, sparse signed, and disconnected blocks in shuffled order.
PATTERNS = ("signed", "positive", "sparse", "blocks")


def near_singular_weights(d, gap, seed, pattern):
    """Couplings R on d nodes, lambda_min(1 - R) = ``gap`` (negative: indefinite)."""
    rng = np.random.default_rng(seed)
    if pattern == "signed":
        a = rng.standard_normal((d, d))
    elif pattern == "positive":
        a = rng.uniform(0.0, 1.0, (d, d))
    elif pattern == "sparse":
        a = rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.2)
    else:
        a = np.zeros((d, d))
        cuts = [0, *sorted(rng.choice(np.arange(1, d), min(d - 1, 3), replace=False)), d]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            a[lo:hi, lo:hi] = rng.standard_normal((hi - lo, hi - lo))
        order = rng.permutation(d)
        a = a[np.ix_(order, order)]
    a = np.triu(a, 1)
    a = a + a.T
    if not np.any(a):
        a[0, 1] = a[1, 0] = 1.0
    return a * ((1.0 - gap) / np.linalg.eigvalsh(a)[-1])


def cond_2(w):
    lam = np.linalg.eigvalsh(np.eye(len(w)) - w)
    return float(lam[-1] / lam[0])


near_singular = dict(
    d=st.integers(min_value=2, max_value=60),
    exponent=st.floats(min_value=-14.0, max_value=math.log10(0.5)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pattern=st.sampled_from(PATTERNS),
)


def test_condition_estimate_is_at_most_cond_1():
    # _check_pd's estimate is ||m||_1 times a lower bound on ||m^-1||_1
    # (LAPACK's dpocon, or the smallest pivot): it may not exceed
    # ||m||_1 ||m^-1||_1 of the inverse from the same factor.
    rng = np.random.default_rng(16)
    cases = [np.array([[2.0]])]
    for t in range(240):
        d = int(rng.integers(2, 61))
        gap = 10.0 ** rng.uniform(-11.0, math.log10(0.5))
        w = near_singular_weights(d, gap, int(rng.integers(2**32)), PATTERNS[t % 4])
        cases.append(np.eye(d) - w)
    for m in cases:
        inverse = scipy.linalg.cho_solve(scipy.linalg.cho_factor(m, lower=True), np.eye(len(m)))
        cond_1 = np.max(np.abs(m).sum(axis=0)) * np.max(np.abs(inverse).sum(axis=0))
        ours = matrices._check_pd(m.copy(), "m")
        assert 1.0 <= ours <= cond_1 * (1.0 + 1e-8)


@settings(max_examples=200, deadline=None)
@given(**near_singular)
def test_condition_estimate_brackets_cond_2(d, exponent, seed, pattern):
    # The kept estimate is ||1 - R||_1 times a lower bound on
    # ||(1 - R)^-1||_1, so it never exceeds cond_1 <= d cond_2.  It may
    # fall below cond_2, when the near-null vector of 1 - R has mixed
    # signs that the estimator's probes miss: over 250 000 graphs drawn
    # as here (100 000 of them "blocks" only) the smallest ratio to
    # cond_2 was 0.106, on "blocks", and 246 fell below 1/2.  Pinned
    # at 1/20.
    w = near_singular_weights(d, 10.0**exponent, seed, pattern)
    c2 = cond_2(w)
    try:
        g = validate_partial_graph(w)
    except NotPositiveDefinite:
        # Refused only when the estimate reached 1 / TOL_PD.
        assert d * c2 * (1.0 + 1e-8) >= 1.0 / matrices.TOL_PD
        return
    assert c2 / 20.0 <= g._cond <= d * c2 * (1.0 + 1e-8)


@settings(max_examples=100, deadline=None)
@given(**near_singular)
def test_accepted_graph_warns_iff_estimate_above_cond_warn(d, exponent, seed, pattern):
    try:
        g = validate_partial_graph(near_singular_weights(d, 10.0**exponent, seed, pattern))
    except NotPositiveDefinite:
        return
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        p = partial_to_marginal_oracle(g)
    warned = any(issubclass(x.category, IllConditionedWarning) for x in seen)
    assert warned == (g._cond > matrices.COND_WARN)
    assert np.all(np.isfinite(p.entries))


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(min_value=3, max_value=60),
    exponent=st.floats(min_value=-14.0, max_value=math.log10(0.5)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pattern=st.sampled_from(PATTERNS),
)
def test_indefinite_refused(d, exponent, seed, pattern):
    w = near_singular_weights(d, -(10.0**exponent), seed, pattern)
    # Couplings of magnitude 1 or more are refused earlier, as entries.
    assume(np.max(np.abs(w)) < 1.0)
    with pytest.raises(NotPositiveDefinite, match="not positive definite"):
        validate_partial_graph(w)


@settings(max_examples=30, deadline=None)
@given(
    r=st.floats(min_value=-0.98, max_value=0.98),
    s=st.floats(min_value=0.1, max_value=10.0),
)
def test_two_node_precision_round_trip(r, s):
    om = np.array([[s, s * r], [s * r, s]])
    if np.min(np.linalg.eigvalsh(om)) <= 1e-10 * s:
        return
    g = precision_to_partial(PrecisionMatrix(om))
    assert g.weights[0, 1] == pytest.approx(-r, abs=1e-12)
    back = partial_to_precision(g)
    assert np.max(np.abs(back.entries - om)) < 1e-12 * s


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_oracle_diag_and_symmetry(seed):
    g = scaled_random_graph(seed, 5)
    rho = partial_to_marginal_oracle(g).entries
    assert np.all(np.diag(rho) == 1.0)
    assert np.max(np.abs(rho - rho.T)) == 0.0
    assert np.max(np.abs(rho)) <= 1.0


def spd_matrix(d, seed, kind):
    """(m, m0, s): an exactly symmetric positive-definite d x d matrix m =
    m0 * outer(s, s), m0 unit-diagonal with cond_2 below about 100 and the
    node scales s all 1, or from 1e-6 to 1e6."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, 2 * d))
    m = a @ a.T / (2 * d) + 0.1 * np.eye(d)
    s = 1.0 / np.sqrt(np.diag(m))
    m0 = (m + m.T) / 2.0 * np.outer(s, s)
    np.fill_diagonal(m0, 1.0)
    s = np.ones(d)
    if kind == "badly-scaled":
        s = 10.0 ** rng.uniform(-6.0, 6.0, d)
    return m0 * np.outer(s, s), m0, s


@settings(max_examples=80, deadline=None)
@given(
    d=st.sampled_from((1, 2, 7, 60)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(("unit-diagonal", "badly-scaled")),
)
@example(d=7, seed=2316, kind="badly-scaled")
def test_spd_inverse_matches_numpy_inverse(d, seed, kind):
    # Independent route: numpy's LU inverse of the well-conditioned core,
    # m^-1 = m0^-1 / outer(s, s); an LU inverse of the scaled m itself can
    # be off by 1e-12.  Entries are compared in the inverse's own node
    # scales, |x_ij| <= sqrt(x_ii x_jj).
    m, m0, s = spd_matrix(d, seed, kind)
    ref = np.linalg.inv(m0) / np.outer(s, s)
    x = matrices._spd_inverse(m.copy(), "m")
    assert np.array_equal(x, x.T)
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    assert np.max(np.abs(x - ref) / scale) <= 1e-12
    if kind == "unit-diagonal":
        # The same matrix as 1 - R: its oracle is ref in correlation form.
        p = partial_to_marginal_oracle(validate_partial_graph(np.eye(d) - m)).entries
        assert np.array_equal(p, p.T)
        assert np.all(np.diag(p) == 1.0)
        assert np.max(np.abs(p - ref / scale)) <= 1e-12


def full_spectrum_nu_plus(w):
    """nu(|R|) as max |eigenvalue| of the whole spectrum of |R|."""
    return float(np.max(np.abs(np.linalg.eigvalsh(np.abs(w)))))


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    nu=st.floats(min_value=0.05, max_value=0.99),
)
def test_perron_root_matches_full_spectrum(d, seed, nu):
    # Signed couplings: nu(|R|) is |R|'s top eigenvalue (Perron-Frobenius),
    # and no eigenvalue of |R| is larger in magnitude.
    g = scaled_random_graph(seed, d, nu)
    rep = spectral_report(g)
    assert rep.nu_R_plus == pytest.approx(full_spectrum_nu_plus(g.weights), rel=1e-14)


class TestPerronRoot:
    def test_chain_spectrum_is_plus_minus(self):
        # |R| of a chain has spectrum +-2r cos(k pi / (d + 1)): the top
        # eigenvalue and the most negative share the magnitude nu.
        for r in (0.45, -0.45):
            rep = spectral_report(validate_partial_graph(chain_weights(10, r)))
            assert rep.nu_R_plus == pytest.approx(CHAIN10_NU, rel=1e-14)
            assert rep.nu_R_plus == pytest.approx(full_spectrum_nu_plus(chain_weights(10, r)), rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_edgeless_graph_reads_positive_zero(self, d):
        rep = spectral_report(validate_partial_graph(np.zeros((d, d))))
        assert rep.nu_R == rep.nu_R_plus == 0.0
        assert math.copysign(1.0, rep.nu_R_plus) == 1.0
        assert rep.regime == "absolute"

    def test_regimes_match_full_spectrum(self):
        # Every regime, near both thresholds: the regime from the top
        # eigenvalue of |R| equals the one from its whole spectrum.
        graphs = [
            scaled_random_graph(seed, d, nu)
            for seed in range(10)
            for d in (3, 8, 20)
            for nu in (0.3, 0.6, 0.9, 0.99)
        ]
        graphs += [
            validate_partial_graph(np.abs(g.weights) * (0.95 / full_spectrum_nu_plus(g.weights)))
            for g in graphs[::7]
        ]
        graphs += [complete_graph(4, -0.45), complete_graph(6, -0.3), complete_graph(6, 0.15)]
        regimes = set()
        for g in graphs:
            nu = float(np.max(np.abs(np.linalg.eigvalsh(g.weights))))
            nu_plus = max(nu, full_spectrum_nu_plus(g.weights))
            if nu >= 1.0:
                expected = "rescale-required"
            elif nu_plus >= 1.0:
                expected = "conditional"
            else:
                expected = "absolute"
            rep = spectral_report(g)
            assert abs(rep.nu_R - nu) <= 1e-13 * nu
            assert rep.regime == expected
            regimes.add(expected)
        assert regimes == {"absolute", "conditional", "rescale-required"}

    def test_reduction_route_is_bit_equal(self):
        # Where the bracket gives up (a chain's bipartite |R|, a zero row)
        # or holds 1 while nu(R) < 1, the reduction runs on a fresh |R| it
        # may overwrite: the same dsytrd and dstebz calls on the same data
        # as the copying form.
        isolated = np.array(scaled_random_graph(4, 6, 0.7).weights)
        isolated[5, :] = isolated[:, 5] = 0.0
        rng = np.random.default_rng(0)
        signed = np.triu(rng.uniform(-1.0, 1.0, (20, 20)), 1)
        signed += signed.T
        signed /= full_spectrum_nu_plus(signed)  # nu(|R|) = 1, nu(R) near 0.48
        graphs = [validate_partial_graph(chain_weights(10, -0.45)),
                  validate_partial_graph(np.zeros((5, 5))),
                  validate_partial_graph(isolated),
                  validate_partial_graph(signed)]
        for g in graphs:
            assert check_perron_route(g) == "reduction"

    @pytest.mark.parametrize("d", range(4, 12))
    def test_bracket_holding_one_falls_back_to_the_reduction(self, monkeypatch, d):
        # Mixed signs scaled so nu(|R|) = 1 to roundoff, nu(R) < 1: the
        # bracket forms but holds 1, so nu(|R|) and the regime come from
        # a reduction of |R|, after the one of R behind nu(R).
        rng = np.random.default_rng(d - 4)
        w = np.triu(rng.uniform(-1.0, 1.0, (d, d)), 1)
        w += w.T
        g = validate_partial_graph(w / full_spectrum_nu_plus(w))
        assert matrices._perron_bracket(np.abs(g.weights)) is not None
        reductions = TestFactorOnce.count(monkeypatch, scipy.linalg.lapack, "dsytrd")
        rep = spectral_report(g)
        assert reductions == [(d, d), (d, d)]
        assert rep.nu_R < 1.0
        _, top = matrices._spectrum_ends(np.abs(g.weights))
        assert rep.regime == ("conditional" if max(top, rep.nu_R) >= 1.0 else "absolute")

    def test_bracket_route_is_within_roundoff(self):
        graphs = [scaled_random_graph(seed, d, 0.9) for seed, d in ((1, 2), (2, 7), (3, 40))]
        graphs += [complete_graph(6, -0.3)]
        for g in graphs:
            assert check_perron_route(g) == "bracket"

    def test_bracket_answers_on_large_dense_matrices(self):
        # Past d ~ 450 the worst-case roundoff of one product, d eps, is
        # above the 1e-13 acceptance width, but the computed ratios still
        # close below it: dense nonnegative matrices get a bracket.
        rng = np.random.default_rng(11)
        for d in (1000, 2000):
            a = np.triu(rng.uniform(0.0, 1.0, (d, d)))
            a += np.triu(a, 1).T
            bracket = matrices._perron_bracket(a)
            assert bracket is not None, d
            lo, hi, nu = bracket
            assert lo <= nu <= hi
            if d == 1000:
                _, top = matrices._spectrum_ends(a)
                assert abs(nu - top) <= 1e-13 * top


def check_perron_route(g) -> str:
    """Which route gave spectral_report(g) its nu(|R|), checked against the
    top end from a reduction of |R|: the same bits where the reduction ran,
    within 1e-13 relative where the bracket answered, and the same regime
    either way; the graph's weights stay read-only."""
    nu = g._nu  # nu(R) first: every later reduction is one of |R|
    with mock.patch.object(matrices, "_spectrum_ends", wraps=matrices._spectrum_ends) as spy:
        rep = spectral_report(g)
    _, top = matrices._spectrum_ends(np.abs(g.weights))
    want = max(top, nu)
    if spy.called:
        assert float(rep.nu_R_plus).hex() == float(want).hex()
    else:
        assert abs(rep.nu_R_plus - want) <= 1e-13 * want
    if nu >= 1.0:
        regime = "rescale-required"
    else:
        regime = "conditional" if want >= 1.0 else "absolute"
    assert rep.regime == regime
    assert not g.weights.flags.writeable
    return "reduction" if spy.called else "bracket"


@st.composite
def symmetric_pattern(draw):
    """A symmetric zero-diagonal pattern, d = 1..60, of one of three kinds:
    signed random entries with exact +0.0 and -0.0 and, when ``cut`` falls
    inside, two disconnected blocks; a complete graph, whose one eigenvalue
    repeats d - 1 times; or a chain, whose spectrum is symmetric about 0."""
    d = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(("random", "complete", "chain")))
    if kind == "complete":
        w = np.full((d, d), draw(st.floats(-1.0, 1.0)))
        np.fill_diagonal(w, 0.0)
        return w
    if kind == "chain":
        return chain_weights(d, draw(st.floats(-1.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    iu = np.triu_indices(d, 1)
    upper = rng.uniform(-1.0, 1.0, len(iu[0]))
    upper[rng.random(len(upper)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] *= 0.0
    w = np.zeros((d, d))
    w[iu] = upper  # x * 0.0 above is a zero with the sign of x
    cut = draw(st.integers(1, d))
    w[:cut, cut:] *= 0.0
    w[iu[::-1]] = w[iu]  # mirrored by copy: -0.0 + 0.0 would be +0.0
    return w


def hex_ends(ends):
    """The ends as hex strings, so == compares bits, signed zeros included."""
    return tuple(float(x).hex() for x in ends)


def valid_graph_weights(w, nu):
    """Pattern w scaled to spectral radius nu: a valid graph (if w is not zero)."""
    if not np.any(w):
        return w
    w = w / np.max(np.abs(w))
    return w * (nu / float(np.max(np.abs(np.linalg.eigvalsh(w)))))


class TestSpectrumEnds:
    @settings(max_examples=200, deadline=None)
    @given(w=symmetric_pattern())
    def test_ends_match_full_spectrum(self, w):
        lam = np.linalg.eigvalsh(w)
        top = float(np.max(np.abs(lam)))
        lo, hi = matrices._spectrum_ends(w.copy())
        assert abs(lo - lam[0]) <= 1e-13 * top
        assert abs(hi - lam[-1]) <= 1e-13 * top
        # In place: the same bits again, and m's strict lower triangle untouched.
        m = w.copy()
        assert hex_ends(matrices._spectrum_ends(m)) == hex_ends((lo, hi))
        assert np.tril(m, -1).tobytes() == np.tril(w, -1).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(w=symmetric_pattern(), nu=st.floats(0.05, 0.95))
    def test_report_of_a_valid_graph(self, w, nu):
        w = valid_graph_weights(w, nu)
        rep = spectral_report(validate_partial_graph(w))
        assert abs(rep.nu_R - nu * np.any(w)) <= 1e-13 * nu
        assert rep.nu_R <= rep.nu_R_plus
        assert abs(rep.nu_R_plus - full_spectrum_nu_plus(w)) <= 1e-13 * rep.nu_R_plus

    @settings(max_examples=100, deadline=None)
    @given(w=symmetric_pattern(), nu=st.floats(0.05, 0.95))
    def test_either_route_agrees_with_the_reduction(self, w, nu):
        check_perron_route(validate_partial_graph(valid_graph_weights(w, nu)))

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_edgeless_ends_are_positive_zero(self, d, zero):
        w = np.full((d, d), zero)
        assert hex_ends(matrices._spectrum_ends(w.copy())) == hex_ends((0.0, 0.0))
        assert hex_ends(matrices._spectrum_ends(w)) == hex_ends((0.0, 0.0))

    def test_one_node(self):
        assert matrices._spectrum_ends(np.array([[-2.5]])) == (-2.5, -2.5)

    @settings(max_examples=60, deadline=None)
    @given(w=symmetric_pattern(), nu=st.floats(0.05, 0.95), noise=st.integers(0, 2**32 - 1))
    def test_marginal_check_restores_its_matrix(self, w, nu, noise):
        # The check reduces the validated array in place and rebuilds it:
        # the kept entries are the bits of (m + m.T) / 2 with a unit diagonal.
        w = valid_graph_weights(w, nu)
        p = np.array(partial_to_marginal_oracle(validate_partial_graph(w)).entries)
        d = len(p)
        raw = p + 1e-13 * np.random.default_rng(noise).standard_normal((d, d)) * (p != 0.0)
        np.fill_diagonal(raw, 1.0)
        raw = np.clip(raw, -1.0, 1.0)
        want = (raw + raw.T) / 2.0
        assert MarginalCorrelationMatrix(raw).entries.tobytes() == want.tobytes()

    def test_cluster_at_an_end(self, monkeypatch):
        # R = r (J - 1) has the eigenvalue -r repeated d - 1 times: at an
        # end, LAPACK's dstebz can fail to bisect such a cluster, and the
        # tridiagonal's whole spectrum is read instead.
        w = np.full((19, 19), -0.72)
        np.fill_diagonal(w, 0.0)
        want = (-0.72 * 18, 0.72)
        assert np.allclose(matrices._spectrum_ends(w.copy()), want, rtol=0.0, atol=1e-13 * 0.72 * 18)
        # The same route forced: every bisection fails as dstebz does
        # there, with info = 2 and no eigenvalue.
        monkeypatch.setattr(scipy.linalg.lapack, "dstebz",
                            lambda d, *args: (0, np.zeros_like(d), None, None, 2))
        g = complete_graph(6, -0.3)
        assert spectral_report(g).nu_R == pytest.approx(1.5, rel=1e-13)
        assert np.allclose(matrices._spectrum_ends(w), want, rtol=0.0, atol=1e-13 * 0.72 * 18)
