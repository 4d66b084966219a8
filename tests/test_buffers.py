"""The one-buffer rule: each d x d result is built in the array it keeps.

Two gates.  Per public operation at d = 500, the LAPACK calls and the
peak of numpy allocations (``tracemalloc``, in units of d^2 doubles) are
pinned, so a change that adds a d x d temporary or a factorisation fails
here on any host; LAPACK's own workspace is invisible to ``tracemalloc``.
And the buffer forms give the very bits of the plain numpy expressions
they replace, signed zeros included, compared by ``tobytes``.
"""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pathcorr as pc
from pathcorr import matrices, transforms

D = 500


@pytest.fixture(scope="module")
def system():
    return _system()


def _system():
    """A d = 500 sample-precision graph with scales, its conversions and
    the node sets the transforms remove."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2 * D, D))
    omega = np.linalg.inv(x.T @ x / (2 * D))
    omega = (omega + omega.T) / 2.0
    lam = np.sqrt(np.diag(omega))
    raw = -omega / np.outer(lam, lam)
    np.fill_diagonal(raw, 0.0)
    g = pc.validate_partial_graph(raw, scale=lam)
    precision = pc.partial_to_precision(g)
    cov = pc.precision_to_cov(precision)
    perm = rng.permutation(D)
    return {
        "raw": raw,
        "lam": lam,
        "precision": precision,
        "cov": cov,
        "marginal": np.array(pc.cov_to_marginal(cov).entries),
        "half": perm[: D // 2],
        "latent": np.sort(perm[D // 2: D // 2 + D // 10]),
        "part": pc.TriPartition.complement(D, tuple(perm[:20]), tuple(perm[20:40])),
        "pair": (int(perm[0]), int(perm[1])),
    }


def _graph(s):
    return pc.validate_partial_graph(s["raw"], scale=s["lam"])


def _chain():
    """A d = 500 chain at r = 0.45: its |R| is bipartite, so nu(|R|) falls
    back from the Collatz-Wielandt bracket to a reduction of |R|."""
    w = np.diag(np.full(D - 1, 0.45), 1)
    return pc.validate_partial_graph(w + w.T)


# name: (set-up, operation, LAPACK calls (Cholesky factors, dpotri
# inverses, eigenvalue solves, SVDs), peak allocation in d^2 doubles).
# An eigenvalue solve is a full or selected one, or the tridiagonal
# reduction (dsytrd) that spectrum ends are read from.
# The peaks are the measured ones plus a slack of 0.1 d^2.
OPERATIONS = {
    "validate_partial_graph": (lambda s: s, lambda s: _graph(s), (1, 0, 0, 0), 2.23),
    "oracle": (_graph, pc.partial_to_marginal_oracle, (1, 1, 0, 0), 1.24),
    "spectral_report": (_graph, pc.spectral_report, (0, 0, 1, 0), 1.18),
    "spectral_report_chain": (lambda s: _chain(), pc.spectral_report, (0, 0, 2, 0), 1.18),
    "rescale": (_graph, lambda g: pc.rescale(g).weights, (0, 0, 1, 0), 1.11),
    "sever_nodes": (_graph, lambda g: pc.sever_nodes(g, range(D // 2)), (1, 0, 0, 0), 0.64),
    "marginalize_nodes": (
        lambda s: (_graph(s), s["half"]),
        lambda a: pc.marginalize_nodes(*a),
        (2, 0, 0, 0),
        0.91,
    ),
    "latent_reduce": (
        lambda s: (_graph(s), s["latent"]),
        lambda a: pc.latent_reduce(*a),
        (2, 0, 0, 2),
        2.44,
    ),
    "enlarged_graph": (
        lambda s: pc.latent_reduce(_graph(s), s["latent"]),
        lambda red: red.enlarged_graph,
        (1, 0, 0, 0),
        2.78,
    ),
    "partial_to_precision": (_graph, pc.partial_to_precision, (0, 0, 0, 0), 1.24),
    "precision_to_partial": (lambda s: s["precision"], pc.precision_to_partial, (1, 0, 0, 0), 2.23),
    "precision_to_cov": (lambda s: s["precision"], pc.precision_to_cov, (1, 1, 0, 0), 1.23),
    "cov_to_precision": (lambda s: s["cov"], pc.cov_to_precision, (1, 1, 0, 0), 1.23),
    "cov_to_marginal": (lambda s: s["cov"], pc.cov_to_marginal, (0, 0, 0, 0), 1.24),
    "validate_covariance": (
        lambda s: s["cov"].entries, pc.validate_covariance, (1, 0, 0, 0), 2.23,
    ),
    "validate_marginal": (lambda s: s["marginal"], pc.validate_marginal, (0, 0, 1, 0), 1.23),
    "marginal_corr_closed": (
        lambda s: (_graph(s), s["pair"]),
        lambda a: pc.marginal_corr_closed(a[0], *a[1]),
        (1, 1, 0, 0),
        1.24,
    ),
    "sample_partial_graph": (
        lambda s: pc.SampleSpec(d=D, n=2 * D, seed=1),
        pc.sample_partial_graph,
        (2, 1, 1, 0),
        3.10,
    ),
    "conditional_mi_closed": (
        lambda s: (_graph(s), s["part"]),
        lambda a: pc.conditional_mi_closed(*a),
        (3, 0, 0, 0),
        0.11,
    ),
}


def _counted(monkeypatch, owners) -> list:
    """Count every call to each (module, name), into one list per pair."""
    counts = []
    for module, name in owners:
        calls = []
        original = getattr(module, name)

        def counted(*args, _original=original, _calls=calls, **kwargs):
            _calls.append(None)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        counts.append(calls)
    return counts


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_lapack_calls_and_peak_allocation(monkeypatch, system, name):
    setup, op, calls, bound = OPERATIONS[name]
    op(setup(system))  # first calls fill caches of code paths, not of results
    arg = setup(system)
    counts = _counted(monkeypatch, [
        (scipy.linalg, "cho_factor"),
        (scipy.linalg.lapack, "dpotri"),
        (np.linalg, "eigvalsh"),
        (scipy.linalg, "eigh"),
        (scipy.linalg.lapack, "dsytrd"),
        (np.linalg, "svd"),
    ])
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = op(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    factor, inverse, eigvalsh, eigh, reduction, svd = (len(c) for c in counts)
    assert (factor, inverse, eigvalsh + eigh + reduction, svd) == calls
    assert (peak - base) / (D * D * 8) <= bound
    assert result is not None


# -- symmetric by construction ----------------------------------------------


def test_derived_graphs_are_exactly_symmetric(system):
    # Every computed precision is a Gram product or a sum of exactly
    # symmetric parts, and nothing averages it with its transpose.
    g = _graph(system)
    red = pc.latent_reduce(g, system["latent"])
    mixing = np.eye(D) + np.random.default_rng(7).uniform(-0.3, 0.3, (D, D))
    graphs = {
        "marginalised": pc.marginalize_nodes(g, system["half"]),
        "reduced": red.reduced_graph,
        "enlarged": red.enlarged_graph,
        "factor model": pc.factor_model_partial(pc.FactorModel(mixing)),
    }
    for name, h in graphs.items():
        assert np.array_equal(h.weights, h.weights.T), name


def test_latent_columns_are_a_and_b_tilde(system):
    # The enlarged graph is written from the loading, not split off a
    # precision, so its latent columns are the very bits of a~ and b~.
    red = pc.latent_reduce(_graph(system), system["latent"])
    latent = red.enlarged_graph.weights[:, D:]
    assert _bytes_equal(red.a_tilde, latent[system["latent"]].T)
    assert _bytes_equal(red.b_tilde, latent[list(red.kept)].T)


def test_reduced_weights_are_r_tt_and_v(system):
    g = _graph(system)
    red = pc.latent_reduce(g, system["latent"])
    kept, n, mu = list(red.kept), len(red.kept), red.latent_count
    _, _, v_cols = transforms._latent_factors(g.weights, list(system["latent"]), kept)
    w = red.reduced_graph.weights
    assert mu == D // 10 and _bytes_equal(w[:n, n:], v_cols) and _bytes_equal(w[n:, :n], v_cols.T)
    assert _bytes_equal(w[:n, :n], g.weights[np.ix_(kept, kept)])
    assert _bytes_equal(w[n:, n:], np.zeros((mu, mu)))
    assert _bytes_equal(red.reduced_graph.scale, np.concatenate([g.scale[kept], np.ones(mu)]))


def test_unscaled_reduction_has_unit_scale(system):
    red = pc.latent_reduce(pc.validate_partial_graph(system["raw"]), system["latent"])
    assert _bytes_equal(red.reduced_graph.scale, np.ones(red.reduced_graph.dim))


@pytest.mark.parametrize("ends", [1, 2, D // 2])
def test_paths_through_is_exactly_symmetric(system, ends):
    removed = np.sort(system["half"])
    kept = np.setdiff1d(np.arange(D), removed)[:ends]
    x = matrices._paths_through(_graph(system).weights, kept, removed, pc.SingularBlock, "m")
    assert x.shape == (ends, ends) and np.array_equal(x, x.T)


# -- the buffer forms against the plain numpy expressions -------------------


@st.composite
def coupling(draw, max_d=40):
    """A valid coupling pattern with exact +0.0 and -0.0 entries and, when
    ``cut`` falls inside, two disconnected blocks."""
    d = draw(st.integers(2, max_d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.9]))
    cut = draw(st.integers(1, d))
    iu = np.triu_indices(d, 1)
    upper = rng.uniform(-1.0, 1.0, len(iu[0]))
    upper[rng.random(len(upper)) < zeros] *= 0.0  # x * 0.0 is a zero with the sign of x
    w = np.zeros((d, d))
    w[iu] = upper
    w[:cut, cut:] *= 0.0
    w[iu[::-1]] = w[iu]  # mirrored by copy: -0.0 + 0.0 would be +0.0
    nu = float(np.max(np.abs(np.linalg.eigvalsh(w))))
    if nu > 0.0:
        w *= draw(st.floats(0.05, 0.95)) / nu
    return w


def _bytes_equal(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _split(om):
    """The plain form of ``_precision_graph``'s arithmetic."""
    lam = np.sqrt(np.diag(om))
    r = -om / np.outer(lam, lam)
    np.fill_diagonal(r, 0.0)
    return r, lam


_PROPERTY = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])
# Blocks of a few rows, so small graphs cross block boundaries too; None
# keeps _rows' own blocks.
_STEP = st.one_of(st.none(), st.integers(1, 7))


@contextlib.contextmanager
def _row_step(step):
    """The row-blocked forms run over blocks of ``step`` rows (None: _rows' own)."""
    if step is None:
        yield
        return
    with mock.patch.object(matrices, "_rows",
                           lambda n: [slice(k, k + step) for k in range(0, n, step)]):
        yield


class TestSameBits:
    @_PROPERTY
    @given(w=coupling(), noise=st.integers(0, 2**32 - 1), step=_STEP)
    def test_square_and_one_minus(self, w, noise, step):
        with _row_step(step):
            d = len(w)
            # A caller's array, symmetric only to within TOL_SYM.
            noise = np.random.default_rng(noise).standard_normal((d, d)) * (w != 0.0)
            raw = w + 1e-12 * np.max(np.abs(w)) * noise
            assert _bytes_equal(matrices._square(raw, "m"), (raw + raw.T) / 2.0)
            assert _bytes_equal(matrices._one_minus(raw), np.eye(d) - raw)
            m = raw.copy()
            assert matrices._one_minus(m, out=m) is m and _bytes_equal(m, np.eye(d) - raw)

    @_PROPERTY
    @given(w=coupling(), noise=st.integers(0, 2**32 - 1), step=_STEP)
    def test_split_of_a_non_symmetric_precision(self, w, noise, step):
        with _row_step(step):
            # A computed precision: exactly symmetric, each entry perturbed
            # in its last bits.
            d = len(w)
            rng = np.random.default_rng(noise)
            lam = rng.uniform(0.5, 2.0, d)
            om = -np.outer(lam, lam) * w  # zeros of both signs, unlike 0.0 - w
            np.fill_diagonal(om, lam * lam)
            om += 1e-15 * rng.standard_normal((d, d)) * (om != 0.0)
            iu = np.triu_indices(d, 1)
            om[iu[::-1]] = om[iu]  # mirrored by copy: -0.0 + 0.0 would be +0.0
            r, scale = _split(om)
            g = matrices._precision_graph(om.copy(), None)
            assert _bytes_equal(g.weights, r) and _bytes_equal(g.scale, scale)

    @_PROPERTY
    @given(w=coupling(), scaled=st.booleans(), seed=st.integers(0, 2**32 - 1), step=_STEP)
    def test_oracle_conversions_and_rescaling(self, w, scaled, seed, step):
        with _row_step(step):
            d = len(w)
            lam = np.random.default_rng(seed).uniform(0.5, 2.0, d) if scaled else None
            g = pc.PartialCorrelationGraph(w, scale=lam)
            c = matrices._spd_inverse(np.eye(d) - g.weights, pc.SingularMatrix, "m")
            s = np.sqrt(np.diag(c))
            p = c / np.outer(s, s)
            np.fill_diagonal(p, 1.0)
            assert _bytes_equal(pc.partial_to_marginal_oracle(g).entries, p)
            cov = pc.CovarianceMatrix(c)
            s = np.sqrt(np.diag(cov.entries))
            p = cov.entries / np.outer(s, s)
            np.fill_diagonal(p, 1.0)
            assert _bytes_equal(pc.cov_to_marginal(cov).entries, p)
            for q in (0.5, 1.0, 2.0 / (1.0 + g._nu) * 0.99):
                want = q * g.weights + (1.0 - q) * np.eye(d)
                assert _bytes_equal(pc.rescale(g, q).weights, want)
            if scaled:
                want = np.outer(lam, lam) * (np.eye(d) - g.weights)
                assert _bytes_equal(pc.partial_to_precision(g).entries, want)
                r, scale = _split(np.array(pc.partial_to_precision(g).entries))
                back = pc.precision_to_partial(pc.partial_to_precision(g))
                assert _bytes_equal(back.weights, r) and _bytes_equal(back.scale, scale)

    @_PROPERTY
    @given(w=coupling(), data=st.data(), step=_STEP)
    def test_marginalisation_and_latent_reduction(self, w, data, step):
        with _row_step(step):
            d = len(w)
            lam = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(0.5, 2.0, d)
            g = pc.PartialCorrelationGraph(w, scale=lam)
            removed = sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=d - 1)))
            kept = [v for v in range(d) if v not in removed]
            # Marginalisation: M' = 1 - R_TT - Y^T Y, Y = L^-1 R_ST the
            # whitened block, L the Cholesky factor of 1 - R_SS.
            low = scipy.linalg.cholesky(np.eye(len(removed)) - w[np.ix_(removed, removed)],
                                        lower=True)
            y = scipy.linalg.solve_triangular(low, w[np.ix_(removed, kept)], lower=True)
            m_red = np.eye(len(kept)) - w[np.ix_(kept, kept)]
            m_red -= y.T @ y
            r, scale = _split(m_red)
            got = pc.marginalize_nodes(g, removed)
            assert _bytes_equal(got.weights, r) and _bytes_equal(got.scale, lam[kept] * scale)
            # Latent reduction: the reduced weights [[R_TT, V], [V^T, 0]] and the
            # enlarged ones from the loading, each assembled by np.block.
            red = pc.latent_reduce(g, removed)
            s, load, v_cols = transforms._latent_factors(g.weights, removed, kept)
            mu, zeros = len(s), np.zeros((len(s), len(s)))
            reduced = np.block([[w[np.ix_(kept, kept)], v_cols], [v_cols.T, zeros]])
            got = red.reduced_graph
            assert _bytes_equal(got.weights, reduced)
            assert _bytes_equal(got.scale, np.concatenate([lam[kept], np.ones(mu)]))
            c = np.sqrt(1.0 + np.sum(load * load, axis=1))
            con = load / c[:, None]
            top = (w - load @ load.T) / np.outer(c, c)
            np.fill_diagonal(top, 0.0)
            enlarged = np.block([[top, con], [con.T, zeros]])
            got = red.enlarged_graph
            assert _bytes_equal(got.weights, enlarged)
            assert _bytes_equal(got.scale, np.concatenate([lam * c, np.ones(mu)]))
