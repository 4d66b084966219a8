"""Every graph read off a precision matrix matches a plain numpy split of it.

Each row of ``CASES`` builds a graph through one library route and, with
numpy alone, the precision matrix that route splits: the given precision,
a Schur complement for a marginalisation, sum_l v_l w_l w_l^T for a
factor model, the inverse sample covariance for a sampled system.  The
graph's couplings must equal -omega_ij / sqrt(omega_ii omega_jj) of that
precision to 4.4e-16 per entry, and it must carry node scales
sqrt(omega_ii) exactly when the route's input carried scales.
"""

import numpy as np
import pytest
import scipy.special

from conftest import scaled_random_graph
from pathcorr import (
    FactorModel,
    PrecisionMatrix,
    SampleSpec,
    factor_model_partial,
    marginalize_nodes,
    precision_to_partial,
    sample_partial_graph,
)

TOL = 4.4e-16
REMOVED = [1, 3]
KEPT = [0, 2, 4, 5]


def random_precision(seed, d=6):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    return a @ a.T + d * np.diag(rng.uniform(0.5, 2.0, d))


def schur_kept(om):
    """Precision of the kept nodes once REMOVED is integrated out."""
    t, s = np.ix_(KEPT, KEPT), np.ix_(KEPT, REMOVED)
    return om[t] - om[s] @ np.linalg.solve(om[np.ix_(REMOVED, REMOVED)], om[s].T)


def precision_case(seed):
    om = random_precision(seed)
    return precision_to_partial(PrecisionMatrix(om)), om, True


def marginalize_scaled_case(seed):
    om = random_precision(seed)
    return marginalize_nodes(precision_to_partial(PrecisionMatrix(om)), REMOVED), schur_kept(om), True


def marginalize_unscaled_case(seed):
    g = scaled_random_graph(seed, 6, 0.8)
    return marginalize_nodes(g, REMOVED), schur_kept(np.eye(6) - g.weights), False


def factor_case(seed):
    rng = np.random.default_rng(seed)
    w = 0.4 * rng.normal(size=(6, 6)) + np.eye(6)
    v = rng.uniform(0.5, 2.0, 6)
    om = w.T @ np.diag(v) @ w
    return factor_model_partial(FactorModel(weights=w, variances=v)), om, True


def sample_case(seed):
    d, n = 5, 400
    u = np.random.Generator(np.random.Philox(key=seed)).random((n, d))
    x = scipy.special.ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
    xc = x - x.mean(axis=0)
    om = np.linalg.inv(xc.T @ xc / n)
    return sample_partial_graph(SampleSpec(d=d, n=n, seed=seed)).graph, om, True


CASES = [
    precision_case,
    marginalize_scaled_case,
    marginalize_unscaled_case,
    factor_case,
    sample_case,
]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_graph_is_the_numpy_split_of_its_precision(case, seed):
    g, om, scaled = case(seed)
    om = (om + om.T) / 2.0
    diag = np.diag(om)
    r = -om / np.sqrt(np.outer(diag, diag))
    np.fill_diagonal(r, 0.0)
    assert np.max(np.abs(g.weights - r)) <= TOL
    assert (g.scale is not None) == scaled
    if scaled:
        np.testing.assert_allclose(g.scale, np.sqrt(diag), rtol=4 * TOL, atol=0.0)
