"""Shared generators for the test suite.

Random graphs are produced by scaling a seeded symmetric matrix to a
target spectral radius below 1, which guarantees validity: for
symmetric R with zero diagonal, nu(R) < 1 implies every eigenvalue of
(1 - R) is positive, and |r_ij| <= nu(R) keeps the entries in range.
"""

import numpy as np
import pytest

from pathcorr import validate_partial_graph


def scaled_random_graph(seed: int, d: int, nu_target: float = 0.8):
    """Random valid graph with nu(R) equal to nu_target exactly."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (d, d))
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    nu = float(np.max(np.abs(np.linalg.eigvalsh(a))))
    return validate_partial_graph(a * (nu_target / nu))


def complete_graph(d: int, r: float):
    """Complete graph with every coupling equal to r."""
    w = np.full((d, d), float(r))
    np.fill_diagonal(w, 0.0)
    return validate_partial_graph(w)


def chain_graph(d: int, r: float, **kw):
    """Chain 0 - 1 - ... - (d-1) with every coupling equal to r; ``kw``
    (scale, labels) goes to the graph."""
    w = np.zeros((d, d))
    for k in range(d - 1):
        w[k, k + 1] = w[k + 1, k] = r
    return validate_partial_graph(w, **kw)


@pytest.fixture
def random_graph():
    return scaled_random_graph


# One summary line per acceptance criterion, appended by
# test_acceptance.py and re-emitted after the run so the verdicts are
# visible even with output capture on.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
