"""The four matrix types share one constructor path.

Every type reads its input through one square check, and the two
positive-definite types through one constructor; each type still owns a
``__post_init__`` in its own ``__dict__``, which is where the benchmark
tracer (``perfbench/tracer.py``) finds and wraps it, type by type.
"""

import dataclasses

import numpy as np
import pytest

from pathcorr import (
    CovarianceMatrix,
    MarginalCorrelationMatrix,
    NotSquare,
    NotSymmetric,
    PartialCorrelationGraph,
    PrecisionMatrix,
    cov_to_marginal,
    cov_to_precision,
    partial_to_marginal_oracle,
    precision_to_partial,
)

VALID = {
    CovarianceMatrix: [[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]],
    PrecisionMatrix: [[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]],
    MarginalCorrelationMatrix: [[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.0]],
    PartialCorrelationGraph: [[0.0, 0.3, 0.0], [0.3, 0.0, 0.2], [0.0, 0.2, 0.0]],
}
NAMES = {
    CovarianceMatrix: "covariance matrix",
    PrecisionMatrix: "precision matrix",
    MarginalCorrelationMatrix: "correlation matrix",
    PartialCorrelationGraph: "partial correlation matrix",
}


@pytest.mark.parametrize("cls", VALID, ids=lambda c: c.__name__)
def test_each_type_owns_its_constructor(cls, monkeypatch):
    calls = []
    own = cls.__dict__["__post_init__"]

    def traced(self):
        calls.append(type(self))
        own(self)

    # What the tracer does: wrap one type's own entry; only that type counts.
    monkeypatch.setattr(cls, "__post_init__", traced)
    for other, entries in VALID.items():
        other(np.array(entries))
    assert calls == [cls]


def test_fields_unchanged():
    names = {cls: tuple(f.name for f in dataclasses.fields(cls)) for cls in VALID}
    assert names == {
        CovarianceMatrix: ("entries", "labels"),
        PrecisionMatrix: ("entries", "labels"),
        MarginalCorrelationMatrix: ("entries", "labels"),
        PartialCorrelationGraph: ("weights", "scale", "labels"),
    }


def test_dim_of_checked_and_derived_objects():
    c = CovarianceMatrix(np.array(VALID[CovarianceMatrix]), labels=("a", "b", "c"))
    g = precision_to_partial(cov_to_precision(c))
    for obj in (c, cov_to_precision(c), cov_to_marginal(c), g, partial_to_marginal_oracle(g)):
        assert obj.dim == 3 and obj.labels == ("a", "b", "c")


@pytest.mark.parametrize("cls", VALID, ids=lambda c: c.__name__)
def test_one_square_check(cls):
    with pytest.raises(NotSquare, match=r"expected a square matrix, got shape \(2, 3\)"):
        cls(np.zeros((2, 3)))
    bent = np.array(VALID[cls])
    bent[0, 1] += 0.1
    with pytest.raises(NotSymmetric, match=rf"^{NAMES[cls]} asymmetric: relative asymmetry"):
        cls(bent)
