"""The four matrix types share one constructor path.

Every type reads its input through one square check, and the two
positive-definite types through one constructor; each type still owns a
``__post_init__`` in its own ``__dict__``, which is where the benchmark
tracer (``perfbench/tracer.py``) finds and wraps it, type by type.  A
result computed from a validated object, of any of the four types, skips
the raw-input checks and enters its type's constructor at the shared
tail, ``_Matrix._computed``: it must be, bit for bit, the object the
public constructor builds from the same parts.  Every kept array is
frozen down to the array that owns its memory, and none shares memory
with a caller's array, which stays writeable and unchanged.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcorr import (
    CovarianceMatrix,
    DimensionMismatch,
    EntryOutOfRange,
    FactorModel,
    MarginalCorrelationMatrix,
    MartingaleSpec,
    NotSymmetric,
    PartialCorrelationGraph,
    PrecisionMatrix,
    cov_to_marginal,
    cov_to_precision,
    factor_model_partial,
    latent_reduce,
    marginalize_nodes,
    martingale_covariance,
    partial_to_marginal_oracle,
    partial_to_precision,
    precision_to_cov,
    precision_to_partial,
    sever_nodes,
)

from conftest import scaled_random_graph

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
    with pytest.raises(DimensionMismatch, match=r"expected a square matrix, got shape \(2, 3\)"):
        cls(np.zeros((2, 3)))
    bent = np.array(VALID[cls])
    bent[0, 1] += 0.1
    with pytest.raises(NotSymmetric, match=rf"^{NAMES[cls]} asymmetric: relative asymmetry"):
        cls(bent)


def _bits(a):
    return None if a is None else (a.shape, a.tobytes())


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    d=st.integers(2, 12),
    nu=st.sampled_from([0.3, 0.8, 0.99]),
    scaled=st.booleans(),
)
def test_computed_graphs_equal_public_construction(seed, d, nu, scaled):
    base = scaled_random_graph(seed, d, nu)
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.2, 5.0, d) if scaled else None
    g = PartialCorrelationGraph(base.weights, scale=scale, labels=[f"n{k}" for k in range(d)])
    removed = sorted(rng.choice(d, size=int(rng.integers(1, d)), replace=False).tolist())
    red = latent_reduce(g, removed)
    derived = [
        marginalize_nodes(g, removed),
        sever_nodes(g, removed),
        red.reduced_graph,
        red.enlarged_graph,
        factor_model_partial(FactorModel(np.eye(d) + rng.uniform(-0.3, 0.3, (d, d)))),
    ]
    if scaled:
        derived.append(precision_to_partial(partial_to_precision(g)))
    for h in derived:
        ref = PartialCorrelationGraph(np.array(h.weights), scale=h.scale, labels=h.labels)
        assert _bits(h.weights) == _bits(ref.weights)
        assert _bits(h.scale) == _bits(ref.scale)
        assert h.labels == ref.labels
        assert h._cond == ref._cond
        assert not h.weights.flags.writeable
        assert h.scale is None or not h.scale.flags.writeable
        # The public entry still refuses what the computed one never holds.
        if h.dim > 1:
            bent = np.array(h.weights)
            bent[0, 1] += 0.1
            with pytest.raises(NotSymmetric):
                PartialCorrelationGraph(bent)
        bent = np.array(h.weights)
        bent[0, 0] = 0.1
        with pytest.raises(EntryOutOfRange, match="diagonal must be 0"):
            PartialCorrelationGraph(bent)
    # The other three types: each conversion's result, and the oracle's,
    # is the object both entries build from its entries and labels.
    omega = partial_to_precision(PartialCorrelationGraph(g.weights, scale=rng.uniform(0.2, 5.0, d)))
    cov = precision_to_cov(omega)
    for h in (omega, cov, cov_to_marginal(cov), cov_to_precision(cov),
              partial_to_marginal_oracle(g)):
        cls = type(h)
        for ref in (cls._computed(np.array(h.entries), h.labels),
                    cls(np.array(h.entries), labels=h.labels)):
            assert _bits(h.entries) == _bits(ref.entries)
            assert h.labels == ref.labels
            assert not ref.entries.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_computed_graph_refuses_non_finite_weights(bad):
    # An overflowed precision reaches the tail as NaN or inf; it is refused
    # with the message a raw input of the same entries gets.
    w = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(EntryOutOfRange) as raw:
        PartialCorrelationGraph(w)
    with pytest.raises(EntryOutOfRange) as computed:
        PartialCorrelationGraph._computed(w)
    assert str(computed.value) == str(raw.value) == (
        "matrix entries must be finite real numbers, got float64 entries"
    )


def _frozen_down(a):
    """a and every array down its ``.base`` chain are read-only."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return True


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 10), scaled=st.booleans())
def test_kept_arrays_are_frozen_and_owned(seed, d, scaled):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    cov_in = a @ a.T + d * np.eye(d)
    s = np.sqrt(np.diag(cov_in))
    # The caller's arrays, each writeable; none may be frozen, written or held.
    given_arrays = {
        "weights": np.array(scaled_random_graph(seed, d, 0.8).weights),
        "scale": rng.uniform(0.2, 5.0, d) if scaled else None,
        "cov": cov_in,
        "prec": np.linalg.inv(cov_in),
        "marg": cov_in / np.outer(s, s),
        "factor": np.eye(d) + rng.uniform(-0.3, 0.3, (d, d)),
        "factor_var": rng.uniform(0.5, 2.0, d),
        "innovations": rng.uniform(0.5, 2.0, d),
    }
    given_arrays = {k: v for k, v in given_arrays.items() if v is not None}
    before = {k: v.copy() for k, v in given_arrays.items()}

    g = PartialCorrelationGraph(given_arrays["weights"], scale=given_arrays.get("scale"))
    C = CovarianceMatrix(given_arrays["cov"])
    O = PrecisionMatrix(given_arrays["prec"])
    removed = sorted(rng.choice(d, size=int(rng.integers(1, d)), replace=False).tolist())
    red = latent_reduce(g, removed)
    fm = FactorModel(given_arrays["factor"], given_arrays["factor_var"])
    spec = MartingaleSpec(d, 0.7, given_arrays["innovations"])
    graphs = [
        g,
        precision_to_partial(O),
        sever_nodes(g, removed),
        marginalize_nodes(g, removed),
        red.reduced_graph,
        red.enlarged_graph,
        factor_model_partial(fm),
    ]
    matrices = [
        C,
        O,
        MarginalCorrelationMatrix(given_arrays["marg"]),
        cov_to_marginal(C),
        cov_to_precision(C),
        precision_to_cov(O),
        partial_to_precision(graphs[1]),
        partial_to_marginal_oracle(g),
        martingale_covariance(spec),
    ]
    kept = [h.weights for h in graphs] + [h.scale for h in graphs if h.scale is not None]
    kept += [h.entries for h in matrices]
    kept += [red.a_tilde, red.b_tilde, red._load, fm.weights, fm.variances,
             spec.innovation_variances]
    for k in kept:
        assert _frozen_down(k)
        assert not any(np.shares_memory(k, v) for v in given_arrays.values())
    for name, v in given_arrays.items():
        assert v.flags.writeable and _bits(v) == _bits(before[name]), name
