"""One rule for every real-valued argument: finite numbers pass, nothing is parsed.

Each row of ``SITES`` puts a value at one real argument of the library
(a chain coupling r, a rescaling q, a canonical weight, alpha) and names
the class that site raises.  A numeric string, NaN, either infinity
and, where the argument has no default, None must each raise that
class; numpy scalars of a value exact in every float width must give
exactly the plain-float result.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from pathcorr import (
    ChainSpec,
    MartingaleSpec,
    ParamOutOfBound,
    QOutOfRange,
    amplification_factor,
    canonical_graph,
    chain_sums,
    conditional_mi_series,
    correlation_length,
    l_infinity,
    l_infinity_series,
    martingale_covariance,
    rescale,
)
from test_whole_numbers import G, PART


EXAMPLE = {"r12": 0.25, "r13": 0.125, "r23": -0.25, "r24": 0.25, "r34": 0.125}


def example_with(key):
    return lambda v: canonical_graph("example_R", **{**EXAMPLE, key: v}).weights.tolist()


@dataclass(frozen=True)
class Site:
    """``call(v)`` puts v at one real argument; ``plain`` is a valid float there."""

    id: str
    call: Callable
    plain: float
    error: type


SITES = [
    Site("chain-r", lambda v: chain_sums(ChainSpec(d=5, r=v)).c, 0.25, ParamOutOfBound),
    Site("correlation-length", correlation_length, 0.25, ParamOutOfBound),
    Site("l-infinity", l_infinity, 0.25, ParamOutOfBound),
    Site("l-infinity-series", lambda v: l_infinity_series(v, 10), 0.25, ParamOutOfBound),
    Site("amplification-r", lambda v: amplification_factor(2, 1, v), 0.25, ParamOutOfBound),
    Site("rescale-q", lambda v: rescale(G, v).weights.tolist(), 0.5, QOutOfRange),
    Site("mi-series-q", lambda v: conditional_mi_series(G, PART, q=v).nats, 0.5, QOutOfRange),
    Site("canonical-chain-r",
         lambda v: canonical_graph("chain", d=4, r=v).weights.tolist(), 0.25, ParamOutOfBound),
    Site("canonical-ring-r",
         lambda v: canonical_graph("ring", d=4, r=v).weights.tolist(), 0.25, ParamOutOfBound),
    Site("canonical-one-many-one-r",
         lambda v: canonical_graph("one_many_one", d=4, r=v).weights.tolist(),
         0.25, ParamOutOfBound),
    *(Site(f"example-{key}", example_with(key), val, ParamOutOfBound)
      for key, val in EXAMPLE.items()),
    Site("alpha",
         lambda v: martingale_covariance(
             MartingaleSpec(horizon=3, alpha=v, innovation_variances=np.ones(3))
         ).entries.tolist(),
         0.5, ParamOutOfBound),
]
SITE_IDS = [s.id for s in SITES]


@pytest.mark.parametrize("site", SITES, ids=SITE_IDS)
@pytest.mark.parametrize(
    "bad",
    [str, lambda p: float("nan"), lambda p: float("inf"), lambda p: float("-inf"),
     lambda p: 10**400],
    ids=["numeric-string", "nan", "inf", "-inf", "int-beyond-float"],
)
def test_not_a_finite_number_raises_the_site_class(site, bad):
    with pytest.raises(site.error, match="finite real number"):
        site.call(bad(site.plain))


# q = None asks for the default rescaling; every other real argument has no default.
REQUIRED = [s for s in SITES if not s.id.endswith("-q")]


@pytest.mark.parametrize("site", REQUIRED, ids=[s.id for s in REQUIRED])
def test_none_raises_the_site_class(site):
    with pytest.raises(site.error, match="finite real number"):
        site.call(None)


@pytest.mark.parametrize("site", SITES, ids=SITE_IDS)
@pytest.mark.parametrize("kind", [np.float64, np.float32], ids=["float64", "float32"])
def test_numpy_scalars_match_plain_float(site, kind):
    assert site.call(kind(site.plain)) == site.call(site.plain)


def test_real_fields_are_stored_as_float():
    assert type(ChainSpec(d=3, r=np.float32(0.25)).r) is float
    spec = MartingaleSpec(horizon=3, alpha=np.float32(0.5), innovation_variances=np.ones(3))
    assert type(spec.alpha) is float
    assert MartingaleSpec(3, True, np.ones(3)).alpha == 1.0
