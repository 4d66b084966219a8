"""Homogeneous linear chains: recurrences, closed forms, amplification.

For a chain of d nodes with every neighboring coupling equal to r, the
path families entering the correlation expansion collapse to two
per-subchain quantities: c_k, the summed weight of end-to-end star
paths on a k-node subchain, and l_k, the summed weight of closed loops
at its first node that stay inside it.  Both obey one-step recurrences,

    c_k = r c_(k-1) / (1 - l_(k-1)),
    l_k = l_(k-1) + c_(k-1)^2 / (1 - l_(k-1)),

seeded by c_2 = r and l_2 = 0.  Every pairwise marginal correlation of
the chain, the endpoint correlation, the asymptotic correlation length
and the amplification factor gained by lengthening the chain are all
elementary functions of these sequences.

|r| <= 1/2 keeps the chain positive definite at every length; loop
sums then grow monotonically toward l_inf = (1 - sqrt(1 - 4 r^2)) / 2,
which is also the generating function of the Catalan numbers evaluated
at r^2.

Nodes are numbered 1..d throughout this module, matching the natural
time ordering of chain-shaped processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    IndexOutOfRange,
    ParamOutOfBound,
    UndefinedAtZero,
    _instance,
    _real,
    _shown,
    _whole,
)

# Longest chain whose sums are tabulated, checked before any is stored
# (pathsum.MAX_LENGTH caps truncation lengths the same way).
MAX_NODES = 100_000

__all__ = [
    "ChainSpec",
    "ChainSolution",
    "chain_sums",
    "chain_pair_corr",
    "endpoint_corr_recurrence",
    "correlation_length",
    "l_infinity",
    "l_infinity_series",
    "amplification_factor",
]


def _chain_r(r) -> float:
    """r as a float, if it is a real number with |r| <= 1/2; else ParamOutOfBound."""
    r = _real(r, "r", ParamOutOfBound)
    if abs(r) > 0.5:
        raise ParamOutOfBound(f"|r| <= 1/2 is required for a chain of any length, got r={r}")
    return r


@dataclass(frozen=True)
class ChainSpec:
    """A homogeneous chain: d nodes, uniform neighbor coupling r."""

    d: int
    r: float

    def __post_init__(self):
        object.__setattr__(self, "d", _whole(self.d, "chain length d", ParamOutOfBound, 1))
        object.__setattr__(self, "r", _chain_r(self.r))

    @cached_property
    def _solution(self) -> ChainSolution:
        """The chain's recurrence results, run once on first use.

        Private to :func:`chain_pair_corr`: the maps are mutable, so
        callers of :func:`chain_sums` get a fresh solution instead.
        """
        return chain_sums(self)


@dataclass(frozen=True)
class ChainSolution:
    """Star and loop sums of every subchain length, plus endpoint correlations.

    All three maps are keyed by subchain length k = 2..d: ``c[k]`` the
    end-to-end star sum, ``l[k]`` the one-sided loop sum, and
    ``rho_endpoints[k]`` = c_k / (1 - l_k), the marginal correlation of
    the ends of a k-node chain.
    """

    c: dict
    l: dict
    rho_endpoints: dict


def chain_sums(spec: ChainSpec) -> ChainSolution:
    """Run the c/l recurrences out to the full chain length.

    l_k grows with r^2 and is exactly 1/2 - 1/(2(k - 1)) at |r| = 1/2,
    so every denominator 1 - l_k is at least 1/2, and every 1 - l_a - l_b
    of a pair or an amplification factor stays positive.  Chains longer
    than ``MAX_NODES`` are refused.
    """
    spec = _instance(spec, ChainSpec, "spec")
    d = _whole(spec.d, "chain length d", ParamOutOfBound, 1, MAX_NODES)
    c: dict = {}
    l: dict = {}
    rho: dict = {}
    if d >= 2:
        c[2] = spec.r
        l[2] = 0.0
        rho[2] = spec.r
    for k in range(3, d + 1):
        den = 1.0 - l[k - 1]
        c[k] = spec.r * c[k - 1] / den
        l[k] = l[k - 1] + c[k - 1] ** 2 / den
        rho[k] = c[k] / (1.0 - l[k])
    return ChainSolution(c=c, l=l, rho_endpoints=rho)


def chain_pair_corr(spec: ChainSpec, i: int, j: int) -> float:
    """Marginal correlation of nodes i < j on the chain.

    The star sum between i and j runs over the (j - i + 1)-node
    subchain; the loop corrections at the two ends see the chain pieces
    hanging off them, of i + 1 and d - j + 2 nodes:

        rho_ij = c_(j-i+1) / sqrt((1 - l_(j-i+1) - l_(i+1))
                                  (1 - l_(j-i+1) - l_(d-j+2)))

    Nodes are 1-based and i < j is required.  The recurrences run once
    per spec object; later pairs on the same spec read their results.
    """
    spec = _instance(spec, ChainSpec, "spec")
    i = _whole(i, "i", IndexOutOfRange, 1, spec.d - 1)
    j = _whole(j, "j", IndexOutOfRange, i + 1, spec.d)
    sol = spec._solution
    span = j - i + 1
    tail = spec.d - j + 2
    den_i = 1.0 - sol.l[span] - sol.l[i + 1]
    den_j = 1.0 - sol.l[span] - sol.l[tail]
    return sol.c[span] / math.sqrt(den_i * den_j)


def endpoint_corr_recurrence(spec: ChainSpec) -> float:
    """Endpoint correlation rho_d by the three-term recurrence.

        rho_d = rho_(d-1)^2 / (rho_(d-2) (1 - rho_(d-1)^2)),

    seeded by rho_1 = 1 and rho_2 = r.  This is an independent route to
    the same number as ``chain_sums(spec).rho_endpoints[d]``.  Once
    rho is 0 (an uncoupled chain, or a long weak one underflowing) it
    stays 0, where the recurrence itself would hit 0/0.  While rho is
    nonzero the denominator is too: |rho| <= |r| <= 1/2.

    At most ``MAX_NODES`` steps are run.  A longer chain gets 0 when
    rho has underflowed by then; otherwise (|r| = 1/2, where rho_d =
    1/d, or |r| close to it) it is refused with ParamOutOfBound.
    """
    d = _instance(spec, ChainSpec, "spec").d
    if d < 2:
        raise IndexOutOfRange(f"endpoint correlation needs d >= 2, got d={d}")
    prev2, prev1 = 1.0, spec.r
    for _ in range(2, min(d, MAX_NODES)):
        if prev1 == 0.0:
            break
        prev2, prev1 = prev1, prev1**2 / (prev2 * (1.0 - prev1**2))
    if prev1 == 0.0:
        return 0.0
    if d > MAX_NODES:
        raise ParamOutOfBound(
            f"rho_d has not underflowed by d={MAX_NODES} at r={spec.r}, so the "
            f"chain length d must be at most {MAX_NODES}, got {_shown(d)}"
        )
    return prev1


def correlation_length(r: float) -> float:
    """Asymptotic decay length of correlations along the chain.

        xi = 1 / ln((1 + sqrt(1 - 4 r^2)) / (2 |r|)),

    so that |rho_(i,i+n)| ~ exp(-n / xi) for large separations.  At
    |r| = 1/2 the length diverges; +inf is returned rather than raising,
    so critical-point scans stay plottable.  r = 0 has no decay scale at
    all and raises.
    """
    r = _chain_r(r)
    if r == 0.0:
        raise UndefinedAtZero("correlation length is undefined for an uncoupled chain")
    if abs(r) == 0.5:
        return math.inf
    # A difference of logs: (1 + s) / (2 |r|) overflows for subnormal r.
    return 1.0 / (math.log((1.0 + math.sqrt(1.0 - 4.0 * r * r)) / 2.0) - math.log(abs(r)))


def l_infinity(r: float) -> float:
    """Infinite-chain loop sum (1 - sqrt(1 - 4 r^2)) / 2, as the equal
    2 r^2 / (1 + sqrt(1 - 4 r^2)): no cancellation for small r, 1/2 at |r| = 1/2."""
    r = _chain_r(r)
    return 2.0 * r * r / (1.0 + math.sqrt(1.0 - 4.0 * r * r))


def l_infinity_series(r: float, terms: int = 50) -> float:
    """Infinite-chain loop sum by its Catalan series.

        l_inf = sum_(n>=1) C_(n-1) r^(2n),

    truncated after ``terms`` terms, at most ``MAX_NODES``.  Cross-check
    route for :func:`l_infinity`; convergence slows toward |r| = 1/2.
    """
    r = _chain_r(r)
    terms = _whole(terms, "terms", ParamOutOfBound, 1, MAX_NODES)
    total = 0.0
    term = r * r
    for n in range(1, terms + 1):
        total += term
        # C_n r^(2n+2) from C_(n-1) r^(2n): never above 1/4, so no inf * 0.
        term *= r * r * (2.0 * (2 * n - 1) / (n + 1))
    return total


def amplification_factor(k: int, m: int, r: float) -> float:
    """Correlation gain from appending m nodes at each end of a chain.

    Two nodes separated by k intermediates see their correlation
    multiplied by

        gamma = (1 - l_(k+2)) / (1 - l_(k+2) - l_(m+2))

    when m extra nodes are attached beyond each of them.  gamma is 1 at
    m = 0, never below 1, grows with m, and depends on r only through
    r^2.  gamma increases in both loop sums, and both rise toward
    l_inf, so it never exceeds

        (1 + sqrt(1 - 4 r^2)) / (2 sqrt(1 - 4 r^2)),

    the value it approaches as k and m grow (1.0103 at r = 0.1, 1.125
    at r = 0.3).
    """
    k = _whole(k, "k", ParamOutOfBound, 0, MAX_NODES - 2)
    m = _whole(m, "m", ParamOutOfBound, 0, MAX_NODES - 2)
    return _gamma(chain_sums(ChainSpec(d=max(k, m) + 2, r=r)).l, k, m)


def _gamma(l: dict, k: int, m: int) -> float:
    """gamma of :func:`amplification_factor` from the loop sums ``l`` of
    any chain of at least max(k, m) + 2 nodes: l_n does not depend on
    the chain's length, so one chain serves every k and m up to it."""
    lk = l[k + 2]
    return (1.0 - lk) / (1.0 - lk - l[m + 2])
