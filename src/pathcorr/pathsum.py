"""Path families on the coupling graph and their weight sums.

A path is a walk i -> k -> ... -> j along nonzero couplings; its weight
is the product of the traversed entries, and vertices and edges may be
revisited.  Summing weights over constrained families of walks expands
the marginal correlation:

    rho_ij = (sum over ij*-paths) /
             sqrt((1 - closed loops at i avoiding j)
                  (1 - closed loops at j avoiding i)),

where an ij*-path visits its endpoints exclusively at the endpoints, and
a closed loop at i returns to i without touching i in between and
without touching j at all.  Truncating all three sums at a common
maximum length L gives a converging estimate rho_hat(L); replacing them
by their exact geometric limits (restricted block inverses) reproduces
the matrix-inversion oracle.

Truncated series are summed length by length, in ascending order.  That
ordering is mandatory: when couplings carry mixed signs the series may
converge only conditionally, and only the length-grouped order is
guaranteed to approach the oracle value.  When the spectral radius of R
reaches 1 the plain series diverges; the graph must then be rescaled,

    R(q) = (1 - q) 1 + q R,       0 < q < 2 / (1 + nu(R)),

which adds a self-loop of weight (1 - q) to every vertex, scales every
edge by q, and leaves the expanded correlations unchanged because
q (1 - R(q))^-1 = (1 - R)^-1 for every admissible q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import (
    DenominatorNonPositive,
    IndexOutOfRange,
    ParamOutOfBound,
    QOutOfRange,
    SingularRestrictedBlock,
    _whole,
)
from .matrices import PartialCorrelationGraph, _spd_solve, partial_to_marginal_oracle

# A truncated loop sum this close to 1 (or beyond) makes the
# denominator square root meaningless.
DENOM_GUARD = 1e-12

# Default fraction of the admissible upper bound used when rescaling
# without an explicit q; the bound should be approached, not hit.
Q_DEFAULT_FRACTION = 0.95

# Longest truncation accepted, checked before any array is allocated.
MAX_LENGTH = 100_000

__all__ = [
    "PathQuery",
    "Path",
    "PathSumResult",
    "RescaledGraph",
    "ProfilePoint",
    "enumerate_paths",
    "path_sum_truncated",
    "star_path_sum_truncated",
    "star_path_sum_closed",
    "marginal_corr_expansion",
    "marginal_corr_closed",
    "rescale",
    "convergence_profile",
]


@dataclass(frozen=True)
class PathQuery:
    """Constraints of a path family.

    ``interior_forbidden`` lists nodes that may not occur strictly
    between the endpoints; ``interior_allowed``, when given, restricts
    interior nodes to that set.  Both constraints apply to interior
    positions only: the endpoints themselves are always exempt, so a
    query with ``source`` in the forbidden set still starts there.
    Steps v -> v occur where the graph has a self-loop: on a rescaled
    graph, whose vertices carry self-loops of weight 1 - q.
    """

    source: int
    target: int
    max_length: int
    interior_forbidden: frozenset = field(default_factory=frozenset)
    interior_allowed: frozenset | None = None

    def __post_init__(self):
        object.__setattr__(self, "max_length", _check_length(self.max_length, "max_length"))
        for name in ("interior_forbidden", "interior_allowed"):
            nodes = getattr(self, name)
            if nodes is not None:
                nodes = frozenset(_whole(v, name, IndexOutOfRange, 0) for v in nodes)
                object.__setattr__(self, name, nodes)


@dataclass(frozen=True)
class Path:
    """One walk, as its vertex sequence and accumulated weight."""

    vertices: tuple
    weight: float

    @property
    def length(self) -> int:
        """Number of edges traversed."""
        return len(self.vertices) - 1


@dataclass(frozen=True)
class PathSumResult:
    """Weight sums of a path family, truncated at a maximum length.

    ``per_length[l]`` is the summed weight of the family's paths of
    exactly l edges, for l = 1..truncation_length; ``cumulative[l]`` the
    running total through length l.
    """

    per_length: dict
    cumulative: dict
    truncation_length: int

    @property
    def total(self) -> float:
        """Cumulative sum at the truncation length."""
        return self.cumulative[self.truncation_length]


@dataclass(frozen=True)
class RescaledGraph:
    """A coupling graph with edge weights q r_ij and self-loops 1 - q.

    Admissible q lie strictly between 0 and 2 / (1 + nu(R)); within
    that range the rescaled graph's spectral radius is below 1, so
    truncated expansions on it converge even when the base graph's do
    not.  q = 1 reproduces the base graph unchanged.  Note the bound
    exceeds 1 whenever nu(R) < 1, so q itself may exceed 1, making the
    self-loop weight negative; that is harmless.
    """

    base: PartialCorrelationGraph
    q: float

    def __post_init__(self):
        object.__setattr__(self, "q", _check_q(self.q, self.base._nu))

    @property
    def dim(self) -> int:
        return self.base.dim

    @cached_property
    def weights(self) -> np.ndarray:
        """Dense effective weights (1 - q) 1 + q R, read-only, built once."""
        w = self.q * self.base.weights
        w = w + (1.0 - self.q) * np.eye(self.base.dim)
        w.setflags(write=False)
        return w

    @property
    def node_labels(self) -> tuple:
        return self.base.node_labels


@dataclass(frozen=True)
class ProfilePoint:
    """One row of a convergence profile."""

    L: int
    rho_hat: float
    abs_gap: float


def _q_bound(nu: float) -> float:
    """Upper end 2 / (1 + nu) of the admissible interval of q."""
    return 2.0 / (1.0 + nu)


def _check_q(q, nu: float) -> float:
    """q as a float, if it lies in the admissible interval (0, 2 / (1 + nu))."""
    q = float(q)
    bound = _q_bound(nu)
    if not (0.0 < q < bound):
        raise QOutOfRange(
            f"q={q:.6g} outside the admissible interval (0, {bound:.6g})"
        )
    return q


def _base_and_q(g) -> tuple:
    """The unrescaled graph behind ``g`` and its rescaling q (1 if none)."""
    return (g.base, g.q) if isinstance(g, RescaledGraph) else (g, 1.0)


def _check_node(v: int, dim: int, name: str) -> int:
    return _whole(v, name, IndexOutOfRange, 0, dim - 1)


def _check_pair(i: int, j: int, dim: int) -> tuple:
    """Two distinct node indices, as a marginal correlation needs."""
    i = _check_node(i, dim, "i")
    j = _check_node(j, dim, "j")
    if i == j:
        raise IndexOutOfRange("marginal correlation needs two distinct nodes")
    return i, j


def _check_length(L: int, name: str) -> int:
    return _whole(L, name, ParamOutOfBound, 1, MAX_LENGTH)


def _interior_indices(dim: int, endpoints, avoid, within) -> np.ndarray:
    """Sorted indices allowed strictly inside a path."""
    keep = np.ones(dim, dtype=bool)
    if within is not None:
        keep[:] = False
        for v in within:
            keep[_check_node(v, dim, "interior node")] = True
    for v in endpoints:
        keep[v] = False
    for v in avoid:
        keep[_check_node(v, dim, "avoided node")] = False
    return np.nonzero(keep)[0]


def enumerate_paths(g, query: PathQuery) -> Iterator[Path]:
    """Generate every path of a family, shortest first.

    Paths are emitted grouped by length in ascending order and, within
    one length, in lexicographic order of their vertex sequences; the
    stream is therefore deterministic.  Vertices and edges may repeat.
    An empty stream means the family has no members.

    The number of walks grows exponentially with length; use this for
    inspection and cross-checks, and the sum operations for numbers.
    """
    w = g.weights
    dim = w.shape[0]
    src = _check_node(query.source, dim, "source")
    tgt = _check_node(query.target, dim, "target")
    interior = _interior_indices(dim, (), query.interior_forbidden, query.interior_allowed)
    ok_interior = np.isin(np.arange(dim), interior)
    # A self-loop is a nonzero diagonal weight: none on a plain graph.
    neighbors = [np.nonzero(w[v] != 0.0)[0] for v in range(dim)]

    def walk(prefix: tuple, weight: float, steps_left: int):
        last = prefix[-1]
        if steps_left == 1:
            # Final hop: the target is exempt from interior constraints.
            edge = w[last, tgt]
            if edge != 0.0:
                yield Path(prefix + (tgt,), weight * edge)
            return
        for u in neighbors[last]:
            if ok_interior[u]:
                yield from walk(prefix + (int(u),), weight * w[last, u], steps_left - 1)

    for length in range(1, query.max_length + 1):
        yield from walk((src,), 1.0, length)


def _per_length_restricted(
    w: np.ndarray, i: int, j: int, L: int, interior: np.ndarray
) -> np.ndarray:
    """Per-length sums of paths i -> j whose interiors lie in `interior`.

    Entry [l-1] is the length-l sum.  Matrix-free: the l-th term is
    W[i, K] W_K^(l-2) W[K, j], built by repeated vector-matrix products.
    Star families pass an interior without i and j; every node as the
    interior gives the unrestricted sums (W^l)_ij.  The diagonal of W is
    the self-loop weight: exactly 0 on a validated graph, 1 - q on a
    rescaled one.
    """
    per = np.zeros(L)
    per[0] = w[i, j]
    if L == 1 or interior.size == 0:
        return per
    wk = w[np.ix_(interior, interior)]
    head = w[i, interior]
    tail = w[interior, j]
    per[1] = head @ tail
    for ell in range(3, L + 1):
        head = head @ wk
        per[ell - 1] = head @ tail
    return per


def _result_from_per_length(per: np.ndarray) -> PathSumResult:
    cum = np.cumsum(per)
    L = per.shape[0]
    return PathSumResult(
        per_length={ell: float(per[ell - 1]) for ell in range(1, L + 1)},
        cumulative={ell: float(cum[ell - 1]) for ell in range(1, L + 1)},
        truncation_length=L,
    )


def path_sum_truncated(g, i: int, j: int, L: int) -> PathSumResult:
    """Sum of all i -> j path weights per length, no interior constraint.

    The length-l term is simply (W^l)_ij, so the cumulative sums are the
    partial Neumann series of (1 - W)^-1 - 1.
    """
    w = g.weights
    dim = w.shape[0]
    i = _check_node(i, dim, "i")
    j = _check_node(j, dim, "j")
    L = _check_length(L, "truncation length")
    per = _per_length_restricted(w, i, j, L, np.arange(dim))
    return _result_from_per_length(per)


def star_path_sum_truncated(
    g, i: int, j: int, L: int, avoid=(), within=None
) -> PathSumResult:
    """Truncated weight sum of a star-path family.

    For i != j this is the ij*-family: paths whose endpoints occur only
    at the endpoints (interiors exclude both i and j), further excluding
    ``avoid`` and, when ``within`` is given, restricted to interiors in
    that set.  For i == j it is the closed-loop family at i: walks
    returning to i without touching i in between; pass ``avoid=(j,)``
    to exclude a node entirely, or ``within=S`` to confine the loop to a
    subnetwork.

    On rescaled graphs the self-loops participate: the single-step loop
    i -> i of weight 1 - q is a closed path of length 1, and interior
    vertices may linger via their own self-loops.
    """
    w = g.weights
    dim = w.shape[0]
    i = _check_node(i, dim, "i")
    j = _check_node(j, dim, "j")
    L = _check_length(L, "truncation length")
    interior = _interior_indices(dim, {i, j}, avoid, within)
    per = _per_length_restricted(w, i, j, L, interior)
    return _result_from_per_length(per)


def star_path_sum_closed(g, i: int, j: int, avoid=(), within=None) -> float:
    """Exact infinite-sum value of a star-path family.

    The geometric tail over interior vertices K is resummed through the
    restricted block inverse:

        sum = W_ij + W[i, K] (1 - W_K)^-1 W[K, j],

    with K as in :func:`star_path_sum_truncated` (for i == j the first
    term is the self-loop weight, zero on unrescaled graphs).  For a
    valid graph 1 - W_K inherits positive definiteness from 1 - W, so
    the closed value exists even when the truncated series diverges.
    """
    w = g.weights
    dim = w.shape[0]
    i = _check_node(i, dim, "i")
    j = _check_node(j, dim, "j")
    interior = _interior_indices(dim, {i, j}, avoid, within)
    direct = float(w[i, j])
    if interior.size == 0:
        return direct
    mk = np.eye(interior.size) - w[np.ix_(interior, interior)]
    what = f"1 - R restricted to {interior.size} interior nodes"
    tail = _spd_solve(mk, w[interior, j], SingularRestrictedBlock, what)
    return direct + float(w[i, interior] @ tail)


def _rho_hat(g, i: int, j: int, L: int, length_name: str) -> tuple:
    """Truncated estimates rho_hat(l) for l = 1..L of the checked pair i != j.

    Checks the length L (named ``length_name`` in the error), then sums
    the ij*-paths and the closed loops at i and at j, each avoiding the
    other endpoint, length by length in ascending order.  Returns
    (rho_hat, l_i, l_j) as arrays over l = 1..L, the last two the
    cumulative loop sums.  Where either loop sum reaches
    ``1 - DENOM_GUARD`` the ratio has no meaning: that entry of rho_hat
    is set to NaN, never computed, and the caller decides what to raise.
    """
    w = g.weights
    L = _check_length(L, length_name)
    interior = _interior_indices(w.shape[0], {i, j}, (), None)
    num, li, lj = (
        np.cumsum(_per_length_restricted(w, a, b, L, interior))
        for a, b in ((i, j), (i, i), (j, j))
    )
    ok = (li < 1.0 - DENOM_GUARD) & (lj < 1.0 - DENOM_GUARD)
    rho = np.full(L, np.nan)
    rho[ok] = num[ok] / np.sqrt((1.0 - li[ok]) * (1.0 - lj[ok]))
    return rho, li, lj


def marginal_corr_expansion(g, i: int, j: int, L: int) -> float:
    """Marginal correlation estimate from paths of length at most L.

    Numerator and both loop sums are truncated at the same L.  The
    caller must hand in a rescaled graph when nu(R) >= 1; on such a
    graph the plain truncation has no limit.  Equal to the last row of
    :func:`convergence_profile` up to L, where that profile exists.
    """
    i, j = _check_pair(i, j, g.dim)
    rho, li, lj = _rho_hat(g, i, j, L, "truncation length")
    if np.isnan(rho[-1]):
        name, val = ("i", li[-1]) if li[-1] >= lj[-1] else ("j", lj[-1])
        raise DenominatorNonPositive(
            f"truncated loop sum at node {name} is {val:.6g} >= 1; "
            "increase L or rescale the graph"
        )
    return float(rho[-1])


def _closed_pair_sums(g, i: int, j: int) -> tuple:
    """Closed star sum s_ij and avoiding loop sums l_i, l_j of one pair.

    With C = (1 - W)^-1 and p = {i, j}, the three sums are the entries
    of 1 - (C_pp)^-1 (the Schur-complement form of the restricted block
    inverses).  C_pp = D^1/2 P_pp D^1/2 with D = diag(c_i, c_j) comes
    from the base graph's cached oracle, divided by q on a rescaled
    graph since 1 - W = q (1 - R); inverting the 2x2 block gives

        s_ij = rho / (sqrt(c_i c_j) (1 - rho^2)),
        l_i  = 1 - 1 / (c_i (1 - rho^2)).
    """
    base, q = _base_and_q(g)
    rho = float(partial_to_marginal_oracle(base).entries[i, j])
    c = base._inverse.cov_diag
    ci, cj = float(c[i]) / q, float(c[j]) / q
    one_minus_rho2 = (1.0 - rho) * (1.0 + rho)
    if one_minus_rho2 <= 0.0:
        raise DenominatorNonPositive(
            f"nodes {i} and {j} are perfectly correlated; their loop sums reach 1"
        )
    s = rho / (math.sqrt(ci * cj) * one_minus_rho2)
    li = 1.0 - 1.0 / (ci * one_minus_rho2)
    lj = 1.0 - 1.0 / (cj * one_minus_rho2)
    return s, li, lj


def marginal_corr_closed(g, i: int, j: int) -> float:
    """Marginal correlation from exact star and loop sums.

    Evaluates the star-path form with every sum replaced by its closed
    value, read off the 2x2 block of C = (1 - W)^-1 at the pair (see
    :func:`_closed_pair_sums`).  The block comes from the graph's
    cached oracle, so after the first call on a graph each pair costs
    O(1); an ill-conditioned 1 - R raises the oracle's
    :class:`IllConditionedWarning` here too.
    """
    i, j = _check_pair(i, j, g.dim)
    num, li, lj = _closed_pair_sums(g, i, j)
    den = (1.0 - li) * (1.0 - lj)
    if den <= 0.0:
        raise DenominatorNonPositive(
            f"closed loop sums {li:.6g}, {lj:.6g} leave no positive denominator"
        )
    return num / math.sqrt(den)


def rescale(g: PartialCorrelationGraph, q: float | None = None) -> RescaledGraph:
    """Rescaled graph with edges q r_ij and self-loops 1 - q.

    With q omitted, 0.95 of the admissible upper bound 2 / (1 + nu(R))
    is used; values must lie strictly inside (0, bound).  Expanded
    correlations are independent of the choice.
    """
    base, _ = _base_and_q(g)
    if q is None:
        q = Q_DEFAULT_FRACTION * _q_bound(base._nu)
    return RescaledGraph(base=base, q=float(q))


def convergence_profile(g, i: int, j: int, L_max: int) -> tuple:
    """Truncated estimates rho_hat(L) for L = 1..L_max with oracle gaps.

    Per-length sums are accumulated once, so the whole profile costs as
    much as the single longest truncation.  The gap column compares
    against the matrix-inversion oracle of the (base) graph.
    """
    i, j = _check_pair(i, j, g.dim)
    rho, li, lj = _rho_hat(g, i, j, L_max, "L_max")
    if np.isnan(rho).any():
        L = int(np.argmax(np.isnan(rho))) + 1
        worst = max(li[L - 1], lj[L - 1])
        raise DenominatorNonPositive(
            f"truncated loop sum at L={L} reaches {worst:.6g} >= 1; "
            "increase L or rescale the graph"
        )
    base, _ = _base_and_q(g)
    oracle = float(partial_to_marginal_oracle(base).entries[i, j])
    return tuple(
        ProfilePoint(L=L, rho_hat=float(r), abs_gap=abs(float(r) - oracle))
        for L, r in enumerate(rho, start=1)
    )
