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
reaches 1 the plain series may diverge: a pair's series does when R on
the nodes other than the pair reaches it.  The graph must then be
rescaled,

    R(q) = (1 - q) 1 + q R,       0 < q < 2 / (1 + nu(R)),

which adds a self-loop of weight (1 - q) to every vertex, scales every
edge by q, and leaves the expanded correlations unchanged because
q (1 - R(q))^-1 = (1 - R)^-1 for every admissible q.
"""

from __future__ import annotations

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
    SpectralRadiusTooLarge,
    _instance,
    _node_list,
    _real,
    _whole,
)
from .matrices import PartialCorrelationGraph, _checked_inverse, _paths_through, _spectrum_ends

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
    graph, whose vertices carry self-loops of weight 1 - q.  The node
    sets are kept as given; :func:`enumerate_paths` checks them.
    """

    source: int
    target: int
    max_length: int
    interior_forbidden: frozenset = field(default_factory=frozenset)
    interior_allowed: frozenset | None = None

    def __post_init__(self):
        object.__setattr__(self, "max_length", _check_length(self.max_length, "max_length"))


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
        base = _instance(self.base, PartialCorrelationGraph, "base", ParamOutOfBound)
        object.__setattr__(self, "q", _check_q(self.q, base._nu))

    @property
    def dim(self) -> int:
        return self.base.dim

    @cached_property
    def weights(self) -> np.ndarray:
        """Dense effective weights (1 - q) 1 + q R, read-only, built once."""
        q, r = self.q, self.base.weights
        w = q * r
        # Off the diagonal the identity's zeros count too: adding
        # (1 - q) * 0.0 turns -0.0 into +0.0 whenever q < 1.
        w += (1.0 - q) * 0.0
        np.fill_diagonal(w, q * np.diagonal(r) + (1.0 - q))
        w.setflags(write=False)
        return w


_GRAPHS = (PartialCorrelationGraph, RescaledGraph)


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
    q = _real(q, "q", QOutOfRange)
    bound = _q_bound(nu)
    if not (0.0 < q < bound):
        raise QOutOfRange(
            f"q={q:.6g} outside the admissible interval (0, {bound:.6g})"
        )
    return q


def _base(g) -> PartialCorrelationGraph:
    """The unrescaled graph behind ``g``."""
    return g.base if isinstance(g, RescaledGraph) else g


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
    """Sorted indices allowed strictly inside a path: ``within`` (None:
    every node) less ``avoid``, both node sets, less the checked ``endpoints``."""
    keep = np.ones(dim, dtype=bool)
    if within is not None:
        keep[:] = False
        for v in _node_list(within, dim, "the allowed interior", IndexOutOfRange):
            keep[v] = True
    for v in endpoints:
        keep[v] = False
    for v in _node_list(avoid, dim, "the avoided nodes", IndexOutOfRange):
        keep[v] = False
    return np.nonzero(keep)[0]


def enumerate_paths(g, query: PathQuery) -> Iterator[Path]:
    """Generate every path of a family, shortest first.

    Paths are emitted grouped by length in ascending order and, within
    one length, in lexicographic order of their vertex sequences; the
    stream is therefore deterministic.  Vertices and edges may repeat.
    An empty stream means the family has no members.

    The number of walks grows exponentially with length; use this for
    inspection and cross-checks, and the sum operations for numbers.
    The arguments are checked at the call; the stream is lazy.
    """
    w = _instance(g, _GRAPHS, "g", ParamOutOfBound).weights
    query = _instance(query, PathQuery, "query", ParamOutOfBound)
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

    return (p for n in range(1, query.max_length + 1) for p in walk((src,), 1.0, n))


def _per_length_restricted(
    w: np.ndarray, rows, cols, L: int, interior: np.ndarray
) -> np.ndarray:
    """Per-length sums of paths from ``rows`` to ``cols`` whose interiors
    lie in `interior`, every row and column pair from one propagation.

    Entry [l-1] is the |rows| x |cols| block of length-l sums.  With
    K = `interior`, the l-th block is W[rows, K] W_K^(l-2) W[K, cols]:
    one product of the head W[rows, K] W_K^(l-2) with the step block
    W[K, K + cols] yields the next head and the block as two slices.
    Star families pass an interior without their endpoints; every node
    as the interior gives the unrestricted sums (W^l)[rows, cols].  The
    diagonal of W is the self-loop weight: exactly 0 on a validated
    graph, 1 - q on a rescaled one.
    """
    per = np.zeros((L, len(rows), len(cols)))
    per[0] = w[np.ix_(rows, cols)]
    nk = interior.size
    if L == 1 or nk == 0:
        return per
    step = w[np.ix_(interior, np.concatenate((interior, cols)))]
    head = w[np.ix_(rows, interior)]
    for ell in range(1, L):
        out = head @ step
        per[ell] = out[:, nk:]
        head = out[:, :nk]
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
    w = _instance(g, _GRAPHS, "g", ParamOutOfBound).weights
    dim = w.shape[0]
    i = _check_node(i, dim, "i")
    j = _check_node(j, dim, "j")
    L = _check_length(L, "truncation length")
    per = _per_length_restricted(w, (i,), (j,), L, np.arange(dim))
    return _result_from_per_length(per[:, 0, 0])


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
    w = _instance(g, _GRAPHS, "g", ParamOutOfBound).weights
    dim = w.shape[0]
    i = _check_node(i, dim, "i")
    j = _check_node(j, dim, "j")
    L = _check_length(L, "truncation length")
    interior = _interior_indices(dim, {i, j}, avoid, within)
    per = _per_length_restricted(w, (i,), (j,), L, interior)
    return _result_from_per_length(per[:, 0, 0])


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
    w = _instance(g, _GRAPHS, "g", ParamOutOfBound).weights
    dim = w.shape[0]
    i = _check_node(i, dim, "i")
    j = _check_node(j, dim, "j")
    interior = _interior_indices(dim, {i, j}, avoid, within)
    what = f"1 - R restricted to {interior.size} interior nodes"
    tail = _paths_through(w, sorted({i, j}), interior, SingularRestrictedBlock, what)
    return float(w[i, j] + tail[0, -1])


def _rho_hat(g, i: int, j: int, L: int, length_name: str) -> tuple:
    """Truncated estimates rho_hat(l) for l = 1..L of the checked pair i != j.

    Checks the length L (named ``length_name`` in the error), then sums
    the ij*-paths and the closed loops at i and at j, each avoiding the
    other endpoint, length by length in ascending order: all three are
    entries of one two-row propagation over the interior.  Returns
    (rho_hat, l_i, l_j) as arrays over l = 1..L, the last two the
    cumulative loop sums.  A row whose loop sum reaches
    ``1 - DENOM_GUARD``, or whose sums overflow, has no meaning and
    reads NaN.  All three sums run over powers of R on the interior, so
    on a plain graph whose interior block has spectral radius >= 1 any
    such row means divergence (:class:`SpectralRadiusTooLarge`); that
    radius is computed only then.  By interlacing it is at most nu(R),
    and below 1 on every rescaled graph.  Elsewhere only a NaN at L
    itself is refused (:class:`DenominatorNonPositive`).
    """
    w = g.weights
    L = _check_length(L, length_name)
    interior = _interior_indices(w.shape[0], {i, j}, (), None)
    with np.errstate(over="ignore", invalid="ignore"):  # a divergent series overflows
        cum = np.cumsum(_per_length_restricted(w, (i, j), (i, j), L, interior), axis=0)
        num, li, lj = cum[:, 0, 1], cum[:, 0, 0], cum[:, 1, 1]
        denom = (1.0 - li) * (1.0 - lj)
    # Both loop sums below 1 and a finite product: both loop sums are finite.
    ok = np.isfinite(num) & np.isfinite(denom) & (li < 1.0 - DENOM_GUARD) & (lj < 1.0 - DENOM_GUARD)
    if not ok.all() and isinstance(g, PartialCorrelationGraph):
        lo, hi = _spectrum_ends(w[np.ix_(interior, interior)])
        nu = max(hi, -lo)
        if nu >= 1.0:
            raise SpectralRadiusTooLarge(
                f"R off the pair has spectral radius {nu:.6g} >= 1: "
                "the truncated series diverges; rescale the graph"
            )
    if not ok[-1]:
        name, worst = ("i", li[-1]) if li[-1] >= lj[-1] else ("j", lj[-1])
        raise DenominatorNonPositive(
            f"truncated loop sum at L={L} reaches {worst:.6g} >= 1 at node {name}; increase L"
        )
    rho = np.full(L, np.nan)
    rho[ok] = num[ok] / np.sqrt(denom[ok])
    return rho, li, lj


def marginal_corr_expansion(g, i: int, j: int, L: int) -> float:
    """Marginal correlation estimate from paths of length at most L.

    Numerator and both loop sums are truncated at the same L, and
    refused as :func:`_rho_hat` says: once a loop sum up to L reaches 1
    where the pair's series diverges, else where one at L does.  Equal,
    bit for bit, to the last row of :func:`convergence_profile` up to
    L, which is refused exactly where this is.
    """
    i, j = _check_pair(i, j, _instance(g, _GRAPHS, "g", ParamOutOfBound).dim)
    return float(_rho_hat(g, i, j, L, "truncation length")[0][-1])


def marginal_corr_closed(g, i: int, j: int) -> float:
    """Marginal correlation from exact star and loop sums.

    The star-path form s_ij / sqrt((1 - l_i)(1 - l_j)), with every sum
    replaced by its closed value (:func:`star_path_sum_closed`), is
    entry ij of the oracle matrix P, and that entry is what this
    returns: P is cached on the base graph and shared by every
    admissible q, since q (1 - R(q))^-1 = (1 - R)^-1.  After the first
    call on a graph each pair costs O(1); an ill-conditioned 1 - R
    raises the oracle's :class:`IllConditionedWarning` here too, at the
    caller's line.
    """
    i, j = _check_pair(i, j, _instance(g, _GRAPHS, "g", ParamOutOfBound).dim)
    return float(_checked_inverse(_base(g)).entries[i, j])


def rescale(g: PartialCorrelationGraph, q: float | None = None) -> RescaledGraph:
    """Rescaled graph with edges q r_ij and self-loops 1 - q.

    With q omitted, 0.95 of the admissible upper bound 2 / (1 + nu(R))
    is used; values must lie strictly inside (0, bound).  Expanded
    correlations are independent of the choice.
    """
    base = _base(_instance(g, _GRAPHS, "g", ParamOutOfBound))
    if q is None:
        q = Q_DEFAULT_FRACTION * _q_bound(base._nu)
    return RescaledGraph(base=base, q=q)


def convergence_profile(g, i: int, j: int, L_max: int) -> tuple:
    """Truncated estimates rho_hat(L) for L = 1..L_max with oracle gaps.

    Per-length sums are accumulated once, so the whole profile costs as
    much as the single longest truncation.  The gap column compares
    against the matrix-inversion oracle of the (base) graph.  Rows that
    :func:`_rho_hat` leaves undefined read NaN in both columns.
    """
    i, j = _check_pair(i, j, _instance(g, _GRAPHS, "g", ParamOutOfBound).dim)
    rho = _rho_hat(g, i, j, L_max, "L_max")[0]
    oracle = float(_checked_inverse(_base(g)).entries[i, j])
    return tuple(
        ProfilePoint(L=L, rho_hat=float(r), abs_gap=abs(float(r) - oracle))
        for L, r in enumerate(rho, start=1)
    )
