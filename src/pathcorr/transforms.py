"""Structural alterations of a coupling graph.

Three ways of taking nodes out of a network, with sharply different
meanings, plus the detection of nodes that screen one part of the
network from another:

- severance deletes nodes and their links, leaving the remaining
  partial correlations untouched (the remaining marginal correlations
  change);
- marginalisation integrates nodes out, leaving every remaining
  marginal correlation untouched while the partial correlations absorb
  all paths through the removed set;
- latent reduction replaces a removed set by the minimal number of
  latent nodes that reproduce, on the kept set, both the partial and
  the marginal correlations of the original network.

Marginalising a set S collects the paths routed through S:

    r'_ij = (r_ij + p_iSj) / sqrt((1 - p_iSi)(1 - p_jSj)),

with p_iSj the closed star sum over paths whose interiors stay in S and
p_iSi the loop sum at i.  Both method names compute these closed sums;
1 - R_TT less them is the Schur complement of M = 1 - R on the kept set
T.  A node k is separating when every path between two parts of the
network passes through it; marginal correlations then factorise,
rho_ij = rho_ik rho_kj, across the split.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DenominatorNonPositive,
    DimensionMismatch,
    EmptyRemainder,
    IndexOutOfRange,
    ParamOutOfBound,
    SingularBlock,
    _instance,
    _node_list,
    _nodes,
    _parts,
    _whole,
)
from .matrices import (
    PartialCorrelationGraph,
    _by_outer,
    _keep,
    _one_minus,
    _paths_through,
    _precision_graph,
    _whitened,
    partial_to_marginal_oracle,
)

# Singular values below this fraction of the largest do not count
# toward the latent rank.
RANK_RTOL = 1e-10

# Residual below which the factorisation criterion calls a node
# separating.
TOL_FACT = 1e-9

_ELIMINATED = "the eliminated block (1 - R)[S, S]"

__all__ = [
    "RANK_RTOL",
    "TOL_FACT",
    "SeparatorReport",
    "LatentReduction",
    "ReductionResidual",
    "sever_nodes",
    "marginalize_nodes",
    "detect_separating_nodes",
    "factorisation_residual",
    "latent_reduce",
    "verify_reduction",
]


@dataclass(frozen=True)
class SeparatorReport:
    """One separating node with the split it induces.

    ``components`` is the two-way partition (I, J) of the remaining
    nodes; ``factorisation_residual`` is the largest deviation of
    rho_ij from rho_ik rho_kj over pairs that the node separates (all
    cross-component pairs, not only those straddling I and J, when the
    removal leaves more than two components).
    """

    node: int
    components: tuple
    factorisation_residual: float


@dataclass(frozen=True)
class ReductionResidual:
    """Deviations of a reduced model from the original on the kept set."""

    partial_residual: float
    marginal_residual: float


@dataclass(frozen=True)
class LatentReduction:
    """A removed node set replaced by rank-many latent nodes.

    ``a_tilde`` (shape mu x |S|) and ``b_tilde`` (mu x |T|) are the
    partial correlations connecting each latent Y_u to the removed and
    kept nodes in the enlarged network, before the removed set is
    eliminated; columns follow ascending node index within each side (the
    enlarged graph's latent columns, bit for bit).
    ``singular_values`` are the singular values of the coupling block
    R[S, T], with mu set by its numerical rank (the coupling strength
    of latent u scales with their square roots).  ``reduced_graph`` is
    the final network on T + latents, ordered kept nodes first, with
    weights [[R_TT, V], [V^T, 0]], V V^T = Q^T (1 - R_SS)^-1 Q, Q = R[S, T].
    ``enlarged_graph`` is the intermediate network on S + T + latents
    (marginalising the latents out of it reproduces the original
    exactly); nothing the reduction itself needs reads it, so it is
    built and checked on first read, from the original graph's arrays
    and the latent loading, and cached.
    """

    kept: tuple
    latent_count: int
    a_tilde: np.ndarray
    b_tilde: np.ndarray
    singular_values: tuple
    reduced_graph: PartialCorrelationGraph
    # What the enlarged network is built from: the original graph and the
    # latent loading of each of its nodes (d x mu, in node order).
    _source: PartialCorrelationGraph = field(repr=False, compare=False)
    _load: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def enlarged_graph(self) -> PartialCorrelationGraph:
        g, load = self._source, self._load
        d, mu = g.dim, self.latent_count
        # The weights [[(R - load load^T) / (c c^T), load / c], [(load / c)^T, 0]], zero on
        # the diagonal, in the one array the graph keeps; load / c is latent_reduce's a~, b~.
        c = np.sqrt(1.0 + np.sum(load * load, axis=1))
        enlarged = np.zeros((d + mu, d + mu))
        top = np.matmul(load, load.T, out=enlarged[:d, :d])
        _by_outer(np.divide, np.subtract(g.weights, top, out=top), c, top)
        np.fill_diagonal(top, 0.0)
        enlarged[d:, :d] = np.divide(load, c[:, None], out=enlarged[:d, d:]).T
        scale = np.concatenate([c if g.scale is None else g.scale * c, np.ones(mu)])
        latent_labels = self.reduced_graph.labels[len(self.kept):]
        return PartialCorrelationGraph._computed(enlarged, g.labels + latent_labels, scale=scale)


def _split(g: PartialCorrelationGraph, S) -> tuple:
    """Sorted (kept, removed) index lists; the kept side must be nonempty."""
    removed = _nodes(S, g.dim, "removed", IndexOutOfRange)
    if len(removed) == g.dim:
        raise EmptyRemainder("removing every node leaves nothing to keep")
    return sorted(set(range(g.dim)).difference(removed)), list(removed)


def _kept_nodes(g: PartialCorrelationGraph, kept: list) -> tuple:
    """Labels and scale of the nodes ``kept``; the scale None when g has none."""
    return tuple(g.labels[v] for v in kept), (g.scale[kept] if g.scale is not None else None)


def sever_nodes(g: PartialCorrelationGraph, S) -> PartialCorrelationGraph:
    """Delete the nodes in S and every link touching them.

    The remaining nodes keep their partial correlations verbatim; their
    marginal correlations, recomputed on the smaller graph, in general
    shrink because all paths routed through S are gone.
    """
    kept, removed = _split(_instance(g, PartialCorrelationGraph, "g", ParamOutOfBound), S)
    if not removed:
        return g
    labels, scale = _kept_nodes(g, kept)
    # A principal block of a checked graph: only the constructor's tail runs.
    return PartialCorrelationGraph._computed(g.weights[np.ix_(kept, kept)], labels, scale=scale)


def marginalize_nodes(
    g: PartialCorrelationGraph, S, method: str = "block"
) -> PartialCorrelationGraph:
    """Integrate the nodes in S out of the network.

    The kept nodes' marginal correlations are exactly preserved; their
    partial correlations change, absorbing every path through S.  Both
    methods, "block" (the default) and "paths", read the graph off
    M' = 1 - P, P the closed star sums (direct link included) and loop
    sums through S: the Schur complement of M = 1 - R on the kept nodes.

    Node scales, when present, are updated so that the reduced
    precision matrix is exactly the Schur complement of the original.
    """
    if method not in ("block", "paths"):
        raise ParamOutOfBound(f"method must be 'block' or 'paths', got {method!r}")
    kept, removed = _split(_instance(g, PartialCorrelationGraph, "g", ParamOutOfBound), S)
    if not removed:
        return g
    # The paths first, so the factor and solve behind them are freed
    # before 1 - R_TT is formed, in place of its own index copy.
    paths = _paths_through(g.weights, kept, removed, SingularBlock, _ELIMINATED)
    m_tt = g.weights[np.ix_(kept, kept)]
    m_red = np.subtract(_one_minus(m_tt, out=m_tt), paths, out=paths)
    if np.any(np.diag(m_red) <= 0.0):
        raise DenominatorNonPositive("a loop sum through the removed set reaches 1")
    return _precision_graph(m_red, *_kept_nodes(g, kept))


def _separator_splits(adj: np.ndarray) -> tuple:
    """Separating nodes and the ranges they cut, as positions of one DFS.

    Returns (order, cuts, spans).  One iterative depth-first search over
    all components of the nonzero pattern ``adj`` (Tarjan 1972), each
    started at its smallest node, lists the nodes in discovery order,
    ``order``, and tracks low(v), the smallest discovery number
    reachable from v's subtree through one non-tree edge.  In that order
    every component and every subtree is one contiguous range of
    positions: ``spans`` holds each component's (lo, hi), ascending.
    The subtree of a child c of k splits off when low(c) >= disc(k);
    ``cuts`` maps the position of every separating node k to the (a, b)
    ranges of the subtrees it cuts off, ascending.  What is left of k's
    component, order[lo:hi] less k and those ranges, forms one more
    piece when nonempty.  A search root has no such rest and separates
    only with two or more children.
    """
    d = adj.shape[0]
    nbrs = [np.flatnonzero(row).tolist() for row in adj]
    disc = [-1] * d
    low = [0] * d
    order = []
    spans = []
    cuts: dict = {}
    for root in range(d):
        if disc[root] >= 0:
            continue
        lo = len(order)
        disc[root] = low[root] = lo
        order.append(root)
        stack = [(root, -1, iter(nbrs[root]))]
        while stack:
            v, parent, it = stack[-1]
            for u in it:
                if disc[u] < 0:
                    disc[u] = low[u] = len(order)
                    order.append(u)
                    stack.append((u, v, iter(nbrs[u])))
                    break
                if u != parent:
                    low[v] = min(low[v], disc[u])
            else:
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        # v's subtree is everything discovered since v.
                        cuts.setdefault(disc[parent], []).append((disc[v], len(order)))
        if len(cuts.get(lo, ())) < 2:
            cuts.pop(lo, None)
        spans.append((lo, len(order)))
    return order, cuts, spans


def _cut_residual(q: np.ndarray, s: int, a: int, b: int, lo: int, hi: int) -> float:
    """max |rho_ij - rho_ik rho_kj| from q = P in DFS order, k at position s:
    i over positions a:b, j over lo:hi outside a:b and s."""
    rows = q[a:b]
    worst = 0.0
    for c0, c1 in ((lo, s), (s + 1, a), (b, hi)):
        if c0 < c1:
            block = np.outer(rows[:, s], q[s, c0:c1])
            np.subtract(rows[:, c0:c1], block, out=block)
            worst = max(worst, float(np.max(np.abs(block, out=block))))
    return worst


def factorisation_residual(g: PartialCorrelationGraph, k: int, I, J) -> float:
    """Largest deviation of rho_ij from rho_ik rho_kj across a split.

    I and J must be disjoint, nonempty, and avoid k.  A residual below
    :data:`TOL_FACT` certifies that k screens I from J; testing every
    bipartition of the remaining nodes gives the converse direction.
    """
    g = _instance(g, PartialCorrelationGraph, "g", ParamOutOfBound)
    k = _whole(k, "k", IndexOutOfRange, 0, g.dim - 1)
    I, J, _ = _parts(g.dim, IndexOutOfRange, I=I, J=J, k=(k,))
    if not I or not J:
        raise IndexOutOfRange("both sides of the split must be nonempty")
    p = partial_to_marginal_oracle(g).entries
    block = p[np.ix_(I, J)]
    block -= np.outer(p[I, k], p[k, J])
    return float(np.max(np.abs(block, out=block)))


def detect_separating_nodes(g: PartialCorrelationGraph) -> tuple:
    """All nodes whose removal disconnects part of the network.

    A node is reported when removing it increases the number of
    connected components of the coupling pattern.  One depth-first
    search over the whole pattern finds these nodes (the articulation
    points) and, as ranges of its discovery order, the pieces each one
    leaves.  Each report carries the induced two-way split and the
    factorisation residual over every pair the node separates; for an
    exactly separating node the residual vanishes up to roundoff
    (compare against :data:`TOL_FACT`), and conversely a node that
    leaves the pattern connected admits no low-residual split at all,
    so the structural and the numerical criterion single out the same
    nodes.  Disconnected inputs are handled per component.

    P is copied once with rows and columns in discovery order, so every
    residual block is a plain slice of that copy: the rows of one cut
    subtree against the rest of its component.
    """
    g = _instance(g, PartialCorrelationGraph, "g", ParamOutOfBound)
    order, cuts, spans = _separator_splits(g.weights != 0.0)
    starts = [lo for lo, _ in spans]

    def span(t: int) -> tuple:
        return spans[bisect.bisect_right(starts, t) - 1]

    # P is exactly 0 between components, so only pairs split inside k's
    # own component count, and each such pair has an end in a subtree
    # that k cuts off.  The copy is freed before the reports are built.
    p = partial_to_marginal_oracle(g).entries
    q = p[np.ix_(order, order)]
    residual = {
        s: max(_cut_residual(q, s, a, b, *span(s)) for a, b in ranges)
        for s, ranges in cuts.items()
    }
    del q

    everyone = frozenset(range(g.dim))
    reports = []
    for s in sorted(cuts, key=order.__getitem__):
        k = order[s]
        lo, hi = span(s)
        # The first side is the piece, or the component, holding the
        # smallest node but k: its position t lies outside k's component,
        # in a cut subtree, or else in the rest, which holds k's root and
        # is lo:hi less s and the cut ranges.
        t = order.index(1) if k == 0 else 0
        if not lo <= t < hi:
            ranges = [span(t)]
        else:
            ranges = [(a, b) for a, b in cuts[s] if a <= t < b]
            if not ranges:
                bounds = [lo, s, s + 1, *itertools.chain.from_iterable(cuts[s]), hi]
                ranges = zip(bounds[::2], bounds[1::2])
        first = frozenset(itertools.chain.from_iterable(order[a:b] for a, b in ranges))
        reports.append(SeparatorReport(k, (first, everyone - first - {k}), residual[s]))
    return tuple(reports)


def latent_reduce(g: PartialCorrelationGraph, S) -> LatentReduction:
    """Replace the removed set S by the fewest latents preserving T.

    The coupling block Q = R[S, T] is factored by singular value
    decomposition; its numerical rank mu fixes the number of latent
    nodes.  The enlarged network adds the latents on top of all
    original nodes with partial correlations

        a~_u(i) = sigma_u a_u(i) / sqrt(1 + sum_v sigma_v^2 a_v(i)^2)

    to the removed side (b~ analogously to the kept side, sigma_u^2 the
    singular values), chosen so that marginalising the latents out
    reproduces the original network exactly.  Eliminating S then yields
    the reduced network on T + latents; it preserves, exactly up to
    rank truncation, both the partial and the marginal correlations
    among the kept nodes.  Both graphs are written from their weights:
    the reduced one is [[R_TT, V], [V^T, 0]], V V^T = Q^T (1 - R_SS)^-1 Q
    from the Schur complement, not b~; the enlarged one couples i and j
    by (r_ij - sum_u l_iu l_ju) / (c_i c_j), l_iu = sigma_u a_u(i), c_i the
    root above, and its latent columns are a~ and b~, bit for bit.

    Sign conventions: each singular vector pair is flipped so its
    largest-magnitude entry on the removed side is positive, and
    likewise each latent column of the reduced coupling; any such
    choice describes the same distribution.
    """
    kept, removed = _split(_instance(g, PartialCorrelationGraph, "g", ParamOutOfBound), S)
    n_t = len(kept)
    # In a helper, so its SVD temporaries are freed before the graph is built.
    s, load, v_cols = _latent_factors(g.weights, removed, kept)
    mu = len(s)

    kept_labels, lam_t = _kept_nodes(g, kept)
    # The weights [[R_TT, V], [V^T, 0]] in the one array the reduced graph keeps.
    reduced = np.zeros((n_t + mu, n_t + mu))
    reduced[:n_t, :n_t] = g.weights[np.ix_(kept, kept)]
    reduced[:n_t, n_t:] = v_cols
    reduced[n_t:, :n_t] = v_cols.T
    scale = np.concatenate([np.ones(n_t) if lam_t is None else lam_t, np.ones(mu)])
    reduced_graph = PartialCorrelationGraph._computed(
        reduced, kept_labels + _fresh_latent_labels(g.labels, mu), scale=scale)

    con = load / np.sqrt(1.0 + np.sum(load * load, axis=1))[:, None]
    return LatentReduction(
        kept=tuple(kept),
        latent_count=mu,
        a_tilde=_keep(con[removed, :].T),
        b_tilde=_keep(con[kept, :].T),
        singular_values=tuple(float(x) for x in s),
        reduced_graph=reduced_graph,
        _source=g,
        _load=_keep(load),
    )


def _latent_factors(w: np.ndarray, removed: list, kept: list) -> tuple:
    """(s, load, V) for the coupling block Q = R[S, T]: its mu leading
    singular values, the latent loading of every node (d x mu, in node
    order) and the reduced coupling V (|T| x mu)."""
    q = w[np.ix_(removed, kept)]
    u, s, vt = np.linalg.svd(q, full_matrices=False)
    smax = float(s[0]) if s.size else 0.0
    mu = int(np.sum(s >= RANK_RTOL * smax)) if smax > 0.0 else 0
    s, u, vt = s[:mu], u[:, :mu], vt[:mu, :]
    flip = _signs(u)
    u, vt = u * flip, vt * flip[:, None]
    sigma = np.sqrt(s)

    # Latent loading of every original node, in original node order.
    load = np.zeros((len(w), mu))
    load[removed, :] = u * sigma
    load[kept, :] = vt.T * sigma

    # Reduced coupling V with V V^T = Q^T (1 - R_SS)^-1 Q, from the SVD
    # of the whitened block; only the leading mu directions are kept.
    # Factorised before the graph is built, so a singular eliminated
    # block raises SingularBlock first.
    if mu > 0:
        b_white = _whitened(w, kept, removed, SingularBlock, _ELIMINATED)
        _, eta, zt = np.linalg.svd(b_white, full_matrices=False)
        v_cols = zt[:mu, :].T * eta[:mu]
        v_cols = v_cols * _signs(v_cols)
    else:
        v_cols = np.zeros((len(kept), 0))
    return s, load, v_cols


def _signs(cols: np.ndarray) -> np.ndarray:
    """+-1 per column, making its largest-magnitude entry (the first on a tie) positive."""
    if cols.size == 0:
        return np.ones(cols.shape[1])
    pivot = np.argmax(np.abs(cols), axis=0)
    return np.where(cols[pivot, np.arange(cols.shape[1])] < 0.0, -1.0, 1.0)


def _fresh_latent_labels(existing: tuple, mu: int) -> tuple:
    used = set(existing)
    out = []
    for k in range(mu):
        name = f"Y{k + 1}"
        while name in used:
            name += "_"
        used.add(name)
        out.append(name)
    return tuple(out)


def verify_reduction(g: PartialCorrelationGraph, reduction: LatentReduction) -> ReductionResidual:
    """Largest deviations of a reduction from the original on the kept set.

    Compares, entry by entry over kept-node pairs, the partial
    correlations and the oracle marginal correlations of the original
    and reduced networks.  The kept nodes occupy the leading positions
    of the reduced graph, in the order listed by ``reduction.kept``.
    """
    g = _instance(g, PartialCorrelationGraph, "g", ParamOutOfBound)
    reduction = _instance(reduction, LatentReduction, "reduction", ParamOutOfBound)
    kept = _node_list(reduction.kept, g.dim, "kept", DimensionMismatch)
    n_t = len(kept)
    if reduction.reduced_graph.dim != n_t + reduction.latent_count:
        raise DimensionMismatch(
            f"reduced graph has {reduction.reduced_graph.dim} nodes, "
            f"expected {n_t} kept + {reduction.latent_count} latents"
        )
    r_orig = g.weights[np.ix_(kept, kept)]
    r_red = reduction.reduced_graph.weights[:n_t, :n_t]
    partial = float(np.max(np.abs(r_orig - r_red))) if n_t else 0.0
    p_orig = partial_to_marginal_oracle(g).entries[np.ix_(kept, kept)]
    p_red = partial_to_marginal_oracle(reduction.reduced_graph).entries[:n_t, :n_t]
    marginal = float(np.max(np.abs(p_orig - p_red))) if n_t else 0.0
    return ReductionResidual(partial_residual=partial, marginal_residual=marginal)
