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

Marginalising a set S acts on M = 1 - R as the Schur complement
M' = M_TT - M_TS M_SS^-1 M_ST, from which r'_ij = -M'_ij /
sqrt(M'_ii M'_jj).  Equivalently, and available here as a cross-check
mode, the new coupling collects the paths routed through S:

    r'_ij = (r_ij + p_iSj) / sqrt((1 - p_iSi)(1 - p_jSj)),

with p_iSj the closed-form star sum over paths whose interiors stay in
S.  A node k is separating when every path between two parts of the
network passes through it; marginal correlations then factorise,
rho_ij = rho_ik rho_kj, across the split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DenominatorNonPositive,
    DimensionMismatch,
    EmptyRemainder,
    IndexOutOfRange,
    SingularBlock,
    _whole,
)
from .matrices import (
    PartialCorrelationGraph,
    _cho,
    _precision_graph,
    _spd_solve,
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
    "NodePartition",
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
class NodePartition:
    """A split of the node set into kept and removed parts.

    ``separator``, when present, is a single node belonging to neither
    side.  The three pieces must be disjoint and cover 0..dim-1.
    """

    dim: int
    kept: frozenset
    removed: frozenset
    separator: int | None = None

    def __post_init__(self):
        dim = _whole(self.dim, "dim", IndexOutOfRange, 0)

        def node(v):
            return _whole(v, "node", IndexOutOfRange, 0, dim - 1)

        kept = frozenset(map(node, self.kept))
        removed = frozenset(map(node, self.removed))
        sep = None if self.separator is None else node(self.separator)
        checked = {"dim": dim, "kept": kept, "removed": removed, "separator": sep}
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        pieces = kept | removed
        extra = {sep} if sep is not None else set()
        if kept & removed or (pieces & extra):
            raise IndexOutOfRange("partition pieces overlap")
        if pieces | extra != set(range(dim)):
            raise IndexOutOfRange(f"partition does not cover 0..{dim - 1} exactly")

    @classmethod
    def from_removed(cls, dim: int, removed) -> "NodePartition":
        removed = frozenset(removed)
        kept = frozenset(range(_whole(dim, "dim", IndexOutOfRange, 0))) - removed
        return cls(dim=dim, kept=kept, removed=removed)


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
    eliminated; columns follow ascending node index within each side.
    ``singular_values`` are the singular values of the coupling block
    R[S, T], with mu set by its numerical rank (the coupling strength
    of latent u scales with their square roots).  ``enlarged_graph`` is
    the intermediate network on S + T + latents (marginalising the
    latents out of it reproduces the original exactly);
    ``reduced_graph`` is the final network on T + latents, ordered kept
    nodes first.
    """

    kept: tuple
    latent_count: int
    a_tilde: np.ndarray
    b_tilde: np.ndarray
    singular_values: tuple
    reduced_graph: PartialCorrelationGraph
    enlarged_graph: PartialCorrelationGraph


def _split(g: PartialCorrelationGraph, S) -> tuple:
    """Sorted (kept, removed) index lists; the kept side must be nonempty."""
    part = NodePartition.from_removed(g.dim, S)
    if not part.kept:
        raise EmptyRemainder("removing every node leaves nothing to keep")
    return sorted(part.kept), sorted(part.removed)


def sever_nodes(g: PartialCorrelationGraph, S) -> PartialCorrelationGraph:
    """Delete the nodes in S and every link touching them.

    The remaining nodes keep their partial correlations verbatim; their
    marginal correlations, recomputed on the smaller graph, in general
    shrink because all paths routed through S are gone.
    """
    kept, removed = _split(g, S)
    if not removed:
        return g
    w = g.weights[np.ix_(kept, kept)]
    scale = g.scale[kept] if g.scale is not None else None
    labels = tuple(g.node_labels[v] for v in kept) if g.labels is not None else None
    return PartialCorrelationGraph(w, scale=scale, labels=labels)


def marginalize_nodes(
    g: PartialCorrelationGraph, S, method: str = "block"
) -> PartialCorrelationGraph:
    """Integrate the nodes in S out of the network.

    The kept nodes' marginal correlations are exactly preserved; their
    partial correlations change, absorbing every path through S.  With
    ``method="block"`` (the default) the Schur complement of M = 1 - R
    is used; ``method="paths"`` routes each pair through the closed
    star and loop sums restricted to S and exists as an independent
    cross-check, it is slower and numerically equivalent.

    Node scales, when present, are updated so that the reduced
    precision matrix is exactly the Schur complement of the original.
    """
    if method not in ("block", "paths"):
        raise ValueError(f"unknown method {method!r}")
    kept, removed = _split(g, S)
    if not removed:
        return g
    if method == "paths":
        return _marginalize_by_paths(g, kept, removed)
    m = np.eye(g.dim) - g.weights
    m_ss = m[np.ix_(removed, removed)]
    m_ts = m[np.ix_(kept, removed)]
    m_tt = m[np.ix_(kept, kept)]
    m_red = m_tt - m_ts @ _spd_solve(m_ss, m_ts.T, SingularBlock, _ELIMINATED)
    m_red = (m_red + m_red.T) / 2.0
    d_red = np.diag(m_red).copy()
    r_new = -m_red / np.sqrt(np.outer(d_red, d_red))
    np.fill_diagonal(r_new, 0.0)
    scale = g.scale[kept] * np.sqrt(d_red) if g.scale is not None else None
    labels = tuple(g.node_labels[v] for v in kept) if g.labels is not None else None
    return PartialCorrelationGraph(r_new, scale=scale, labels=labels)


def _marginalize_by_paths(g, kept, removed) -> PartialCorrelationGraph:
    # Import here: pathsum already imports matrices, keep the module
    # graph acyclic at import time.
    from .pathsum import star_path_sum_closed

    n = len(kept)
    loops = np.array(
        [star_path_sum_closed(g, v, v, within=removed) for v in kept]
    )
    if np.any(loops >= 1.0):
        raise DenominatorNonPositive(
            "a loop sum through the removed set reaches 1"
        )
    r_new = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            i, j = kept[a], kept[b]
            # The closed star sum already contains the direct link.
            p_ab = star_path_sum_closed(g, i, j, within=removed)
            r_new[a, b] = p_ab / np.sqrt((1.0 - loops[a]) * (1.0 - loops[b]))
            r_new[b, a] = r_new[a, b]
    scale = g.scale[kept] * np.sqrt(1.0 - loops) if g.scale is not None else None
    labels = tuple(g.node_labels[v] for v in kept) if g.labels is not None else None
    return PartialCorrelationGraph(r_new, scale=scale, labels=labels)


def _separator_splits(adj: np.ndarray) -> dict:
    """Components left behind by each separating node, from one DFS.

    Maps every separating node k of the nonzero pattern ``adj`` to the
    connected components of the pattern without k: sorted node lists,
    ordered by their smallest node.  One iterative depth-first search
    over all components (Tarjan 1972) numbers the nodes in discovery
    order and tracks low(v), the smallest discovery number reachable
    from v's subtree through one non-tree edge.  The subtree of a child
    c of k splits off when low(c) >= disc(k); what is left of k's
    component forms one more piece.  A search root has no such rest
    and separates only with two or more children.
    """
    d = adj.shape[0]
    nbrs = [np.flatnonzero(row).tolist() for row in adj]
    disc = [-1] * d
    low = [0] * d
    size = [1] * d
    tree_of = [0] * d
    order = []
    trees = []
    cuts: dict = {}
    for root in range(d):
        if disc[root] >= 0:
            continue
        start = len(order)
        disc[root] = low[root] = start
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
                    size[parent] += size[v]
                    if low[v] >= disc[parent]:
                        cuts.setdefault(parent, []).append(v)
        if len(cuts.get(root, ())) < 2:
            cuts.pop(root, None)
        for v in order[start:]:
            tree_of[v] = len(trees)
        trees.append(sorted(order[start:]))
    splits = {}
    for k, children in cuts.items():
        t = tree_of[k]
        pieces = [sorted(order[disc[c] : disc[c] + size[c]]) for c in children]
        cut = {v for piece in pieces for v in piece}
        cut.add(k)
        rest = [v for v in trees[t] if v not in cut]
        if rest:
            pieces.append(rest)
        others = trees[:t] + trees[t + 1 :]
        splits[k] = sorted(others + pieces, key=lambda comp: comp[0])
    return splits


def _residual(p: np.ndarray, k: int, I: list, J: list) -> float:
    """max |rho_ij - rho_ik rho_kj| over i in I, j in J, from P = p."""
    return float(np.max(np.abs(p[np.ix_(I, J)] - np.outer(p[I, k], p[k, J]))))


def factorisation_residual(g: PartialCorrelationGraph, k: int, I, J) -> float:
    """Largest deviation of rho_ij from rho_ik rho_kj across a split.

    I and J must be disjoint, nonempty, and avoid k.  A residual below
    :data:`TOL_FACT` certifies that k screens I from J; testing every
    bipartition of the remaining nodes gives the converse direction.
    """
    k = _whole(k, "k", IndexOutOfRange, 0, g.dim - 1)
    I = sorted(_whole(v, "node of I", IndexOutOfRange, 0, g.dim - 1) for v in I)
    J = sorted(_whole(v, "node of J", IndexOutOfRange, 0, g.dim - 1) for v in J)
    if not I or not J:
        raise IndexOutOfRange("both sides of the split must be nonempty")
    if set(I) & set(J) or k in set(I) | set(J):
        raise IndexOutOfRange("split sides must be disjoint and avoid k")
    return _residual(partial_to_marginal_oracle(g).entries, k, I, J)


def detect_separating_nodes(g: PartialCorrelationGraph) -> tuple:
    """All nodes whose removal disconnects part of the network.

    A node is reported when removing it increases the number of
    connected components of the coupling pattern.  One depth-first
    search over the whole pattern finds these nodes (the articulation
    points) and the pieces each one leaves.  Each report carries the
    induced two-way split and the factorisation residual over every
    pair the node separates; for an exactly separating node the
    residual vanishes up to roundoff (compare against
    :data:`TOL_FACT`), and conversely a node that leaves the pattern
    connected admits no low-residual split at all, so the structural
    and the numerical criterion single out the same nodes.
    Disconnected inputs are handled per component.
    """
    splits = _separator_splits(g.weights != 0.0)
    p = partial_to_marginal_oracle(g).entries
    reports = []
    for k in sorted(splits):
        comps = splits[k]
        # Residual over every pair split by k.
        residual = 0.0
        for ci in range(len(comps)):
            for cj in range(ci + 1, len(comps)):
                residual = max(residual, _residual(p, k, comps[ci], comps[cj]))
        first = comps[0]
        rest = sorted(v for comp in comps[1:] for v in comp)
        reports.append(
            SeparatorReport(
                node=k,
                components=(frozenset(first), frozenset(rest)),
                factorisation_residual=residual,
            )
        )
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
    among the kept nodes.  The latent-to-kept couplings of the reduced
    network are recomputed from the Schur complement, not copied from
    b~.

    Sign conventions: each singular vector pair is flipped so its
    largest-magnitude entry on the removed side is positive, and
    likewise each latent column of the reduced coupling; any such
    choice describes the same distribution.
    """
    kept, removed = _split(g, S)
    n_t, n_s = len(kept), len(removed)
    w = g.weights
    q = w[np.ix_(removed, kept)]

    u, s, vt = np.linalg.svd(q, full_matrices=False)
    smax = float(s[0]) if s.size else 0.0
    mu = int(np.sum(s >= RANK_RTOL * smax)) if smax > 0.0 else 0
    s = s[:mu]
    u = u[:, :mu]
    vt = vt[:mu, :]
    for col in range(mu):
        pivot = int(np.argmax(np.abs(u[:, col])))
        if u[pivot, col] < 0.0:
            u[:, col] = -u[:, col]
            vt[col, :] = -vt[col, :]
    sigma = np.sqrt(s)

    # Latent loading of every original node, in original node order.
    load = np.zeros((g.dim, mu))
    load[removed, :] = u * sigma
    load[kept, :] = vt.T * sigma

    lam = g.scale if g.scale is not None else np.ones(g.dim)
    latent_labels = _fresh_latent_labels(g.node_labels, mu)

    m = np.eye(g.dim) - w
    omega_top = np.outer(lam, lam) * m + (lam[:, None] * load) @ (lam[:, None] * load).T
    enlarged = np.block(
        [[omega_top, -lam[:, None] * load], [-(lam[:, None] * load).T, np.eye(mu)]]
    )
    enlarged_graph = _precision_graph(enlarged, g.node_labels + latent_labels)

    con = load / np.sqrt(1.0 + np.sum(load * load, axis=1))[:, None]
    a_tilde = con[removed, :].T.copy()
    b_tilde = con[kept, :].T.copy()

    # Reduced coupling V with V V^T = Q^T (1 - R_SS)^-1 Q, from the SVD
    # of the whitened block; only the leading mu directions are kept.
    if mu > 0:
        m_ss = m[np.ix_(removed, removed)]
        chol, _ = _cho(m_ss, SingularBlock, _ELIMINATED)
        b_white = scipy.linalg.solve_triangular(chol, q, lower=True)
        _, eta, zt = np.linalg.svd(b_white, full_matrices=False)
        v_cols = zt[:mu, :].T * eta[:mu]
        for col in range(mu):
            pivot = int(np.argmax(np.abs(v_cols[:, col])))
            if v_cols[pivot, col] < 0.0:
                v_cols[:, col] = -v_cols[:, col]
    else:
        v_cols = np.zeros((n_t, 0))

    lam_t = lam[kept]
    m_tt = m[np.ix_(kept, kept)]
    reduced = np.block(
        [
            [np.outer(lam_t, lam_t) * m_tt, -lam_t[:, None] * v_cols],
            [-(lam_t[:, None] * v_cols).T, np.eye(mu)],
        ]
    )
    kept_labels = tuple(g.node_labels[v] for v in kept)
    reduced_graph = _precision_graph(reduced, kept_labels + latent_labels)

    a_tilde.setflags(write=False)
    b_tilde.setflags(write=False)
    return LatentReduction(
        kept=tuple(kept),
        latent_count=mu,
        a_tilde=a_tilde,
        b_tilde=b_tilde,
        singular_values=tuple(float(x) for x in s),
        reduced_graph=reduced_graph,
        enlarged_graph=enlarged_graph,
    )


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
    kept = list(reduction.kept)
    n_t = len(kept)
    if any(not 0 <= v < g.dim for v in kept):
        raise DimensionMismatch("kept nodes do not fit the original graph")
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
