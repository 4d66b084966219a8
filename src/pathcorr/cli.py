"""Command-line front end: file conversion, expansions, and figure data.

Every subcommand is a thin dispatch onto the library modules; nothing
is recomputed here.  Matrix files use the JSON layout of
:mod:`pathcorr.fileio` (CSV input is accepted with an explicit
``--kind``).  Human-readable summaries go to stdout, data goes to the
files named by ``--out``.

Exit status: 0 on success, 1 on a domain error (the message names the
violated precondition; no stack traces), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import chains, fileio, gaussinfo, pathsum, sampling, transforms
from .errors import FileFormatError, PathcorrError, UndefinedAtZero
from .matrices import (
    CovarianceMatrix,
    PartialCorrelationGraph,
    cov_to_marginal,
    cov_to_precision,
    partial_to_marginal_oracle,
    partial_to_precision,
    precision_to_cov,
    precision_to_partial,
    spectral_report,
    validate_partial_graph,
)

__all__ = ["main", "build_parser"]

# Coupling grid for the amplification-factor figure.
FIG4_R_GRID = (0.1, 0.2, 0.3, 0.4, 0.47)

# The rescaling study runs on a complete 4-node graph with uniform
# negative couplings: nu(R) = 1.35, so plain truncation diverges.
FIG6_COUPLING = -0.45
FIG6_Q_FRACTIONS = (0.3, 0.6, 0.95)


def _nodes(g: PartialCorrelationGraph, text: str) -> list:
    """Node indices of a comma-separated list of labels."""
    labels = [part.strip() for part in text.split(",") if part.strip()]
    if not labels:
        raise FileFormatError(f"empty node list {text!r}")
    return [g.label_index(lbl) for lbl in labels]


def _load_any(path: str, kind: str | None):
    """(matrix object, provenance) from a JSON or CSV file."""
    if str(path).endswith(".csv"):
        if kind is None:
            raise FileFormatError(
                "CSV files carry no kind; pass --kind "
                f"{{{','.join(fileio.KINDS)}}} for {path}"
            )
        return fileio.load_csv_matrix(path, kind), None
    return fileio.load_matrix(path)


def _load_graph(args) -> PartialCorrelationGraph:
    obj, _ = _load_any(args.infile, getattr(args, "kind", None))
    return _convert(obj, "partial")


def _target_graph(g: PartialCorrelationGraph, q: float | None):
    return pathsum.rescale(g, q) if q is not None else g


def _convert(obj, to: str):
    """``obj`` as the kind ``to``: one last step per target kind, after
    converting to that step's input kind the same way."""
    kind = fileio.kind_of(obj)
    if kind == to:
        return obj
    if to == "marginal":
        if kind == "partial":
            return partial_to_marginal_oracle(obj)
        return cov_to_marginal(_convert(obj, "covariance"))
    if to == "covariance":
        if kind == "marginal":
            # A correlation matrix is the covariance of standardised
            # variables; conversion onward is exact under that reading.
            return CovarianceMatrix(obj.entries, labels=obj.labels)
        return precision_to_cov(_convert(obj, "precision"))
    if to == "precision":
        if kind == "partial":
            return partial_to_precision(obj)
        return cov_to_precision(_convert(obj, "covariance"))
    return precision_to_partial(_convert(obj, "precision"))


def _cmd_convert(args) -> int:
    obj, provenance = _load_any(args.infile, args.kind)
    out = _convert(obj, args.to)
    fileio.save_matrix(out, args.out, provenance=provenance)
    print(f"wrote {args.to} matrix ({out.dim} nodes) to {args.out}")
    return 0


def _cmd_expand(args) -> int:
    g = _load_graph(args)
    i = g.label_index(args.i)
    j = g.label_index(args.j)
    target = _target_graph(g, args.q)
    rho_hat = pathsum.marginal_corr_expansion(target, i, j, args.L)
    oracle = float(partial_to_marginal_oracle(g).entries[i, j])
    gap = abs(rho_hat - oracle)
    print(
        f"rho_hat({args.i}, {args.j}; L={args.L}"
        + (f", q={args.q:g}" if args.q is not None else "")
        + f") = {rho_hat:.10g}   oracle = {oracle:.10g}   gap = {gap:.3e}"
    )
    if args.out:
        doc = {
            "i": args.i,
            "j": args.j,
            "L": args.L,
            "q": args.q,
            "rho_hat": rho_hat,
            "oracle": oracle,
            "abs_gap": gap,
        }
        fileio.save_json(doc, args.out)
    return 0


def _cmd_profile(args) -> int:
    g = _load_graph(args)
    i = g.label_index(args.i)
    j = g.label_index(args.j)
    target = _target_graph(g, args.q)
    points = pathsum.convergence_profile(target, i, j, args.Lmax)
    fileio.save_csv_table(
        args.out,
        ["L", "rho_hat", "abs_gap"],
        [(p.L, p.rho_hat, p.abs_gap) for p in points],
    )
    last = points[-1]
    print(
        f"profile({args.i}, {args.j}) to L={args.Lmax}: "
        f"final gap {last.abs_gap:.3e}; wrote {args.out}"
    )
    return 0


def _cmd_sever(args) -> int:
    g = _load_graph(args)
    removed = _nodes(g, args.S)
    out = transforms.sever_nodes(g, removed)
    fileio.save_matrix(out, args.out)
    print(f"severed {len(removed)} node(s); kept {out.dim}; wrote {args.out}")
    return 0


def _cmd_marginalize(args) -> int:
    g = _load_graph(args)
    removed = _nodes(g, args.S)
    out = transforms.marginalize_nodes(g, removed, method=args.method)
    fileio.save_matrix(out, args.out)
    print(
        f"marginalised {len(removed)} node(s) by {args.method}; "
        f"kept {out.dim}; wrote {args.out}"
    )
    return 0


def _cmd_reduce(args) -> int:
    g = _load_graph(args)
    removed = _nodes(g, args.S)
    red = transforms.latent_reduce(g, removed)
    res = transforms.verify_reduction(g, red)
    fileio.save_matrix(red.reduced_graph, args.out)
    if args.out_enlarged:
        fileio.save_matrix(red.enlarged_graph, args.out_enlarged)
    sv = ", ".join(f"{s:.6g}" for s in red.singular_values)
    print(
        f"replaced {len(removed)} node(s) by {red.latent_count} latent(s); "
        f"singular values [{sv}]"
    )
    print(
        f"kept-set residuals: partial {res.partial_residual:.3e}, "
        f"marginal {res.marginal_residual:.3e}; wrote {args.out}"
    )
    return 0


def _cmd_separators(args) -> int:
    g = _load_graph(args)
    reports = transforms.detect_separating_nodes(g)
    labels = g.node_labels
    if not reports:
        print("no separating nodes")
    for rep in reports:
        first, second = rep.components
        note = "" if rep.factorisation_residual < args.tol else "  [residual above tol]"
        print(
            f"node {labels[rep.node]}: splits {len(first)}+{len(second)} nodes, "
            f"residual {rep.factorisation_residual:.3e}{note}"
        )
    if args.out:
        doc = [
            {
                "node": labels[rep.node],
                "components": [
                    sorted(labels[v] for v in rep.components[0]),
                    sorted(labels[v] for v in rep.components[1]),
                ],
                "residual": rep.factorisation_residual,
            }
            for rep in reports
        ]
        fileio.save_json(doc, args.out)
    return 0


def _cmd_chain(args) -> int:
    spec = chains.ChainSpec(d=args.d, r=args.r)
    if args.pairs == "all":
        if not args.out:
            raise FileFormatError("--pairs all writes a table; pass --out")
        rows = []
        for i in range(1, args.d + 1):
            for j in range(i + 1, args.d + 1):
                rows.append((i, j, chains.chain_pair_corr(spec, i, j)))
        fileio.save_csv_table(args.out, ["i", "j", "rho"], rows)
        print(f"wrote {len(rows)} chain pair correlations to {args.out}")
        return 0
    if args.gamma:
        if args.k is None or args.m is None:
            raise FileFormatError("--gamma needs --k and --m")
        gamma = chains.amplification_factor(args.k, args.m, args.r)
        print(f"gamma(k={args.k}, m={args.m}, r={args.r:g}) = {gamma:.10g}")
        return 0
    if args.i is not None or args.j is not None:
        if args.i is None or args.j is None:
            raise FileFormatError("pair mode needs both --i and --j")
        rho = chains.chain_pair_corr(spec, args.i, args.j)
        print(f"rho({args.i}, {args.j}) = {rho:.12g}")
        return 0
    try:
        xi = f"{chains.correlation_length(args.r):.10g}"
    except UndefinedAtZero:
        xi = "undefined (r = 0)"
    print(
        f"chain d={args.d}, r={args.r:g}: correlation length {xi}, "
        f"limiting loop sum {chains.l_infinity(args.r):.10g}"
    )
    return 0


def _cmd_mi(args) -> int:
    g = _load_graph(args)
    a = _nodes(g, args.A)
    b = _nodes(g, args.B)
    if args.Z is not None:
        z = _nodes(g, args.Z)
        part = gaussinfo.TriPartition(dim=g.dim, A=tuple(a), B=tuple(b), Z=tuple(z))
    else:
        part = gaussinfo.TriPartition.complement(g.dim, a, b)
    if args.method == "series":
        res = gaussinfo.conditional_mi_series(g, part, n_max=args.n_max, q=args.q)
    else:
        res = gaussinfo.conditional_mi_closed(g, part)
    bits = res.nats / math.log(2.0)
    terms = len(res.series_terms) if res.series_terms is not None else None
    print(
        f"I(A; B | Z) = {res.nats:.10g} nats = {bits:.10g} bits [{res.method}"
        + (f", {terms} terms]" if terms is not None else "]")
    )
    if args.out:
        doc = {"nats": res.nats, "bits": bits, "method": res.method}
        if terms is not None:
            doc["terms"] = terms
        fileio.save_json(doc, args.out)
    return 0


def _cmd_sample(args) -> int:
    spec = sampling.SampleSpec(d=args.d, n=args.n, seed=args.seed)
    result = sampling.sample_partial_graph(spec)
    provenance = {
        "kind": "sample",
        "generator": sampling.GENERATOR_ID,
        "d": args.d,
        "n": args.n,
        "seed": args.seed,
        "nu_R": result.spectral.nu_R,
        "regime": result.spectral.regime,
    }
    fileio.save_matrix(result.graph, args.out, provenance=provenance)
    if result.flagged:
        print(
            f"warning: nu(R) = {result.spectral.nu_R:.6g} >= 1; "
            "plain truncated expansion will not converge on this sample",
            file=sys.stderr,
        )
    print(
        f"sampled d={args.d}, n={args.n}, seed={args.seed}: "
        f"nu(R) = {result.spectral.nu_R:.6g} ({result.spectral.regime}); "
        f"wrote {args.out}"
    )
    return 0


def _fig4_rows(k: int, m_max: int) -> list:
    rows = []
    for r in FIG4_R_GRID:
        for m in range(1, m_max + 1):
            rows.append((r, m, chains.amplification_factor(k, m, r)))
    return rows


def _fig5_rows(d: int, n: int, base_seed: int, l_max: int) -> list:
    rows = []
    found = 0
    seed = base_seed
    while found < 3:
        if seed - base_seed > 25:
            raise PathcorrError(
                "could not find 3 samples with nu(R) < 1 near the base seed"
            )
        result = sampling.sample_partial_graph(sampling.SampleSpec(d=d, n=n, seed=seed))
        if result.flagged:
            seed += 1
            continue
        oracle = partial_to_marginal_oracle(result.graph).entries
        off = np.abs(oracle - np.eye(d))
        i, j = np.unravel_index(int(np.argmax(off)), off.shape)
        for p in pathsum.convergence_profile(result.graph, i, j, l_max):
            rows.append((seed, p.L, p.rho_hat, p.abs_gap))
        found += 1
        seed += 1
    return rows


def _fig6_rows(l_max: int) -> list:
    d = 4
    w = np.full((d, d), FIG6_COUPLING)
    np.fill_diagonal(w, 0.0)
    g = validate_partial_graph(w)
    bound = pathsum._q_bound(spectral_report(g).nu_R)
    rows = []
    for frac in FIG6_Q_FRACTIONS:
        q = frac * bound
        for p in pathsum.convergence_profile(pathsum.rescale(g, q), 0, 1, l_max):
            rows.append((q, p.L, p.rho_hat, p.abs_gap))
    return rows


def _cmd_figure(args) -> int:
    if args.which == "fig4":
        rows = _fig4_rows(args.k, args.m)
        header = ["r", "m", "gamma"]
    elif args.which == "fig5":
        l_max = 10 if args.Lmax is None else args.Lmax
        rows = _fig5_rows(args.d, args.n, args.seed, l_max)
        header = ["seed", "L", "rho_hat", "abs_gap"]
    else:
        rows = _fig6_rows(40 if args.Lmax is None else args.Lmax)
        header = ["q", "L", "rho_hat", "abs_gap"]
    fileio.save_csv_table(args.out, header, rows)
    print(f"wrote {len(rows)} {args.which} rows to {args.out}")
    return 0


def _add_input(p: argparse.ArgumentParser):
    p.add_argument("--in", dest="infile", required=True, help="input matrix file")
    p.add_argument(
        "--kind",
        choices=fileio.KINDS,
        help="matrix kind for CSV input (JSON carries its own)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcorr",
        description="Partial-correlation graphs: conversions, path expansions, "
        "transforms, chains, information, and sampled test systems.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("convert", help="rewrite a matrix file in another form")
    _add_input(p)
    p.add_argument("--to", choices=fileio.KINDS, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("expand", help="truncated path-sum estimate of one rho_ij")
    _add_input(p)
    p.add_argument("--i", required=True, help="node label")
    p.add_argument("--j", required=True, help="node label")
    p.add_argument("--L", type=int, required=True, help="truncation length")
    p.add_argument("--q", type=float, help="rescaling parameter")
    p.add_argument("--out", help="optional JSON result file")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("profile", help="rho_hat(L) convergence table")
    _add_input(p)
    p.add_argument("--i", required=True, help="node label")
    p.add_argument("--j", required=True, help="node label")
    p.add_argument("--Lmax", type=int, required=True)
    p.add_argument("--q", type=float, help="rescaling parameter")
    p.add_argument("--out", required=True, help="CSV output file")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("sever", help="delete nodes and their links")
    _add_input(p)
    p.add_argument("--S", required=True, help="comma-separated node labels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sever)

    p = sub.add_parser("marginalize", help="integrate nodes out of the network")
    _add_input(p)
    p.add_argument("--S", required=True, help="comma-separated node labels")
    p.add_argument("--method", choices=("block", "paths"), default="block")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_marginalize)

    p = sub.add_parser("reduce", help="replace nodes by few latent variables")
    _add_input(p)
    p.add_argument("--S", required=True, help="comma-separated node labels")
    p.add_argument("--out", required=True, help="reduced-graph output file")
    p.add_argument("--out-enlarged", help="optional enlarged-graph output file")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("separators", help="find separating nodes")
    _add_input(p)
    p.add_argument(
        "--tol",
        type=float,
        default=transforms.TOL_FACT,
        help="residual threshold flagged in the report",
    )
    p.add_argument("--out", help="optional JSON report file")
    p.set_defaults(func=_cmd_separators)

    p = sub.add_parser("chain", help="homogeneous chain formulas (no input file)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--pairs", choices=("all",), help="emit every pair correlation")
    p.add_argument("--i", type=int, help="chain position, 1-based")
    p.add_argument("--j", type=int, help="chain position, 1-based")
    p.add_argument("--gamma", action="store_true", help="amplification factor mode")
    p.add_argument("--k", type=int, help="distance to the appended chain")
    p.add_argument("--m", type=int, help="appended chain length")
    p.add_argument("--out", help="CSV output file (pairs mode)")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("mi", help="Gaussian conditional mutual information")
    _add_input(p)
    p.add_argument("--A", required=True, help="comma-separated node labels")
    p.add_argument("--B", required=True, help="comma-separated node labels")
    p.add_argument("--Z", help="conditioning labels; defaults to the complement")
    p.add_argument("--method", choices=("closed", "series"), default="closed")
    p.add_argument("--q", type=float, help="series rescaling parameter")
    p.add_argument("--n-max", dest="n_max", type=int, default=gaussinfo.N_MAX_DEFAULT)
    p.add_argument("--out", help="optional JSON result file")
    p.set_defaults(func=_cmd_mi)

    p = sub.add_parser("sample", help="seeded random graph from iid Gaussian data")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("figure", help="emit figure data tables as CSV")
    p.add_argument("which", choices=("fig4", "fig5", "fig6"))
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=10, help="fig4: distance to appendage")
    p.add_argument("--m", type=int, default=10, help="fig4: largest appendage length")
    p.add_argument("--d", type=int, default=100, help="fig5: dimension")
    p.add_argument("--n", type=int, default=1000, help="fig5: sample count")
    p.add_argument("--seed", type=int, default=1, help="fig5: base seed")
    p.add_argument("--Lmax", type=int, help="largest L (fig5: 10, fig6: 40)")
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args) or 0)
    except (PathcorrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
