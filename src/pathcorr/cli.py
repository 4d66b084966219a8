"""Command-line front end: file conversion, expansions, and figure data.

Every subcommand is a thin dispatch onto the library modules; nothing
is recomputed here.  Matrix files use the JSON layout of
:mod:`pathcorr.fileio` (CSV input is accepted with an explicit
``--kind``, which a JSON input refuses).  Human-readable summaries go
to stdout, data goes to the files named by ``--out``.

Each mode declares only the flags it reads, so a flag it would drop is
refused, never ignored: ``figure fig4/fig5/fig6`` are sub-parsers of
their own (argparse's exit 2, with the sub-command's own usage line), and
``chain`` and ``mi``, whose modes share one parser, check the flags given
against one rule each (exit 1).

Exit status: 0 on success, 1 on a domain error (the message names the
violated precondition; no stack traces), 2 on a usage error.  A warning
the library raises, such as an ill-conditioned 1 - R, is one
``warning: <class>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
import warnings

import numpy as np

from . import chains, fileio, gaussinfo, pathsum, sampling, transforms
from .errors import (
    FileFormatError,
    ParamOutOfBound,
    PathcorrError,
    UndefinedAtZero,
    _real,
    _whole,
)
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

# `chain --pairs all` writes d(d-1)/2 rows; d = 4472 is the longest
# chain whose table stays within 10**7 rows (9 997 156).
_MAX_PAIRS_D = 4472


def _nodes(g: PartialCorrelationGraph, text: str, flag: str) -> list:
    """Node indices of the comma-separated labels ``flag`` gave, each once."""
    labels = [part.strip() for part in text.split(",") if part.strip()]
    if not labels:
        raise FileFormatError(f"empty node list {text!r}")
    for k, lbl in enumerate(labels):
        if lbl in labels[:k]:
            raise FileFormatError(f"node {lbl} repeats in {flag}")
    return [g.label_index(lbl) for lbl in labels]


def _load_any(path: str, kind: str | None):
    """(matrix object, provenance) from a JSON or CSV file."""
    if str(path).lower().endswith(".csv"):
        if kind is None:
            raise FileFormatError(
                "CSV files carry no kind; pass --kind "
                f"{{{','.join(fileio.KINDS)}}} for {path}"
            )
        return fileio.load_csv_matrix(path, kind), None
    if kind is not None:
        raise FileFormatError(f"--kind is read only with CSV input; {path} carries its own")
    return fileio.load_matrix(path)


def _load_graph(args) -> PartialCorrelationGraph:
    obj, _ = _load_any(args.infile, args.kind)
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
    _whole(args.L, "--L", ParamOutOfBound, 1, pathsum.MAX_LENGTH)
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
    _whole(args.Lmax, "--Lmax", ParamOutOfBound, 1, pathsum.MAX_LENGTH)
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
    removed = _nodes(g, args.S, "--S")
    out = transforms.sever_nodes(g, removed)
    fileio.save_matrix(out, args.out)
    print(f"severed {len(removed)} node(s); kept {out.dim}; wrote {args.out}")
    return 0


def _cmd_marginalize(args) -> int:
    g = _load_graph(args)
    removed = _nodes(g, args.S, "--S")
    out = transforms.marginalize_nodes(g, removed)
    fileio.save_matrix(out, args.out)
    print(f"marginalised {len(removed)} node(s); kept {out.dim}; wrote {args.out}")
    return 0


def _cmd_reduce(args) -> int:
    g = _load_graph(args)
    removed = _nodes(g, args.S, "--S")
    red = transforms.latent_reduce(g, removed)
    # Built and checked on first read: a refused enlarged graph leaves no file.
    enlarged = red.enlarged_graph if args.out_enlarged else None
    res = transforms.verify_reduction(g, red)
    fileio.save_matrix(red.reduced_graph, args.out)
    if enlarged is not None:
        fileio.save_matrix(enlarged, args.out_enlarged)
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
    tol = _real(args.tol, "--tol", ParamOutOfBound)
    if tol < 0.0:
        raise ParamOutOfBound(f"--tol must be at least 0, got {tol:g}")
    g = _load_graph(args)
    reports = transforms.detect_separating_nodes(g)
    labels = g.labels
    if not reports:
        print("no separating nodes")
    for rep in reports:
        first, second = rep.components
        note = "" if rep.factorisation_residual <= tol else "  [residual above tol]"
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


def _chain_summary(args) -> None:
    chains.ChainSpec(d=args.d, r=args.r)  # checks d and r; the summary reads only r
    try:
        xi = f"{chains.correlation_length(args.r):.10g}"
    except UndefinedAtZero:
        xi = "undefined (r = 0)"
    print(
        f"chain d={args.d}, r={args.r:g}: correlation length {xi}, "
        f"limiting loop sum {chains.l_infinity(args.r):.10g}"
    )


def _chain_pair(args) -> None:
    rho = chains.chain_pair_corr(chains.ChainSpec(d=args.d, r=args.r), args.i, args.j)
    print(f"rho({args.i}, {args.j}) = {rho:.12g}")


def _chain_gamma(args) -> None:
    gamma = chains.amplification_factor(args.k, args.m, args.r)
    print(f"gamma(k={args.k}, m={args.m}, r={args.r:g}) = {gamma:.10g}")


def _chain_pairs(args) -> None:
    d = _whole(args.d, "chain length d with --pairs all", ParamOutOfBound, 2, _MAX_PAIRS_D)
    spec = chains.ChainSpec(d=d, r=args.r)
    rows = (
        (i, j, chains.chain_pair_corr(spec, i, j))
        for i in range(1, d + 1)
        for j in range(i + 1, d + 1)
    )
    fileio.save_csv_table(args.out, ["i", "j", "rho"], rows)
    print(f"wrote {d * (d - 1) // 2} chain pair correlations to {args.out}")


# Each chain mode by the flags it reads besides --r; a call must give
# exactly one of these sets.
_CHAIN_MODES = {
    frozenset({"d"}): _chain_summary,
    frozenset({"d", "i", "j"}): _chain_pair,
    frozenset({"gamma", "k", "m"}): _chain_gamma,
    frozenset({"d", "pairs", "out"}): _chain_pairs,
}


def _cmd_chain(args) -> int:
    given = frozenset(vars(args)) - {"subcommand", "func", "r"}
    if given not in _CHAIN_MODES:
        sets = ", ".join("{--" + " --".join(sorted(flags)) + "}" for flags in _CHAIN_MODES)
        shown = " ".join(f"--{flag}" for flag in sorted(given)) or "none"
        raise FileFormatError(f"chain runs one mode per call: --r and one of {sets}; got {shown}")
    _CHAIN_MODES[given](args)
    return 0


def _cmd_mi(args) -> int:
    # --q and --n-max are in args only when given.
    series = {key: getattr(args, key) for key in ("q", "n_max") if key in args}
    if series and args.method != "series":
        flag = "--q" if "q" in series else "--n-max"
        raise FileFormatError(f"{flag} is read only with --method series")
    if "n_max" in series:
        _whole(series["n_max"], "--n-max", ParamOutOfBound, 1, pathsum.MAX_LENGTH)
    g = _load_graph(args)
    a = _nodes(g, args.A, "--A")
    b = _nodes(g, args.B, "--B")
    both = [v for v in a if v in b]
    if both:
        raise FileFormatError(f"node {g.labels[both[0]]} is in both --A and --B")
    part = gaussinfo.TriPartition(dim=g.dim, A=a, B=b)
    if args.method == "series":
        res = gaussinfo.conditional_mi_series(g, part, **series)
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


def _fig4_table(args) -> tuple:
    # One chain per r, long enough for k and every m, gives every gamma
    # the floats amplification_factor reads; its caps are checked first.
    m_max = _whole(args.m, "--m", ParamOutOfBound, 1, chains.MAX_NODES - 2)
    k = _whole(args.k, "--k", ParamOutOfBound, 0, chains.MAX_NODES - 2)
    rows = []
    for r in FIG4_R_GRID:
        l = chains.chain_sums(chains.ChainSpec(d=max(k, m_max) + 2, r=r)).l
        rows += [(r, m, chains._gamma(l, k, m)) for m in range(1, m_max + 1)]
    return ["r", "m", "gamma"], rows


def _fig5_table(args) -> tuple:
    # Flags are checked before sampling; seeds run 25 past the base, to 2^64 - 1 at most.
    _whole(args.d, "--d", ParamOutOfBound, 2)
    _whole(args.Lmax, "--Lmax", ParamOutOfBound, 1, pathsum.MAX_LENGTH)
    last = min(_whole(args.seed, "--seed", ParamOutOfBound, 0, 2**64 - 1) + 25, 2**64 - 1)
    rows = []
    found = 0
    seed = args.seed
    while found < 3:
        if seed > last:
            raise PathcorrError(
                f"could not find 3 samples with nu(R) < 1 among seeds {args.seed} to {last}"
            )
        result = sampling.sample_partial_graph(sampling.SampleSpec(d=args.d, n=args.n, seed=seed))
        if result.flagged:
            seed += 1
            continue
        oracle = partial_to_marginal_oracle(result.graph).entries
        off = np.abs(oracle - np.eye(args.d))
        i, j = np.unravel_index(int(np.argmax(off)), off.shape)
        for p in pathsum.convergence_profile(result.graph, i, j, args.Lmax):
            rows.append((seed, p.L, p.rho_hat, p.abs_gap))
        found += 1
        seed += 1
    return ["seed", "L", "rho_hat", "abs_gap"], rows


def _fig6_table(args) -> tuple:
    _whole(args.Lmax, "--Lmax", ParamOutOfBound, 1, pathsum.MAX_LENGTH)
    d = 4
    w = np.full((d, d), FIG6_COUPLING)
    np.fill_diagonal(w, 0.0)
    g = validate_partial_graph(w)
    bound = pathsum._q_bound(spectral_report(g).nu_R)
    rows = []
    for frac in FIG6_Q_FRACTIONS:
        q = frac * bound
        for p in pathsum.convergence_profile(pathsum.rescale(g, q), 0, 1, args.Lmax):
            rows.append((q, p.L, p.rho_hat, p.abs_gap))
    return ["q", "L", "rho_hat", "abs_gap"], rows


def _cmd_figure(args) -> int:
    header, rows = args.table(args)
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


class _SubParser(argparse.ArgumentParser):
    """A sub-command's parser: a flag it does not declare is a usage error
    reported with its own usage line, not left for the root parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcorr",
        description="Partial-correlation graphs: conversions, path expansions, "
        "transforms, chains, information, and sampled test systems.",
    )
    # Nested sub-parsers (the figures) inherit the class.
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_SubParser)

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

    # Only the flags given reach args: their set picks the mode.
    p = sub.add_parser(
        "chain",
        help="homogeneous chain formulas (no input file)",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--d", type=int, help="chain length")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--pairs", choices=("all",), help="emit every pair correlation")
    p.add_argument("--i", type=int, help="chain position, 1-based")
    p.add_argument("--j", type=int, help="chain position, 1-based")
    p.add_argument("--gamma", action="store_true", help="amplification factor mode")
    p.add_argument("--k", type=int, help="distance to the appended chain")
    p.add_argument("--m", type=int, help="appended chain length")
    p.add_argument("--out", help="CSV output file (pairs mode)")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("mi", help="Gaussian MI of --A and --B given every other node")
    _add_input(p)
    p.add_argument("--A", required=True, help="comma-separated node labels")
    p.add_argument("--B", required=True, help="comma-separated node labels")
    p.add_argument("--method", choices=("closed", "series"), default="closed")
    p.add_argument("--q", type=float, default=argparse.SUPPRESS, help="series rescaling parameter")
    p.add_argument("--n-max", type=int, default=argparse.SUPPRESS, help="series term cap")
    p.add_argument("--out", help="optional JSON result file")
    p.set_defaults(func=_cmd_mi)

    p = sub.add_parser("sample", help="seeded random graph from iid Gaussian data")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("figure", help="emit figure data tables as CSV")
    p.set_defaults(func=_cmd_figure)
    figures = p.add_subparsers(dest="which", required=True)
    f = figures.add_parser("fig4", help="amplification factor gamma(k, m) per coupling r")
    f.add_argument("--k", type=int, default=10, help="distance to the appendage")
    f.add_argument("--m", type=int, default=10, help="largest appendage length")
    f.set_defaults(table=_fig4_table)
    f = figures.add_parser("fig5", help="convergence profiles of three sampled graphs")
    f.add_argument("--d", type=int, default=100, help="dimension")
    f.add_argument("--n", type=int, default=1000, help="sample count")
    f.add_argument("--seed", type=int, default=1, help="base seed")
    f.add_argument("--Lmax", type=int, default=10, help="largest L")
    f.set_defaults(table=_fig5_table)
    f = figures.add_parser("fig6", help="convergence profiles of a rescaled graph per q")
    f.add_argument("--Lmax", type=int, default=40, help="largest L")
    f.set_defaults(table=_fig6_table)
    for f in figures.choices.values():
        f.add_argument("--out", required=True, help="CSV output file")

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one line, without the source path or code line."""
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return int(args.func(args) or 0)
        except (PathcorrError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def console_main() -> None:
    """Process entry of both ``pathcorr`` and ``python -m pathcorr.cli``.

    Runs :func:`main`, then freezes the objects left alive, so the
    collection at interpreter exit does not scan what the numpy, scipy
    and pathcorr imports made.  ``main`` itself leaves the collector
    alone, for callers that stay in the process.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    console_main()
