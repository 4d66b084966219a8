"""Benchmark workloads: seeded inputs, one task each, and output checks.

Inputs come from numpy alone, seeded by the workload seed; pathcorr only
receives the generated arrays or files.  Every check compares a result with
an independent numpy reference, mostly rho = normalised inv(1 - R) and, for
truncated path sums, a per-length sum from an eigendecomposition, and
returns a list of problems (empty when the result is right).

Two workloads call the command line in a fresh interpreter per task
(``cli = True``); their ``run_inprocess`` runs the same argv through
``pathcorr.cli.main`` for the traced run.  The other two call the library
in process.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import signal
import sys
import threading
from pathlib import Path

import numpy as np

import pathcorr as pc
import pathcorr.cli

# Tolerances against the numpy reference: exact conversions, and results
# derived through a further elimination or determinant.
TOL_EXACT = 1e-10
TOL_DERIVED = 1e-8
# A hung command-line call is killed after this many seconds and fails.
TASK_TIMEOUT_S = 60.0


def marginal_reference(w: np.ndarray) -> np.ndarray:
    """rho = normalised inv(1 - R), the matrix-inversion oracle in numpy."""
    c = np.linalg.inv(np.eye(w.shape[0]) - w)
    s = np.sqrt(np.diag(c))
    return c / np.outer(s, s)


def rescaled_weights(w: np.ndarray, q: float) -> np.ndarray:
    """Effective weights of a rescaled graph: edges q r_ij, self-loops 1 - q."""
    return q * w + (1.0 - q) * np.eye(w.shape[0])


def truncated_reference(w: np.ndarray, i: int, j: int, l_max: int) -> np.ndarray:
    """rho_hat(L) for L = 1..l_max, numerator and loop sums truncated at L.

    ``w`` holds the effective weights, its diagonal the self-loops (zero on
    an unrescaled graph).  Paths run between i and j, or from i or j back to
    itself for the loop sums, through interior nodes K = every node but i
    and j.  The length-l sum is w[a, K] W_KK^(l-2) w[K, b] for l >= 2, here
    from the eigendecomposition of W_KK rather than repeated products.
    """
    k = [v for v in range(w.shape[0]) if v not in (i, j)]
    lam, vec = np.linalg.eigh(w[np.ix_(k, k)])
    powers = lam[None, :] ** np.arange(l_max - 1)[:, None]

    def cumulative(a, b):
        per = np.empty(l_max)
        per[0] = w[a, b]
        per[1:] = powers @ ((w[a, k] @ vec) * (vec.T @ w[k, b]))
        return np.cumsum(per)

    li, lj = cumulative(i, i), cumulative(j, j)
    return cumulative(i, j) / np.sqrt((1.0 - li) * (1.0 - lj))


def mi_reference(w: np.ndarray, a, b) -> float:
    """I(A; B | rest) = 1/2 [ln det M_AA + ln det M_BB - ln det M_(AB)(AB)], M = 1 - R."""
    m = np.eye(w.shape[0]) - w
    ab = list(a) + list(b)

    def logdet(idx):
        return np.linalg.slogdet(m[np.ix_(idx, idx)])[1]

    return 0.5 * (logdet(list(a)) + logdet(list(b)) - logdet(ab))


def sample_precision_graph(rng, d: int, n: int):
    """(R, scale) of the sample precision of n standard-normal draws in d dims."""
    x = rng.standard_normal((n, d))
    omega = np.linalg.inv(x.T @ x / n)
    omega = (omega + omega.T) / 2.0
    lam = np.sqrt(np.diag(omega))
    r = -omega / np.outer(lam, lam)
    np.fill_diagonal(r, 0.0)
    return r, lam


def random_graph(rng, d: int, nu: float, density: float = 0.3) -> np.ndarray:
    """Random signed coupling pattern scaled to spectral radius nu < 1."""
    a = rng.standard_normal((d, d))
    mask = np.triu(rng.random((d, d)) < density, 1)
    a = np.triu(a, 1) * mask
    a = a + a.T
    return a * (nu / np.max(np.abs(np.linalg.eigvalsh(a))))


def chain_weights(d: int, r) -> np.ndarray:
    """Chain couplings r_i between nodes i and i+1 (r scalar or per edge)."""
    w = np.zeros((d, d))
    idx = np.arange(d - 1)
    w[idx, idx + 1] = r
    w[idx + 1, idx] = r
    return w


def max_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _check_profile(problems: list, rows, ref: float, trunc: np.ndarray, what: str) -> None:
    """Rows (L, rho_hat, abs_gap) against the truncated sums ``trunc`` and the oracle ``ref``."""
    _expect(problems, [int(row[0]) for row in rows] == list(range(1, len(trunc) + 1)), f"{what}: wrong L column")
    gap = max_gap([row[1] for row in rows], trunc)
    _expect(problems, gap <= TOL_EXACT, f"{what}: rho_hat(L) off by {gap:.2e}")
    gap = max(abs(abs(row[1] - ref) - row[2]) for row in rows)
    _expect(problems, gap <= TOL_EXACT, f"{what}: oracle gap column off by {gap:.2e}")


def _check_kept_marginals(problems: list, w_out, ref, kept, what: str, n_lead=None) -> None:
    """Marginalising or reducing must keep the kept-set marginal correlations."""
    got = marginal_reference(np.asarray(w_out))
    if n_lead is not None:
        got = got[:n_lead, :n_lead]
    gap = max_gap(got, ref[np.ix_(kept, kept)])
    _expect(problems, gap <= TOL_DERIVED, f"{what}: kept marginals off by {gap:.2e}")


def corrupt(out: dict) -> dict:
    """A copy of an in-process result with its first entry perturbed by 1e-3."""
    out = dict(out)
    key = next(iter(out))
    out[key] = np.asarray(out[key], dtype=float) + 1e-3
    return out


# -- in-process workloads ---------------------------------------------------


class DenseWorkload:
    """One analysis pipeline on a dense d = 500 sample-precision graph.

    The graphs have nu(R) near 4.6, the rescale-required regime.  Each task
    validates its graph from the raw array, so nothing keyed on the graph
    object can carry over from one task to the next.
    """

    name = "dense_500"
    cli = False
    n_graphs = 4

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.items = [self.make_item(rng, 40 if tiny else 500) for _ in range(self.n_graphs)]

    @staticmethod
    def make_item(rng, d: int) -> dict:
        raw, _ = sample_precision_graph(rng, d, 2 * d)
        perm = rng.permutation(d)
        i, j = (int(v) for v in perm[:2])
        k = max(d // 10, 1)
        latent = max(min(50, d // 10), 1)
        return {
            "raw": raw,
            "pair": (i, j),
            "marginalized": perm[: d // 2],
            "latent": np.sort(perm[d // 2 : d // 2 + latent]),
            "A": tuple(int(v) for v in perm[:k]),
            "B": tuple(int(v) for v in perm[k : 2 * k]),
            "ref": marginal_reference(raw),
            "nu": float(np.max(np.abs(np.linalg.eigvalsh(raw)))),
        }

    def run(self, item: dict) -> dict:
        raw = item["raw"]
        d = raw.shape[0]
        i, j = item["pair"]
        g = pc.validate_partial_graph(raw)
        oracle = pc.partial_to_marginal_oracle(g)
        spectral = pc.spectral_report(g)
        rg = pc.rescale(g)
        closed = pc.marginal_corr_closed(g, i, j)
        profile = pc.convergence_profile(rg, i, j, 50)
        marginalized = pc.marginalize_nodes(g, item["marginalized"])
        reduction = pc.latent_reduce(g, item["latent"])
        part = pc.TriPartition.complement(d, item["A"], item["B"])
        return {
            "oracle": oracle.entries,
            "closed": closed,
            "spectral": spectral,
            "q": rg.q,
            "profile": profile,
            "marginalized": marginalized,
            "reduction": reduction,
            "mi_closed": pc.conditional_mi_closed(g, part).nats,
            "mi_series": pc.conditional_mi_series(g, part).nats,
        }

    def check(self, item: dict, out: dict) -> list:
        problems: list = []
        ref = item["ref"]
        d = ref.shape[0]
        i, j = item["pair"]
        gap = max_gap(out["oracle"], ref)
        _expect(problems, gap <= TOL_EXACT, f"oracle off by {gap:.2e}")
        gap = abs(float(out["closed"]) - ref[i, j])
        _expect(problems, gap <= TOL_EXACT, f"closed pair off by {gap:.2e}")
        nu = item["nu"]
        _expect(problems, abs(out["spectral"].nu_R - nu) <= TOL_EXACT * nu, "spectral radius differs")
        _expect(problems, out["spectral"].regime == "rescale-required", "wrong summation regime")
        q_ref = 0.95 * 2.0 / (1.0 + nu)
        _expect(problems, abs(float(out["q"]) - q_ref) <= TOL_EXACT, "default rescaling q differs")
        trunc = truncated_reference(rescaled_weights(item["raw"], q_ref), i, j, 50)
        _check_profile(problems, [(p.L, p.rho_hat, p.abs_gap) for p in out["profile"]], ref[i, j],
                       trunc, "profile")
        kept = sorted(set(range(d)) - {int(v) for v in item["marginalized"]})
        _check_kept_marginals(problems, out["marginalized"].weights, ref, kept, "marginalize")
        red = out["reduction"]
        _expect(problems, red.latent_count == len(item["latent"]), "latent rank differs")
        _check_kept_marginals(problems, red.reduced_graph.weights, ref, list(red.kept),
                              "latent_reduce", n_lead=len(red.kept))
        mi = mi_reference(item["raw"], item["A"], item["B"])
        for key in ("mi_closed", "mi_series"):
            gap = abs(float(out[key]) - mi)
            _expect(problems, gap <= TOL_DERIVED * max(1.0, mi), f"{key} off by {gap:.2e}")
        return problems


class PairSweepWorkload:
    """Many pair queries on moderate graphs, in process.

    The d = 40 graphs sit in the conditional regime, nu(R) = 0.9 < 1 <= nu(|R|).
    """

    name = "pair_sweep"
    cli = False
    n_graphs = 3

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        if tiny:
            sizes = {"d": 12, "profiles": 4, "removed": 4, "chain_d": 10, "sep_d": 20}
        else:
            sizes = {"d": 40, "profiles": 30, "removed": 15, "chain_d": 60, "sep_d": 200}
        self.items = [self.make_item(rng, **sizes) for _ in range(self.n_graphs)]

    @staticmethod
    def make_item(rng, d, profiles, removed, chain_d, sep_d) -> dict:
        w = random_graph(rng, d, nu=0.9)
        pairs = [tuple(int(v) for v in rng.choice(d, 2, replace=False)) for _ in range(profiles)]
        r = float(rng.uniform(0.2, 0.45))
        return {
            "w": w,
            "profile_pairs": pairs,
            "removed": np.sort(rng.choice(d, removed, replace=False)),
            "chain_r": r,
            "chain_d": chain_d,
            "sep_w": chain_weights(sep_d, rng.uniform(0.1, 0.45, sep_d - 1)),
            "ref": marginal_reference(w),
            "chain_ref": marginal_reference(chain_weights(chain_d, r)),
        }

    def run(self, item: dict) -> dict:
        g = pc.validate_partial_graph(item["w"])
        d = g.dim
        spec = pc.ChainSpec(d=item["chain_d"], r=item["chain_r"])
        n = spec.d
        return {
            "pairs": [pc.marginal_corr_closed(g, i, j) for i in range(d) for j in range(i + 1, d)],
            "profiles": [pc.convergence_profile(g, i, j, 50) for i, j in item["profile_pairs"]],
            "marginalized": pc.marginalize_nodes(g, item["removed"], method="paths"),
            "chain": [pc.chain_pair_corr(spec, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)],
            "separators": pc.detect_separating_nodes(pc.validate_partial_graph(item["sep_w"])),
        }

    def check(self, item: dict, out: dict) -> list:
        problems: list = []
        ref = item["ref"]
        d = ref.shape[0]
        upper = np.triu_indices(d, 1)
        gap = max_gap(out["pairs"], ref[upper])
        _expect(problems, gap <= TOL_EXACT, f"closed pairs off by {gap:.2e}")
        for (i, j), points in zip(item["profile_pairs"], out["profiles"]):
            _check_profile(problems, [(p.L, p.rho_hat, p.abs_gap) for p in points], ref[i, j],
                           truncated_reference(item["w"], i, j, 50), f"profile ({i}, {j})")
        kept = sorted(set(range(d)) - {int(v) for v in item["removed"]})
        _check_kept_marginals(problems, out["marginalized"].weights, ref, kept, "marginalize paths")
        chain_ref = item["chain_ref"]
        gap = max_gap(out["chain"], chain_ref[np.triu_indices(chain_ref.shape[0], 1)])
        _expect(problems, gap <= TOL_EXACT, f"chain pairs off by {gap:.2e}")
        sep_d = item["sep_w"].shape[0]
        nodes = sorted(rep.node for rep in out["separators"])
        _expect(problems, nodes == list(range(1, sep_d - 1)), "separator set is not the chain interior")
        worst = max((rep.factorisation_residual for rep in out["separators"]), default=0.0)
        _expect(problems, worst <= TOL_DERIVED, f"separator residual {worst:.2e}")
        return problems


# -- command-line workloads -------------------------------------------------


def write_graph(path: Path, w: np.ndarray, scale=None) -> None:
    """A partial-graph file in pathcorr's JSON layout, written with json alone."""
    doc = {
        "kind": "partial",
        "dim": int(w.shape[0]),
        "labels": [f"x{k + 1}" for k in range(w.shape[0])],
        "data": w.tolist(),
    }
    if scale is not None:
        doc["scale"] = np.asarray(scale).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path: Path) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(x) for x in row] for row in rows[1:]]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def labels(idx) -> str:
    return ",".join(f"x{int(v) + 1}" for v in idx)


def spawn(argv: list, log: Path):
    """Run argv to completion; (exit code, peak RSS of the child in KiB)."""
    with open(log, "wb") as fh:
        pid = os.posix_spawn(argv[0], argv, os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, fh.fileno(), 1),
                                           (os.POSIX_SPAWN_DUP2, fh.fileno(), 2)])
    watchdog = threading.Timer(TASK_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


class CliWorkload:
    """Shared base for workloads whose task is one command-line call.

    A task is ``{"argv": [...], "outputs": [...], "check": fn}``; the check
    reads the output files.  ``digests`` keeps the sha256 of every file the
    program wrote, and a rewrite with other bytes is a failure.
    """

    cli = True

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.digests: dict = {}
        self.peak_rss_kib = 0

    def run(self, item: dict):
        argv = [sys.executable, "-m", "pathcorr.cli", *item["argv"]]
        code, rss = spawn(argv, self.workdir / "last_call.log")
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        return code

    def run_inprocess(self, item: dict):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return pathcorr.cli.main(list(item["argv"]))

    def corrupt_outputs(self, item: dict) -> None:
        path = Path(item["outputs"][0])
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

    def check(self, item: dict, code) -> list:
        if code != 0:
            return [f"{item['argv'][0]} exited with {code}"]
        problems: list = []
        for out in item["outputs"]:
            path = Path(out)
            digest = sha256(path)
            if self.digests.setdefault(path.name, digest) != digest:
                problems.append(f"{path.name}: bytes differ from an earlier identical call")
        try:
            item["check"](problems)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"{item['argv'][0]} output does not parse: {exc!r}")
        return problems


class CliSmallWorkload(CliWorkload):
    """One fresh-interpreter ``pathcorr`` call per task, cycling through every
    subcommand on small inputs."""

    name = "cli_small"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(workdir)
        rng = np.random.default_rng([seed, 3])
        d, d_res, d_chain, d_sample = (8, 6, 6, 10) if tiny else (30, 20, 12, 50)
        w = random_graph(rng, d, nu=0.6)
        scale = rng.uniform(0.5, 2.0, d)
        w_res, scale_res = sample_precision_graph(rng, d_res, 2 * d_res)
        w_chain = chain_weights(d_chain, rng.uniform(0.1, 0.45, d_chain - 1))
        r = float(rng.uniform(0.2, 0.45))
        sample_seed = int(rng.integers(0, 2**32))
        ref, ref_res = marginal_reference(w), marginal_reference(w_res)
        nu_res = float(np.max(np.abs(np.linalg.eigvalsh(w_res))))
        q = 0.9 * 2.0 / (1.0 + nu_res)
        perm = rng.permutation(d)
        severed, marginalized, reduced = perm[:3], np.sort(perm[: d // 3]), np.sort(perm[d - d // 4 :])
        a, b = perm[:3], perm[3:5]
        i, j = (int(v) for v in perm[:2])
        paths = {name: workdir / name for name in ("g.json", "res.json", "chain.json")}
        write_graph(paths["g.json"], w, scale)
        write_graph(paths["res.json"], w_res, scale_res)
        write_graph(paths["chain.json"], w_chain)
        out = {name: str(workdir / name) for name in (
            "precision.json", "expand.json", "profile.csv", "sever.json", "marginalize.json",
            "reduce.json", "separators.json", "chain.csv", "mi.json", "sample.json",
            "fig4.csv", "fig6.csv")}
        g, res, chain = (str(p) for p in paths.values())
        xi, xj = f"x{i + 1}", f"x{j + 1}"

        def check_precision(problems):
            doc = read_json(Path(out["precision.json"]))
            omega = np.outer(scale, scale) * (np.eye(d) - w)
            gap = max_gap(doc["data"], omega)
            _expect(problems, doc["kind"] == "precision" and gap <= TOL_EXACT * np.max(np.abs(omega)),
                    f"convert: precision off by {gap:.2e}")

        def check_expand(problems):
            doc = read_json(Path(out["expand.json"]))
            gap = abs(doc["oracle"] - ref_res[0, 1])
            _expect(problems, gap <= TOL_EXACT, f"expand: oracle off by {gap:.2e}")
            gap = abs(doc["rho_hat"] - truncated_reference(rescaled_weights(w_res, q), 0, 1, 30)[-1])
            _expect(problems, gap <= TOL_EXACT, f"expand: rho_hat off by {gap:.2e}")
            _expect(problems, abs(abs(doc["rho_hat"] - doc["oracle"]) - doc["abs_gap"]) <= TOL_EXACT,
                    "expand: gap field inconsistent")

        def check_profile(problems):
            rows = read_csv(Path(out["profile.csv"]))
            _check_profile(problems, rows, ref[i, j], truncated_reference(w, i, j, 30), "profile")

        def check_sever(problems):
            doc = read_json(Path(out["sever.json"]))
            kept = sorted(set(range(d)) - {int(v) for v in severed})
            _expect(problems, max_gap(doc["data"], w[np.ix_(kept, kept)]) <= TOL_EXACT, "sever: weights differ")
            _expect(problems, doc["labels"] == [f"x{v + 1}" for v in kept], "sever: labels differ")

        def check_marginalize(problems):
            doc = read_json(Path(out["marginalize.json"]))
            kept = sorted(set(range(d)) - {int(v) for v in marginalized})
            _check_kept_marginals(problems, doc["data"], ref, kept, "marginalize")

        def check_reduce(problems):
            doc = read_json(Path(out["reduce.json"]))
            kept = sorted(set(range(d)) - {int(v) for v in reduced})
            _check_kept_marginals(problems, doc["data"], ref, kept, "reduce", n_lead=len(kept))

        def check_separators(problems):
            doc = read_json(Path(out["separators.json"]))
            nodes = sorted(int(rep["node"][1:]) for rep in doc)
            _expect(problems, nodes == list(range(2, d_chain)), "separators: not the chain interior")
            _expect(problems, all(rep["residual"] <= TOL_DERIVED for rep in doc), "separators: residual")

        def check_chain(problems):
            rows = read_csv(Path(out["chain.csv"]))
            ref_uniform = marginal_reference(chain_weights(d_chain, r))
            gap = max(abs(row[2] - ref_uniform[int(row[0]) - 1, int(row[1]) - 1]) for row in rows)
            _expect(problems, len(rows) == d_chain * (d_chain - 1) // 2 and gap <= TOL_EXACT,
                    f"chain: pairs off by {gap:.2e}")

        def check_mi(problems):
            doc = read_json(Path(out["mi.json"]))
            mi = mi_reference(w, a, b)
            _expect(problems, abs(doc["nats"] - mi) <= TOL_DERIVED * max(1.0, mi), "mi: closed form differs")
            _expect(problems, abs(doc["bits"] - doc["nats"] / math.log(2.0)) <= TOL_EXACT, "mi: bits")

        def check_sample(problems):
            doc = read_json(Path(out["sample.json"]))
            s = np.asarray(doc["data"])
            nu = float(np.max(np.abs(np.linalg.eigvalsh(s))))
            _expect(problems, s.shape == (d_sample, d_sample) and max_gap(s, s.T) == 0.0
                    and not np.any(np.diag(s)), "sample: not a symmetric zero-diagonal graph")
            _expect(problems, float(np.linalg.eigvalsh(np.eye(d_sample) - s)[0]) > 0.0, "sample: 1 - R not PD")
            _expect(problems, abs(doc["provenance"]["nu_R"] - nu) <= TOL_EXACT * nu, "sample: nu_R differs")

        def check_fig4(problems):
            rows = read_csv(Path(out["fig4.csv"]))
            k = 10

            def gamma(m, rr):
                long = marginal_reference(chain_weights(k + 2 + 2 * m, rr))
                short = marginal_reference(chain_weights(k + 2, rr))
                return long[m, m + k + 1] / short[0, k + 1]

            gap = max(abs(row[2] - gamma(int(row[1]), row[0])) for row in rows)
            _expect(problems, len(rows) == 50 and gap <= TOL_DERIVED, f"fig4: gamma off by {gap:.2e}")

        def check_fig6(problems):
            rows = read_csv(Path(out["fig6.csv"]))
            w4 = np.full((4, 4), -0.45)
            np.fill_diagonal(w4, 0.0)
            rho = marginal_reference(w4)[0, 1]
            # Rows (q, L, rho_hat, abs_gap) for q at 0.3, 0.6 and 0.95 of 2 / (1 + nu(R)), L up
            # to 40; pathcorr skips an L whose truncated loop sums reach 1.
            bound = 2.0 / (1.0 + float(np.max(np.abs(np.linalg.eigvalsh(w4)))))
            trunc = {qq: truncated_reference(rescaled_weights(w4, qq), 0, 1, 40) for qq in {row[0] for row in rows}}
            qs = sorted(trunc)
            _expect(problems, len(qs) == 3 and max_gap(qs, [0.3 * bound, 0.6 * bound, 0.95 * bound]) <= TOL_EXACT,
                    "fig6: wrong q values")
            _expect(problems, all(1 <= row[1] <= 40 for row in rows)
                    and all(any(row[0] == qq and row[1] == 40 for row in rows) for qq in qs), "fig6: wrong L values")
            gap = max(abs(row[2] - trunc[row[0]][int(row[1]) - 1]) for row in rows)
            _expect(problems, gap <= TOL_EXACT, f"fig6: rho_hat(L) off by {gap:.2e}")
            gap = max(abs(abs(row[2] - rho) - row[3]) for row in rows)
            _expect(problems, gap <= TOL_EXACT, f"fig6: gap column off by {gap:.2e}")

        self.items = [
            {"argv": ["convert", "--in", g, "--to", "precision", "--out", out["precision.json"]],
             "check": check_precision},
            {"argv": ["expand", "--in", res, "--i", "x1", "--j", "x2", "--L", "30", "--q", repr(q),
                      "--out", out["expand.json"]], "check": check_expand},
            {"argv": ["profile", "--in", g, "--i", xi, "--j", xj, "--Lmax", "30", "--out", out["profile.csv"]],
             "check": check_profile},
            {"argv": ["sever", "--in", g, "--S", labels(severed), "--out", out["sever.json"]],
             "check": check_sever},
            {"argv": ["marginalize", "--in", g, "--S", labels(marginalized), "--out", out["marginalize.json"]],
             "check": check_marginalize},
            {"argv": ["reduce", "--in", g, "--S", labels(reduced), "--out", out["reduce.json"]],
             "check": check_reduce},
            {"argv": ["separators", "--in", chain, "--out", out["separators.json"]],
             "check": check_separators},
            {"argv": ["chain", "--d", str(d_chain), "--r", repr(r), "--pairs", "all", "--out", out["chain.csv"]],
             "check": check_chain},
            {"argv": ["mi", "--in", g, "--A", labels(a), "--B", labels(b), "--out", out["mi.json"]],
             "check": check_mi},
            {"argv": ["sample", "--d", str(d_sample), "--seed", str(sample_seed), "--out", out["sample.json"]],
             "check": check_sample},
            {"argv": ["figure", "fig4", "--out", out["fig4.csv"]], "check": check_fig4},
            {"argv": ["figure", "fig6", "--out", out["fig6.csv"]], "check": check_fig6},
        ]
        for item in self.items:
            item["outputs"] = [item["argv"][-1]]


class ConvertLargeWorkload(CliWorkload):
    """One fresh-interpreter ``pathcorr convert --to marginal`` per task on a
    d = 200 partial-graph file, cycling through several seeded graphs."""

    name = "convert_large"
    n_graphs = 3

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(workdir)
        rng = np.random.default_rng([seed, 4])
        d = 20 if tiny else 200
        self.items = []
        for k in range(self.n_graphs):
            w, scale = sample_precision_graph(rng, d, 2 * d)
            src, dst = workdir / f"graph{k}.json", workdir / f"marginal{k}.json"
            write_graph(src, w, scale)
            self.items.append({
                "argv": ["convert", "--in", str(src), "--to", "marginal", "--out", str(dst)],
                "outputs": [str(dst)],
                "check": self._checker(dst, marginal_reference(w)),
            })

    @staticmethod
    def _checker(path: Path, ref: np.ndarray):
        def check(problems):
            doc = read_json(path)
            gap = max_gap(doc["data"], ref)
            _expect(problems, doc["kind"] == "marginal" and gap <= TOL_EXACT, f"convert: marginals off by {gap:.2e}")
            _expect(problems, doc["labels"] == [f"x{k + 1}" for k in range(ref.shape[0])], "convert: labels differ")
        return check


WORKLOADS = {cls.name: cls for cls in (CliSmallWorkload, DenseWorkload, PairSweepWorkload, ConvertLargeWorkload)}
