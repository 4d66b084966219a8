#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for pathcorr.

Run from the repository root:

    python3 perfbench/run.py --workload dense_500 --seed 1 --seconds 14 --trace 0

One invocation runs one workload in its own fresh process, as a closed loop
with one client: the next task starts when the previous one ends.  Inputs
are generated from ``--seed`` by the benchmark's own numpy code, and every
task's output is checked against an independent numpy reference outside the
timed region; a task that raises, exits non-zero or fails its check counts
as failed.  The program is imported from ``src/`` of the checkout, so
nothing needs installing.  BLAS runs on ``BLAS_THREADS`` threads.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is the separate traced run: it wraps pathcorr's public
functions from outside (see ``tracer.py``) and reports per-layer metrics.

End-to-end timings are scaled to a reference host speed by a speed probe
that runs after every task (see ``PROBE_REF_S``); the raw timings are kept
in the report.

Standard output ends with two lines: a report (environment, every metric and
raw timing with its unit and sample count, digests of the files the program
wrote) and, last, ``{"correct", "attempted", "failed", "metrics"}``.  The
report is also stored under ``perfbench/.out/``.  The exit status is 0 when the run
completed, whether or not outputs were correct, and 2 when it cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

BLAS_THREADS = 1
# Every timed run has at least this many tasks behind its median.
MIN_TASKS = 21
# Fresh-interpreter set-ups per run; setup_s is their median, and for
# in-process workloads so is peak_rss_mb.
SETUP_PROBES = 5
# The host's CPU speed can swing by half within seconds when it is shared:
# a fixed pure-Python loop took from 11 to 18 ms within one run on the
# 2-CPU host the sizes were chosen on.  A speed probe that runs no pathcorr
# code follows every timed task and every set-up, outside the timed region,
# and the timings on the last line are scaled by reference / probe time,
# i.e. reported at the reference speed.  The report keeps the raw timings.
# Fresh-interpreter tasks are probed by an interpreter start, in-process
# tasks by a Python loop plus small LAPACK calls (``probe_kernel``).
PROBE_REF_S = {"interpreter": 0.070, "kernel": 0.030}
PROBE_WINDOW = 6
# Fresh-interpreter probes behind cli.interpreter_ms and cli.import_ms.
CLI_PROBES = 3
# The dense_500 traced run repeats its pipeline at these sizes.
SCALING_DIMS = (100, 400, 1000)
PIPELINE = (
    "matrices.validate_partial_graph",
    "matrices.partial_to_marginal_oracle",
    "matrices.spectral_report",
    "pathsum.rescale",
    "pathsum.marginal_corr_closed",
    "pathsum.convergence_profile",
    "transforms.marginalize_nodes",
    "transforms.latent_reduce",
    "gaussinfo.conditional_mi_closed",
    "gaussinfo.conditional_mi_series",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed work per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own test")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb the first timed result before its check, for the benchmark's own test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "load": "closed loop, one client, one process",
    }


class Runner:
    """Runs one workload's tasks, checks each result and counts failures."""

    def __init__(self, workload, inprocess: bool, corrupt: bool):
        self.wl = workload
        self.run_task = workload.run_inprocess if inprocess else workload.run
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        # Peak RSS of this process, in KiB, when the last task ended and
        # before its check ran.
        self.task_peak_kib = 0
        # Raw timings of the untraced run, in order, for the report.
        self.series_ms: dict = {}

    def attempt(self, item, timed: bool = True) -> float:
        """Run one task; its duration in seconds.  The check is not timed."""
        import workloads

        start = time.perf_counter()
        try:
            out = self.run_task(item)
        except Exception as exc:  # a task that raises is a failed task; the run goes on
            elapsed = time.perf_counter() - start
            self.record([f"raised {exc!r}"])
            return elapsed
        elapsed = time.perf_counter() - start
        self.task_peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.corrupt and timed:
            self.corrupt = False
            if self.wl.cli:
                self.wl.corrupt_outputs(item)
            else:
                out = workloads.corrupt(out)
        self.record(self.wl.check(item, out))
        return elapsed

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)

    def cycles(self, seconds: float, tracer=None) -> tuple:
        """Whole passes over the workload's inputs until ``seconds`` of task
        time; (tasks, seconds).  With a tracer, spans carry task ids 0, 1, ..."""
        items = self.wl.items
        total, n = 0.0, 0
        while n == 0 or total < seconds:
            for item in items:
                if tracer is not None:
                    tracer.task = n
                total += self.attempt(item)
                n += 1
        return n, total


def metric(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def resident_kib() -> int:
    """Resident set size of this process now, in KiB (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def probe_setup(args) -> tuple:
    """One fresh-interpreter set-up: seconds to import pathcorr plus the
    warm-up task, the warm-up's problems, and the KiB of resident memory
    the warm-up task added over the process holding its inputs (the
    seconds and KiB are None if the probe failed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        cmd.append("--tiny")
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return None, [f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()[-300:]}"], None
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["imported"] - start + doc["warmup_s"], doc["problems"], doc["task_rss_kib"]


def setup_probe_main(workload_cls, args, imported: float) -> int:
    """Inside a probe: build the inputs (not counted), run the warm-up task."""
    workdir = fresh_dir(OUT / f"{args.workload}-seed{args.seed}-probe")
    wl = workload_cls(args.seed, args.tiny, workdir)
    runner = Runner(wl, inprocess=False, corrupt=False)
    baseline = resident_kib()
    warmup = runner.attempt(wl.items[0], timed=False)
    print(json.dumps({"imported": imported, "warmup_s": warmup, "problems": runner.problems,
                      "task_rss_kib": runner.task_peak_kib - baseline}))
    return 0


def time_interpreter(code: str) -> float:
    """Seconds for a fresh interpreter to run ``code`` and exit.

    Waits in one blocking call: ``subprocess.run`` with a timeout polls, and
    its sleeps would round the time up.
    """
    import workloads

    start = time.perf_counter()
    status, _ = workloads.spawn([sys.executable, "-c", code], Path(os.devnull))
    if status != 0:
        raise RuntimeError(f"fresh interpreter exited with {status}")
    return time.perf_counter() - start


def probe_interpreter() -> float:
    """Seconds to start and stop a fresh interpreter."""
    return time_interpreter("pass")


def probe_kernel() -> float:
    """Seconds for a fixed pure-Python loop plus small numpy factorisations."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal((400, 200))
    a = x.T @ x / 400
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    for _ in range(5):
        np.linalg.cholesky(a)
        np.linalg.eigvalsh(a)
    return time.perf_counter() - start


def at_reference_speed(seconds: list, probes: list, reference: float) -> list:
    """Scale timing k by reference / the median of the probes around it.

    ``probes`` has one more entry than ``seconds``: entry k is taken before
    timing k and entry k + 1 after it.  The median over a window of
    PROBE_WINDOW probes follows the host's speed across seconds while one
    slow probe moves nothing.
    """
    half = PROBE_WINDOW // 2
    return [t * reference / statistics.median(probes[max(0, k - half + 1) : k + half + 1])
            for k, t in enumerate(seconds)]


def run_untraced(wl, args) -> tuple:
    runner = Runner(wl, inprocess=False, corrupt=args.corrupt)
    runner.attempt(wl.items[0], timed=False)
    setups, setup_probes, task_rss = [], [probe_interpreter()], []
    for _ in range(SETUP_PROBES):
        seconds, problems, rss_kib = probe_setup(args)
        runner.record(problems)
        if seconds is not None:
            setups.append(seconds)
            setup_probes.append(probe_interpreter())
            task_rss.append(rss_kib)
    probe, reference = (probe_interpreter, PROBE_REF_S["interpreter"]) if wl.cli else (
        probe_kernel, PROBE_REF_S["kernel"])
    latencies, probes = [], [probe()]
    items = wl.items
    while sum(latencies) < args.seconds or len(latencies) < MIN_TASKS:
        latencies.append(runner.attempt(items[len(latencies) % len(items)]))
        probes.append(probe())
    metrics = {}
    if wl.cli:
        metrics["peak_rss_mb"] = metric(wl.peak_rss_kib / 1024.0, "MB", samples=len(latencies))
    elif task_rss:
        metrics["peak_rss_mb"] = metric(statistics.median(task_rss) / 1024.0, "MB", samples=len(task_rss))
    if setups:
        scaled = at_reference_speed(setups, setup_probes, PROBE_REF_S["interpreter"])
        metrics["setup_s"] = metric(statistics.median(scaled), "s", samples=len(setups))
    metrics.update(latency_metrics(at_reference_speed(latencies, probes, reference)))
    metrics["failed_ratio"] = metric(runner.failed / runner.attempted, "1", samples=runner.attempted)
    # The same figures as measured, before scaling to the reference speed.
    if setups:
        metrics["raw.setup_s"] = metric(statistics.median(setups), "s", samples=len(setups))
    metrics.update({f"raw.{k}": v for k, v in latency_metrics(latencies).items()})
    metrics["raw.speed_probe_ms"] = metric(1e3 * statistics.median(probes), "ms", samples=len(probes),
                                           reference_ms=1e3 * reference)
    runner.series_ms = {name: [1e3 * t for t in values] for name, values in (
        ("tasks", latencies), ("probes", probes), ("setups", setups), ("setup_probes", setup_probes))}
    return runner, metrics, END_TO_END


def latency_metrics(latencies: list) -> dict:
    n = len(latencies)
    return {
        "task_p50_ms": metric(1e3 * statistics.median(latencies), "ms", samples=n),
        "tasks_per_s": metric(n / sum(latencies), "1/s", samples=n),
    }


def cli_probes() -> dict:
    def median_run(code):
        return statistics.median(time_interpreter(code) for _ in range(CLI_PROBES))

    interpreter = median_run("pass")
    imported = median_run("import pathcorr.cli")
    return {
        "cli.interpreter_ms": metric(1e3 * interpreter, "ms", samples=CLI_PROBES),
        "cli.import_ms": metric(1e3 * (imported - interpreter), "ms", samples=CLI_PROBES),
    }


def run_traced(wl, args) -> tuple:
    import numpy as np

    import tracer as tracing
    import workloads

    metrics = cli_probes()
    runner = Runner(wl, inprocess=wl.cli, corrupt=args.corrupt)
    runner.attempt(wl.items[0], timed=False)
    n_plain, t_plain = runner.cycles(args.seconds / 2.0)
    tracer = tracing.Tracer()
    scaling = []
    tracer.install()
    try:
        n_traced, t_traced = runner.cycles(args.seconds / 2.0, tracer)
        if isinstance(wl, workloads.DenseWorkload):
            rng = np.random.default_rng([args.seed, 5])
            for d in (20, 40, 60) if args.tiny else SCALING_DIMS:
                tracer.task = f"d{d}"
                runner.attempt(wl.make_item(rng, d))
                scaling.append(d)
    finally:
        tracer.uninstall()
    metrics.update(tracer.summarize(range(n_traced), n_traced))
    for d in scaling:
        sized = tracer.summarize([f"d{d}"], 1, suffix=f".d{d}")
        metrics.update({f"{name}.ms.d{d}": sized[f"{name}.ms.d{d}"] for name in PIPELINE})
    metrics["trace.overhead_ratio"] = metric((t_traced / n_traced) / (t_plain / n_plain), "ratio",
                                             traced_tasks=n_traced, untraced_tasks=n_plain)
    tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    return runner, metrics, PER_LAYER


# Metrics on the last line, as listed in BENCHMARK.json.  failed_ratio is
# carried by "failed" / "attempted" there, since it is 0 on a correct run.
# No tail latency: tasks take 0.4 to 0.8 s, so a run holds 20 to 40 of
# them, and no percentile above the median has ten samples beyond it.
END_TO_END = ("setup_s", "task_p50_ms", "tasks_per_s", "peak_rss_mb")
# Per-layer metrics defined on every workload; the report line adds the
# ones that exist only where a layer is called.
PER_LAYER = (
    *(f"{layer}.{what}" for layer in ("cli", "fileio", "matrices", "pathsum", "transforms",
                                      "chains", "gaussinfo", "sampling")
      for what in ("calls", "errors")),
    *(f"{layer}.{what}" for layer in ("matrices", "pathsum", "transforms", "gaussinfo", "sampling")
      for what in ("factorizations", "gflop")),
    "matrices.validations",
    "matrices.eigvalsh_calls",
    "pathsum.star_path_sum_closed.calls",
    "chains.chain_sums.calls",
    "fileio.bytes_read",
    "fileio.bytes_written",
    "matrices.self_ms",
    "matrices.partial_to_marginal_oracle.ms",
    "cli.interpreter_ms",
    "cli.import_ms",
    "trace.overhead_ratio",
)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pathcorr" / "__init__.py").is_file():
        print(f"error: no pathcorr sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import pathcorr

    imported = time.monotonic()
    if Path(pathcorr.__file__).resolve().parent != (SRC / "pathcorr").resolve():
        print(f"error: pathcorr imported from {pathcorr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe_main(workload_cls, args, imported)

    wl = workload_cls(args.seed, args.tiny, fresh_dir(OUT / f"{args.workload}-seed{args.seed}"))
    runner, metrics, listed = (run_traced if args.trace else run_untraced)(wl, args)
    missing = [name for name in listed if name not in metrics]
    report = {
        "environment": environment(args),
        "trace": args.trace,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "missing_metrics": missing,
        "metrics": metrics,
        "file_digests": dict(sorted(getattr(wl, "digests", {}).items())),
        "series_ms": runner.series_ms,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    print(json.dumps({"report": report}))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
