#!/usr/bin/env python3
"""Run the benchmark harness and merge its reports into one BENCH_<n>.json entry.

    python3 tools/bench_entry.py [--seed 1] [--seconds 14] [--against BENCH_<k>.json]

From the repository root it runs ``perfbench/run.py`` as a subprocess for
every workload the root ``BENCHMARK.json`` names, with ``--trace 0``, then
once for dense_500 with ``--trace 1`` (the layer table, at d = 100, 400 and
1000).  It reads the report each run stores under ``perfbench/.out/``
and writes all of them, raw series included, to ``BENCH_<n>.json`` at the
repository root, n one past the last entry there; a run that fails leaves no entry.  The entry names the
harness's git commit only when ``git status`` shows no change under
``src/pathcorr``; otherwise its ``git_commit`` is null.

Against an earlier entry (``--against``, else the last one) it compares
the metrics only when both were made in the same environment: the same
fingerprint (CPU count, BLAS and its thread count, Python, numpy and scipy
versions) and the same seed and run length.  Otherwise it says so and
compares nothing.  Each workload's speed probe ratio is printed first,
and raw timings, which move with the host's speed, are tagged [raw].
One entry holds one run per workload, so a claim still rests on
alternating parent/change pairs; the entry keeps the figures.
Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED = "dense_500"
# The environment keys two entries must share to be compared.
FINGERPRINT = ("nproc", "blas", "blas_threads", "python", "numpy", "scipy")
SETTINGS = ("seed", "run_seconds")
# The harness's speed probe, a fixed loop timed between tasks: how fast the host ran.
PROBE = "raw.speed_probe_ms"


def run_harness(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run; the report it stored."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    path = root / "perfbench" / ".out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def source_digest(root: Path) -> str:
    """sha256 over the package's source files, names and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "pathcorr").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fingerprint(entry: dict) -> dict:
    """The environment and settings an entry's runs share; a run that
    disagrees with the first makes the entry unusable."""
    envs = [run["environment"] for run in entry["runs"].values()]
    first = {k: envs[0].get(k) for k in FINGERPRINT + SETTINGS}
    for env in envs[1:]:
        if {k: env.get(k) for k in FINGERPRINT + SETTINGS} != first:
            raise ValueError("the runs of one entry disagree on their environment")
    return first


def sources_committed(root: Path) -> bool:
    """True when git at ``root`` sees no change to the package's sources
    against HEAD, so HEAD holds the sources that were measured."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--", "src/pathcorr"],
                              cwd=root, capture_output=True, text=True)
    except OSError:
        return False
    return proc.returncode == 0 and proc.stdout == ""


def merge(runs: dict, root: Path) -> dict:
    """The entry for ``runs`` ({"<workload>-trace<t>": report}).

    ``git_commit`` is the harness's HEAD only when HEAD holds the measured
    sources; otherwise it is null, and one line says so.
    """
    entry = {"source_sha256": source_digest(root), "runs": runs}
    entry["environment"] = fingerprint(entry)
    commit = next(iter(runs.values()))["environment"].get("git_commit")
    if not sources_committed(root):
        print("the entry's sources are not a commit's: git_commit is null", file=sys.stderr)
        commit = None
    entry["git_commit"] = commit
    return entry


def entry_number(path: Path) -> int | None:
    m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(m.group(1)) if m else None


def entries(root: Path) -> list:
    """The BENCH_<n>.json files at ``root``, by n."""
    found = [(entry_number(p), p) for p in root.glob("BENCH_*.json")]
    return [p for n, p in sorted((n, p) for n, p in found if n is not None)]


def compare(old: dict, new: dict) -> tuple:
    """(comparable, lines): the differing fingerprint keys, or one line per
    metric the two entries share, old -> new with the ratio.

    Each run's speed probe comes first: raw timings of two sessions differ
    by the host's speed as much as by the code.  Those raw timings (every
    ``raw.*`` metric, and the ms and s of a traced run) are tagged [raw].
    """
    a, b = old["environment"], new["environment"]
    differ = [k for k in FINGERPRINT + SETTINGS if a.get(k) != b.get(k)]
    if differ:
        return False, [f"{k}: {a.get(k)!r} vs {b.get(k)!r}" for k in differ]
    shared = [(name, metric) for name in sorted(set(old["runs"]) & set(new["runs"]))
              for metric in sorted(set(old["runs"][name]["metrics"])
                                   & set(new["runs"][name]["metrics"]))]
    lines = []
    for name, metric in sorted(shared, key=lambda pair: pair[1] != PROBE):  # stable: probes first
        run = new["runs"][name]
        x, y = old["runs"][name]["metrics"][metric]["value"], run["metrics"][metric]["value"]
        ratio = f"{y / x:.3f}x" if x else "n/a"
        raw = metric.startswith("raw.") or (
            run.get("trace") == 1 and run["metrics"][metric].get("unit") in ("ms", "s"))
        lines.append(f"{name} {metric}: {x:.6g} -> {y:.6g} ({ratio})" + (" [raw]" if raw else ""))
    return True, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=14.0)
    p.add_argument("--against", type=Path, help="earlier entry (default: the last one)")
    args = p.parse_args(argv)

    earlier = entries(ROOT)
    against = args.against or (earlier[-1] if earlier else None)
    runs = {}
    try:
        names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
        for workload, trace in [(w, 0) for w in names] + [(TRACED, 1)]:
            print(f"running {workload} --trace {trace}", file=sys.stderr)
            runs[f"{workload}-trace{trace}"] = run_harness(ROOT, workload, args.seed,
                                                           args.seconds, trace)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}; no entry written", file=sys.stderr)
        return 1
    entry = merge(runs, ROOT)
    n = (entry_number(earlier[-1]) if earlier else 0) + 1
    out = ROOT / f"BENCH_{n}.json"
    out.write_text(json.dumps({"entry": n, **entry}, indent=2) + "\n")
    print(f"wrote {out.name}")
    if against is None:
        return 0
    comparable, lines = compare(json.loads(against.read_text()), entry)
    if not comparable:
        print(f"not compared with {against.name}: the environments differ", *lines, sep="\n  ")
        return 0
    print(f"against {against.name}:", *lines, sep="\n  ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
