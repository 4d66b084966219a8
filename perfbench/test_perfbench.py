"""The benchmark's own test: every workload at tiny size.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q

It checks that every metric named in BENCHMARK.json is printed, that a
deliberately corrupted result is counted as failed, that the truncated
path-sum reference catches a wrong rho_hat(L), and that digests and
per-layer counts repeat between runs.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNT_UNITS = ("count", "B", "GFLOP")


sys.path[:0] = [str(ROOT / "src"), str(HERE)]


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, *extra: str, repeat: int = 0) -> tuple:
    """(report, result) of one tiny run; ``repeat`` asks for a fresh run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed(workload):
    report, result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert report["metrics"]["failed_ratio"]["value"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_printed(workload):
    report, result = run(workload, 1)
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"], report["problems"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_counts_as_failed(workload):
    report, result = run(workload, 0, "--corrupt")
    assert result["failed"] == 1 and not result["correct"]
    assert report["metrics"]["failed_ratio"]["value"] == 1 / result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_digests_repeat(workload):
    first, _ = run(workload, 1)
    second, _ = run(workload, 1, repeat=1)
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    # The untraced run calls the CLI in fresh interpreters, the traced run in
    # process; both must write the same bytes.
    assert first["file_digests"] == run(workload, 0)[0]["file_digests"]


def test_truncated_reference_catches_a_wrong_profile():
    import numpy as np

    import pathcorr as pc
    import workloads

    rng = np.random.default_rng(7)
    w, _ = workloads.sample_precision_graph(rng, 10, 20)
    q = 0.5 * 2.0 / (1.0 + float(np.max(np.abs(np.linalg.eigvalsh(w)))))
    ref = workloads.marginal_reference(w)[2, 5]
    trunc = workloads.truncated_reference(workloads.rescaled_weights(w, q), 2, 5, 20)
    rg = pc.rescale(pc.validate_partial_graph(w), q)
    rows = [(p.L, p.rho_hat, p.abs_gap) for p in pc.convergence_profile(rg, 2, 5, 20)]
    problems: list = []
    workloads._check_profile(problems, rows, ref, trunc, "profile")
    assert problems == []
    # A profile one length short at L = 20, with a gap column that agrees with it.
    rho = rows[-2][1]
    workloads._check_profile(problems, rows[:-1] + [(20, rho, abs(rho - ref))], ref, trunc, "profile")
    assert problems and "rho_hat(L)" in problems[0]
