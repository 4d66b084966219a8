"""``tools/bench_entry.py``: merging harness reports into BENCH_<n>.json.

The harness itself is replaced by stored reports, so nothing is timed here.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_entry.py"
_spec = importlib.util.spec_from_file_location("bench_entry", _PATH)
bench_entry = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_entry)

ENV = {"nproc": 2, "blas": "openblas", "blas_threads": 1, "python": "3.11.7",
       "numpy": "2.4.6", "scipy": "1.17.1", "seed": 1, "run_seconds": 14.0,
       "git_commit": "abc", "load": "closed loop, one client, one process"}


def report(workload, trace, p50, **env):
    return {"environment": dict(ENV, workload=workload, **env), "trace": trace,
            "metrics": {"task_p50_ms": {"value": p50, "unit": "ms"}},
            "series_ms": {"tasks": [p50, p50]}}


WORKLOADS = ("cli_small", "dense_500", "pair_sweep", "convert_large")


def write_benchmark(root, names):
    doc = {"workloads": [{"name": name} for name in names]}
    (root / "BENCHMARK.json").write_text(json.dumps(doc))


@pytest.fixture
def root(tmp_path):
    (tmp_path / "src" / "pathcorr").mkdir(parents=True)
    (tmp_path / "src" / "pathcorr" / "a.py").write_text("x = 1\n")
    write_benchmark(tmp_path, WORKLOADS)
    return tmp_path


def fake_harness(p50, **env):
    def run(root, workload, seed, seconds, trace):
        assert (seed, seconds) == (1, 14.0)
        return report(workload, trace, p50, **env)

    return run


def test_merges_every_run_with_its_series(monkeypatch, root, capsys):
    monkeypatch.setattr(bench_entry, "ROOT", root)
    monkeypatch.setattr(bench_entry, "sources_committed", lambda root: True)
    monkeypatch.setattr(bench_entry, "run_harness", fake_harness(90.0))
    assert bench_entry.main([]) == 0
    entry = json.loads((root / "BENCH_1.json").read_text())
    assert entry["entry"] == 1
    assert sorted(entry["runs"]) == sorted(
        [f"{w}-trace0" for w in WORKLOADS] + ["dense_500-trace1"])
    assert entry["runs"]["dense_500-trace1"]["series_ms"] == {"tasks": [90.0, 90.0]}
    assert entry["environment"] == {k: ENV[k] for k in bench_entry.FINGERPRINT
                                    + bench_entry.SETTINGS}
    assert entry["git_commit"] == "abc"
    assert entry["source_sha256"] == bench_entry.source_digest(root)
    assert capsys.readouterr().out == "wrote BENCH_1.json\n"


def test_runs_every_workload_the_benchmark_names(monkeypatch, root):
    write_benchmark(root, WORKLOADS + ("fifth",))
    monkeypatch.setattr(bench_entry, "ROOT", root)
    monkeypatch.setattr(bench_entry, "run_harness", fake_harness(90.0))
    assert bench_entry.main([]) == 0
    entry = json.loads((root / "BENCH_1.json").read_text())
    assert sorted(entry["runs"]) == sorted(
        [f"{w}-trace0" for w in WORKLOADS + ("fifth",)] + ["dense_500-trace1"])


class FakeGit:
    """Stands in for subprocess.run: records the git call, answers with
    ``stdout`` and ``returncode``, or raises ``error``."""

    def __init__(self, stdout="", returncode=0, error=None):
        self.stdout, self.returncode, self.error, self.calls = stdout, returncode, error, []

    def __call__(self, cmd, cwd, **kw):
        self.calls.append((cmd, cwd))
        if self.error:
            raise self.error
        return subprocess.CompletedProcess(cmd, self.returncode, self.stdout, "")


def test_names_the_commit_only_when_head_holds_the_sources(monkeypatch, root, capsys):
    runs = {"a-trace0": report("a", 0, 1.0)}
    clean = FakeGit()
    monkeypatch.setattr(bench_entry.subprocess, "run", clean)
    assert bench_entry.merge(runs, root)["git_commit"] == "abc"
    assert clean.calls == [(["git", "status", "--porcelain", "--", "src/pathcorr"], root)]
    assert capsys.readouterr().err == ""
    for git in (FakeGit(stdout=" M src/pathcorr/a.py\n"), FakeGit(stdout="?? src/pathcorr/\n"),
                FakeGit(returncode=128), FakeGit(error=FileNotFoundError("git"))):
        monkeypatch.setattr(bench_entry.subprocess, "run", git)
        assert bench_entry.merge(runs, root)["git_commit"] is None
        assert capsys.readouterr().err == (
            "the entry's sources are not a commit's: git_commit is null\n")


def test_compares_with_the_last_entry_in_the_same_environment(monkeypatch, root, capsys):
    monkeypatch.setattr(bench_entry, "ROOT", root)
    monkeypatch.setattr(bench_entry, "run_harness", fake_harness(100.0))
    assert bench_entry.main([]) == 0
    monkeypatch.setattr(bench_entry, "run_harness", fake_harness(90.0))
    assert bench_entry.main([]) == 0
    out = capsys.readouterr().out
    assert "wrote BENCH_2.json\nagainst BENCH_1.json:" in out
    assert "dense_500-trace0 task_p50_ms: 100 -> 90 (0.900x)" in out


def test_speed_probes_come_first_and_raw_timings_are_tagged():
    def entry(scale):
        runs = {}
        for name, trace in (("a-trace0", 0), ("b-trace0", 0), ("b-trace1", 1)):
            run = report(name[0], trace, 100.0 * scale)
            run["metrics"].update({
                "raw.speed_probe_ms": {"value": 25.0 * scale, "unit": "ms"},
                "raw.setup_s": {"value": 0.5 * scale, "unit": "s"},
                "m.calls": {"value": 3.0, "unit": "count"},
            })
            runs[name] = run
        return {"environment": ENV, "runs": runs}

    comparable, lines = bench_entry.compare(entry(1.0), entry(0.8))
    assert comparable
    assert lines[:3] == [f"{name} raw.speed_probe_ms: 25 -> 20 (0.800x) [raw]"
                         for name in ("a-trace0", "b-trace0", "b-trace1")]
    assert len(lines) == 3 * 4
    assert "a-trace0 raw.setup_s: 0.5 -> 0.4 (0.800x) [raw]" in lines
    # A probe-scaled figure and a count are not raw; a traced run's ms are.
    assert "a-trace0 task_p50_ms: 100 -> 80 (0.800x)" in lines
    assert "b-trace1 task_p50_ms: 100 -> 80 (0.800x) [raw]" in lines
    assert "b-trace1 m.calls: 3 -> 3 (1.000x)" in lines


def test_refuses_to_compare_across_environments(monkeypatch, root, capsys):
    monkeypatch.setattr(bench_entry, "ROOT", root)
    monkeypatch.setattr(bench_entry, "run_harness", fake_harness(100.0))
    assert bench_entry.main([]) == 0
    monkeypatch.setattr(bench_entry, "run_harness", fake_harness(90.0, numpy="2.5.0"))
    assert bench_entry.main([]) == 0
    out = capsys.readouterr().out
    assert "not compared with BENCH_1.json: the environments differ" in out
    assert "numpy: '2.4.6' vs '2.5.0'" in out
    assert "task_p50_ms" not in out


def test_a_failed_run_writes_no_entry(monkeypatch, root, capsys):
    def failing(root, workload, seed, seconds, trace):
        raise RuntimeError("perfbench/run.py exited with 1")

    monkeypatch.setattr(bench_entry, "ROOT", root)
    monkeypatch.setattr(bench_entry, "run_harness", failing)
    assert bench_entry.main([]) == 1
    assert not list(root.glob("BENCH_*.json"))
    assert "no entry written" in capsys.readouterr().err


def test_runs_of_one_entry_must_share_their_environment(root):
    runs = {"a-trace0": report("a", 0, 1.0), "b-trace0": report("b", 0, 1.0, nproc=8)}
    with pytest.raises(ValueError):
        bench_entry.merge(runs, root)


def test_entries_are_numbered_past_the_last(root):
    for name in ("BENCH_2.json", "BENCH_10.json", "BENCH_x.json", "BENCH_1.json.bak"):
        (root / name).write_text("{}")
    assert [p.name for p in bench_entry.entries(root)] == ["BENCH_2.json", "BENCH_10.json"]
