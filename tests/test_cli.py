"""File formats and the command-line front end.

CLI checks call ``main`` in-process and hold its outputs against the
library functions it dispatches to; the CLI must never disagree with
the modules.
"""

import csv
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathcorr import (
    ChainSpec,
    CovarianceMatrix,
    FileFormatError,
    MarginalCorrelationMatrix,
    MartingaleSpec,
    PartialCorrelationGraph,
    PrecisionMatrix,
    SampleSpec,
    amplification_factor,
    chain_pair_corr,
    conditional_mi_closed,
    convergence_profile,
    cov_to_marginal,
    cov_to_precision,
    latent_reduce,
    marginal_corr_expansion,
    marginalize_nodes,
    martingale_covariance,
    partial_to_marginal_oracle,
    partial_to_precision,
    precision_to_cov,
    precision_to_partial,
    rescale,
    sample_partial_graph,
    sever_nodes,
    validate_partial_graph,
)
from pathcorr import fileio
from pathcorr.cli import FIG4_R_GRID, FIG6_COUPLING, main
from pathcorr.gaussinfo import TriPartition

from conftest import scaled_random_graph


def chain_graph(d, r, **kw):
    w = np.zeros((d, d))
    for k in range(d - 1):
        w[k, k + 1] = w[k + 1, k] = r
    return PartialCorrelationGraph(w, **kw)


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestFileRoundTrips:
    def test_partial_graph(self, tmp_path):
        g = chain_graph(4, 0.3, labels=("a", "b", "c", "d"))
        path = tmp_path / "g.json"
        fileio.save_matrix(g, path)
        loaded, provenance = fileio.load_matrix(path)
        assert isinstance(loaded, PartialCorrelationGraph)
        assert np.array_equal(loaded.weights, g.weights)
        assert loaded.node_labels == ("a", "b", "c", "d")
        assert loaded.scale is None
        assert provenance is None

    def test_scale_round_trips(self, tmp_path):
        g = chain_graph(3, 0.3, scale=np.array([1.0, 2.0, 0.5]))
        path = tmp_path / "g.json"
        fileio.save_matrix(g, path)
        loaded, _ = fileio.load_matrix(path)
        assert np.array_equal(loaded.scale, [1.0, 2.0, 0.5])

    def test_scale_key_absent_without_scale(self, tmp_path):
        path = tmp_path / "g.json"
        fileio.save_matrix(chain_graph(3, 0.3), path)
        assert "scale" not in json.loads(path.read_text())

    def test_other_kinds(self, tmp_path):
        cov = martingale_covariance(
            MartingaleSpec(horizon=4, alpha=0.5, innovation_variances=np.ones(4))
        )
        objs = [
            cov,
            cov_to_precision(cov),
            MarginalCorrelationMatrix(np.array([[1.0, 0.4], [0.4, 1.0]])),
        ]
        for k, obj in enumerate(objs):
            path = tmp_path / f"m{k}.json"
            fileio.save_matrix(obj, path)
            loaded, _ = fileio.load_matrix(path)
            assert type(loaded) is type(obj)
            assert np.array_equal(loaded.entries, obj.entries)

    def test_bytes_reproducible(self, tmp_path):
        g = scaled_random_graph(5, 5, 0.7)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        fileio.save_matrix(g, a)
        fileio.save_matrix(g, b)
        assert a.read_bytes() == b.read_bytes()
        # Values survive the text form exactly (shortest-repr floats).
        loaded, _ = fileio.load_matrix(a)
        assert np.array_equal(loaded.weights, g.weights)

    def test_provenance_round_trips(self, tmp_path):
        path = tmp_path / "g.json"
        fileio.save_matrix(chain_graph(3, 0.3), path, provenance={"seed": 7})
        _, provenance = fileio.load_matrix(path)
        assert provenance == {"seed": 7}

    def test_csv_round_trip(self, tmp_path):
        g = scaled_random_graph(6, 4, 0.6)
        path = tmp_path / "g.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in g.weights:
                writer.writerow([repr(float(x)) for x in row])
        loaded = fileio.load_csv_matrix(path, "partial")
        assert np.array_equal(loaded.weights, g.weights)


class TestFileValidation:
    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("this is not json")
        with pytest.raises(FileFormatError):
            fileio.load_matrix(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FileFormatError):
            fileio.load_matrix(path)

    def test_required_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "partial", "dim": 2}))
        with pytest.raises(FileFormatError):
            fileio.load_matrix(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"kind": "magic", "dim": 1, "data": [[1.0]]})
        )
        with pytest.raises(FileFormatError):
            fileio.load_matrix(path)

    def test_square_data_required(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"kind": "partial", "dim": 2, "data": [[0.0, 0.1, 0.2], [0.1, 0.0, 0.3]]}
            )
        )
        with pytest.raises(FileFormatError):
            fileio.load_matrix(path)

    def test_dim_must_match(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"kind": "partial", "dim": 3, "data": [[0.0, 0.1], [0.1, 0.0]]})
        )
        with pytest.raises(FileFormatError):
            fileio.load_matrix(path)

    def test_csv_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,oops\n0.3,0.0\n")
        with pytest.raises(FileFormatError):
            fileio.load_csv_matrix(path, "partial")

    def test_csv_rejects_non_square(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.3,0.1\n0.3,0.0,0.2\n")
        with pytest.raises(FileFormatError):
            fileio.load_csv_matrix(path, "partial")

    def test_unmapped_type_rejected(self):
        with pytest.raises(TypeError):
            fileio.kind_of(np.eye(2))

    def test_scale_only_on_partial_graphs(self, run, tmp_path):
        src = tmp_path / "cov.json"
        doc = {
            "kind": "covariance",
            "dim": 2,
            "data": [[1.0, 0.2], [0.2, 1.0]],
            "scale": [1.0, 1.0],
        }
        src.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError):
            fileio.load_matrix(src)
        out = tmp_path / "m.json"
        code, _, stderr = run("convert", "--in", str(src), "--to", "marginal", "--out", str(out))
        assert code == 1
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert not out.exists()

    def test_non_finite_provenance_refused_on_save(self, run, tmp_path):
        path = tmp_path / "g.json"
        with pytest.raises(FileFormatError):
            fileio.save_matrix(chain_graph(2, 0.3), path, provenance={"nu": float("nan")})
        assert not path.exists()
        # A source file may carry NaN (Python's json reads it); convert
        # must not copy it into an output that is not valid JSON.
        src = tmp_path / "src.json"
        doc = {
            "kind": "partial",
            "dim": 2,
            "data": [[0.0, 0.3], [0.3, 0.0]],
            "provenance": {"nu": float("nan")},
        }
        src.write_text(json.dumps(doc))
        code, _, stderr = run("convert", "--in", str(src), "--to", "marginal", "--out", str(path))
        assert code == 1
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize(
        "name, content, kind",
        [
            ("bytes.json", b'\xff\xfe{"kind"', None),
            ("deep.json", b"[" * 100_000, None),
            ("bytes.csv", b"0.0,0.3\n\xff,0.0\n", "partial"),
        ],
        ids=["json-bytes", "json-depth", "csv-bytes"],
    )
    def test_unreadable_file_is_one_error_line(self, run, tmp_path, name, content, kind):
        src = tmp_path / name
        src.write_bytes(content)
        out = tmp_path / "m.json"
        argv = ["convert", "--in", str(src), "--to", "marginal", "--out", str(out)]
        code, _, stderr = run(*argv, *(["--kind", kind] if kind else []))
        assert code == 1
        assert stderr.startswith("error:") and stderr.count("\n") == 1

    def test_save_json_layout(self, tmp_path):
        path = tmp_path / "r.json"
        fileio.save_json({"a": [1, 2.5], "b": None}, path)
        assert path.read_text() == json.dumps({"a": [1, 2.5], "b": None}, indent=2) + "\n"


@pytest.fixture
def graph_file(tmp_path):
    g = scaled_random_graph(8, 5, 0.7)
    path = tmp_path / "g.json"
    fileio.save_matrix(g, path)
    return g, str(path)


class TestConvertCommand:
    def test_partial_to_marginal(self, run, graph_file, tmp_path):
        g, path = graph_file
        out = tmp_path / "m.json"
        code, stdout, _ = run("convert", "--in", path, "--to", "marginal", "--out", str(out))
        assert code == 0
        assert "marginal" in stdout
        loaded, _ = fileio.load_matrix(out)
        assert isinstance(loaded, MarginalCorrelationMatrix)
        expected = partial_to_marginal_oracle(g).entries
        assert np.max(np.abs(loaded.entries - expected)) == 0.0

    def test_covariance_to_partial(self, run, tmp_path):
        cov = martingale_covariance(
            MartingaleSpec(horizon=4, alpha=0.6, innovation_variances=np.ones(4))
        )
        src = tmp_path / "cov.json"
        out = tmp_path / "g.json"
        fileio.save_matrix(cov, src)
        code, _, _ = run("convert", "--in", str(src), "--to", "partial", "--out", str(out))
        assert code == 0
        loaded, _ = fileio.load_matrix(out)
        expected = precision_to_partial(cov_to_precision(cov))
        assert np.array_equal(loaded.weights, expected.weights)
        assert np.array_equal(loaded.scale, expected.scale)

    def test_marginal_reinterpreted_as_standardised_covariance(self, run, tmp_path):
        marg = MarginalCorrelationMatrix(np.array([[1.0, 0.4], [0.4, 1.0]]))
        src = tmp_path / "m.json"
        out = tmp_path / "c.json"
        fileio.save_matrix(marg, src)
        code, _, _ = run("convert", "--in", str(src), "--to", "covariance", "--out", str(out))
        assert code == 0
        loaded, _ = fileio.load_matrix(out)
        assert isinstance(loaded, CovarianceMatrix)
        assert np.array_equal(loaded.entries, marg.entries)

    def test_provenance_carried_through(self, run, tmp_path):
        src = tmp_path / "g.json"
        out = tmp_path / "p.json"
        fileio.save_matrix(chain_graph(3, 0.3), src, provenance={"note": "kept"})
        run("convert", "--in", str(src), "--to", "marginal", "--out", str(out))
        _, provenance = fileio.load_matrix(out)
        assert provenance == {"note": "kept"}

    def test_csv_input_needs_kind(self, run, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0.0,0.3\n0.3,0.0\n")
        out = tmp_path / "out.json"
        code, _, stderr = run("convert", "--in", str(path), "--to", "marginal", "--out", str(out))
        assert code == 1
        assert "error:" in stderr
        code, _, _ = run(
            "convert", "--in", str(path), "--kind", "partial", "--to", "marginal",
            "--out", str(out),
        )
        assert code == 0


def _as_covariance(m):
    return CovarianceMatrix(m.entries, labels=m.labels)


# The library chain each (source, target) conversion must reproduce.
CONVERT_ROUTES = {
    ("partial", "marginal"): partial_to_marginal_oracle,
    ("partial", "precision"): partial_to_precision,
    ("partial", "covariance"): lambda g: precision_to_cov(partial_to_precision(g)),
    ("precision", "marginal"): lambda p: cov_to_marginal(precision_to_cov(p)),
    ("precision", "covariance"): precision_to_cov,
    ("precision", "partial"): precision_to_partial,
    ("covariance", "marginal"): cov_to_marginal,
    ("covariance", "precision"): cov_to_precision,
    ("covariance", "partial"): lambda c: precision_to_partial(cov_to_precision(c)),
    ("marginal", "covariance"): _as_covariance,
    ("marginal", "precision"): lambda m: cov_to_precision(_as_covariance(m)),
    ("marginal", "partial"): lambda m: precision_to_partial(
        cov_to_precision(_as_covariance(m))
    ),
}


class TestConvertRoutes:
    @pytest.mark.parametrize("source, target", sorted(CONVERT_ROUTES))
    def test_bytes_equal_library_chain(self, run, tmp_path, source, target):
        g = PartialCorrelationGraph(
            scaled_random_graph(21, 5, 0.7).weights,
            scale=np.linspace(0.5, 2.0, 5),
            labels=("a", "b", "c", "d", "e"),
        )
        precision = partial_to_precision(g)
        objs = {
            "partial": g,
            "precision": precision,
            "covariance": precision_to_cov(precision),
            "marginal": partial_to_marginal_oracle(g),
        }
        src = tmp_path / "src.json"
        fileio.save_matrix(objs[source], src)
        loaded, _ = fileio.load_matrix(src)
        expected = tmp_path / "expected.json"
        fileio.save_matrix(CONVERT_ROUTES[source, target](loaded), expected)
        out = tmp_path / "out.json"
        code, _, _ = run("convert", "--in", str(src), "--to", target, "--out", str(out))
        assert code == 0
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("target", ["precision", "covariance"])
    def test_unscaled_graph_needs_scale(self, run, graph_file, tmp_path, target):
        _, path = graph_file
        out = tmp_path / "out.json"
        code, _, stderr = run("convert", "--in", path, "--to", target, "--out", str(out))
        assert code == 1
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert not out.exists()


class TestExpandAndProfile:
    def test_expand_matches_module(self, run, graph_file, tmp_path):
        g, path = graph_file
        out = tmp_path / "r.json"
        code, stdout, _ = run(
            "expand", "--in", path, "--i", "x1", "--j", "x3", "--L", "25",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rho_hat"] == pytest.approx(
            marginal_corr_expansion(g, 0, 2, 25), abs=1e-15
        )
        assert doc["oracle"] == pytest.approx(
            partial_to_marginal_oracle(g).entries[0, 2], abs=1e-15
        )
        assert "rho_hat" in stdout and "gap" in stdout

    def test_expand_with_q_matches_module(self, run, graph_file, tmp_path):
        g, path = graph_file
        out = tmp_path / "r.json"
        code, _, _ = run(
            "expand", "--in", path, "--i", "x1", "--j", "x2", "--L", "30",
            "--q", "0.9", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rho_hat"] == pytest.approx(
            marginal_corr_expansion(rescale(g, 0.9), 0, 1, 30), abs=1e-15
        )

    def test_unknown_label_is_domain_error(self, run, graph_file):
        _, path = graph_file
        code, _, stderr = run("expand", "--in", path, "--i", "nope", "--j", "x2", "--L", "5")
        assert code == 1
        assert stderr.startswith("error:")

    def test_profile_matches_module(self, run, graph_file, tmp_path):
        g, path = graph_file
        out = tmp_path / "prof.csv"
        code, _, _ = run(
            "profile", "--in", path, "--i", "x1", "--j", "x4", "--Lmax", "12",
            "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["L", "rho_hat", "abs_gap"]
        assert len(rows) == 13
        points = convergence_profile(g, 0, 3, 12)
        for row, p in zip(rows[1:], points):
            assert int(row[0]) == p.L
            assert float(row[1]) == p.rho_hat
            assert float(row[2]) == p.abs_gap

    @pytest.mark.parametrize("q", [None, "0.9"], ids=["plain", "rescaled"])
    def test_expand_equals_last_profile_row(self, run, tmp_path, q):
        # On this graph and pair, pairwise summation (np.sum) of the
        # per-length terms misses the profile row in the last bits.
        path = tmp_path / "g.json"
        fileio.save_matrix(scaled_random_graph(0, 5, 0.7), path)
        extra = () if q is None else ("--q", q)
        common = ("--in", str(path), "--i", "x1", "--j", "x2") + extra
        out, prof = tmp_path / "r.json", tmp_path / "p.csv"
        assert run("expand", *common, "--L", "25", "--out", str(out))[0] == 0
        assert run("profile", *common, "--Lmax", "25", "--out", str(prof))[0] == 0
        doc = json.loads(out.read_text())
        with open(prof, newline="") as fh:
            last = list(csv.reader(fh))[-1]
        assert float(last[1]) == doc["rho_hat"]
        assert float(last[2]) == doc["abs_gap"]


class TestStructureCommands:
    def test_sever_matches_module(self, run, graph_file, tmp_path):
        g, path = graph_file
        out = tmp_path / "s.json"
        code, _, _ = run("sever", "--in", path, "--S", "x2,x4", "--out", str(out))
        assert code == 0
        loaded, _ = fileio.load_matrix(out)
        expected = sever_nodes(g, {1, 3})
        assert np.array_equal(loaded.weights, expected.weights)
        assert loaded.node_labels == ("x1", "x3", "x5")

    def test_marginalize_matches_module(self, run, graph_file, tmp_path):
        g, path = graph_file
        for method in ("block", "paths"):
            out = tmp_path / f"m_{method}.json"
            code, _, _ = run(
                "marginalize", "--in", path, "--S", "x5", "--method", method,
                "--out", str(out),
            )
            assert code == 0
            loaded, _ = fileio.load_matrix(out)
            expected = marginalize_nodes(g, {4}, method=method)
            assert np.array_equal(loaded.weights, expected.weights)

    def test_reduce_matches_module(self, run, tmp_path):
        w = np.zeros((6, 6))
        w[0, 1:5] = w[1:5, 0] = 0.25
        w[5, 1:5] = w[1:5, 5] = 0.25
        g = validate_partial_graph(w)
        src = tmp_path / "g.json"
        fileio.save_matrix(g, src)
        out = tmp_path / "red.json"
        enlarged = tmp_path / "enl.json"
        code, stdout, _ = run(
            "reduce", "--in", str(src), "--S", "x2,x3,x4,x5", "--out", str(out),
            "--out-enlarged", str(enlarged),
        )
        assert code == 0
        assert "1 latent" in stdout
        loaded, _ = fileio.load_matrix(out)
        expected = latent_reduce(g, {1, 2, 3, 4})
        assert np.array_equal(loaded.weights, expected.reduced_graph.weights)
        big, _ = fileio.load_matrix(enlarged)
        assert big.dim == 7

    def test_separators_report(self, run, tmp_path):
        src = tmp_path / "g.json"
        fileio.save_matrix(chain_graph(5, 0.4), src)
        out = tmp_path / "sep.json"
        code, stdout, _ = run("separators", "--in", str(src), "--out", str(out))
        assert code == 0
        assert stdout.count("node x") == 3
        doc = json.loads(out.read_text())
        assert [entry["node"] for entry in doc] == ["x2", "x3", "x4"]
        assert doc[1]["components"] == [["x1", "x2"], ["x4", "x5"]]
        assert all(entry["residual"] < 1e-9 for entry in doc)

    def test_separators_none_found(self, run, tmp_path):
        src = tmp_path / "g.json"
        w = np.full((3, 3), 0.3)
        np.fill_diagonal(w, 0.0)
        fileio.save_matrix(validate_partial_graph(w), src)
        code, stdout, _ = run("separators", "--in", str(src))
        assert code == 0
        assert "no separating nodes" in stdout


class TestChainCommand:
    def test_summary_mode(self, run):
        code, stdout, _ = run("chain", "--d", "10", "--r", "0.45")
        assert code == 0
        assert "correlation length" in stdout

    def test_summary_at_zero_coupling(self, run):
        code, stdout, _ = run("chain", "--d", "5", "--r", "0")
        assert code == 0
        assert "undefined" in stdout

    def test_pair_mode(self, run):
        code, stdout, _ = run("chain", "--d", "8", "--r", "0.4", "--i", "2", "--j", "6")
        assert code == 0
        rho = chain_pair_corr(ChainSpec(d=8, r=0.4), 2, 6)
        assert f"{rho:.12g}" in stdout

    def test_gamma_mode(self, run):
        code, stdout, _ = run(
            "chain", "--d", "13", "--r", "0.47", "--gamma", "--k", "10", "--m", "1"
        )
        assert code == 0
        assert f"{amplification_factor(10, 1, 0.47):.10g}" in stdout

    def test_gamma_needs_both_params(self, run):
        code, _, stderr = run("chain", "--d", "13", "--r", "0.3", "--gamma", "--k", "4")
        assert code == 1
        assert "error:" in stderr

    def test_pairs_table(self, run, tmp_path):
        out = tmp_path / "pairs.csv"
        code, _, _ = run(
            "chain", "--d", "5", "--r", "0.3", "--pairs", "all", "--out", str(out)
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 10
        spec = ChainSpec(d=5, r=0.3)
        for row in rows[1:]:
            assert float(row[2]) == chain_pair_corr(spec, int(row[0]), int(row[1]))

    def test_pairs_table_needs_out(self, run):
        code, _, stderr = run("chain", "--d", "5", "--r", "0.3", "--pairs", "all")
        assert code == 1
        assert "error:" in stderr

    def test_bad_coupling_is_domain_error(self, run):
        code, _, stderr = run("chain", "--d", "5", "--r", "0.6")
        assert code == 1
        assert stderr.startswith("error:")


class TestMiCommand:
    def test_closed_matches_module(self, run, graph_file, tmp_path):
        g, path = graph_file
        out = tmp_path / "mi.json"
        code, stdout, _ = run(
            "mi", "--in", path, "--A", "x1,x2", "--B", "x4", "--out", str(out)
        )
        assert code == 0
        doc = json.loads(out.read_text())
        expected = conditional_mi_closed(
            g, TriPartition.complement(5, (0, 1), (3,))
        ).nats
        assert doc["nats"] == pytest.approx(expected, abs=1e-15)
        assert doc["bits"] == pytest.approx(expected / np.log(2.0), abs=1e-15)
        assert doc["method"] == "closed"
        assert "terms" not in doc
        assert "nats" in stdout

    def test_explicit_conditioning_set(self, run, graph_file, tmp_path):
        g, path = graph_file
        out = tmp_path / "mi.json"
        code, _, _ = run(
            "mi", "--in", path, "--A", "x1", "--B", "x3", "--Z", "x2,x4,x5",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        expected = conditional_mi_closed(
            g, TriPartition(dim=5, A=(0,), B=(2,), Z=(1, 3, 4))
        ).nats
        assert doc["nats"] == pytest.approx(expected, abs=1e-15)

    def test_series_reports_terms(self, run, graph_file, tmp_path):
        g, path = graph_file
        out = tmp_path / "mi.json"
        code, stdout, _ = run(
            "mi", "--in", path, "--A", "x1", "--B", "x5", "--method", "series",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "trace-series"
        assert doc["terms"] >= 1
        closed = conditional_mi_closed(g, TriPartition.complement(5, (0,), (4,))).nats
        assert doc["nats"] == pytest.approx(closed, abs=1e-10)
        assert "terms" in stdout


class TestSampleCommand:
    def test_output_and_provenance(self, run, tmp_path):
        out = tmp_path / "s.json"
        code, stdout, stderr = run(
            "sample", "--d", "4", "--n", "200", "--seed", "11", "--out", str(out)
        )
        assert code == 0
        assert stderr == ""
        assert "nu(R)" in stdout
        loaded, provenance = fileio.load_matrix(out)
        expected = sample_partial_graph(SampleSpec(d=4, n=200, seed=11))
        assert np.array_equal(loaded.weights, expected.graph.weights)
        assert provenance["kind"] == "sample"
        assert provenance["generator"] == "philox4x64-10/inverse-cdf"
        assert provenance["d"] == 4 and provenance["n"] == 200 and provenance["seed"] == 11
        assert provenance["nu_R"] == expected.spectral.nu_R
        assert provenance["regime"] == expected.spectral.regime

    def test_byte_determinism(self, run, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run("sample", "--d", "3", "--n", "50", "--seed", "9", "--out", str(a))
        run("sample", "--d", "3", "--n", "50", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_flagged_sample_warns_but_succeeds(self, run, tmp_path):
        out = tmp_path / "s.json"
        code, _, stderr = run(
            "sample", "--d", "20", "--n", "23", "--seed", "0", "--out", str(out)
        )
        assert code == 0
        assert "warning" in stderr and "nu(R)" in stderr
        _, provenance = fileio.load_matrix(out)
        assert provenance["regime"] == "rescale-required"


class TestFigureCommand:
    def test_amplification_table(self, run, tmp_path):
        out = tmp_path / "fig4.csv"
        code, _, _ = run("figure", "fig4", "--k", "3", "--m", "4", "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "m", "gamma"]
        assert len(rows) == 1 + len(FIG4_R_GRID) * 4
        for row in rows[1:]:
            r, m, gamma = float(row[0]), int(row[1]), float(row[2])
            assert gamma == amplification_factor(3, m, r)

    def test_rescaling_table(self, run, tmp_path):
        out = tmp_path / "fig6.csv"
        code, _, _ = run("figure", "fig6", "--Lmax", "12", "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        qs = sorted({float(row[0]) for row in rows})
        assert len(qs) == 3
        # At the last truncation length the most aggressive rescaling
        # has converged furthest.
        final_gap = {q: None for q in qs}
        for row in rows:
            if int(row[1]) == 12:
                final_gap[float(row[0])] = float(row[3])
        assert final_gap[qs[2]] < final_gap[qs[0]]

    def test_rescaling_rows_are_profiles(self, run, tmp_path):
        # Without --Lmax, fig6 runs to L = 40: one convergence profile
        # of the rescaled 4-node graph per q, row for row.
        out = tmp_path / "fig6.csv"
        assert run("figure", "fig6", "--out", str(out))[0] == 0
        with open(out, newline="") as fh:
            rows = [tuple(map(float, row)) for row in list(csv.reader(fh))[1:]]
        w = np.full((4, 4), FIG6_COUPLING)
        np.fill_diagonal(w, 0.0)
        g = validate_partial_graph(w)
        expected = []
        for q in sorted({row[0] for row in rows}):
            points = convergence_profile(rescale(g, q), 0, 1, 40)
            expected += [(q, p.L, p.rho_hat, p.abs_gap) for p in points]
        assert len(expected) == 3 * 40
        assert rows == expected

    def test_sampled_profiles_default_length(self, run, tmp_path):
        out = tmp_path / "fig5.csv"
        code, _, _ = run(
            "figure", "fig5", "--d", "12", "--n", "50", "--seed", "1", "--out", str(out)
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(row[1]) for row in rows] == list(range(1, 11)) * 3

    def test_sampled_profiles_smoke(self, run, tmp_path):
        out = tmp_path / "fig5.csv"
        code, _, _ = run(
            "figure", "fig5", "--d", "12", "--n", "50", "--seed", "1",
            "--Lmax", "4", "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "L", "rho_hat", "abs_gap"]
        seeds = {row[0] for row in rows[1:]}
        assert len(seeds) == 3
        assert len(rows) == 1 + 3 * 4


class TestExitStatus:
    def test_usage_error_is_two(self, run):
        code, _, _ = run()
        assert code == 2
        code, _, _ = run("no-such-command")
        assert code == 2
        code, _, _ = run("expand", "--i", "x1")
        assert code == 2

    def test_missing_file_is_one(self, run):
        code, _, stderr = run(
            "expand", "--in", "/nonexistent/g.json", "--i", "a", "--j", "b", "--L", "3"
        )
        assert code == 1
        assert stderr.startswith("error:")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("data", [[0.0, float("nan")], [float("nan"), 0.0]]),
            ("data", [[0.0, float("inf")], [float("inf"), 0.0]]),
            ("scale", ["x", 1.0]),
            ("labels", "ab"),
            ("data", [[0.0, 0.3], [0.3]]),
            ("data", [[0.0, "0.3"], [0.3, 0.0]]),
            ("dim", "two"),
            ("dim", 2.5),
            ("dim", True),
            ("labels", 5),
            ("labels", {"a": 1, "b": 2}),
            ("provenance", "note"),
            ("kind", ["partial"]),
        ],
    )
    def test_malformed_graph_file_is_one(self, run, tmp_path, field, value):
        doc = {
            "kind": "partial",
            "dim": 2,
            "labels": ["a", "b"],
            "data": [[0.0, 0.3], [0.3, 0.0]],
        }
        doc[field] = value
        src = tmp_path / "g.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "m.json"
        code, _, stderr = run("convert", "--in", str(src), "--to", "marginal", "--out", str(out))
        assert code == 1
        assert stderr.startswith("error:")
        assert stderr.count("\n") == 1 and "Traceback" not in stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("expand", "--in", "{g}", "--i", "x1", "--j", "x2", "--L", "{L}"),
            ("profile", "--in", "{g}", "--i", "x1", "--j", "x2", "--Lmax", "{L}",
             "--out", "{out}"),
            ("figure", "fig5", "--d", "12", "--n", "50", "--Lmax", "{L}", "--out", "{out}"),
            ("figure", "fig6", "--Lmax", "{L}", "--out", "{out}"),
        ],
        ids=["expand", "profile", "fig5", "fig6"],
    )
    def test_huge_length_is_one_error_line(self, run, tmp_path, argv):
        # 10**20 floats cannot be allocated; the length cap must answer
        # first, and fig6 must not loop over the lengths one by one.
        src, out = tmp_path / "g.json", tmp_path / "o.csv"
        fileio.save_matrix(chain_graph(3, 0.3), src)
        argv = [a.format(g=src, L=10**20, out=out) for a in argv]
        code, _, stderr = run(*argv)
        assert code == 1
        assert stderr.startswith("error:") and "between 1 and" in stderr
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        assert not out.exists()

    def test_domain_error_is_one(self, run, tmp_path):
        src = tmp_path / "g.json"
        fileio.save_matrix(chain_graph(3, 0.3), src)
        code, _, stderr = run("marginalize", "--in", str(src), "--S", "x1,x2,x3", "--out", "x")
        assert code == 1
        assert stderr.startswith("error:")


# A valid three-node partial-graph document; the fuzz test below spoils
# one key of it at a time.
VALID_DOC = {
    "kind": "partial",
    "dim": 3,
    "labels": ["a", "b", "c"],
    "data": [[0.0, 0.3, -0.2], [0.3, 0.0, 0.1], [-0.2, 0.1, 0.0]],
    "scale": [1.0, 2.0, 0.5],
    "provenance": {"seed": 1},
}
DELETE = object()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
NEAR_VALID = (
    st.lists(st.floats() | st.integers(), min_size=3, max_size=3)
    | st.lists(
        st.lists(st.floats(-1.5, 1.5) | st.integers(-1, 1), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
    | st.lists(st.text(max_size=3), min_size=3, max_size=3)
)


class TestInputFuzz:
    @settings(
        max_examples=200,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        key=st.sampled_from(sorted(VALID_DOC)),
        value=st.just(DELETE) | JSON_VALUES | NEAR_VALID,
        target=st.sampled_from(fileio.KINDS),
    )
    def test_convert_exits_cleanly(self, run, tmp_path, key, value, target):
        doc = dict(VALID_DOC)
        if value is DELETE:
            del doc[key]
        else:
            doc[key] = value
        src = tmp_path / "g.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        code, _, stderr = run("convert", "--in", str(src), "--to", target, "--out", str(out))
        assert code in (0, 1)
        if code == 1:
            assert stderr.startswith("error:") and stderr.count("\n") == 1
