"""File formats and the command-line front end.

CLI checks call ``main`` in-process and hold its outputs against the
library functions it dispatches to; the CLI must never disagree with
the modules.
"""

import argparse
import csv
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pathcorr import (
    ChainSpec,
    CovarianceMatrix,
    FileFormatError,
    MarginalCorrelationMatrix,
    MartingaleSpec,
    NotPositiveDefinite,
    ParamOutOfBound,
    PartialCorrelationGraph,
    PrecisionMatrix,
    SampleSpec,
    amplification_factor,
    chain_pair_corr,
    conditional_mi_closed,
    convergence_profile,
    cov_to_marginal,
    cov_to_precision,
    detect_separating_nodes,
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
from pathcorr import chains, cli, fileio, matrices, pathsum, sampling, transforms
from pathcorr.cli import FIG4_R_GRID, FIG6_COUPLING, build_parser, main
from pathcorr.gaussinfo import TriPartition

from conftest import complete_graph, scaled_random_graph


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
        assert loaded.labels == ("a", "b", "c", "d")
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


# Provenance trees of what JSON can and cannot hold as saved: keys of
# every type json.dumps takes, tuples beside lists, NaN and inf leaves.
# Half the keys are strings, so that many trees are written.
PROVENANCE_LEAVES = st.text(max_size=3) | st.integers() | st.booleans() | st.none() | st.floats()
PROVENANCE_KEYS = st.booleans().flatmap(lambda s: st.text(max_size=3) if s else PROVENANCE_LEAVES)
PROVENANCE_TREES = st.recursive(
    PROVENANCE_LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(PROVENANCE_KEYS, kids, max_size=3),
    max_leaves=8,
)


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

    def test_unmapped_type_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        for obj in (np.eye(2), rescale(chain_graph(3, 0.3), 0.5)):
            with pytest.raises(ParamOutOfBound, match="obj must be a CovarianceMatrix"):
                fileio.kind_of(obj)
            with pytest.raises(ParamOutOfBound, match="obj must be a CovarianceMatrix"):
                fileio.save_matrix(obj, path)
            assert not path.exists()

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

    @pytest.mark.parametrize("provenance", [[1, 2], "seed 7", 7], ids=["list", "str", "int"])
    def test_non_object_provenance_refused_on_save(self, tmp_path, provenance):
        # load_matrix refuses such a file, so save_matrix must not write one.
        path = tmp_path / "g.json"
        with pytest.raises(FileFormatError, match="provenance must be a dict"):
            fileio.save_matrix(chain_graph(2, 0.3), path, provenance=provenance)
        assert not path.exists()

    @pytest.mark.parametrize(
        "provenance",
        [{1: "a"}, {"a": {None: 1}}, {"a": [1, {True: 2}]}, {"a": ({2.5: 3},)}],
        ids=["top", "nested", "in-list", "in-tuple"],
    )
    def test_non_string_provenance_key_refused_on_save(self, tmp_path, provenance):
        # JSON would write the key as a string: the file would not read
        # back what was saved.
        path = tmp_path / "g.json"
        with pytest.raises(FileFormatError, match="would not read back equal"):
            fileio.save_matrix(chain_graph(2, 0.3), path, provenance=provenance)
        assert not path.exists()

    @pytest.mark.parametrize(
        "provenance",
        [{"a": (1, 2)}, {"a": [1, {"b": ()}]}, {"a": {"b": ("c",)}}],
        ids=["top", "in-list", "nested"],
    )
    def test_tuple_in_provenance_refused_on_save(self, tmp_path, provenance):
        # JSON would write the tuple as an array, which loads as a list.
        path = tmp_path / "g.json"
        with pytest.raises(FileFormatError, match="would not read back equal"):
            fileio.save_matrix(chain_graph(2, 0.3), path, provenance=provenance)
        assert not path.exists()

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(provenance=st.dictionaries(PROVENANCE_KEYS, PROVENANCE_TREES, max_size=4))
    def test_provenance_is_refused_or_reads_back_equal(self, tmp_path, provenance):
        path = tmp_path / "g.json"
        path.unlink(missing_ok=True)
        try:
            fileio.save_matrix(chain_graph(2, 0.3), path, provenance=provenance)
        except FileFormatError:
            assert not path.exists()
        else:
            assert fileio.load_matrix(path)[1] == provenance

    @pytest.mark.parametrize(
        "doc",
        [{"n": np.int64(3)}, {"v": np.array([1.0])}, {(1, 2): 0.5}, {"p": {1.0, 2.0}}],
        ids=["numpy-int", "ndarray", "tuple-key", "set"],
    )
    def test_unserialisable_value_refused(self, tmp_path, doc):
        path = tmp_path / "r.json"
        with pytest.raises(FileFormatError, match="cannot write JSON"):
            fileio.save_json(doc, path)
        assert not path.exists()
        with pytest.raises(FileFormatError, match="cannot write JSON"):
            fileio.save_matrix(chain_graph(2, 0.3), path, provenance=doc)
        assert not path.exists()

    def test_too_deep_to_encode_refused(self, tmp_path):
        # JSON's encoder stops at the interpreter's recursion limit.
        deep = []
        for _ in range(1000):
            deep = [deep]
        path = tmp_path / "r.json"
        with pytest.raises(FileFormatError, match="cannot write JSON"):
            fileio.save_json({"p": deep}, path)
        assert not path.exists()
        with pytest.raises(FileFormatError, match="cannot write JSON"):
            fileio.save_matrix(chain_graph(2, 0.3), path, provenance={"p": deep})
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


# Documents JSON can hold: rows of finite floats (the writer's joined
# case) and lists of them beside every other leaf, edge floats, ints past
# 64 bits, and strings with quotes, escapes and non-ASCII characters.
JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e16, 1e-7]
)
JSON_TEXT = st.text(st.sampled_from('a "\\\n\t\x00\x7fé€\U0001f600') | st.characters(), max_size=6)
JSON_LEAVES = (
    JSON_FLOATS
    | st.lists(JSON_FLOATS, min_size=1, max_size=6)
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.booleans()
    | st.none()
    | JSON_TEXT
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(JSON_TEXT, kids, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    """``save_json`` writes ``json.dumps(doc, indent=2, allow_nan=False)``
    byte for byte, and refuses with json's own message."""

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(doc=JSON_DOCS)
    # Values json converts, which the writer hands to json: numpy floats,
    # tuples, non-str keys, rows that mix floats with other leaves.
    @example(doc=[0.5, np.float64(0.25)])
    @example(doc={"a": [[np.float64(-0.0), 1.0], (2.0, 3)]})
    @example(doc={"a": {1: [0.5, 1.5], "b": {2.5: [], None: {}}}})
    @example(doc=[[0.1, True], [1, 2**64], ["x", None]])
    def test_bytes_are_json_dumps(self, tmp_path, doc):
        path = tmp_path / "r.json"
        fileio.save_json(doc, path)
        assert path.read_bytes() == (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode()

    @pytest.mark.parametrize(
        "bad",
        [math.inf, -math.inf, math.nan, np.float64("inf"), np.int64(3)],
        ids=["inf", "-inf", "nan", "numpy-inf", "numpy-int"],
    )
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda x: x,
            lambda x: [0.5, x],
            lambda x: {"data": [[0.5, 1.0], [0.25, x]]},
            lambda x: {"a": [1.0], "b": {"c": [x, math.nan]}},
        ],
        ids=["bare", "in-row", "in-table", "nested"],
    )
    def test_refusal_is_json_own(self, tmp_path, bad, wrap):
        doc = wrap(bad)
        path = tmp_path / "r.json"
        with pytest.raises((ValueError, TypeError)) as want:
            json.dumps(doc, indent=2, allow_nan=False)
        with pytest.raises(FileFormatError) as got:
            fileio.save_json(doc, path)
        assert str(got.value) == f"{path}: cannot write JSON: {want.value}"
        assert not path.exists()

    def test_nesting_past_the_recursion_limit_is_json_own(self, tmp_path):
        deep = [0.5]
        for _ in range(sys.getrecursionlimit() + 10):
            deep = [deep]
        doc = {"p": deep}
        path = tmp_path / "r.json"
        try:
            want = json.dumps(doc, indent=2, allow_nan=False) + "\n"
        except RecursionError as exc:
            with pytest.raises(FileFormatError) as got:
                fileio.save_json(doc, path)
            assert str(got.value) == f"{path}: cannot write JSON: {exc}"
            assert not path.exists()
        else:  # an encoder in C may go deeper than Python frames
            fileio.save_json(doc, path)
            assert path.read_text() == want

    def test_a_cycle_is_json_own(self, tmp_path):
        doc = {"a": [0.5]}
        doc["a"].append(doc)
        path = tmp_path / "r.json"
        with pytest.raises(FileFormatError, match="cannot write JSON: Circular reference detected"):
            fileio.save_json(doc, path)
        assert not path.exists()


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

    def test_ill_conditioned_warning_is_one_line(self, run, tmp_path):
        src = tmp_path / "near.csv"
        src.write_text("0,0.999999999\n0.999999999,0\n")
        out = tmp_path / "near.json"
        code, _, stderr = run(
            "convert", "--in", str(src), "--kind", "partial", "--to", "marginal",
            "--out", str(out),
        )
        assert code == 0 and out.exists()
        assert stderr.startswith("warning: IllConditionedWarning: (1 - R) has condition")
        assert stderr.count("\n") == 1
        # Neither a source path nor a source line of the package.
        assert ".py" not in stderr and "return" not in stderr

    @pytest.mark.parametrize("kind", ["covariance", "precision", "marginal", "partial"])
    def test_asymmetric_file_is_refused_for_every_kind(self, run, tmp_path, kind):
        # Every matrix kind is read through one square check.
        src = tmp_path / "asym.csv"
        src.write_text("1,0.2\n0.1,1\n")
        out = tmp_path / "asym.json"
        code, stdout, stderr = run("convert", "--in", str(src), "--kind", kind,
                                   "--to", "marginal", "--out", str(out))
        assert code == 1 and stdout == ""
        assert stderr.count("\n") == 1
        assert stderr.startswith("error:") and "asymmetric" in stderr
        assert not out.exists()

    def test_entries_past_the_float_range_are_refused_with_one_line(
            self, run, tmp_path, monkeypatch):
        # JSON reads a 400-digit integer exactly; no float holds it.
        monkeypatch.chdir(tmp_path)
        Path("big.json").write_text(
            '{"kind": "partial", "dim": 2, "data": [[0, %s], [0.5, 0]]}' % ("9" * 400))
        code, stdout, stderr = run("convert", "--in", "big.json", "--to", "marginal",
                                   "--out", "out.json")
        assert code == 1 and stdout == ""
        assert stderr == "error: big.json: data entries exceed the float range\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]

    def test_indefinite_graph_is_refused_with_one_line(self, run, tmp_path):
        # Three couplings of 0.7: 1 - R has the eigenvalue 1 - 1.4 < 0.
        src = tmp_path / "indef.csv"
        src.write_text("0,0.7,0.7\n0.7,0,0.7\n0.7,0.7,0\n")
        out = tmp_path / "indef.json"
        code, stdout, stderr = run("convert", "--in", str(src), "--kind", "partial",
                                   "--to", "marginal", "--out", str(out))
        assert code == 1 and stdout == ""
        assert stderr.count("\n") == 1
        assert stderr.startswith("error:") and "not positive definite" in stderr
        assert not out.exists()

    def test_oracle_of_a_sample_is_exactly_symmetric(self, run, tmp_path):
        # The oracle is one Cholesky inverse with its triangle mirrored.
        src, out = tmp_path / "sample.json", tmp_path / "m.json"
        assert run("sample", "--d", "4", "--seed", "1", "--out", str(src))[0] == 0
        assert run("convert", "--in", str(src), "--to", "marginal", "--out", str(out))[0] == 0
        m = json.loads(out.read_text())["data"]
        assert all(m[i][j] == m[j][i] for i in range(4) for j in range(4))
        assert all(m[i][i] == 1.0 for i in range(4))

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


    @pytest.mark.parametrize("cell", ["0.1_0", "1_000", "\u0661\u0662", "\uff10.3"])
    def test_csv_cell_a_json_number_could_not_hold_is_one(self, run, tmp_path, cell):
        # Python's float() reads underscores and non-ASCII digits; a JSON
        # number holds neither, and neither does a CSV cell.
        path = tmp_path / "g.csv"
        path.write_text(f"0.0,{cell}\n0.3,0.0\n", encoding="utf-8")
        out = tmp_path / "out.json"
        code, _, stderr = run("convert", "--in", str(path), "--kind", "partial",
                              "--to", "marginal", "--out", str(out))
        assert code == 1
        assert stderr.startswith(f"error: {path}: not a numeric table:")
        assert stderr.count("\n") == 1
        assert not out.exists()

    def test_csv_cell_may_have_surrounding_spaces(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(" 0.0 , 0.3\n0.3 ,0.0 \n")
        assert fileio.load_csv_matrix(path, "partial").weights[0, 1] == 0.3


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

    @pytest.mark.filterwarnings("default::RuntimeWarning")  # shown as the command line shows it
    @pytest.mark.parametrize(
        "graph, argv",
        [
            ("complete", ("expand", "--L", "1501")),
            ("complete", ("expand", "--L", "2501")),
            ("complete", ("profile", "--Lmax", "2501")),
            ("sample", ("expand", "--L", "2000")),
            ("sample", ("profile", "--Lmax", "2000")),
            ("complete", ("expand", "--L", "4")),
            ("complete", ("profile", "--Lmax", "10")),
        ],
    )
    def test_overflowing_series_is_one_error_line(self, run, tmp_path, graph, argv):
        # Overflowing sums once printed numpy's warnings before the error,
        # or a result built from overflow (expand --L 1501 wrote -0.0).
        # A divergent series is refused whether or not its sums overflow.
        src, out = tmp_path / "g.json", tmp_path / "out"
        if graph == "complete":
            fileio.save_matrix(complete_graph(6, -0.45), src)
        else:
            assert run("sample", "--d", "30", "--n", "40", "--seed", "3", "--out", str(src))[0] == 0
        code, stdout, stderr = run(*argv, "--in", str(src), "--i", "x1", "--j", "x2", "--out", str(out))
        assert code == 1 and stdout == "" and not out.exists()
        assert stderr.startswith("error: R off the pair has spectral radius ")
        assert stderr.count("\n") == 1
        assert "diverges; rescale the graph" in stderr and "increase L" not in stderr

    def test_profile_writes_undefined_rows_as_nan(self, run, tmp_path):
        # Default q on this graph puts a loop sum above 1 at L = 2 alone;
        # expand refuses that length, and profile writes it as nan.
        src, prof = tmp_path / "g.json", tmp_path / "p.csv"
        assert run("sample", "--d", "30", "--n", "40", "--seed", "3", "--out", str(src))[0] == 0
        q = repr(rescale(fileio.load_matrix(src)[0]).q)
        common = ("--in", str(src), "--i", "x1", "--j", "x2", "--q", q)
        code, _, stderr = run("expand", *common, "--L", "2")
        assert code == 1 and stderr.startswith("error: truncated loop sum at L=2 ")
        assert run("profile", *common, "--Lmax", "50", "--out", str(prof))[0] == 0
        with open(prof, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[0] for r in rows if r[1] == "nan"] == ["2"] and rows[1][2] == "nan"
        doc = tmp_path / "r.json"
        assert run("expand", *common, "--L", "50", "--out", str(doc))[0] == 0
        assert float(rows[-1][1]) == json.loads(doc.read_text())["rho_hat"]


class TestStructureCommands:
    def test_sever_matches_module(self, run, graph_file, tmp_path):
        g, path = graph_file
        out = tmp_path / "s.json"
        code, _, _ = run("sever", "--in", path, "--S", "x2,x4", "--out", str(out))
        assert code == 0
        loaded, _ = fileio.load_matrix(out)
        expected = sever_nodes(g, {1, 3})
        assert np.array_equal(loaded.weights, expected.weights)
        assert loaded.labels == ("x1", "x3", "x5")

    def test_sever_writes_the_same_names_from_csv_as_from_json(self, run, graph_file, tmp_path):
        g, path = graph_file
        table = tmp_path / "g.csv"
        with open(table, "w", newline="") as fh:
            csv.writer(fh).writerows([repr(float(x)) for x in row] for row in g.weights)
        docs = []
        for src, kind in ((path, ()), (str(table), ("--kind", "partial"))):
            out = tmp_path / f"s{len(docs)}.json"
            code, _, _ = run("sever", "--in", src, *kind, "--S", "x2,x4", "--out", str(out))
            assert code == 0
            docs.append(json.loads(out.read_text()))
        assert docs[1]["labels"] == docs[0]["labels"] == ["x1", "x3", "x5"]
        assert docs[1] == docs[0]

    def test_sever_refuses_a_repeated_node(self, run, graph_file, tmp_path):
        _, path = graph_file
        out = tmp_path / "s.json"
        code, _, err = run("sever", "--in", path, "--S", "x2,x2", "--out", str(out))
        assert (code, err) == (1, "error: node x2 repeats in --S\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["marginalize", "reduce"])
    def test_repeated_label_is_refused_by_name(self, run, graph_file, tmp_path, command):
        _, path = graph_file
        out = tmp_path / "s.json"
        code, stdout, err = run(command, "--in", path, "--S", "x3, x1,x3", "--out", str(out))
        assert (code, stdout, err) == (1, "", "error: node x3 repeats in --S\n")
        assert not out.exists()

    def test_marginalize_matches_module(self, run, graph_file, tmp_path):
        g, path = graph_file
        out = tmp_path / "m.json"
        code, stdout, _ = run("marginalize", "--in", path, "--S", "x5", "--out", str(out))
        assert code == 0
        assert stdout == f"marginalised 1 node(s); kept 4; wrote {out}\n"
        loaded, _ = fileio.load_matrix(out)
        assert np.array_equal(loaded.weights, marginalize_nodes(g, {4}).weights)

    def test_marginalize_has_no_method_flag(self, run, graph_file, tmp_path):
        _, path = graph_file
        out = tmp_path / "m.json"
        code, _, err = run(
            "marginalize", "--in", path, "--S", "x5", "--method", "block", "--out", str(out)
        )
        assert code == 2
        assert "unrecognized arguments: --method block" in err
        assert not out.exists()

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

    def test_refused_enlarged_graph_writes_nothing(self, run, tmp_path, monkeypatch):
        # The enlarged graph is built and checked before --out is written;
        # its check is forced to fail here (8 nodes: 6 + 2 latents).
        original = matrices._check_pd

        def refuse(m, what):
            if len(m) == 8:
                raise NotPositiveDefinite("(1 - R) is not positive definite: refused")
            return original(m, what)

        monkeypatch.setattr(matrices, "_check_pd", refuse)
        out, enlarged = tmp_path / "red.json", tmp_path / "enl.json"
        argv = ("reduce", "--in", str(GOLDEN / "partial6.json"), "--S", "b,c", "--out", str(out))
        code, stdout, stderr = run(*argv, "--out-enlarged", str(enlarged))
        assert code == 1
        assert stderr == "error: (1 - R) is not positive definite: refused\n"
        assert stdout == ""
        assert not out.exists() and not enlarged.exists()
        # Without --out-enlarged the enlarged graph is never built.
        assert run(*argv)[0] == 0
        assert out.exists() and not enlarged.exists()

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

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_separators_bad_tol_refused(self, run, tmp_path, tol):
        src = tmp_path / "g.json"
        fileio.save_matrix(chain_graph(5, 0.4), src)
        code, stdout, stderr = run("separators", "--in", str(src), "--tol", tol)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert "--tol" in stderr

    def test_separators_residual_at_tol_not_flagged(self, run, tmp_path):
        # A residual equal to --tol is not above it; the next float below is.
        # A 3-node chain factorises exactly, so its residual is roundoff of P.
        src = tmp_path / "g.json"
        fileio.save_matrix(chain_graph(3, 0.3), src)
        (rep,) = detect_separating_nodes(fileio.load_matrix(src)[0])
        residual = rep.factorisation_residual
        assert residual < 1e-15
        code, stdout, _ = run("separators", "--in", str(src), "--tol", repr(residual))
        assert code == 0
        assert f"residual {residual:.3e}" in stdout and "above tol" not in stdout
        if residual > 0.0:  # --tol must be at least 0: no tol lies below a zero residual
            below = repr(float(np.nextafter(residual, 0.0)))
            code, stdout, _ = run("separators", "--in", str(src), "--tol", below)
            assert code == 0
            assert stdout.endswith("[residual above tol]\n")

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
        code, stdout, _ = run("chain", "--r", "0.47", "--gamma", "--k", "10", "--m", "1")
        assert code == 0
        assert f"{amplification_factor(10, 1, 0.47):.10g}" in stdout

    def test_gamma_needs_both_params(self, run):
        code, stdout, stderr = run("chain", "--r", "0.3", "--gamma", "--k", "4")
        assert code == 1
        assert stderr.startswith("error: chain runs one mode per call")
        assert stderr.endswith("got --gamma --k\n")
        assert stdout == ""

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

    @pytest.mark.parametrize(
        "modes",
        [
            ("--pairs", "all", "--gamma", "--k", "2", "--m", "3"),
            ("--gamma", "--k", "2", "--m", "3", "--i", "1", "--j", "2"),
            ("--pairs", "all", "--i", "1", "--j", "2"),
            ("--pairs", "all", "--j", "2"),
            ("--pairs", "all", "--gamma", "--i", "1", "--j", "2"),
        ],
        ids=["pairs-gamma", "gamma-pair", "pairs-pair", "pairs-half-pair", "all-three"],
    )
    def test_one_mode_per_call(self, run, tmp_path, modes):
        out = tmp_path / "pairs.csv"
        code, stdout, stderr = run("chain", "--d", "5", "--r", "0.3", *modes, "--out", str(out))
        assert code == 1
        assert stderr.startswith("error: chain runs one mode per call") and stderr.count("\n") == 1
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, got",
        [
            (("--out", "{out}"), "--d --out"),
            (("--i", "1", "--j", "2", "--out", "{out}"), "--d --i --j --out"),
            (("--k", "2"), "--d --k"),
            (("--m", "3", "--out", "{out}"), "--d --m --out"),
            (("--i", "1", "--j", "2", "--m", "3"), "--d --i --j --m"),
            # --gamma sizes its own chain from k and m; it never reads --d.
            (("--gamma", "--k", "2", "--m", "3"), "--d --gamma --k --m"),
        ],
        ids=["summary-out", "pair-out", "summary-k", "summary-m-out", "pair-m", "gamma-d"],
    )
    def test_unread_flag_is_refused(self, run, tmp_path, flags, got):
        out = tmp_path / "c.csv"
        flags = [f.format(out=out) for f in flags]
        code, stdout, stderr = run("chain", "--d", "5", "--r", "0.3", *flags)
        assert code == 1
        assert stderr.startswith("error: chain runs one mode per call") and stderr.count("\n") == 1
        # The one error names every mode's flag set and the flags given.
        for flag_set in ("{--d}", "{--d --i --j}", "{--gamma --k --m}", "{--d --out --pairs}"):
            assert flag_set in stderr
        assert stderr.endswith(f"got {got}\n")
        assert stdout == ""
        assert not out.exists()

    def test_pairs_table_needs_out(self, run):
        code, _, stderr = run("chain", "--d", "5", "--r", "0.3", "--pairs", "all")
        assert code == 1
        assert "error:" in stderr

    def test_pairs_table_row_cap(self, run, tmp_path, monkeypatch):
        # d = 4473 would write 10 001 628 rows, over the 10**7 cap, and
        # d = 100 000 5 * 10**9: refused before the first pair is computed
        # or the file is opened.
        calls = []
        monkeypatch.setattr(chains, "chain_pair_corr", lambda *a: calls.append(a))
        out = tmp_path / "pairs.csv"
        for d in ("4473", "100000"):
            code, stdout, stderr = run(
                "chain", "--d", d, "--r", "0.3", "--pairs", "all", "--out", str(out)
            )
            assert code == 1
            assert stderr.startswith("error:") and "between 2 and 4472" in stderr
            assert stderr.count("\n") == 1 and stdout == ""
            assert calls == [] and not out.exists()

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

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ("x1", "x1", "node x1 is in both --A and --B"),
            ("x2,x4", "x5,x4", "node x4 is in both --A and --B"),
            ("x2,x2", "x4", "node x2 repeats in --A"),
            ("x2", "x4,x4", "node x4 repeats in --B"),
        ],
    )
    def test_node_sets_are_refused_by_label(self, run, graph_file, tmp_path, a, b, message):
        _, path = graph_file
        out = tmp_path / "mi.json"
        code, stdout, err = run("mi", "--in", path, "--A", a, "--B", b, "--out", str(out))
        assert (code, stdout, err) == (1, "", f"error: {message}\n")
        assert not out.exists()

    def test_explicit_conditioning_set(self, run, graph_file, tmp_path):
        # mi conditions on every node outside --A and --B: there is no --Z.
        _, path = graph_file
        out = tmp_path / "mi.json"
        code, stdout, err = run(
            "mi", "--in", path, "--A", "x1", "--B", "x2", "--Z", "x3", "--out", str(out)
        )
        assert code == 2 and stdout == ""
        assert err.startswith("usage: pathcorr mi [-h]")
        assert err.endswith("\npathcorr mi: error: unrecognized arguments: --Z x3\n")
        assert not out.exists()

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

    def test_q_without_series_is_refused(self, run, graph_file, tmp_path):
        _, path = graph_file
        out = tmp_path / "mi.json"
        for method in ((), ("--method", "closed")):
            code, stdout, stderr = run(
                "mi", "--in", path, "--A", "x1", "--B", "x5", *method, "--q", "0.5",
                "--out", str(out),
            )
            assert code == 1
            assert stderr == "error: --q is read only with --method series\n"
            assert stdout == ""
            assert not out.exists()

    def test_n_max_without_series_is_refused(self, run, graph_file, tmp_path):
        _, path = graph_file
        out = tmp_path / "mi.json"
        for method in ((), ("--method", "closed")):
            code, stdout, stderr = run(
                "mi", "--in", path, "--A", "x1", "--B", "x5", *method, "--n-max", "5",
                "--out", str(out),
            )
            assert code == 1
            assert stderr == "error: --n-max is read only with --method series\n"
            assert stdout == ""
            assert not out.exists()

    def test_slow_series_cut_short_is_one_error_line(self, run, tmp_path):
        # At q = 0.001 the rescaled series needs ~29k terms: cut at the
        # default n_max it lands far below 0, which names n_max and q.
        src, out = tmp_path / "g.json", tmp_path / "mi.json"
        fileio.save_matrix(chain_graph(6, 0.3), src)
        argv = ["mi", "--in", str(src), "--A", "x1,x2", "--B", "x4",
                "--method", "series", "--q", "0.001", "--out", str(out)]
        code, _, stderr = run(*argv)
        assert code == 1
        assert stderr.startswith("error:") and "n_max=1000" in stderr and "q=0.001" in stderr
        assert stderr.count("\n") == 1 and not out.exists()
        code, _, _ = run(*argv, "--n-max", "100000")
        assert code == 0
        closed = conditional_mi_closed(
            chain_graph(6, 0.3), TriPartition.complement(6, (0, 1), (3,))
        ).nats
        assert json.loads(out.read_text())["nats"] == pytest.approx(closed, abs=1e-12)


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

    @pytest.mark.parametrize("which", ["sample", "fig5"])
    def test_huge_sample_refused_before_drawing(self, run, tmp_path, which):
        out = tmp_path / "s.out"
        argv = ["sample"] if which == "sample" else ["figure", "fig5"]
        argv += ["--d", "5", "--n", str(10**20), "--seed", "1", "--out", str(out)]
        code, _, stderr = run(*argv)
        assert code == 1
        assert stderr.startswith("error: n * d must be at most") and stderr.count("\n") == 1
        assert not out.exists()


# The flags each figure reads; a flag of another figure is a usage error.
FIGURE_FLAGS = {
    "fig4": {"--k", "--m"},
    "fig5": {"--d", "--n", "--seed", "--Lmax"},
    "fig6": {"--Lmax"},
}


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

    def test_amplification_table_runs_one_chain_per_coupling(self, run, tmp_path, monkeypatch):
        calls = []
        real = chains.chain_sums

        def counting(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(chains, "chain_sums", counting)
        out = tmp_path / "fig4.csv"
        code, _, _ = run("figure", "fig4", "--k", "3", "--m", "40", "--out", str(out))
        assert code == 0
        assert calls == [ChainSpec(d=42, r=r) for r in FIG4_R_GRID]
        # So 5 couplings x 5000 appendage lengths take five chains, not 25 000.
        calls.clear()
        code, _, _ = run("figure", "fig4", "--m", "5000", "--out", str(out))
        assert code == 0 and len(calls) == len(FIG4_R_GRID)
        with open(out, newline="") as fh:
            assert sum(1 for _ in fh) == 1 + len(FIG4_R_GRID) * 5000 == 25001

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

    @pytest.mark.parametrize("d", ["1", "0"])
    def test_sampled_profiles_need_two_nodes(self, run, tmp_path, d):
        out = tmp_path / "fig5.csv"
        code, _, stderr = run("figure", "fig5", "--d", d, "--out", str(out))
        assert code == 1
        assert stderr == f"error: --d must be a whole number of at least 2, got {d}\n"
        assert not out.exists()

    def test_seed_search_stops_at_the_last_seed(self, run, tmp_path):
        # Three samples from the last 64-bit seed would step past it.
        out, seed = tmp_path / "fig5.csv", str(2**64 - 1)
        code, _, stderr = run("figure", "fig5", "--d", "3", "--seed", seed, "--out", str(out))
        assert code == 1
        assert stderr == (
            f"error: could not find 3 samples with nu(R) < 1 among seeds {seed} to {seed}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("which", ["fig5", "fig6"])
    def test_lmax_is_checked_before_sampling(self, run, tmp_path, monkeypatch, which):
        calls = []
        monkeypatch.setattr(sampling, "sample_partial_graph", calls.append)
        out = tmp_path / "fig.csv"
        code, _, stderr = run("figure", which, "--Lmax", "0", "--out", str(out))
        assert code == 1
        assert stderr == (
            f"error: --Lmax must be a whole number between 1 and {pathsum.MAX_LENGTH}, got 0\n"
        )
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize(
        "which, flag",
        [
            (which, flag)
            for which, own in FIGURE_FLAGS.items()
            for flag in sorted(set().union(*FIGURE_FLAGS.values()) - own)
        ],
    )
    def test_foreign_flag_is_usage_error(self, run, tmp_path, which, flag):
        out = tmp_path / "f.csv"
        code, stdout, stderr = run("figure", which, flag, "3", "--out", str(out))
        assert code == 2
        assert f"unrecognized arguments: {flag} 3" in stderr
        assert stdout == ""
        assert not out.exists()


class TestSubcommandUsage:
    # A flag the sub-command does not declare is reported with that
    # sub-command's own usage line and name, not the root's.
    @pytest.mark.parametrize(
        "argv, prog, extras",
        [
            (("figure", "fig6", "--k", "3"), "pathcorr figure fig6", "--k 3"),
            (
                ("marginalize", "--in", "g.csv", "--kind", "partial", "--S", "x2", "--method", "block"),
                "pathcorr marginalize",
                "--method block",
            ),
        ],
        ids=["figure-fig6", "marginalize"],
    )
    def test_undeclared_flag_names_the_subcommand(self, run, tmp_path, argv, prog, extras):
        out = tmp_path / "out"
        code, stdout, stderr = run(*argv, "--out", str(out))
        assert code == 2
        assert stderr.startswith(f"usage: {prog} [-h]")
        assert stderr.endswith(f"\n{prog}: error: unrecognized arguments: {extras}\n")
        assert stdout == ""
        assert not out.exists()


class TestKindFlag:
    # One call per subcommand that reads --in; the test below checks the
    # list against the parser, so a new one cannot be left out.
    ARGV = {
        "convert": ("--to", "marginal", "--out", "{out}"),
        "expand": ("--i", "x1", "--j", "x2", "--L", "3", "--out", "{out}"),
        "profile": ("--i", "x1", "--j", "x2", "--Lmax", "3", "--out", "{out}"),
        "sever": ("--S", "x1", "--out", "{out}"),
        "marginalize": ("--S", "x1", "--out", "{out}"),
        "reduce": ("--S", "x1", "--out", "{out}"),
        "separators": ("--out", "{out}"),
        "mi": ("--A", "x1", "--B", "x3", "--out", "{out}"),
    }

    def test_every_input_subcommand_is_listed(self):
        (subparsers,) = (
            a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        with_input = {
            name for name, p in subparsers.items() if any(a.dest == "infile" for a in p._actions)
        }
        assert with_input == set(self.ARGV)

    @pytest.mark.parametrize("name", sorted(ARGV))
    def test_kind_with_json_input_is_refused(self, run, tmp_path, name):
        src, out = tmp_path / "g.json", tmp_path / "o.out"
        fileio.save_matrix(chain_graph(3, 0.3), src)
        rest = [a.format(out=out) for a in self.ARGV[name]]
        code, stdout, stderr = run(name, "--in", str(src), "--kind", "partial", *rest)
        assert code == 1
        assert stderr == f"error: --kind is read only with CSV input; {src} carries its own\n"
        assert stdout == ""
        assert not out.exists()
        # The same call without --kind runs.
        assert run(name, "--in", str(src), *rest)[0] == 0


class TestThreeNodeCsvGraph:
    # The chain x1 - x2 - x3 as a bare CSV table, read with --kind partial.
    @pytest.fixture
    def table(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,0.3,0\n0.3,0,0.2\n0,0.2,0\n")
        return path

    def test_csv_suffix_is_read_in_any_case(self, run, table, tmp_path):
        upper = tmp_path / "u.CSV"
        upper.write_bytes(table.read_bytes())
        outs = []
        for src in (table, upper):
            outs.append(tmp_path / f"{src.name}.json")
            assert run("convert", "--in", str(src), "--kind", "partial", "--to", "marginal",
                       "--out", str(outs[-1]))[0] == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        code, stdout, stderr = run("convert", "--in", str(upper), "--to", "marginal",
                                   "--out", str(tmp_path / "none.json"))
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: CSV files carry no kind; pass --kind ")
        assert stderr.endswith(f" for {upper}\n")

    def test_mi_series_sums_to_the_closed_form(self, run, table, tmp_path):
        nats = []
        for method in ("closed", "series"):
            out = tmp_path / f"{method}.json"
            assert run("mi", "--in", str(table), "--kind", "partial", "--A", "x1", "--B", "x2",
                       "--method", method, "--out", str(out))[0] == 0
            nats.append(json.loads(out.read_text())["nats"])
        assert abs(nats[0] - nats[1]) <= 1e-12

    def test_enlarged_network_only_on_request(self, run, table, tmp_path):
        # reduce writes one file; --out-enlarged adds the network on
        # S + T + latents, the original nodes first.
        out, enlarged = tmp_path / "r.json", tmp_path / "e.json"
        argv = ("reduce", "--in", str(table), "--kind", "partial", "--S", "x2", "--out", str(out))
        assert run(*argv)[0] == 0
        assert out.exists() and not enlarged.exists()
        assert run(*argv, "--out-enlarged", str(enlarged))[0] == 0
        assert json.loads(enlarged.read_text())["labels"][:3] == ["x1", "x2", "x3"]

    def test_convert_keeps_a_sample_provenance(self, run, tmp_path):
        sample, marginal = tmp_path / "s.json", tmp_path / "m.json"
        assert run("sample", "--d", "4", "--seed", "1", "--out", str(sample))[0] == 0
        assert run("convert", "--in", str(sample), "--to", "marginal",
                   "--out", str(marginal))[0] == 0
        kept = json.loads(marginal.read_text())["provenance"]
        assert kept == json.loads(sample.read_text())["provenance"]
        assert kept["kind"] == "sample" and kept["seed"] == 1


def test_separators_stay_inside_each_component(run, tmp_path, monkeypatch):
    # A 40-node chain beside 400 isolated nodes has 38 separators; a
    # residual block for every pair of components would take minutes.
    # Every block stays inside the chain's own 40 positions.
    spans = set()
    original = transforms._cut_residual

    def recorded(q, s, a, b, lo, hi):
        spans.add(hi - lo)
        return original(q, s, a, b, lo, hi)

    monkeypatch.setattr(transforms, "_cut_residual", recorded)
    n = 440
    src = tmp_path / "sep.csv"
    src.write_text("".join(
        ",".join("0.3" if abs(i - j) == 1 and max(i, j) < 40 else "0" for j in range(n)) + "\n"
        for i in range(n)
    ))
    code, stdout, _ = run("separators", "--in", str(src), "--kind", "partial")
    assert code == 0
    assert [line.split(":")[0] for line in stdout.splitlines()] == [
        f"node x{k}" for k in range(2, 40)
    ]
    assert spans == {40}


def test_scipy_special_is_imported_by_sampling_only(tmp_path):
    # A fresh interpreter: the test modules import scipy.special themselves.
    script = (
        "import sys\n"
        "from pathcorr.cli import main\n"
        "assert 'scipy.special' not in sys.modules\n"
        "convert = ['convert', '--in', sys.argv[1], '--to', 'marginal', '--out', sys.argv[2]]\n"
        "assert main(convert) == 0\n"
        "assert 'scipy.special' not in sys.modules\n"
        "assert main(['sample', '--d', '3', '--seed', '1', '--out', sys.argv[2]]) == 0\n"
        "assert 'scipy.special' in sys.modules\n"
    )
    path = [str(Path(fileio.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", script, str(GOLDEN / "partial6.json"), str(tmp_path / "o.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_alone(run, tmp_path, enabled):
    # Only the process entry freezes; tests and the benchmark call main in process.
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        before = gc.isenabled(), gc.get_freeze_count()
        out = tmp_path / "m.json"
        assert run("convert", "--in", str(GOLDEN / "partial6.json"), "--to", "marginal",
                   "--out", str(out))[0] == 0
        assert run("convert", "--in", str(out), "--to", "nothing")[0] == 2
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        (gc.enable if was else gc.disable)()


def test_console_main_freezes_after_main_and_exits_with_its_status(monkeypatch):
    calls, before = [], gc.get_freeze_count()
    monkeypatch.setattr(cli, "main", lambda: calls.append(gc.get_freeze_count()) or 3)
    try:
        with pytest.raises(SystemExit) as done:
            cli.console_main()
        assert done.value.code == 3
        assert calls == [before] and gc.get_freeze_count() > before
    finally:
        gc.unfreeze()


def test_fresh_process_writes_the_bytes_of_main_in_process(tmp_path):
    src, fresh, here = GOLDEN / "partial6.json", tmp_path / "fresh.json", tmp_path / "here.json"
    path = [str(Path(fileio.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    convert = ["convert", "--in", str(src), "--to", "marginal", "--out"]
    done = subprocess.run(
        [sys.executable, "-m", "pathcorr.cli", *convert, str(fresh)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert main([*convert, str(here)]) == 0
    assert fresh.read_bytes() == here.read_bytes()


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenFiles:
    # Each file was written by the CLI before its flag parsing changed;
    # both tables are pure Python floats, so the bytes are exact.
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("fig4.csv", ("figure", "fig4")),
            ("chain_pairs.csv", ("chain", "--d", "12", "--r", "0.3", "--pairs", "all")),
        ],
    )
    def test_bytes_equal_golden(self, run, tmp_path, name, argv):
        out = tmp_path / name
        assert run(*argv, "--out", str(out))[0] == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes()

    def test_marginal_of_partial_graph(self, run, tmp_path):
        # The oracle's numbers pass through BLAS, whose roundoff differs
        # between CPUs: they are held to 1e-12, everything else exactly.
        out = tmp_path / "m.json"
        assert run("convert", "--in", str(GOLDEN / "partial6.json"), "--to", "marginal",
                   "--out", str(out))[0] == 0
        got = json.loads(out.read_text())
        want = json.loads((GOLDEN / "partial6_marginal.json").read_text())
        assert list(got) == list(want)
        assert {k: got[k] for k in got if k != "data"} == {k: want[k] for k in want if k != "data"}
        data, ref = np.array(got["data"]), np.array(want["data"])
        assert data.shape == ref.shape == (6, 6)
        assert np.max(np.abs(data - ref)) <= 1e-12
        assert np.array_equal(data, data.T) and np.all(np.diag(data) == 1.0)

    @pytest.mark.parametrize("kind", ["precision", "covariance"])
    def test_conversion_of_partial_graph(self, run, tmp_path, kind):
        # Omega = Lambda (1 - R) Lambda, and C its Cholesky inverse: numbers
        # to 1e-12 of the largest entry, everything else exactly.
        name = f"partial6_{kind}.json"
        assert run("convert", "--in", str(GOLDEN / "partial6.json"), "--to", kind,
                   "--out", str(tmp_path / name))[0] == 0
        got = json.loads((tmp_path / name).read_text())
        want = json.loads((GOLDEN / name).read_text())
        assert list(got) == list(want) == ["kind", "dim", "labels", "data", "provenance"]
        assert {k: got[k] for k in got if k != "data"} == {k: want[k] for k in want if k != "data"}
        data, ref = np.array(got["data"]), np.array(want["data"])
        assert data.shape == ref.shape == (6, 6)
        assert np.max(np.abs(data - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(data, data.T)

    @pytest.mark.parametrize("method", ["closed", "series"])
    def test_mutual_information_of_partial_graph(self, run, tmp_path, method):
        name = f"partial6_mi_{method}.json"
        assert run("mi", "--in", str(GOLDEN / "partial6.json"), "--A", "a", "--B", "d",
                   "--method", method, "--out", str(tmp_path / name))[0] == 0
        got = json.loads((tmp_path / name).read_text())
        want = json.loads((GOLDEN / name).read_text())
        numbers = ("nats", "bits")
        assert list(got) == list(want)
        assert {k: got[k] for k in got if k not in numbers} == {
            k: want[k] for k in want if k not in numbers
        }
        top = max(abs(want[k]) for k in numbers)
        assert all(abs(got[k] - want[k]) <= 1e-12 * top for k in numbers)

    @pytest.mark.parametrize(
        "command, outputs",
        [
            ("sever", ("partial6_sever.json",)),
            ("marginalize", ("partial6_marginalize.json",)),
            ("reduce", ("partial6_reduce.json", "partial6_enlarged.json")),
        ],
    )
    def test_graph_surgery_of_partial_graph(self, run, tmp_path, command, outputs):
        # Weights and computed scales pass through LAPACK and BLAS: they
        # are held to 1e-12, keys, labels and shapes exactly.  A scale the
        # command copies from the input is held exactly, against the input.
        src = json.loads((GOLDEN / "partial6.json").read_text())
        argv = [command, "--in", str(GOLDEN / "partial6.json"), "--S", "b,c",
                "--out", str(tmp_path / outputs[0])]
        if command == "reduce":
            argv += ["--out-enlarged", str(tmp_path / outputs[1])]
        assert run(*argv)[0] == 0
        for name in outputs:
            got = json.loads((tmp_path / name).read_text())
            want = json.loads((GOLDEN / name).read_text())
            assert list(got) == list(want) == ["kind", "dim", "labels", "data", "scale"]
            assert [got[k] for k in ("kind", "dim", "labels")] == [
                want[k] for k in ("kind", "dim", "labels")
            ]
            for key in ("data", "scale"):
                a, b = np.array(got[key]), np.array(want[key])
                assert a.shape == b.shape
                assert np.max(np.abs(a - b)) <= 1e-12
            data = np.array(got["data"])
            assert np.array_equal(data, data.T) and np.all(np.diag(data) == 0.0)
        kept = dict(zip(src["labels"], src["scale"]))
        first = json.loads((tmp_path / outputs[0]).read_text())
        if command != "marginalize":
            assert first["scale"] == [kept.get(x, 1.0) for x in first["labels"]]


    # The path sums pass through BLAS: numbers are held to 1e-12 of the
    # largest one, keys, labels, L and q exactly.
    @pytest.mark.parametrize(
        "name, extra",
        [("partial6_expand.json", ()), ("partial6_expand_q.json", ("--q", "0.8"))],
    )
    def test_expansion_of_partial_graph(self, run, tmp_path, name, extra):
        assert run("expand", "--in", str(GOLDEN / "partial6.json"), "--i", "a", "--j", "d",
                   "--L", "12", *extra, "--out", str(tmp_path / name))[0] == 0
        got = json.loads((tmp_path / name).read_text())
        want = json.loads((GOLDEN / name).read_text())
        numbers = ("rho_hat", "oracle", "abs_gap")
        assert list(got) == list(want) == ["i", "j", "L", "q", *numbers]
        assert {k: got[k] for k in got if k not in numbers} == {
            k: want[k] for k in want if k not in numbers
        }
        top = max(abs(want[k]) for k in numbers)
        assert all(abs(got[k] - want[k]) <= 1e-12 * top for k in numbers)

    def test_profile_of_partial_graph(self, run, tmp_path):
        out = tmp_path / "p.csv"
        assert run("profile", "--in", str(GOLDEN / "partial6.json"), "--i", "a", "--j", "f",
                   "--Lmax", "15", "--q", "0.9", "--out", str(out))[0] == 0
        got = list(csv.reader(out.open()))
        want = list(csv.reader((GOLDEN / "partial6_profile.csv").open()))
        assert got[0] == want[0] == ["L", "rho_hat", "abs_gap"]
        assert [row[0] for row in got[1:]] == [row[0] for row in want[1:]] == [
            str(L) for L in range(1, 16)
        ]
        a = np.array([row[1:] for row in got[1:]], dtype=float)
        b = np.array([row[1:] for row in want[1:]], dtype=float)
        assert a.shape == b.shape == (15, 2)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_sample(self, run, tmp_path):
        # nu(R) in the provenance passes through an eigenvalue reduction,
        # the weights and scales through BLAS: numbers are held to 1e-12
        # of the largest one, everything else exactly.
        out = tmp_path / "s.json"
        assert run("sample", "--d", "4", "--seed", "1", "--out", str(out))[0] == 0
        got = json.loads(out.read_text())
        want = json.loads((GOLDEN / "sample4_seed1.json").read_text())
        assert list(got) == list(want) == ["kind", "dim", "labels", "data", "scale", "provenance"]
        header = ("kind", "dim", "labels")
        assert [got[k] for k in header] == [want[k] for k in header]
        assert list(got["provenance"]) == list(want["provenance"])
        assert {k: v for k, v in got["provenance"].items() if k != "nu_R"} == {
            k: v for k, v in want["provenance"].items() if k != "nu_R"
        }
        for key in ("data", "scale"):
            a, b = np.array(got[key]), np.array(want[key])
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        nu, ref = got["provenance"]["nu_R"], want["provenance"]["nu_R"]
        assert abs(nu - ref) <= 1e-12 * ref

    def test_fig6(self, run, tmp_path):
        # q is a fraction of 2 / (1 + nu(R)), so every number follows nu:
        # held to 1e-12 of the largest one, the header and L exactly.
        out = tmp_path / "f6.csv"
        assert run("figure", "fig6", "--out", str(out))[0] == 0
        got = list(csv.reader(out.open()))
        want = list(csv.reader((GOLDEN / "fig6.csv").open()))
        assert got[0] == want[0] == ["q", "L", "rho_hat", "abs_gap"]
        assert [row[1] for row in got[1:]] == [row[1] for row in want[1:]]
        a = np.array([[row[0], *row[2:]] for row in got[1:]], dtype=float)
        b = np.array([[row[0], *row[2:]] for row in want[1:]], dtype=float)
        assert a.shape == b.shape == (120, 3)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_fig5(self, run, tmp_path):
        # Three sampled graphs, each admitted by the positive-definite
        # check, then the oracle and the path sums: numbers are held to
        # 1e-12 of the largest one, the header, seeds and L exactly.
        out = tmp_path / "f5.csv"
        assert run("figure", "fig5", "--out", str(out))[0] == 0
        got = list(csv.reader(out.open()))
        want = list(csv.reader((GOLDEN / "fig5.csv").open()))
        assert got[0] == want[0] == ["seed", "L", "rho_hat", "abs_gap"]
        assert [row[:2] for row in got[1:]] == [row[:2] for row in want[1:]]
        a = np.array([row[2:] for row in got[1:]], dtype=float)
        b = np.array([row[2:] for row in want[1:]], dtype=float)
        assert a.shape == b.shape == (30, 2)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_separators_of_partial_graph(self, run, tmp_path):
        # Two separators in one component beside a second component.  Their
        # residuals are roundoff: held to 1e-12 on the unit scale of
        # correlations; nodes and pieces exactly.
        out = tmp_path / "s.json"
        assert run("separators", "--in", str(GOLDEN / "separators8.json"),
                   "--out", str(out))[0] == 0
        got = json.loads(out.read_text())
        want = json.loads((GOLDEN / "separators8_report.json").read_text())
        assert [list(r) for r in got] == [list(r) for r in want]
        assert [(r["node"], r["components"]) for r in got] == [
            (r["node"], r["components"]) for r in want
        ] == [("c", [["a", "b"], ["d", "e", "f", "g", "h"]]),
              ("d", [["a", "b", "c"], ["e", "f", "g", "h"]])]
        assert all(abs(r["residual"] - w["residual"]) <= 1e-12 for r, w in zip(got, want))


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

    @pytest.mark.parametrize("cell", [True, "1.5", None, [0.3]],
                             ids=["bool", "str", "null", "list"])
    def test_data_cell_that_is_no_number_is_refused(self, run, tmp_path, cell):
        # JSON true is a Python bool, an int subclass: it is refused by
        # type, as a string, null and a nested list are.
        src = tmp_path / "g.json"
        doc = {"kind": "partial", "dim": 2, "data": [[0.0, cell], [0.3, 0.0]]}
        src.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=r"data entries must be a list of JSON numbers$"):
            fileio.load_matrix(src)
        out = tmp_path / "m.json"
        code, stdout, stderr = run("convert", "--in", str(src), "--to", "marginal",
                                   "--out", str(out))
        assert code == 1
        assert stderr == f"error: {src}: data entries must be a list of JSON numbers\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("expand", "--in", "{g}", "--i", "x1", "--j", "x2", "--L", "{L}"), "--L"),
            (("profile", "--in", "{g}", "--i", "x1", "--j", "x2", "--Lmax", "{L}",
              "--out", "{out}"), "--Lmax"),
            (("figure", "fig5", "--d", "12", "--n", "50", "--Lmax", "{L}", "--out", "{out}"),
             "--Lmax"),
            (("figure", "fig6", "--Lmax", "{L}", "--out", "{out}"), "--Lmax"),
        ],
        ids=["expand", "profile", "fig5", "fig6"],
    )
    def test_huge_length_is_one_error_line(self, run, tmp_path, argv, flag):
        # 10**20 floats cannot be allocated; the length cap must answer
        # first, under the flag's own name, and fig6 must not loop over
        # the lengths one by one.
        src, out = tmp_path / "g.json", tmp_path / "o.csv"
        fileio.save_matrix(chain_graph(3, 0.3), src)
        argv = [a.format(g=src, L=10**20, out=out) for a in argv]
        code, _, stderr = run(*argv)
        assert code == 1
        assert stderr.startswith(f"error: {flag} must be") and "between 1 and" in stderr
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("chain", "--d", "{n}", "--r", "0.3", "--i", "1", "--j", "2"), "chain length d"),
            (("figure", "fig4", "--k", "{n}", "--out", "{out}"), "--k"),
            (("figure", "fig4", "--m", "{n}", "--out", "{out}"), "--m"),
            (("mi", "--in", "{g}", "--A", "x1", "--B", "x2", "--method", "series",
              "--q", "1e-9", "--n-max", "{n}", "--out", "{out}"), "--n-max"),
        ],
        ids=["chain-d", "fig4-k", "fig4-m", "mi-n-max"],
    )
    def test_huge_count_is_one_error_line(self, run, tmp_path, argv, named):
        # A chain of 10**20 nodes, 10**20 appended ones or 10**20 series
        # terms would grow until memory or time ran out; the caps answer first.
        src, out = tmp_path / "g.json", tmp_path / "o.csv"
        fileio.save_matrix(chain_graph(3, 0.3), src)
        argv = [a.format(g=src, n=10**20, out=out) for a in argv]
        code, _, stderr = run(*argv)
        assert code == 1
        assert stderr.startswith(f"error: {named} must be") and "between" in stderr
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("expand", "--in", "{g}", "--i", "x1", "--j", "x2", "--L", "0"),
            ("profile", "--in", "{g}", "--i", "x1", "--j", "x2", "--Lmax", "0", "--out", "{out}"),
            ("mi", "--in", "{g}", "--A", "x1", "--B", "x2", "--method", "series",
             "--n-max", "0", "--out", "{out}"),
        ],
        ids=["expand", "profile", "mi"],
    )
    def test_zero_length_is_refused_by_flag_before_loading(self, run, tmp_path, argv):
        # The input file does not exist: the flag is checked, by its own
        # name, before the input is read.
        out = tmp_path / "o.csv"
        argv = [a.format(g=tmp_path / "missing.json", out=out) for a in argv]
        flag = argv[argv.index("0") - 1]
        code, stdout, stderr = run(*argv)
        assert code == 1 and stdout == ""
        assert stderr == f"error: {flag} must be a whole number between 1 and 100000, got 0\n"
        assert not out.exists()
        if flag == "--n-max":
            # Without --method series the flag is refused as unread first.
            argv.remove("--method")
            argv.remove("series")
            code, _, stderr = run(*argv)
            assert code == 1
            assert stderr == "error: --n-max is read only with --method series\n"

    @pytest.mark.parametrize(
        "argv, named",
        [
            (
                ("chain", "--d", "1", "--r", "0.3", "--pairs", "all"),
                "chain length d with --pairs all",
            ),
            (("figure", "fig4", "--m", "0"), "--m"),
        ],
        ids=["chain-pairs-d1", "fig4-m0"],
    )
    def test_empty_table_is_refused(self, run, tmp_path, argv, named):
        # One node has no pair and m = 0 no appendage length: either
        # would write a header and no rows.
        out = tmp_path / "t.csv"
        code, stdout, stderr = run(*argv, "--out", str(out))
        assert code == 1 and stdout == "" and not out.exists()
        assert stderr.startswith(f"error: {named} must be a whole number between ")
        assert stderr.count("\n") == 1

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


# Values for every flag: node labels known and unknown, bad and good
# numbers and 10**20; input files, relative to the test's directory, are
# valid or missing.
ARG_POOL = ["x1", "x1,x2", "zz", "", "nan", "inf", "-1", "0", "0.3", "2.5", "3", str(10**20)]
IN_FILES = ["g.json", "g.csv", "missing.json"]


def _parses(action, value) -> bool:
    try:
        (action.type or str)(value)
    except ValueError:
        return False
    return True


@st.composite
def argument_vectors(draw, parser=None):
    """A subcommand (and a figure, where it has sub-parsers of its own)
    and a random subset of its flags (every required one), each with a
    value from the pool, three times in four one its type accepts."""
    argv = []
    for action in (parser or build_parser())._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            name = draw(st.sampled_from(sorted(action.choices)))
            argv += [name, *draw(argument_vectors(action.choices[name]))]
            continue
        if action.option_strings and not action.required and not draw(st.booleans()):
            continue
        if action.nargs == 0:
            argv.append(action.option_strings[0])
            continue
        if action.dest.startswith("out"):
            value = action.dest
        elif action.dest == "infile":
            value = draw(st.sampled_from(IN_FILES))
        else:
            typed = [v for v in ARG_POOL if _parses(action, v)]
            wide = draw(st.integers(0, 3)) == 0
            value = draw(st.sampled_from(ARG_POOL if wide else sorted(action.choices or typed)))
        argv += [value] if not action.option_strings else [action.option_strings[0], value]
    return argv


class TestArgvFuzz:
    @settings(
        max_examples=200,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=argument_vectors())
    def test_argument_vectors_exit_cleanly(self, run, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        fileio.save_matrix(chain_graph(3, 0.3), tmp_path / "g.json")
        (tmp_path / "g.csv").write_text("0,0.3,0\n0.3,0,0.2\n0,0.2,0\n")
        code, stdout, stderr = run(*argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in stdout + stderr
        if code == 1:
            assert stderr.startswith("error:") and stderr.count("\n") == 1
