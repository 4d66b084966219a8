"""Matrix files: a small JSON layout for typed objects, CSV for tables.

The JSON layout is one object per file:

    {
      "kind": "covariance" | "precision" | "partial" | "marginal",
      "dim": d,
      "labels": ["x1", ...],
      "data": [[row 0 ...], ..., [row d-1 ...]],
      "scale": [...],          # partial kind only, optional
      "provenance": {...}      # optional, free-form, round-tripped
    }

``data`` is row-major.  Floats are written with Python's shortest
round-trip representation, so saving the same object twice produces
byte-identical files; non-finite numbers are refused on save.  The
writer's text is ``json.dumps(doc, indent=2, allow_nan=False)`` byte for
byte: a row of finite floats is one C-level join of ``float.__repr__``
(the repr ``json`` itself writes), lists and ``str``-keyed dicts recurse
with json's indent and separators, and every other value goes to
``json.dumps``, so its text and its errors are json's own.  Loading
holds a file to this layout strictly (``labels``, ``scale`` and
``provenance`` may also be null).  CSV files carry a bare d x d table
with no header; their kind travels out of band (a flag, for the
command-line tools).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import FileFormatError, _instance, _shown
from .matrices import (
    CovarianceMatrix,
    MarginalCorrelationMatrix,
    PartialCorrelationGraph,
    PrecisionMatrix,
)

_TYPE_OF_KIND = {
    "covariance": CovarianceMatrix,
    "precision": PrecisionMatrix,
    "partial": PartialCorrelationGraph,
    "marginal": MarginalCorrelationMatrix,
}

KINDS = tuple(_TYPE_OF_KIND)

__all__ = [
    "KINDS",
    "kind_of",
    "matrix_from_kind",
    "save_json",
    "save_matrix",
    "load_matrix",
    "load_csv_matrix",
    "save_csv_table",
]


def kind_of(obj) -> str:
    """The JSON kind string for a matrix object."""
    obj = _instance(obj, tuple(_TYPE_OF_KIND.values()), "obj")
    return next(kind for kind, cls in _TYPE_OF_KIND.items() if isinstance(obj, cls))


def matrix_from_kind(kind: str, data, labels=None, scale=None):
    """Build the typed object named by ``kind`` from raw parts.

    Validation runs in the type constructors; a bad kind raises
    :class:`FileFormatError`.  ``scale`` is passed on to partial graphs
    only.
    """
    try:
        cls = _TYPE_OF_KIND[kind]
    except (KeyError, TypeError):
        raise FileFormatError(
            f"unknown matrix kind {kind!r}; expected one of {KINDS}"
        ) from None
    extra = {"scale": scale} if cls is PartialCorrelationGraph else {}
    return cls(data, labels=labels, **extra)


def _indented(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)`` for a value whose
    line starts with ``pad`` (a newline and its indent)."""
    inner = pad + "  "
    if type(obj) is list and obj:
        if set(map(type, obj)) == {float}:
            row = ("," + inner).join(map(float.__repr__, obj))
            if "n" not in row:  # no inf or nan: those go to json for its error
                return "[" + inner + row + pad + "]"
        return "[" + inner + ("," + inner).join([_indented(x, inner) for x in obj]) + pad + "]"
    if type(obj) is dict and obj and set(map(type, obj)) == {str}:
        items = [json.dumps(k) + ": " + _indented(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    # JSON text holds no raw newline, so re-indenting json's lines is exact.
    return json.dumps(obj, indent=2, allow_nan=False).replace("\n", pad)


def save_json(doc, path) -> None:
    """Write ``doc`` as JSON with a two-space indent and a final newline.

    The text is built before the file is opened, so what JSON cannot hold
    (inf, a numpy int, nesting too deep to encode) raises
    :class:`FileFormatError` and leaves no file.
    """
    try:
        try:
            text = _indented(doc, "\n")
        except RecursionError:  # json's own walk, for json's own message
            text = json.dumps(doc, indent=2, allow_nan=False)
    except (ValueError, TypeError, RecursionError) as exc:
        raise FileFormatError(f"{path}: cannot write JSON: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def save_matrix(obj, path, provenance: dict | None = None) -> None:
    """Write a typed matrix object to ``path`` in the JSON layout.

    A provenance other than a dict or None raises :class:`ParamOutOfBound`,
    and one that would not read back equal (a non-``str`` key, a tuple)
    :class:`FileFormatError`, both before the file is opened.
    """
    kind = kind_of(obj)
    _instance(provenance, (dict, type(None)), "provenance")
    try:
        back = json.loads(json.dumps(provenance, allow_nan=False))
    except (ValueError, TypeError, RecursionError) as exc:
        raise FileFormatError(f"{path}: cannot write JSON: {exc}") from exc
    if back != provenance:
        raise FileFormatError(
            f"{path}: provenance would not read back equal: it reads back as {_shown(back)}"
        )
    entries = obj.weights if kind == "partial" else obj.entries
    doc = {
        "kind": kind,
        "dim": int(entries.shape[0]),
        "labels": list(obj.labels),
        "data": entries.tolist(),
    }
    if kind == "partial" and obj.scale is not None:
        doc["scale"] = obj.scale.tolist()
    if provenance is not None:
        doc["provenance"] = provenance
    save_json(doc, path)


def _floats(cells, path, what: str) -> np.ndarray:
    """A list of JSON numbers as a float array; anything else is refused."""
    # By exact type: a JSON true is a bool, which isinstance would take for an int.
    if not isinstance(cells, list) or not set(map(type, cells)) <= {int, float}:
        raise FileFormatError(f"{path}: {what} must be a list of JSON numbers")
    try:
        return np.array(cells, dtype=float)
    except OverflowError:
        raise FileFormatError(f"{path}: {what} exceed the float range") from None


def load_matrix(path):
    """Read a JSON matrix file, returning (object, provenance).

    A file that breaks the layout raises :class:`FileFormatError`; the
    object itself is validated on construction.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON and bytes that are not UTF-8.
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a JSON object at top level")
    for key in ("kind", "dim", "data"):
        if key not in doc:
            raise FileFormatError(f"{path}: missing required key {key!r}")
    dim, rows = doc["dim"], doc["data"]
    if type(dim) is not int:
        raise FileFormatError(f"{path}: dim must be an integer, got {dim!r}")
    if not rows or not isinstance(rows, list) or any(
        not isinstance(row, list) or len(row) != len(rows) for row in rows
    ):
        raise FileFormatError(f"{path}: data is not a square table")
    data = _floats([x for row in rows for x in row], path, "data entries").reshape(len(rows), -1)
    if data.shape[0] != dim:
        raise FileFormatError(f"{path}: dim says {dim} but data is {data.shape[0]} wide")
    labels, scale, provenance = (doc.get(key) for key in ("labels", "scale", "provenance"))
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(x, str) for x in labels)
    ):
        raise FileFormatError(f"{path}: labels must be a list of strings")
    if scale is not None:
        if doc["kind"] != "partial":
            raise FileFormatError(f"{path}: scale is allowed on partial graphs only")
        scale = _floats(scale, path, "scale")
    if provenance is not None and not isinstance(provenance, dict):
        raise FileFormatError(f"{path}: provenance must be an object")
    return matrix_from_kind(doc["kind"], data, labels=labels, scale=scale), provenance


def load_csv_matrix(path, kind: str):
    """Read a bare d x d CSV table as the matrix type named by ``kind``."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:  # a leading BOM is dropped
            text = fh.read()
        if not text.isascii() or "_" in text:  # float() reads 1_000 and non-ASCII digits
            raise ValueError("a cell holds an underscore or a non-ASCII character")
        rows = [list(map(float, line)) for line in csv.reader(text.splitlines(True)) if line]
    except ValueError as exc:
        # A cell no JSON number could hold, or bytes that are not UTF-8.
        raise FileFormatError(f"{path}: not a numeric table: {exc}") from exc
    if not rows or any(len(row) != len(rows) for row in rows):
        raise FileFormatError(f"{path}: expected a square numeric table")
    return matrix_from_kind(kind, rows)


def save_csv_table(path, header, rows) -> None:
    """Write a CSV table with one header line and float-ready rows."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])
