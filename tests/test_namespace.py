"""The package namespace is the union of the module export lists."""

import ast
import sys
from pathlib import Path

import pathcorr
from pathcorr import chains, errors, gaussinfo, matrices, pathsum, sampling, transforms

MODULES = (errors, matrices, pathsum, transforms, chains, gaussinfo, sampling)


def test_every_module_export_is_the_same_object_on_the_package():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(pathcorr, name) is getattr(module, name), (module.__name__, name)


def test_package_exports_are_the_module_exports_without_duplicates():
    names = ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert pathcorr.__all__ == names
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(pathcorr, name), name


def _imported_roots(module):
    """(top-level name, relative level) of every import in a module's source."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name.split(".")[0], 0) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield (node.module or "").split(".")[0], node.level


def test_chains_and_errors_import_only_the_stdlib():
    # The chain subcommand can start without numpy only while these two
    # modules stay free of it.
    for module, siblings in ((errors, set()), (chains, {"errors"})):
        for name, level in _imported_roots(module):
            if level:
                assert name in siblings, (module.__name__, name)
            else:
                assert name in sys.stdlib_module_names, (module.__name__, name)
