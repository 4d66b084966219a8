"""The package namespace is the union of the module export lists."""

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
