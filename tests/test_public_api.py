"""Packaging contracts: exports resolve, errors share one root.

A library's ``__all__`` lists and exception hierarchy are API promises;
these tests keep them true as modules evolve.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import errors

SUBPACKAGES = [
    "repro.analysis",
    "repro.appserver",
    "repro.baselines",
    "repro.cms",
    "repro.core",
    "repro.database",
    "repro.faults",
    "repro.harness",
    "repro.insight",
    "repro.network",
    "repro.overload",
    "repro.sites",
    "repro.telemetry",
    "repro.workload",
]


class TestAllExports:
    @pytest.mark.parametrize("name", SUBPACKAGES + ["repro"])
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        assert exported is not None, "%s has no __all__" % name
        for symbol in exported:
            assert hasattr(module, symbol), "%s.%s missing" % (name, symbol)

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_no_duplicate_exports(self, name):
        module = importlib.import_module(name)
        exported = module.__all__
        assert len(exported) == len(set(exported)), name

    def test_top_level_exposes_subpackages(self):
        for name in SUBPACKAGES:
            short = name.split(".")[-1]
            assert hasattr(repro, short)


class TestErrorHierarchy:
    def error_classes(self):
        return [
            member
            for _, member in vars(errors).items()
            if inspect.isclass(member) and issubclass(member, Exception)
        ]

    def test_every_error_derives_from_repro_error(self):
        for klass in self.error_classes():
            assert issubclass(klass, errors.ReproError), klass

    def test_catching_the_root_catches_everything(self):
        from repro.core.dpc import DynamicProxyCache

        dpc = DynamicProxyCache(capacity=4)
        with pytest.raises(errors.ReproError):
            dpc.fetch(2)  # AssemblyError
        with pytest.raises(errors.ReproError):
            dpc.fetch(99)  # SlotError

    def test_domain_errors_are_distinct_branches(self):
        assert not issubclass(errors.DatabaseError, errors.CacheError)
        assert not issubclass(errors.NetworkError, errors.AppServerError)
        assert issubclass(errors.QueryError, errors.DatabaseError)
        assert issubclass(errors.AssemblyError, errors.CacheError)

    def test_all_error_classes_documented(self):
        for klass in self.error_classes():
            assert inspect.getdoc(klass), klass


class TestVersioning:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)
