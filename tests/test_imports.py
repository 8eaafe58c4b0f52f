"""What an import loads, the lazy package namespace, and the named errors
of the catalog constructors and the oracle bound."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import skewbrace
from skewbrace.catalog import cyclic, dicyclic, dihedral, heisenberg
from skewbrace.errors import BadParameters
from skewbrace.perms import regular_subgroups_normalized_by

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter with PYTHONPATH=src has loaded
    after running code, less those it had loaded before."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              f"{code}\n"
              "print(*sorted(set(sys.modules) - before))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def package_modules(names: set[str]) -> set[str]:
    return {m for m in names if m.startswith("skewbrace.")}


class TestFootprint:
    def test_import_loads_no_submodule(self):
        assert package_modules(loaded_after("import skewbrace")) == set()

    def test_catalog_names_loads_the_catalog_and_group_core_only(self):
        loaded = loaded_after("import skewbrace; skewbrace.catalog_names()")
        assert package_modules(loaded) == {
            "skewbrace.catalog", "skewbrace.groups", "skewbrace.errors"}
        assert not loaded & {"fractions", "decimal", "json"}

    def test_serialize_loads_the_group_core_only(self):
        # a report is read by its fields, so the file formats never load
        # the census
        loaded = loaded_after("import skewbrace.serialize")
        assert {m for m in loaded if m.partition(".")[0] == "skewbrace"} \
            == {"skewbrace", "skewbrace.serialize", "skewbrace.groups",
                "skewbrace.errors"}

    def test_enumerate_never_loads_constructions(self):
        loaded = loaded_after(
            "import contextlib, io\n"
            "from skewbrace import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['enumerate', 'C27'])\n"
            "if code:\n"
            "    raise SystemExit(code)")
        assert "skewbrace.analysis" in loaded
        assert "skewbrace.constructions" not in loaded


class TestNamespace:
    def test_every_name_is_its_home_modules_object(self):
        assert len(skewbrace.__all__) == len(set(skewbrace.__all__)) == 78
        for name in skewbrace.__all__:
            home = importlib.import_module(
                f"skewbrace.{skewbrace._HOME[name]}")
            obj = getattr(skewbrace, name)
            assert obj is getattr(home, name), name
            assert obj.__module__ == home.__name__, name

    def test_dir_covers_all(self):
        assert set(skewbrace.__all__) <= set(dir(skewbrace))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from skewbrace import *", namespace)
        for name in skewbrace.__all__:
            assert namespace[name] is getattr(skewbrace, name), name

    def test_from_import_of_each_name(self):
        for name in skewbrace.__all__:
            namespace = {}
            exec(f"from skewbrace import {name}", namespace)
            assert namespace[name] is getattr(skewbrace, name), name

    def test_submodule_attribute_without_import(self):
        code = ("import skewbrace\n"
                "print(skewbrace.analysis.__name__, "
                "skewbrace.errors.BadParameters.__name__)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["skewbrace.analysis", "BadParameters"]

    def test_unknown_name_is_named(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            skewbrace.no_such_name
        with pytest.raises(ImportError):
            exec("from skewbrace import no_such_name", {})


class TestConstructorParameters:
    @pytest.mark.parametrize("build, value", [
        (cyclic, True), (cyclic, False), (cyclic, 2.0), (dihedral, 2.5),
        (heisenberg, 2.0), (dicyclic, "2"), (cyclic, 0), (cyclic, -1),
        (dihedral, 0), (dicyclic, 0), (heisenberg, 0)])
    def test_refused(self, build, value):
        with pytest.raises(BadParameters, match=re.escape(repr(value))):
            build(value)

    def test_edge_values_keep_their_tables(self):
        assert cyclic(1).table == ((0,),)
        assert dihedral(1).table == cyclic(2).table
        assert dihedral(2).order == 4 and not dihedral(2).is_cyclic()
        assert heisenberg(4).order == 64

    @pytest.mark.parametrize("bound", [True, "9", 6.5])
    def test_oracle_bound_refused(self, bound):
        with pytest.raises(BadParameters):
            regular_subgroups_normalized_by(cyclic(3), bound=bound)

    def test_oracle_bound_still_refuses_large_orders(self):
        from skewbrace.errors import OrderTooLargeForOracle

        with pytest.raises(OrderTooLargeForOracle):
            regular_subgroups_normalized_by(cyclic(3), bound=2)
