"""The package's import graph and public names: enumerating, and the
command line until a campaign or its log is needed, load neither the
interpreter nor the campaign side, counting does not load
the skeleton builder, and every name a module lists in `__all__`
exists."""

import importlib
import importlib.util
import pkgutil
import subprocess
import sys

import pytest

import spe
from conftest import spe_env

PUBLIC_MODULES = [
    name
    for name in ["spe"] + sorted(m.name for m in pkgutil.walk_packages(spe.__path__, "spe."))
    if hasattr(importlib.import_module(name), "__all__")
]


def _loaded_by(modules: str) -> set[str]:
    """The modules a fresh interpreter holds after `import <modules>`."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {modules}; print(*sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        env=spe_env(),
        check=True,
    )
    return set(proc.stdout.split())


def test_enumerator_does_not_load_the_interpreter_or_the_campaign():
    loaded = _loaded_by("spe.skeleton, spe.enumerator")
    assert "spe.enumerator" in loaded
    assert not loaded & {"spe.minilang.interp", "spe.harness", "spe.cli"}


def test_cli_does_not_load_the_interpreter_or_the_campaign():
    # count, skeleton and enumerate need neither; test and stats import
    # the harness when they run
    loaded = _loaded_by("spe.cli")
    assert "spe.cli" in loaded
    assert not loaded & {"spe.minilang.interp", "spe.harness"}


def test_skeleton_does_not_load_the_enumerator():
    loaded = _loaded_by("spe.skeleton")
    assert "spe.skeleton" in loaded and "spe.enumerator" not in loaded


def test_count_plan_does_not_load_the_skeleton():
    # counting reads the families and the holes' variable sets; only
    # building the families needs spe.skeleton
    code = """
import sys
from types import SimpleNamespace
from spe.combinat import Family, Pool, count_plan
fam = Family(unit="main", type="int", pools=(Pool(vars=("a", "b"), parent=None),),
             holes=(1, 2, 3), eligible=((0,), (0,), (0,)))
hole = SimpleNamespace(var_set=(("a", 1), ("b", 1)))
report = count_plan(SimpleNamespace(holes=[hole] * 3), (fam,))
print(report.naive_count, report.paper_mode_count, report.complete_mode_count, *sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=spe_env(), check=True
    )
    naive, paper, complete, *loaded = proc.stdout.split()
    assert (naive, paper, complete) == ("8", "4", "4")
    assert "spe.combinat" in loaded and "spe.skeleton" not in loaded


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    for attr in module.__all__:
        # a package may list a submodule it does not import itself
        found = hasattr(module, attr) or (
            hasattr(module, "__path__") and importlib.util.find_spec(f"{name}.{attr}") is not None
        )
        assert found, f"{name}.__all__ lists {attr!r}, which does not resolve"
