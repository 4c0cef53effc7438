"""The package's import graph and public names: enumerating loads
neither the interpreter nor the campaign side, and every name a module
lists in `__all__` exists."""

import importlib
import importlib.util
import pkgutil
import subprocess
import sys

import pytest

import spe
from test_cli import _spe_env

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
        env=_spe_env(),
        check=True,
    )
    return set(proc.stdout.split())


def test_enumerator_does_not_load_the_interpreter_or_the_campaign():
    loaded = _loaded_by("spe.skeleton, spe.enumerator")
    assert "spe.enumerator" in loaded
    assert not loaded & {"spe.minilang.interp", "spe.harness", "spe.cli"}


def test_skeleton_does_not_load_the_enumerator():
    loaded = _loaded_by("spe.skeleton")
    assert "spe.skeleton" in loaded and "spe.enumerator" not in loaded


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    for attr in module.__all__:
        # a package may list a submodule it does not import itself
        found = hasattr(module, attr) or (
            hasattr(module, "__path__") and importlib.util.find_spec(f"{name}.{attr}") is not None
        )
        assert found, f"{name}.__all__ lists {attr!r}, which does not resolve"
