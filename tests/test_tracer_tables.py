"""The traced benchmark (`perfbench/run.py --trace 1`) wraps spe's layer
functions by name from outside the program. Check that every name in its
tables still resolves, so that renaming or deleting one of them fails
here instead of in the traced run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize(
    "module,attr,span", tracer.FUNCTIONS + tracer.GENERATORS
)
def test_traced_name_is_callable(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module,attr,span", tracer.GENERATORS)
def test_traced_generator_is_a_generator_function(module, attr, span):
    assert inspect.isgeneratorfunction(getattr(importlib.import_module(module), attr))


def test_campaign_interprets_through_the_traced_name():
    # the tracer wraps spe.minilang.interp.interpret by name; a campaign
    # that reached the interpreter some other way would read 0 on every
    # minilang.interpret.* metric
    import spe.harness
    import spe.minilang.interp

    assert spe.harness.interpret is spe.minilang.interp.interpret


def test_enumerate_command_callback_is_traceable():
    # install() wraps spe.cli.cmd_enumerate.callback as cli.enumerate
    import click
    import spe.cli

    assert isinstance(spe.cli.cmd_enumerate, click.Command)
    assert callable(spe.cli.cmd_enumerate.callback)
