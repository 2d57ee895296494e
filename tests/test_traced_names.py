"""Every name the benchmark's tracer wraps still exists in ternalg.

``perfbench/tracing.py`` looks each target up with ``getattr`` when it
installs its wrappers, so a renamed function or method breaks every
traced benchmark run.
"""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
    "tracing.py"
_SPEC = importlib.util.spec_from_file_location("tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module, attr, name", tracing.TARGETS,
                         ids=[name for _, _, name in tracing.TARGETS])
def test_traced_name_resolves(module, attr, name):
    owner, key = tracing._owner_and_name(module, attr)
    assert callable(getattr(owner, key))
