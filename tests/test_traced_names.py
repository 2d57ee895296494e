"""Every name the benchmark's tracer wraps still exists in ternalg.

``perfbench/tracing.py`` looks each target up with ``getattr`` when it
installs its wrappers, so a renamed function or method breaks every
traced benchmark run.  Its scalar counter wraps the ``QuadScalar``
operations it names, which must stay defined on the class itself.
"""

import importlib.util
import pathlib

import pytest

from ternalg.scalars import QuadScalar

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


@pytest.mark.parametrize("op", tracing.ARITHMETIC)
def test_scalar_counter_finds_each_operation_on_the_class(op):
    # ScalarCounter wraps these through QuadScalar.__dict__, which holds
    # only what the class itself defines
    assert callable(QuadScalar.__dict__[op])
