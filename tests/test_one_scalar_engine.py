"""Pete has one scalar engine: the reference interpreter.

The superblock fast path and everything that existed only for it --
its module, ``Pete.step_unit``, diffexec's scalar lock-step and the
static certification of its block maps -- are gone; ``Pete.run`` steps
``Pete.step_instruction``.  Its ``fastpath_*`` counts are gone too:
``tests/harness/test_runall_fast.py`` pins the ``--stats-json`` keys.
"""

import importlib

import pytest

from repro.pete import diffexec
from repro.pete.cpu import Pete


def test_the_superblock_fast_path_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.pete.fastpath")
    for name in ("step_unit", "fastpath", "flush_decoded"):
        assert not hasattr(Pete, name), name
        assert not hasattr(Pete(), name), name
    for name in ("lockstep", "diff_kernel", "certify_static",
                 "run_reference"):
        assert not hasattr(diffexec, name), name
    superblock = importlib.import_module("repro.analysis.superblock")
    assert not hasattr(superblock, "certify")
