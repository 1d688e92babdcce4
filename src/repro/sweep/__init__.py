"""Parallel sweep engine with a content-addressed result cache.

The paper's evaluation is a full cross-product sweep -- six
hardware/software configurations x five security levels x {sign,
verify} for both GF(p) and GF(2^m).  This package runs that
cross-product as independent artifact tasks, in parallel, and memoizes
each task's result on disk keyed by *what produced it*: the producing
code's content (static import-closure digest), the calibration in
effect, and the artifact parameters.  A warm rerun of the full sweep
touches zero simulators.  Every producer's closure covers the model,
kernel, accelerator, field, analysis and harness packages, so an edit
in any of them invalidates all 26 artifacts.

* :mod:`repro.sweep.keys` -- code digests and cache keys;
* :mod:`repro.sweep.cache` -- the on-disk content-addressed store;
* :mod:`repro.sweep.engine` -- the process-pool executor (per-task
  timeout, bounded retry, failed-task skip, ledger records).

A pooled run's tasks are the artifacts that read no shared-model unit
and the units the others read (:mod:`repro.model.units`); the parent
seeds each unit as it lands and renders each reader inline as soon as
its units have.  Simulated kernels run on the reference interpreter
(:meth:`repro.pete.cpu.Pete.run`).
CLI: ``python -m repro.sweep`` (cached, parallel ``runall``); library:
:func:`repro.api.sweep`, and :func:`repro.api.compute_artifact` with
``cache``/``cache_dir``/``jobs`` (a one-spec engine run).
"""

from repro.sweep.cache import ResultCache, default_cache_dir
from repro.sweep.engine import (
    SweepEngine,
    SweepResult,
    TaskOutcome,
    run_sweep,
)
from repro.sweep.keys import CodeGraph, artifact_key, code_graph

__all__ = [
    "CodeGraph",
    "ResultCache",
    "SweepEngine",
    "SweepResult",
    "TaskOutcome",
    "artifact_key",
    "code_graph",
    "default_cache_dir",
    "run_sweep",
]
