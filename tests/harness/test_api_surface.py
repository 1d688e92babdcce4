"""Surface stability: the exported API and registry encapsulation.

These tests pin contracts rather than behavior: ``repro.api.__all__``
is the supported import surface (docs/API.md documents exactly these
names), :mod:`repro.harness.registry` privates stay private -- no
other module under ``src/`` may import or reference them -- and removed
names and options stay removed.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro.api as api

EXPECTED_API = [
    "ArtifactSpec",
    "RequestShed",
    "ServeConfig",
    "ServeRequest",
    "ServeResponse",
    "ServiceDraining",
    "Session",
    "SigningService",
    "SweepResult",
    "UnknownArtifactError",
    "compute_artifact",
    "open_session",
    "serve_session",
    "sweep",
]

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: importing a leading-underscore name straight out of the module
_PRIVATE_IMPORT = re.compile(
    r"from\s+repro\.harness\.registry\s+import\s+[^\n]*\b_\w+")
#: the module imported under the name ``registry`` (other modules named
#: registry -- e.g. the telemetry metric registry -- don't count)
_HARNESS_REGISTRY = re.compile(
    r"(?:from\s+repro\.harness\s+import\s+[^\n]*\bregistry\b"
    r"|import\s+repro\.harness\.registry\s+as\s+registry)")
_PRIVATE_ATTR = re.compile(r"\bregistry\._\w+")


def test_api_all_is_stable_and_sorted():
    assert list(api.__all__) == EXPECTED_API
    assert sorted(api.__all__) == list(api.__all__)


def test_api_all_names_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_no_module_reaches_registry_privates():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "registry.py" and path.parent.name == "harness":
            continue
        text = path.read_text()
        if _PRIVATE_IMPORT.search(text) or (
                _HARNESS_REGISTRY.search(text)
                and _PRIVATE_ATTR.search(text)):
            offenders.append(str(path.relative_to(SRC)))
    assert not offenders, (
        "modules reaching into repro.harness.registry privates: "
        f"{offenders}")


def test_runall_shims_are_gone():
    """The PR-4 deprecation shims were removed; the old private names
    must raise AttributeError, not silently resolve."""
    import repro.harness.runall as runall

    for name in ("_normalize", "_matches", "_artifact_record",
                 "_to_csv"):
        try:
            getattr(runall, name)
        except AttributeError:
            continue
        raise AssertionError(f"runall.{name} still resolves")


def test_fast_knob_is_gone():
    """Every run is block-threaded, so the removed ``fast=`` keyword
    must fail loudly instead of being silently ignored."""
    from repro.kernels.runner import KernelRunner
    from repro.serve.service import ServeConfig
    from repro.sweep.engine import SweepEngine

    with pytest.raises(TypeError):
        api.compute_artifact("7.5", fast=True)
    for build in (KernelRunner, SweepEngine, ServeConfig):
        with pytest.raises(TypeError):
            build(fast=True)


def test_batch_first_routes_are_gone():
    """The lane engine runs only under the serve worker (plus
    ``diffexec --lanes`` and the lane benchmark): the batch-first facade
    and every other lane route must fail loudly, not half-resolve."""
    import repro.kernels.runner as runner
    import repro.pete as pete
    from repro.sweep.engine import SweepEngine

    gone = [(api, "BatchItem"), (api, "BatchLane"), (api, "BatchRequest"),
            (api, "BatchResult"), (api, "compute_batch"),
            (api.Session, "compute_batch"), (SweepEngine, "run_lanes"),
            (SweepEngine, "_record_lanes"),
            (runner.KernelRunner, "measure_batch"),
            (runner, "BatchKernelResult"), (pete, "LaneEngine"),
            (pete, "HAVE_NUMPY")]
    for owner, name in gone:
        with pytest.raises(AttributeError):
            getattr(owner, name)
    with pytest.raises(TypeError):
        api.sweep(only=["table_7.3"], cache=False, lanes=4)


def test_runall_batch_options_are_argparse_errors(capsys):
    from repro.harness.runall import main

    for argv in (["--batch", "4"], ["--kernels", "os_mul:8"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out
    assert "--batch" not in usage and "--kernels" not in usage


def test_catalog_and_facade_leave_the_lane_engine_unloaded():
    """Building the catalog and importing the facade, the kernel runner
    and runall must not load :mod:`repro.pete.lanes` or numpy (a fresh
    interpreter, so no other test's imports count)."""
    code = (
        "import sys\n"
        "from repro.harness.registry import registry\n"
        "registry()\n"
        "import repro.api, repro.kernels.runner, repro.harness.runall\n"
        "print([m for m in ('repro.pete.lanes', 'numpy')"
        " if m in sys.modules])\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
