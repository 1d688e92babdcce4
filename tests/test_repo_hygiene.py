"""Repository hygiene: build output never lands in version control."""

import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _is_build_output(path: str) -> bool:
    """Bytecode, or anything under a setuptools ``*.egg-info`` directory."""
    return path.endswith(".pyc") or any(
        part.endswith(".egg-info") for part in path.split("/")[:-1])


def test_build_output_predicate():
    assert _is_build_output("src/repro/__pycache__/x.cpython-311.pyc")
    assert _is_build_output("src/repro.egg-info/PKG-INFO")
    assert not _is_build_output("src/repro/fields/binary.py")
    assert not _is_build_output("docs/egg-info.md")


def test_no_bytecode_is_tracked():
    try:
        out = subprocess.run(["git", "ls-files"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git is not available")
    if out.returncode != 0:
        pytest.skip("not a git checkout")
    tracked = [p for p in out.stdout.splitlines() if _is_build_output(p)]
    assert tracked == [], f"tracked build output: {tracked}"
