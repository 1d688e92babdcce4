"""Structured JSON records for benchmark, profile and scorecard runs.

Every benchmark invocation (and the CI smoke job) writes one record so
runs are comparable across commits: artifact name, configuration,
cycles, energy, wall-clock, and the git revision that produced them.
Schema v2 adds the provenance and attribution fields the cross-run
regression ledger (:mod:`repro.regress`) diffs between commits:

* ``kind`` -- ``bench`` / ``profile`` / ``scorecard`` / ``gate``;
* ``git_dirty`` -- whether the working tree had uncommitted changes, so
  a record from a dirty tree can never masquerade as a commit's result;
* ``components`` -- per-component energy split (uJ by Pete/ROM/RAM/...);
* ``symbols`` -- per-symbol profiler hot spots
  (``{symbol, cycles, instructions, stall_cycles, uj}`` rows).

:func:`load_record` / :func:`upgrade_record` read any schema version
ever written (v1 records gain the new fields with ``None``/empty
defaults), so old ledgers stay diffable forever.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import time

SCHEMA = "repro.bench.v2"
SCHEMA_V1 = "repro.bench.v1"
#: Every schema this reader understands, oldest first.
KNOWN_SCHEMAS = (SCHEMA_V1, SCHEMA)

_RECORD_KINDS = ("bench", "profile", "scorecard", "gate", "sweep",
                 "analysis", "telemetry", "lanes", "serve")


@functools.lru_cache(maxsize=None)
def _git(args: tuple[str, ...], repo_dir: str | None) -> str | None:
    """Run one git query; ``None`` when git/.git is unavailable.

    Answered once per process and repo dir: a record describes the
    code the process loaded, and a sweep writes one record per task.
    """
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=repo_dir or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def git_sha(repo_dir: str | None = None) -> str:
    """Current commit hash, or ``"unknown"`` outside a git checkout."""
    out = _git(("rev-parse", "HEAD"), repo_dir)
    sha = (out or "").strip()
    return sha or "unknown"


def git_dirty(repo_dir: str | None = None) -> bool | None:
    """Whether the working tree has uncommitted changes.

    ``True``/``False`` from ``git status --porcelain``; ``None`` outside
    a git checkout (a record can then only be tied to ``git_sha ==
    "unknown"`` anyway).
    """
    out = _git(("status", "--porcelain"), repo_dir)
    if out is None:
        return None
    return bool(out.strip())


def repo_root(start: str | None = None) -> str:
    """The repository root: nearest ancestor of ``start`` (default: this
    file) holding ``.git``, ``setup.py`` or ``pyproject.toml``; falls
    back to the current directory for installed copies."""
    d = os.path.abspath(start or os.path.dirname(os.path.abspath(__file__)))
    while True:
        if any(os.path.exists(os.path.join(d, m))
               for m in (".git", "setup.py", "pyproject.toml")):
            return d
        parent = os.path.dirname(d)
        if parent == d:
            return os.getcwd()
        d = parent


def default_record_dir() -> str:
    """Where records land by default: ``$BENCH_RECORD_DIR`` or
    ``results/bench`` under the repo root (NOT the cwd, so records from
    any invocation directory end up in one place)."""
    return os.environ.get("BENCH_RECORD_DIR",
                          os.path.join(repo_root(), "results", "bench"))


def bench_record(artifact: str, config: str = "", cycles: float = 0,
                 energy_uj: float = 0.0, wall_s: float = 0.0,
                 data: dict | None = None, kind: str = "bench",
                 components: dict | None = None,
                 symbols: list | None = None) -> dict:
    """Assemble one structured run record (schema v2)."""
    if kind not in _RECORD_KINDS:
        raise ValueError(f"unknown record kind {kind!r} "
                         f"(one of {', '.join(_RECORD_KINDS)})")
    return {
        "schema": SCHEMA,
        "kind": kind,
        "artifact": artifact,
        "config": config,
        "cycles": cycles,
        "energy_uj": energy_uj,
        "wall_s": wall_s,
        "data": data or {},
        "components": dict(components or {}),
        "symbols": list(symbols or []),
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def kernel_record(result) -> dict:
    """Record for one :class:`~repro.kernels.runner.KernelResult`."""
    return bench_record(
        f"kernel:{result.name}", config=f"k={result.k}",
        cycles=result.cycles,
        data={"instructions": result.instructions,
              "ram_reads": result.ram_reads,
              "ram_writes": result.ram_writes,
              "rom_reads": result.rom_reads})


def summarize_rows(rows) -> tuple[float, float, dict]:
    """Fold an artifact's table rows into ``(cycles, energy_uj, data)``.

    Shared by the pytest benchmarks and ``runall --out`` so the txt/csv
    artifacts and the ledger records are derived from the same rows and
    can never disagree.  Numeric columns whose name mentions ``cycle``
    are summed into cycles; ``*uj`` / ``*energy*`` columns into energy.
    """
    cycles = 0.0
    energy_uj = 0.0
    data: dict = {}
    rows = rows if isinstance(rows, list) else []
    if rows and isinstance(rows[0], dict):
        data["rows"] = len(rows)
        data["columns"] = [str(k) for k in rows[0]]
        for row in rows:
            for key, value in row.items():
                if not isinstance(value, (int, float)):
                    continue
                key_l = str(key).lower()
                if "cycle" in key_l:
                    cycles += value
                elif key_l.endswith("uj") or "energy" in key_l:
                    energy_uj += value
    return cycles, energy_uj, data


def summarize_series(series: dict) -> tuple[float, float, dict]:
    """Fold a figure's ``{series: {key: value}}`` data the same way."""
    rows = []
    for name, values in (series or {}).items():
        if isinstance(values, dict):
            rows.append({f"{name}/{k}": v for k, v in values.items()})
        elif isinstance(values, (int, float)):
            rows.append({name: values})
    merged: dict = {}
    for row in rows:
        merged.update(row)
    cycles, energy_uj, _ = summarize_rows([merged] if merged else [])
    return cycles, energy_uj, {"series": len(series or {})}


def upgrade_record(record: dict) -> dict:
    """Return ``record`` upgraded in place to the current schema.

    v1 records gain ``kind="bench"``, ``git_dirty=None`` (v1 never
    recorded tree state) and empty ``components``/``symbols``.  Unknown
    schemas raise ``ValueError`` so a reader can't silently misparse a
    future format.
    """
    schema = record.get("schema")
    if schema not in KNOWN_SCHEMAS:
        raise ValueError(f"unknown record schema {schema!r} "
                         f"(known: {', '.join(KNOWN_SCHEMAS)})")
    if schema == SCHEMA_V1:
        record.setdefault("kind", "bench")
        record.setdefault("git_dirty", None)
        record.setdefault("components", {})
        record.setdefault("symbols", [])
        record["schema"] = SCHEMA
    return record


def load_record(path: str) -> dict:
    """Read one record file, upgrading old schemas."""
    with open(path, encoding="utf-8") as fh:
        return upgrade_record(json.load(fh))


def write_record(record: dict, out_dir: str | None = None) -> str:
    """Write ``record`` to ``<out_dir>/BENCH_<artifact>.json``.

    ``out_dir`` defaults to :func:`default_record_dir` (repo-root
    anchored).  Returns the path written.
    """
    out_dir = out_dir or default_record_dir()
    os.makedirs(out_dir, exist_ok=True)
    safe = "".join(c if c.isalnum() or c in "-._" else "_"
                   for c in record["artifact"])
    path = os.path.join(out_dir, f"BENCH_{safe}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
