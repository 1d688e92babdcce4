"""Baseline snapshot + regression gate.

``python -m repro.regress baseline`` measures a catalog of cycle and
energy quantities -- kernel cycle counts on the Pete simulator, static
cycle bounds from the whole-program analyzer
(:mod:`repro.analysis.bounds`) and the whole-primitive model
quantities from
:meth:`repro.model.system.SystemModel.snapshot` -- and freezes them,
with per-quantity tolerances, into ``results/baseline/BASELINE.json``
(committed, regenerated via ``make baseline``).

``python -m repro.regress gate`` re-measures the working tree and fails
loudly, naming every offending quantity, when anything drifts outside
its tolerance.  Cycle counts are deterministic simulator outputs, so
their tolerance is exact; energies allow a float round-trip epsilon.
``--smoke`` restricts measurement to a CI-sized subset.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.trace.record import (
    bench_record,
    git_dirty,
    git_sha,
    repo_root,
)

BASELINE_SCHEMA = "repro.baseline.v1"

#: Exact for deterministic cycle counts; a round-trip epsilon for
#: energies (pure-python floats are reproducible, JSON round-trips are
#: exact, but derived sums may be re-associated by future refactors).
TOLERANCE = {"cycles": 0.0, "instructions": 0.0, "uj": 1e-6}

#: (kernel, k) pairs measured by the gate.  The smoke subset covers one
#: kernel per family and runs in CI seconds.
SMOKE_KERNELS: tuple[tuple[str, int], ...] = (
    ("os_mul", 8), ("ps_mul_ext", 6), ("ps_mulgf2", 6), ("comb_mul", 6),
    ("red_p192", 6), ("red_b163", 6), ("speck64", 1),
)
FULL_KERNELS: tuple[tuple[str, int], ...] = SMOKE_KERNELS + (
    ("mp_add", 6), ("mp_sub", 6), ("ps_sqr_ext", 6), ("bsqr_table", 6),
    ("bsqr_ext", 6), ("scalar_daa", 8), ("scalar_ladder", 8),
    ("fmul_p192", 6), ("fmul_b163", 6),
)

#: Kernels whose *static* cycle bound (the abstract interpreter's
#: longest-path cost, :mod:`repro.analysis.bounds`) the gate freezes in
#: the smoke subset; the full set is the whole analysis registry.
#: Bounds are deterministic analyzer outputs, so their tolerance is
#: exact -- a drifting bound means the analyzer or a kernel changed.
SMOKE_ANALYSIS: tuple[str, ...] = (
    "os_mul", "red_p192", "comb_mul", "speck64",
)

#: (curve, config) model rows.  The smoke subset exercises the software,
#: Monte and binary paths once each; the full set is every row of the
#: paper's Tables 7.1/7.2.
SMOKE_MODEL: tuple[tuple[str, str], ...] = (
    ("P-192", "baseline"), ("P-192", "monte"), ("B-163", "binary_isa"),
)


def full_model_rows() -> tuple[tuple[str, str], ...]:
    from repro.harness.registry import model_rows

    return model_rows()


def default_baseline_path() -> str:
    return os.path.join(repo_root(), "results", "baseline", "BASELINE.json")


def measure_quantities(smoke: bool = False, runner=None, model=None
                       ) -> dict[str, float | None]:
    """Measure the gate catalog; keys are stable quantity names like
    ``kernel/os_mul:8/cycles`` and ``model/P-192:baseline/energy_uj``.

    A quantity whose measurement raises (kernel deleted, config gone)
    maps to ``None`` rather than crashing, so :func:`check` can report
    it as vanished instead of the gate dying mid-run.
    """
    from repro.kernels.runner import shared_runner
    from repro.model.system import SystemModel

    runner = runner or shared_runner()
    model = model or SystemModel()
    out: dict[str, float | None] = {}
    for name, k in (SMOKE_KERNELS if smoke else FULL_KERNELS):
        try:
            result = runner.measure(name, k)
            cycles: float | None = float(result.cycles)
            instrs: float | None = float(result.instructions)
        except Exception:
            cycles = instrs = None
        out[f"kernel/{name}:{k}/cycles"] = cycles
        out[f"kernel/{name}:{k}/instructions"] = instrs
    from repro.analysis.bounds import compute_bound
    from repro.analysis.registry import KERNELS as ANALYSIS_KERNELS
    from repro.analysis.verify import analyze_spec
    from repro.kernels import catalog

    for spec in ANALYSIS_KERNELS:
        if smoke and spec.name not in SMOKE_ANALYSIS:
            continue
        try:
            _, result = analyze_spec(spec)
            br = compute_bound(result)
            bound = float(br.total.cycles) if br.certified else None
        except Exception:
            bound = None
        k = catalog.KERNELS[spec.name].k
        out[f"analysis/{spec.name}:{k}/bound_cycles"] = bound
    for curve, config in (SMOKE_MODEL if smoke else full_model_rows()):
        base = f"model/{curve}:{config}"
        try:
            snap = model.snapshot(curve, config)
        except Exception:
            for quantity in ("sign_cycles", "verify_cycles", "energy_uj"):
                out[f"{base}/{quantity}"] = None
            continue
        out[f"{base}/sign_cycles"] = snap["sign_cycles"]
        out[f"{base}/verify_cycles"] = snap["verify_cycles"]
        out[f"{base}/energy_uj"] = snap["energy_uj"]
        for comp, uj in snap["components"].items():
            out[f"{base}/component:{comp}_uj"] = uj
    return out


def _tolerance_for(name: str) -> float:
    unit = name.rsplit("/", 1)[-1]
    if unit.endswith("uj"):
        return TOLERANCE["uj"]
    return TOLERANCE.get(unit.rsplit("_", 1)[-1], TOLERANCE["uj"])


def make_baseline(smoke: bool = False, runner=None, model=None) -> dict:
    """Freeze the current tree's measurements into a baseline snapshot."""
    measured = measure_quantities(smoke=smoke, runner=runner, model=model)
    broken = sorted(name for name, v in measured.items() if v is None)
    if broken:
        raise RuntimeError("cannot freeze a baseline with unmeasurable "
                           "quantities: " + " ".join(broken))
    return {
        "schema": BASELINE_SCHEMA,
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "smoke": smoke,
        "quantities": {name: {"value": value,
                              "tolerance": _tolerance_for(name)}
                       for name, value in sorted(measured.items())},
    }


def write_baseline(baseline: dict, path: str | None = None) -> str:
    path = path or default_baseline_path()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_baseline(path: str | None = None) -> dict:
    path = path or default_baseline_path()
    with open(path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    if baseline.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"unknown baseline schema "
                         f"{baseline.get('schema')!r} in {path}")
    return baseline


@dataclass(frozen=True)
class GateFailure:
    """One quantity outside its tolerance."""

    name: str
    baseline: float
    measured: float | None
    tolerance: float

    def render(self) -> str:
        if self.measured is None:
            return (f"FAIL {self.name}: present in the baseline but no "
                    f"longer measurable (kernel or config removed?)")
        if self.baseline:
            pct = 100.0 * (self.measured / self.baseline - 1.0)
            change = f"{pct:+.2f}%"
        else:
            change = "was 0"
        return (f"FAIL {self.name}: baseline {self.baseline:g}, "
                f"measured {self.measured:g} ({change}, tolerance "
                f"{100 * self.tolerance:g}%)")


def check(baseline: dict, measured: dict[str, float]) -> list[GateFailure]:
    """Compare measurements against the baseline's quantities.

    Only quantities present in *both* are numerically compared (so a
    smoke run can gate against a full baseline); baseline quantities the
    current measurement set should contain but doesn't fail loudly.
    """
    failures = []
    for name, entry in sorted(baseline["quantities"].items()):
        if name not in measured:
            continue
        value, tol = entry["value"], entry.get("tolerance", 0.0)
        got = measured[name]
        if got is None:
            failures.append(GateFailure(name, value, None, tol))
            continue
        if value == 0:
            ok = got == 0
        else:
            ok = abs(got / value - 1.0) <= tol
        if not ok:
            failures.append(GateFailure(name, value, got, tol))
    return failures


def render_report(baseline: dict, measured: dict[str, float],
                  failures: list[GateFailure]) -> str:
    checked = sum(1 for n in baseline["quantities"] if n in measured)
    lines = [
        "repro.regress gate: working tree vs committed baseline",
        f"  baseline: {baseline.get('git_sha', 'unknown')[:12]}"
        + (" (dirty tree!)" if baseline.get("git_dirty") else ""),
        f"  current:  {git_sha()[:12]}"
        + (" (dirty tree)" if git_dirty() else ""),
        f"  {checked} quantities checked, {len(failures)} out of "
        f"tolerance",
    ]
    if failures:
        lines.append("")
        lines.extend(f.render() for f in failures)
        lines.append("")
        lines.append(
            "A FAILed cycle count means a generated kernel, the Pete "
            "core, or a coprocessor timing model changed behaviour; a "
            "FAILed energy means the activity synthesis or calibration "
            "moved.  If the change is intended, regenerate the snapshot "
            "with `make baseline` and commit it alongside the change.")
    else:
        lines.append("  ok: no regressions against the baseline")
    return "\n".join(lines)


def gate_record(baseline: dict, measured: dict[str, float],
                failures: list[GateFailure], smoke: bool = False) -> dict:
    """Ledger record of one gate evaluation."""
    return bench_record(
        "regress-gate", kind="gate",
        config="smoke" if smoke else "full",
        data={
            "baseline_sha": baseline.get("git_sha"),
            "checked": sum(1 for n in baseline["quantities"]
                           if n in measured),
            "failed": len(failures),
            "failures": [{"name": f.name, "baseline": f.baseline,
                          "measured": f.measured,
                          "tolerance": f.tolerance} for f in failures],
        })
