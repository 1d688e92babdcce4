"""Regenerate every table and figure: ``python -m repro.harness.runall``.

Writes the rendered artifacts to stdout and, with ``--out DIR``, one text
file per artifact into the given directory (``--csv`` adds machine-
readable CSV next to each text file).  Artifact selection, production
and rendering all go through :mod:`repro.harness.registry`; execution
goes through the sweep engine (:mod:`repro.sweep`), so ``--jobs N``
parallelizes the run and ``--cache`` memoizes artifact results on disk
keyed by producing-code content + calibration + params (a warm rerun
touches zero simulators).

Observability modes (instead of rendering artifacts):

* ``--profile [CURVE:CONFIG:PRIMITIVE]`` -- per-operation cycle/energy
  profile of one full primitive (default ``P-256:baseline:sign``),
  reconciled against its :class:`EnergyReport`;
* ``--profile-kernel NAME:K`` -- cycle-level per-symbol profile of one
  assembled kernel run (hot-spot table + collapsed stacks);
* ``--trace FILE [--trace-kernel NAME:K]`` -- run one kernel with
  tracing on and write a Chrome ``trace_event`` JSON (open in Perfetto
  or chrome://tracing).

``--obs`` (with artifact runs) additionally switches on the
:mod:`repro.obs` telemetry plane: hierarchical wall-clock spans across
the run and every pool worker plus cache/task metrics,
exported under ``--obs-out`` (default ``results/telemetry``) and
summarized in a ``kind="telemetry"`` ledger record -- inspect with
``python -m repro.obs report``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.harness.registry import (
    ArtifactSpec,
    UnknownArtifactError,
    select,
)

DEFAULT_PROFILE = "P-256:baseline:sign"
DEFAULT_TRACE_KERNEL = "os_mul:8"


def select_specs(only: list[str] | None) -> list[ArtifactSpec]:
    """Resolve ``--only`` tokens to specs, in artifact order; raises
    ``SystemExit`` on tokens matching nothing."""
    try:
        return select(only)
    except UnknownArtifactError as exc:
        raise SystemExit(str(exc))


def select_artifacts(only: list[str] | None) -> list[tuple[str, str]]:
    """Resolve ``--only`` tokens to (kind, name) pairs, in artifact
    order; raises ``SystemExit`` on tokens matching nothing."""
    return [spec.key for spec in select_specs(only)]


def _parse_spec(spec: str, default: str, n: int, what: str) -> list[str]:
    parts = (spec or default).split(":")
    if len(parts) != n:
        raise SystemExit(f"runall: bad {what} spec {spec!r} "
                         f"(expected {n} ':'-separated fields, "
                         f"like {default!r})")
    return parts


def _run_profile(spec: str) -> None:
    from repro.trace.opprofile import profile_primitive

    curve, config, primitive = _parse_spec(spec, DEFAULT_PROFILE, 3,
                                           "--profile")
    profile = profile_primitive(curve, config, primitive)
    print(profile.table())
    print(f"\nreconciliation vs EnergyReport: "
          f"{100 * profile.reconcile():.4f}% difference")


def _kernel_profile(spec: str):
    from repro.kernels.runner import KernelRunner
    from repro.trace.bus import CollectingSink
    from repro.trace.metrics import PowerSampler

    name, k = _parse_spec(spec, DEFAULT_TRACE_KERNEL, 2,
                          "--profile-kernel/--trace-kernel")
    events = CollectingSink()
    power = PowerSampler(interval_cycles=64)
    runner = KernelRunner()
    try:
        profiler, cpu = runner.profile(name, int(k),
                                       extra_sinks=(events, power))
    except KeyError as exc:
        raise SystemExit(f"runall: {exc.args[0]}")
    return profiler, cpu, events, power


def _run_kernel_profile(spec: str, dump: pathlib.Path | None = None) -> None:
    profiler, cpu, _, _ = _kernel_profile(spec)
    if dump is not None:
        import json

        record = profiler.to_record(
            f"kernel:{(spec or DEFAULT_TRACE_KERNEL).split(':')[0]}",
            config=spec or DEFAULT_TRACE_KERNEL)
        dump.parent.mkdir(parents=True, exist_ok=True)
        dump.write_text(json.dumps(record, indent=2, sort_keys=True)
                        + "\n")
        print(f"wrote profile dump to {dump}")
    print(profiler.table(top=20))
    diff = profiler.reconcile(cpu.stats)
    print(f"\nreconciliation vs EnergyReport: {100 * diff:.4f}% "
          f"difference")
    stacks = profiler.collapsed_stacks()
    if stacks:
        print("\ncollapsed stacks (flamegraph input):")
        print(stacks)


def _run_trace(path: pathlib.Path, spec: str) -> None:
    from repro.trace.chrome import write_chrome_trace

    profiler, cpu, events, power = _kernel_profile(spec)
    write_chrome_trace(
        path, events.events, symbols=profiler.symbols,
        power_series=power.power_series(),
        metadata={"kernel": spec or DEFAULT_TRACE_KERNEL,
                  "cycles": cpu.stats.cycles})
    print(f"wrote {len(events.events)} events to {path} "
          f"({cpu.stats.cycles} cycles simulated)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory to write per-artifact text files")
    parser.add_argument("--only", nargs="*", default=None,
                        help="artifact names or prefixes "
                             "(e.g. 7.1 7_14 s7; unknown names fail)")
    parser.add_argument("--csv", action="store_true",
                        help="also write CSV files (requires --out)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="artifact tasks to run in parallel "
                             "(default 1: inline, no process pool)")
    parser.add_argument("--cache", action="store_true",
                        help="memoize artifact results in the on-disk "
                             "content-addressed cache")
    parser.add_argument("--cache-dir", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="cache directory (implies --cache; default "
                             "results/cache or $REPRO_SWEEP_CACHE_DIR)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-task timeout for pooled runs "
                             "(default 600)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="retries per failed task (default 1)")
    parser.add_argument("--stats-json", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="write run statistics as JSON "
                             '({"computed": N, "cached": N, ...}) for '
                             "machine consumption (CI asserts on these "
                             "fields instead of grepping stderr)")
    parser.add_argument("--profile", nargs="?", const=DEFAULT_PROFILE,
                        metavar="CURVE:CONFIG:PRIMITIVE",
                        help="print the per-operation energy profile of "
                             f"one primitive (default {DEFAULT_PROFILE})")
    parser.add_argument("--profile-kernel", metavar="NAME:K",
                        help="print the per-symbol profile of one "
                             "kernel run (e.g. os_mul:8)")
    parser.add_argument("--profile-json", type=pathlib.Path,
                        metavar="FILE",
                        help="with --profile-kernel: also write the "
                             "profile as a run record (diffable with "
                             "`python -m repro.regress diff`)")
    parser.add_argument("--ledger", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="ledger directory for per-artifact records "
                             "(default: LEDGER under --out)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="with --out: skip the ledger records")
    parser.add_argument("--trace", type=pathlib.Path, metavar="FILE",
                        help="write a Chrome trace_event JSON of one "
                             "kernel run")
    parser.add_argument("--trace-kernel", default=DEFAULT_TRACE_KERNEL,
                        metavar="NAME:K",
                        help="kernel for --trace "
                             f"(default {DEFAULT_TRACE_KERNEL})")
    parser.add_argument("--obs", action="store_true",
                        help="enable the telemetry plane (repro.obs): "
                             "spans + runtime metrics across the run "
                             "and its pool workers, exported as "
                             "JSON/OpenMetrics/Chrome trace plus a "
                             "kind=telemetry ledger record")
    parser.add_argument("--obs-out", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="telemetry export directory (implies "
                             "--obs; default results/telemetry or "
                             "$REPRO_OBS_DIR)")
    args = parser.parse_args(argv)

    if args.profile or args.profile_kernel or args.trace:
        if args.profile:
            _run_profile(args.profile)
        if args.profile_kernel:
            _run_kernel_profile(args.profile_kernel, args.profile_json)
        if args.trace:
            _run_trace(args.trace, args.trace_kernel)
        return 0

    root = None
    if args.obs or args.obs_out is not None:
        from repro import obs

        tel = obs.enable()
        root = tel.begin("runall", activate=True, jobs=str(args.jobs))

    ledger = None
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        if not args.no_ledger:
            from repro.regress.ledger import Ledger

            ledger = Ledger(args.ledger or args.out / "ledger")

    specs = select_specs(args.only)

    cache = None
    if args.cache or args.cache_dir:
        from repro.sweep.cache import ResultCache

        cache = ResultCache(args.cache_dir)

    from repro.sweep.engine import SweepEngine

    engine_kwargs: dict = {}
    if args.timeout is not None:
        engine_kwargs["timeout_s"] = args.timeout
    if args.retries is not None:
        engine_kwargs["retries"] = args.retries
    engine = SweepEngine(jobs=args.jobs, cache=cache, ledger=ledger,
                         **engine_kwargs)
    result = engine.run(specs)

    for spec, outcome in zip(specs, result.outcomes):
        if not outcome.ok:
            print(f"runall: {spec.artifact_id} failed after "
                  f"{outcome.attempts} attempt(s): {outcome.error}",
                  file=sys.stderr)
            continue
        payload = outcome.payload
        print(payload["text"])
        print()
        if args.out:
            (args.out / f"{spec.slug}.txt").write_text(
                payload["text"] + "\n")
            if args.csv:
                (args.out / f"{spec.slug}.csv").write_text(
                    payload["csv"])
            if ledger is not None:
                ledger.append(spec.record(payload))
    if cache is not None or args.jobs > 1:
        print(result.summary(), file=sys.stderr)
    if args.stats_json is not None:
        import json

        stats = {
            "artifacts": len(result.outcomes),
            "computed": result.computed,
            "cached": result.hits,
            "failed": len(result.failed),
            "jobs": result.jobs,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "retries": result.retries,
            "reaped": result.reaped,
            "units": result.units,
            "units_inline": result.units_inline,
        }
        args.stats_json.parent.mkdir(parents=True, exist_ok=True)
        args.stats_json.write_text(
            json.dumps(stats, sort_keys=True) + "\n")
    if root is not None:
        from repro import obs
        from repro.obs.export import telemetry_record, write_export

        root.finish("error" if result.failed else "ok")
        snapshot = obs.disable()
        paths = write_export(
            snapshot, str(args.obs_out) if args.obs_out else None)
        record = telemetry_record(snapshot, config=f"jobs={args.jobs}",
                                  export_path=paths["json"])
        if ledger is not None:
            ledger.append(record)
        else:
            from repro.regress.ledger import default_ledger

            default_ledger().append(record)
        print(f"telemetry: {paths['json']}", file=sys.stderr)
    if ledger is not None:
        print(f"(ledger: {ledger.path_for('bench')})")
    return 1 if result.failed else 0


if __name__ == "__main__":
    sys.exit(main())
