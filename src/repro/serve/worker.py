"""Persistent warm worker processes for the signing service.

Each worker is a long-lived process holding exactly the state that
makes steady-state requests cheap:

* the process-wide **assembled-program memo** and the lane engine's
  per-program **block maps** (:mod:`repro.pete.lanes`) -- discovery
  and compilation happen once per kernel plan, during warm-up, and
  never again (demoted lanes step the reference interpreter, which
  compiles nothing);
* a :class:`~repro.pete.lanes.LanePool` of prepared cores, restocked
  *between* batches so the next batch's prepare cost is off the
  critical path;
* the shared content-addressed sweep cache
  (:class:`~repro.sweep.cache.ResultCache`), which memoizes each
  plan's profile (cycles/energy of the warm batch's first lane) across
  workers *and* across service restarts;
* per-config :class:`~repro.energy.simulated.RunEnergyParams`, so each
  lane's event counters price into nJ with the request's uarch config.

Protocol (one duplex pipe per worker, parent is the asyncio service):

* ``("init", plans)``   -> warm every plan, reply ``("ready", info)``
* ``("batch", seq, name, k, n, config)`` -> run one lock-step batch,
  reply ``("ok", seq, result)`` or ``("error", seq, message)``
* ``("stop",)``         -> reply ``("bye", telemetry)`` and exit

Every batch result carries the blocks the worker compiled during that
batch (the movement of the ``lane_blocks_compiled`` count in
:func:`repro.obs.counts`), and ``warm=True`` once the plan has run
before in this process -- the service counts warm batches that
compiled as ``post_warm_compiles``, the "no discovery in steady state"
contract the CI smoke gates on.
"""

from __future__ import annotations

import os
import time

from repro import obs
from repro.serve.types import check_config

#: Lanes used to warm a plan's code caches at worker start.
WARM_LANES = 2


def _static_block_starts(core, entry: int) -> list[int]:
    """Every reachable basic-block leader and delay-slot pc of
    ``core``'s program.

    Uses the delay-slot-aware CFG from :mod:`repro.analysis.cfg`; the
    result seeds :meth:`LaneEngine.precompile` so the block map reaches
    closure during warm-up instead of on the first request whose
    operands take a rare path.
    """
    from repro.analysis.cfg import AsmProgram, build_cfg

    program = core.program
    prog = AsmProgram.from_words(list(program.words), base=program.base)
    cfg = build_cfg(prog)
    root = (entry - program.base) // 4
    live = cfg.reachable((root,))
    starts = {b.start for b in cfg.blocks if b.start in live}
    # delay slots too: when every lane falls through a branch, the
    # group's next unit starts AT the slot (LaneEngine._step_branch)
    starts.update(i for i in cfg.slots if i in live)
    return [prog.address(i) for i in sorted(starts)]


class _WorkerState:
    """Everything one worker process keeps warm between batches."""

    def __init__(self, calibration=None, stock_target: int = 0,
                 cache_dir: str | None = None) -> None:
        from repro.kernels.runner import KernelRunner
        from repro.pete.lanes import LanePool, require_numpy
        from repro.regress.ledger import NullLedger
        from repro.sweep.cache import ResultCache

        require_numpy()
        self.runner = KernelRunner(ledger=NullLedger(),
                                   calibration=calibration)
        self.pool = LanePool(self.runner.prepare_lanes,
                             stock_target=stock_target)
        self.cache = ResultCache(cache_dir)
        self._params: dict[str, object] = {}
        self._warm: set[tuple[str, int]] = set()

    # -- pricing ---------------------------------------------------------

    def params_for(self, config: str):
        """Per-config pricing params, built once per config."""
        params = self._params.get(config)
        if params is None:
            from repro.energy.simulated import RunEnergyParams
            from repro.model.configs import get_config

            cfg = get_config(check_config(config))
            icache = cfg.icache
            params = RunEnergyParams(
                cal=self.runner.cal,
                prime_isa_ext=cfg.prime_isa_ext,
                binary_isa_ext=cfg.binary_isa_ext,
                icache_size=icache.size_bytes if icache else None,
                icache_prefetch=bool(icache and icache.prefetch))
            self._params[config] = params
        return params

    def _price_nj(self, stats, config: str) -> float:
        from repro.energy.simulated import report_from_corestats

        return report_from_corestats(stats, self.params_for(config),
                                     label="serve").total_nj

    # -- plan lifecycle --------------------------------------------------

    def plan_key(self, name: str, k: int, config: str) -> str:
        return (f"serve_plan_{name}_{k}_{config}_"
                f"{self.runner.cal.fingerprint()}")

    def warm_plan(self, name: str, k: int,
                  config: str = "baseline") -> dict:
        """Warm one plan to a compile-free steady state and memoize
        its profile in the shared cache.

        Two steps: a dynamic warm batch runs the hot path end to end
        (populating predictors and the common block tiling), then a
        *static closure* pass precompiles a block at every reachable
        CFG leader and delay slot in the lane engine's code cache.
        Dynamic warming alone is not enough: a rarely taken carry
        branch would otherwise compile its fall-through the first time
        a request's operands happen to hit it, mid-serve.
        """
        from repro.pete.lanes import LaneEngine

        cores, entry = self.pool.take(name, k, WARM_LANES)
        engine = LaneEngine(cores)
        engine.run(entry)
        engine.precompile(_static_block_starts(cores[0], entry))
        stats = engine.lane_stats(0)
        profile = self.cache.memo(
            self.plan_key(name, k, config),
            lambda: {"kernel": name, "k": k, "config": config,
                     "cycles": stats.cycles,
                     "instructions": stats.instructions,
                     "energy_nj": self._price_nj(stats, config)},
            artifact=f"serve:{name}:{k}")
        self._warm.add((name, k))
        self.pool.restock(name, k)
        return profile

    def run_batch(self, name: str, k: int, n: int,
                  config: str = "baseline") -> dict:
        """One lock-step lane batch; per-lane cycles/energy + warm
        accounting."""
        from repro.pete.lanes import LaneEngine

        base = obs.counts()
        warm = (name, k) in self._warm
        t0 = time.perf_counter()
        cores, entry = self.pool.take(name, k, n)
        engine = LaneEngine(cores)
        engine.run(entry)
        wall_s = time.perf_counter() - t0
        lanes = []
        for i in range(n):
            stats = engine.lane_stats(i)
            lanes.append({
                "cycles": stats.cycles,
                "instructions": stats.instructions,
                "energy_nj": self._price_nj(stats, config),
            })
        self._warm.add((name, k))
        self.pool.restock(name, k)
        moved = obs.counts_since(base)
        return {
            "lanes": lanes,
            "wall_s": wall_s,
            "compiled": moved["lane_blocks_compiled"],
            "warm": warm,
        }


def worker_main(conn, index: int, calibration=None,
                stock_target: int = 0, cache_dir: str | None = None,
                obs_ctx: dict | None = None) -> None:
    """Entry point of one worker process (runs until ``("stop",)``)."""
    if obs_ctx is not None:
        obs.activate_from(obs_ctx)
    try:
        state = _WorkerState(calibration=calibration,
                             stock_target=stock_target,
                             cache_dir=cache_dir)
    except Exception as exc:
        conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            op = message[0]
            if op == "init":
                _, plans = message
                profiles = {}
                with obs.span("serve.warmup", worker=str(index)):
                    try:
                        for name, k in plans:
                            profiles[f"{name}:{k}"] = state.warm_plan(
                                name, k)
                    except Exception as exc:
                        conn.send(("fatal",
                                   f"{type(exc).__name__}: {exc}"))
                        break
                conn.send(("ready", {"pid": os.getpid(),
                                     "profiles": profiles}))
            elif op == "batch":
                _, seq, name, k, n, config = message
                with obs.span("serve.exec", worker=str(index),
                              kernel=f"{name}:{k}", lanes=str(n)):
                    try:
                        result = state.run_batch(name, k, n, config)
                    except Exception as exc:
                        conn.send(("error", seq,
                                   f"{type(exc).__name__}: {exc}"))
                        continue
                conn.send(("ok", seq, result))
            elif op == "stop":
                conn.send(("bye", {"telemetry": obs.drain()}))
                break
            else:  # pragma: no cover - protocol misuse
                conn.send(("error", -1, f"unknown message {op!r}"))
    finally:
        conn.close()
