"""End-to-end service test with one real worker process.

Boots the service through :func:`repro.api.serve_session`, drives a
few batches of real lane-engine work, and pins the two properties the
CI smoke gate depends on: *warm steady state* (after warm-up, no
batch triggers lane block discovery in the worker) and *clean
shutdown* (no orphaned worker processes).  An in-process worker state
pins the other side of the warm-state gate: a batch that does compile
is counted.
"""

import asyncio
import os

import pytest

from repro.api import ServeConfig, ServeRequest, serve_session
from repro.pete import lanes
from repro.serve.service import worker_pids
from repro.serve.worker import _WorkerState


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


@pytest.mark.slow
def test_real_worker_warm_steady_state_and_clean_shutdown(tmp_path):
    async def scenario():
        config = ServeConfig(
            workers=1, stock_target=4, max_batch=8,
            warm_plans=(("fmul_p192", 6),),
            cache_dir=tmp_path / "cache")
        async with serve_session(config) as service:
            pids = worker_pids(service)
            assert len(pids) == 1
            for _ in range(3):
                responses = await asyncio.gather(*(
                    service.submit(ServeRequest("sign", "P-192"))
                    for _ in range(4)))
                assert all(r.ok for r in responses)
                assert all(r.cycles > 0 and r.energy_nj > 0
                           for r in responses)
            counters = service.counters()
            assert counters["requests_served"] == 12
            assert counters["batches_formed"] >= 3
            # the acceptance bar: zero lane block discovery once
            # the worker is warm (static CFG closure at warm-up)
            assert counters["post_warm_compiles"] == 0
            return service, pids

    service, pids = asyncio.run(scenario())
    # serve_session stopped the service on exit: nothing orphaned
    assert service.stopped
    assert worker_pids(service) == []
    assert not any(_pid_alive(pid) for pid in pids)


def test_batch_after_warm_up_reports_its_compiles(tmp_path):
    """``post_warm_compiles == 0`` only means something if a warm batch
    that does compile is counted."""
    pytest.importorskip("numpy")
    state = _WorkerState(cache_dir=str(tmp_path / "cache"))
    state.warm_plan("fmul_p192", 6)
    steady = state.run_batch("fmul_p192", 6, 4)
    assert steady["warm"] is True and steady["compiled"] == 0

    # lose every compiled block: the next batch must compile again
    lanes._LANE_CODE_CACHE.clear()
    lanes._PROGRAM_MAPS.clear()
    cold = state.run_batch("fmul_p192", 6, 4)
    assert cold["warm"] is True
    assert cold["compiled"] > 0
