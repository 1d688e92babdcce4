"""Static cycle/energy bounds asserted against real harness runs.

The soundness contract of :mod:`repro.analysis.bounds`: for every
registered kernel the static bound dominates the observed CoreStats,
and on the straight-line GF(p) kernels it is tight (within 2x).  The
lock-step differential harness doubles as the static-vs-dynamic
superblock gate, exercised end to end here on one kernel.
"""

import pytest

from repro.analysis.registry import KERNELS
from repro.analysis.verify import verify_all, verify_kernel, verify_record

_SPECS = {s.name: s for s in KERNELS}


@pytest.fixture(scope="module")
def reports():
    return {r.name: r for r in verify_all()}


def test_every_registered_kernel_is_clean(reports):
    assert sorted(reports) == sorted(_SPECS)
    bad = {name: [f.message for f in r.findings]
           for name, r in reports.items() if not r.clean}
    assert not bad


def test_bounds_dominate_observed_counters(reports):
    for r in reports.values():
        assert r.bound is not None, r.name
        assert r.bound.cycles >= r.observed["cycles"], r.name
        assert r.bound.instructions >= r.observed["instructions"], r.name
        assert r.bound.ram_writes >= r.observed["ram_writes"], r.name
        assert r.bound_energy_nj >= r.observed_energy_nj, r.name


def test_bounds_tight_on_straight_line_gfp_kernels(reports):
    for name in ("mp_add", "mp_sub", "os_mul", "red_p192"):
        assert reports[name].tightness <= 2.0, (name,
                                                reports[name].tightness)
    # the pure straight-line adders are cycle-exact
    assert reports["mp_add"].tightness == 1.0
    assert reports["mp_sub"].tightness == 1.0


def test_composed_field_multiply_verifies_interprocedurally(reports):
    r = reports["fmul_p192"]
    assert r.calls_resolved == 2          # jal os_mul, jal red_p192
    assert r.clean
    # the only waived findings are the reduction's inherited carry
    # branches, not a false positive on the spilled-$ra reload
    assert all(f.check == "secret-dependent-branch"
               for f, _ in r.waived if f.index >= 0)


def test_verify_record_shape(reports):
    record = verify_record(reports["mp_add"])
    assert record["kind"] == "analysis"
    assert record["artifact"] == "analysis_mp_add"
    assert record["cycles"] == reports["mp_add"].bound.cycles
    assert record["data"]["clean"] is True
    assert record["data"]["tightness"] == 1.0


def test_static_only_mode_skips_observation():
    report = verify_kernel(_SPECS["mp_add"], observe=False)
    assert report.observed == {}
    assert report.bound is not None and report.clean
