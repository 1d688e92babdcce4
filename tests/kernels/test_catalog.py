"""The kernel table: each kernel is declared once, and every harness --
measurement, preparation, profiling and the verifier -- builds it
through the same path."""

import dataclasses

import pytest

from repro.analysis import registry
from repro.analysis.bounds import energy_bound_nj
from repro.analysis.verify import build_image, verify_kernel
from repro.energy.simulated import RunEnergyParams
from repro.harness.runall import main as runall_main
from repro.kernels import catalog, composed, runner
from repro.kernels.runner import KernelRunner
from repro.regress.ledger import NullLedger

FIXED = {"red_p192": 6, "red_b163": 6, "fmul_p192": 6, "fmul_b163": 6,
         "speck64": 1}


def _runner():
    return KernelRunner(cache={}, ledger=NullLedger())


def test_the_registry_analyses_exactly_the_table():
    assert [s.name for s in registry.KERNELS] == list(catalog.KERNELS)


def test_fixed_size_kernels_state_their_size():
    fixed = {n: kn.k for n, kn in catalog.KERNELS.items() if kn.fixed}
    assert fixed == FIXED


@pytest.mark.parametrize("name,k", [("red_p192", 9), ("fmul_b163", 12),
                                    ("speck64", 4), ("red_b163", 8),
                                    ("fmul_p192", 7)])
def test_fixed_size_kernels_refuse_any_other_size(name, k):
    cache = {}
    run = KernelRunner(cache=cache, ledger=NullLedger())
    with pytest.raises(ValueError, match=f"{name}.*k={FIXED[name]}"):
        run.measure(name, k)
    assert cache == {}
    with pytest.raises(ValueError, match=name):
        run.prepare(name, k)
    with pytest.raises(ValueError, match=name):
        run.profile(name, k)
    assert run.measure(name, FIXED[name]).k == FIXED[name]


def test_cli_names_the_refused_size():
    with pytest.raises(SystemExit, match="red_p192.*k=9"):
        runall_main(["--profile-kernel", "red_p192:9"])


def test_diffexec_names_the_refused_size():
    pytest.importorskip("numpy")
    from repro.pete import diffexec

    with pytest.raises(SystemExit, match="fmul_b163.*k=12"):
        diffexec.main(["--kernels", "fmul_b163:12", "--lanes", "1"])


@pytest.mark.parametrize("spec", registry.KERNELS, ids=lambda s: s.name)
def test_the_verifier_analyses_the_core_prepare_loads(spec):
    kernel = catalog.KERNELS[spec.name]
    cpu, entry = _runner().prepare(spec.name, kernel.k)
    program, entry_index, entry_values, _ = build_image(spec)
    assert program.words == cpu.program.words
    assert program.address(entry_index) == entry
    assert entry_values == {31: cpu.get_reg("ra")}
    # the ISA switches the core was built with price the bound
    assert (cpu.muldiv.extensions, cpu.muldiv.binary_extensions) == (
        kernel.prime_ext, kernel.binary_ext)
    report = verify_kernel(spec, runner=_runner())
    params = RunEnergyParams(prime_isa_ext=cpu.muldiv.extensions,
                             binary_isa_ext=cpu.muldiv.binary_extensions)
    assert report.bound_energy_nj == energy_bound_nj(report.bound, params)


def test_a_wrong_result_raises_and_is_not_cached(monkeypatch):
    """The reference check raises (no ``assert``, which ``python -O``
    would strip), and ``measure`` caches nothing for a failed run."""
    kernel = catalog.KERNELS["mp_add"]

    def wrong(k):
        return dataclasses.replace(kernel.operands(k), ok=lambda cpu: False)

    monkeypatch.setitem(catalog.KERNELS, "mp_add",
                        dataclasses.replace(kernel, operands=wrong))
    cache = {}
    with pytest.raises(catalog.KernelMismatch, match="mp_add at k=6"):
        KernelRunner(cache=cache, ledger=NullLedger()).measure("mp_add", 6)
    assert cache == {}


def test_the_per_kernel_builders_are_gone():
    gone = [(runner, "_CapturedRun"), (KernelRunner, "_launch"),
            (KernelRunner, "_build_cpu"), (composed, "run_fmul_p192"),
            (composed, "run_fmul_b163"), (composed, "ComposedResult")]
    gone += [(KernelRunner, f"_run_{name}") for name in catalog.KERNELS]
    for owner, name in gone:
        assert not hasattr(owner, name), name
    from repro.analysis import verify

    assert not hasattr(verify, "HALT_STUB")
    fields = registry.KernelSpec.__dataclass_fields__
    for name in ("build", "entry_label", "measure_k", "prime_ext",
                 "binary_ext"):
        assert name not in fields, name
