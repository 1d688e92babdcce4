"""The registry covers every shipped program and the CLI gates on it."""

import dataclasses
import json

from repro.analysis.__main__ import main
from repro.analysis import registry


def test_every_registered_program_is_clean_after_waivers():
    for report in registry.all_reports():
        assert report.clean, (
            f"{report.name}: unwaived findings "
            f"{[f.check for f in report.findings]}")


def test_intentional_findings_are_waived_not_absent():
    """The waivers must cover real findings, not be dead weight."""
    by_name = {r.name: r for r in registry.all_reports()}
    # the hand-scheduled product-scanning loops use the delay-slot idiom
    assert any(f.check == "delay-slot-clobber"
               for f, _ in by_name["ps_mul_ext"].waived)
    # the paper's baseline reduction is not constant-time
    assert any(f.check == "secret-dependent-branch"
               for f, _ in by_name["red_p192"].waived)
    # table-based binary multiplication indexes by secret nibbles
    assert any(f.check == "secret-dependent-address"
               for f, _ in by_name["comb_mul"].waived)
    # double-and-add leaks; the ladder does not (no waivers, no findings)
    assert any(f.check == "secret-dependent-branch"
               for f, _ in by_name["scalar_daa"].waived)
    assert by_name["scalar_ladder"].waived == []
    assert by_name["scalar_ladder"].clean


def test_every_waiver_is_exercised():
    """A waiver that never fires is stale documentation.

    A waiver may fire on either layer: the per-program lint pass, or
    the whole-program verifier (the composed ``fmul_*`` kernels only
    taint interprocedurally, so their waivers fire there).
    """
    from repro.analysis.verify import verify_kernel

    for spec in registry.KERNELS:
        report = registry.report_kernel(spec)
        fired = {f.check for f, _ in report.waived}
        if any(w.check not in fired for w in spec.waivers):
            interp_report = verify_kernel(spec, observe=False)
            fired |= {f.check for f, _ in interp_report.waived}
        for waiver in spec.waivers:
            assert waiver.check in fired, (
                f"{spec.name}: waiver for {waiver.check!r} never fires")


def test_registry_covers_microprograms():
    names = {spec.name for spec in registry.MICROPROGRAMS}
    assert names == {"cios", "mod_add", "mod_sub"}


def test_cli_all_exits_zero(capsys):
    assert main(["--all"]) == 0
    out = capsys.readouterr().out
    assert "scalar_ladder" in out and "cios" in out


def test_cli_json_output(capsys):
    assert main(["--all", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    by_name = {r["name"]: r for r in reports}
    assert by_name["scalar_daa"]["clean"]
    waived = by_name["scalar_daa"]["waived"]
    assert waived and waived[0]["check"] == "secret-dependent-branch"
    assert "reason" in waived[0]


def test_cli_single_program(capsys):
    assert main(["--program", "scalar_ladder"]) == 0
    assert "scalar_ladder" in capsys.readouterr().out


def test_cli_nonzero_on_findings(capsys, monkeypatch):
    """Drop a waiver: the CLI must fail."""
    stripped = dataclasses.replace(registry.kernel_spec("scalar_daa"),
                                   waivers=())
    monkeypatch.setattr(registry, "KERNELS", (stripped,))
    monkeypatch.setattr(registry, "MICROPROGRAMS", ())
    assert main(["--all"]) == 1
    assert "secret-dependent-branch" in capsys.readouterr().out


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "mp_add" in out and "mod_sub" in out
