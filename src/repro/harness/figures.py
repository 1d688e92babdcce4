"""Renderers for the paper's figures (7.1 - 7.15).

Each ``fig7_x()`` returns the figure's *data series* (what the plot would
draw); ``render_figure`` prints them as text so the shape -- who wins, by
what factor, where crossovers fall -- is inspectable without matplotlib.
"""

from __future__ import annotations

from repro.accel.billie import Billie, BillieConfig
from repro.accel.monte import Monte, MonteConfig
from repro.ec.curves import SECURITY_PAIRS, get_curve
from repro.ecdsa import generate_keypair
from repro.harness.tables import (
    BINARY_CURVES,
    PRIME_CURVES,
    ffau_width_point,
)
from repro.model import datapath64, future_work
from repro.model.arm import ARM_CORTEX_M3
from repro.model.configs import (
    ISA_EXT,
    ISA_EXT_IC,
    ISA_EXT_IC_FLASH,
    with_icache,
)
from repro.model.prior_work import GUO_SCHAUMONT_163
from repro.model.system import shared_model as _model
from repro.model.units import reads

#: Components shown in the breakdown figures, in plot order.
BREAKDOWN_COMPONENTS = ("Pete", "ROM", "RAM", "Uncore", "Monte", "Billie")


def _energy_uj(curve: str, config) -> float:
    return _model().report(curve, config).total_uj


def _breakdown(curve: str, config) -> dict[str, float]:
    report = _model().report(curve, config)
    return {comp: report.component_uj(comp)
            for comp in BREAKDOWN_COMPONENTS
            if report.component_uj(comp) > 0.0}


@reads(PRIME_CURVES, icache=[ISA_EXT_IC])
def fig7_1() -> dict[str, dict[str, float]]:
    """Energy per Sign+Verify vs key size, prime-field architectures."""
    series = {}
    for config in ("baseline", "isa_ext", "isa_ext_ic", "monte"):
        series[config] = {c: _energy_uj(c, config) for c in PRIME_CURVES}
    return series


#: Figure 7.2's key sizes.
FIG_7_2_CURVES = ("P-192", "P-256")


@reads(FIG_7_2_CURVES, icache=[ISA_EXT_IC])
def fig7_2() -> dict[str, dict[str, float]]:
    """Energy breakdown at 192- and 256-bit across prime architectures."""
    out = {}
    for curve in FIG_7_2_CURVES:
        for config in ("baseline", "isa_ext", "isa_ext_ic", "monte"):
            out[f"{curve}/{config}"] = _breakdown(curve, config)
    return out


@reads(PRIME_CURVES)
def fig7_3() -> dict[str, dict[str, float]]:
    """Baseline breakdown across the five prime fields."""
    return {c: _breakdown(c, "baseline") for c in PRIME_CURVES}


@reads(PRIME_CURVES)
def fig7_4() -> dict[str, dict[str, float]]:
    """ISA-extended and Monte breakdowns across the prime fields."""
    out = {}
    for config in ("isa_ext", "monte"):
        for curve in PRIME_CURVES:
            out[f"{curve}/{config}"] = _breakdown(curve, config)
    return out


@reads(BINARY_CURVES)
def fig7_5() -> dict[str, dict[str, float]]:
    """Binary fields: software-only baseline vs binary ISA extensions."""
    return {
        "baseline": {c: _energy_uj(c, "baseline") for c in BINARY_CURVES},
        "binary_isa": {c: _energy_uj(c, "binary_isa")
                       for c in BINARY_CURVES},
    }


@reads(BINARY_CURVES)
def fig7_6() -> dict[str, dict[str, float]]:
    """Binary ISA-extension breakdown across the binary fields."""
    return {c: _breakdown(c, "binary_isa") for c in BINARY_CURVES}


@reads(PRIME_CURVES + BINARY_CURVES)
def fig7_7() -> dict[str, dict[str, float]]:
    """Prime vs binary at equivalent security, all architectures."""
    series: dict[str, dict[str, float]] = {}
    for prime, binary in SECURITY_PAIRS:
        pair = f"{prime.split('-')[1]}/{binary.split('-')[1]}"
        series.setdefault("prime baseline", {})[pair] = _energy_uj(
            prime, "baseline")
        series.setdefault("prime isa_ext", {})[pair] = _energy_uj(
            prime, "isa_ext")
        series.setdefault("binary baseline", {})[pair] = _energy_uj(
            binary, "baseline")
        series.setdefault("binary isa_ext", {})[pair] = _energy_uj(
            binary, "binary_isa")
        series.setdefault("Monte", {})[pair] = _energy_uj(prime, "monte")
        series.setdefault("Billie", {})[pair] = _energy_uj(binary, "billie")
    return series


@reads(PRIME_CURVES + BINARY_CURVES)
def fig7_8() -> dict[str, dict[str, float]]:
    """Monte vs Billie breakdowns across field sizes."""
    out = {}
    for prime, binary in SECURITY_PAIRS:
        out[f"{prime}/monte"] = _breakdown(prime, "monte")
        out[f"{binary}/billie"] = _breakdown(binary, "billie")
    return out


#: Figure 7.9's (prime, binary) curve pairs at equal security.
FIG_7_9_PAIRS = (("P-192", "B-163"), ("P-256", "B-283"))


@reads(sum(FIG_7_9_PAIRS, ()))
def fig7_9() -> dict[str, dict[str, float]]:
    """Accelerated-architecture breakdowns at 192/163 and 256/283 bits."""
    out = {}
    for prime, binary in FIG_7_9_PAIRS:
        out[f"{prime}/monte"] = _breakdown(prime, "monte")
        out[f"{binary}/billie"] = _breakdown(binary, "billie")
        out[f"{prime}/isa_ext"] = _breakdown(prime, "isa_ext")
        out[f"{binary}/binary_isa"] = _breakdown(binary, "binary_isa")
    return out


@reads(PRIME_CURVES + BINARY_CURVES, icache=[ISA_EXT_IC])
def fig7_10() -> dict[str, dict[str, float]]:
    """Static and dynamic power of the evaluated microarchitectures."""
    points = [
        ("baseline (prime avg)", PRIME_CURVES, "baseline"),
        ("baseline (binary avg)", BINARY_CURVES, "baseline"),
        ("isa_ext", PRIME_CURVES, "isa_ext"),
        ("binary_isa", BINARY_CURVES, "binary_isa"),
        ("isa_ext + 4KB I$", PRIME_CURVES, "isa_ext_ic"),
        ("monte", PRIME_CURVES, "monte"),
    ]
    out = {}
    for label, curves, config in points:
        static = dynamic = 0.0
        for curve in curves:
            report = _model().report(curve, config)
            static += report.static_power_mw
            dynamic += report.dynamic_power_mw
        out[label] = {"static_mw": static / len(curves),
                      "dynamic_mw": dynamic / len(curves)}
    for binary in BINARY_CURVES:
        report = _model().report(binary, "billie")
        out[f"billie {binary}"] = {"static_mw": report.static_power_mw,
                                   "dynamic_mw": report.dynamic_power_mw}
    return out


#: Figure 7.11's key sizes.
FIG_7_11_CURVES = ("P-192", "P-256", "P-384")


@reads(FIG_7_11_CURVES)
def fig7_11() -> dict[str, dict[str, float]]:
    """Ideal-instruction-cache energy improvement vs key size."""
    out: dict[str, dict[str, float]] = {}
    for config in ("baseline", "isa_ext", "monte"):
        out[config] = {}
        for curve in FIG_7_11_CURVES:
            full = _model().report(curve, config)
            ideal = _model().report(curve, config, ideal_icache=True)
            out[config][curve] = 100.0 * (1 - ideal.total_uj / full.total_uj)
    return out


#: Figure 7.12's I-cache configurations: 1-8 KB, without and with
#: prefetch, by plot label.
FIG_7_12_CACHES = {
    f"{size_kb}KB" + ("-p" if prefetch else ""):
        with_icache(ISA_EXT, size_kb * 1024, prefetch)
    for size_kb in (1, 2, 4, 8) for prefetch in (False, True)
}


@reads(("P-192",), icache=FIG_7_12_CACHES.values())
def fig7_12() -> dict[str, float]:
    """Energy per 192-bit Sign+Verify vs real I-cache configuration."""
    out = {"no cache": _energy_uj("P-192", "isa_ext")}
    for label, config in FIG_7_12_CACHES.items():
        out[label] = _energy_uj("P-192", config)
    return out


@reads(PRIME_CURVES, icache=[ISA_EXT_IC])
def fig7_13() -> dict[str, dict[str, float]]:
    """Prime ISA ext + 4KB I-cache breakdown across the prime fields."""
    return {c: _breakdown(c, "isa_ext_ic") for c in PRIME_CURVES}


def fig7_14() -> dict[str, dict]:
    """163-bit scalar multiplication performance vs multiplier digit size,
    Billie (sliding window and Montgomery ladder) vs Guo et al."""
    from repro.model.billie_driver import (
        run_montgomery_ladder,
        run_sliding_window,
    )

    curve = get_curve("B-163")
    d, _ = generate_keypair(curve, seed=b"fig714")
    out: dict[str, dict] = {"billie_sliding": {}, "billie_ladder": {}}
    for digit in (1, 2, 3, 4, 6, 8):
        billie = Billie(BillieConfig(m=163, digit=digit))
        run = run_sliding_window(curve, d, curve.generator, billie)
        out["billie_sliding"][digit] = run.cycles
        billie = Billie(BillieConfig(m=163, digit=digit))
        run = run_montgomery_ladder(curve, d, curve.generator, billie)
        out["billie_ladder"][digit] = run.cycles
    out["guo_et_al"] = {p.digit_size: p.cycles for p in GUO_SCHAUMONT_163}
    return out


def fig7_15() -> dict[str, dict]:
    """Energy per Montgomery multiplication vs datapath width."""
    out: dict[str, dict] = {}
    for bits in (192, 256, 384):
        out[f"FFAU {bits}-bit"] = {
            w: ffau_width_point(w, bits)["energy_nj"]
            for w in (8, 16, 32, 64)
        }
    out["ARM Cortex-M3"] = {
        bits: ref.energy_nj for bits, ref in ARM_CORTEX_M3.items()
    }
    return out


def sec7_7_double_buffer() -> dict[str, float]:
    """Section 7.7: energy cost of disabling Monte's double buffering."""
    out = {}
    for curve in ("P-192", "P-384"):
        p = get_curve(curve).field.p
        on = Monte(p)
        off = Monte(p, MonteConfig(double_buffering=False))
        # whole-ECDSA proxy: representative mul/add stream (1 : 1.2 mix)
        t_on = (on.field_op_pattern_cycles("mul", 0.5)
                + 1.2 * on.field_op_pattern_cycles("add", 0.5))
        t_off = (off.field_op_pattern_cycles("mul", 0.5)
                 + 1.2 * off.field_op_pattern_cycles("add", 0.5))
        out[curve] = 100.0 * (t_off / t_on - 1.0)
    return out


def sec7_8_multiplier_ablation() -> dict[str, dict[str, float]]:
    """Section 7.8: Pete core power with alternative multiplier designs."""
    from repro.energy.components import karatsuba_multiplier_power_factors

    return {
        name: {"dynamic_factor": dyn, "static_factor": stat}
        for name, (dyn, stat) in
        karatsuba_multiplier_power_factors().items()
    }


@reads(future_work.CURVES, icache=[ISA_EXT_IC_FLASH])
def sec8_future_work() -> dict[str, dict[str, float]]:
    """The Section 8 future-work studies (savings vs base config, %)."""
    out: dict[str, dict[str, float]] = {}
    for study, results in future_work.summary().items():
        out[study] = {
            f"{r.curve}:{r.variant_config}": r.saving_percent
            for r in results
        }
    return out


@reads(datapath64.CURVES)
def sec8_datapath64() -> dict[str, dict[str, float]]:
    """The Section 8 64-bit-datapath estimate (speedup / energy factor)."""
    out: dict[str, dict[str, float]] = {}
    for config in ("baseline", "isa_ext"):
        for curve, e in datapath64.study(config).items():
            out[f"{config}/{curve}"] = {
                "speedup": e.speedup,
                "energy_factor": e.energy_factor,
            }
    return out


#: The ECC key sizes compared against RSA; the node-signing comparison
#: prices P-192 (``rsa_compare.WANDER_CURVE``).
RSA_COMPARE_CURVES = ("P-192", "P-256", "P-384")


@reads(RSA_COMPARE_CURVES)
def background_rsa() -> dict[str, dict[str, float]]:
    """ECC vs security-equivalent RSA on the baseline (Section 2.1.5)."""
    from repro.model.rsa_compare import (
        compare_handshake,
        compare_node_signing,
    )

    out: dict[str, dict[str, float]] = {}
    for curve in RSA_COMPARE_CURVES:
        cmp = compare_handshake(curve)
        out[f"{curve} vs RSA-{cmp.rsa_bits}"] = {
            "ecc_uj": cmp.ecc_uj, "rsa_uj": cmp.rsa_uj,
            "ecc_advantage": cmp.ecc_advantage,
        }
    wander = compare_node_signing()
    out["node signing (Wander-style)"] = {
        "ecc_uj": wander.ecc_uj, "rsa_uj": wander.rsa_uj,
        "ecc_advantage": wander.ecc_advantage,
    }
    return out


FIGURES = {
    "7.1": fig7_1, "7.2": fig7_2, "7.3": fig7_3, "7.4": fig7_4,
    "7.5": fig7_5, "7.6": fig7_6, "7.7": fig7_7, "7.8": fig7_8,
    "7.9": fig7_9, "7.10": fig7_10, "7.11": fig7_11, "7.12": fig7_12,
    "7.13": fig7_13, "7.14": fig7_14, "7.15": fig7_15,
    "s7.7": sec7_7_double_buffer, "s7.8": sec7_8_multiplier_ablation,
    "s8.fw": sec8_future_work, "s8.w64": sec8_datapath64,
    "bg.rsa": background_rsa,
}


def render_figure(name: str) -> str:
    """Format a figure's series as text (recomputes the data)."""
    return render_series(name, FIGURES[name]())


def render_series(name: str, data: dict) -> str:
    """Format a figure's already-computed series as text."""
    lines = [f"Figure {name}"]
    for series, values in data.items():
        if isinstance(values, dict):
            inner = ", ".join(f"{k}={_fmt(v)}" for k, v in values.items())
            lines.append(f"  {series}: {inner}")
        else:
            lines.append(f"  {series}: {_fmt(values)}")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
