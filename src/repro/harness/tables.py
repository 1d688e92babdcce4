"""Renderers for the paper's tables (7.1 - 7.5).

Each ``table7_x()`` function returns the table as a list of row dicts
(the data the paper's table prints); ``render_table`` formats it as
text.  Paper values are included alongside for EXPERIMENTS.md-style
comparison where the paper published absolute numbers.
"""

from __future__ import annotations

from repro.accel.ffau import FFAU, FFAUConfig
from repro.energy.components import FFAUPower
from repro.model.arm import ARM_CORTEX_M3
from repro.model.system import shared_model as _model
from repro.model.units import reads

PRIME_CURVES = ("P-192", "P-224", "P-256", "P-384", "P-521")
BINARY_CURVES = ("B-163", "B-233", "B-283", "B-409", "B-571")

#: Paper's Table 7.1 (100K cycles): (sign, verify) per (curve, config).
PAPER_TABLE_7_1 = {
    ("P-192", "baseline"): (26.9, 34.27), ("P-224", "baseline"): (37.2, 47.9),
    ("P-256", "baseline"): (57.2, 72.8), ("P-384", "baseline"): (133.6, 174.9),
    ("P-521", "baseline"): (297.2, 304.8),
    ("P-192", "isa_ext"): (20.5, 25.6), ("P-224", "isa_ext"): (27.5, 34.6),
    ("P-256", "isa_ext"): (42.7, 53.7), ("P-384", "isa_ext"): (90.9, 114.6),
    ("P-521", "isa_ext"): (184.0, 230.5),
    ("P-192", "monte"): (6.0, 7.5), ("P-224", "monte"): (8.3, 10.3),
    ("P-256", "monte"): (10.9, 13.4), ("P-384", "monte"): (28.2, 34.9),
    ("P-521", "monte"): (64.5, 78.2),
}

#: Paper's Table 7.2 (100K cycles).
PAPER_TABLE_7_2 = {
    ("B-163", "baseline"): (58.8, 80.3), ("B-233", "baseline"): (122.3, 166.3),
    ("B-283", "baseline"): (182.0, 248.7), ("B-409", "baseline"): (414.4, 611.0),
    ("B-571", "baseline"): (1034.9, 1420.2),
    ("B-163", "binary_isa"): (9.7, 12.5), ("B-233", "binary_isa"): (18.3, 23.5),
    ("B-283", "binary_isa"): (24.4, 27.4), ("B-409", "binary_isa"): (55.0, 76.6),
    ("B-571", "binary_isa"): (136.2, 180.0),
    ("B-163", "billie"): (1.9, 2.3), ("B-233", "billie"): (3.4, 4.0),
    ("B-283", "billie"): (4.6, 5.4), ("B-409", "billie"): (9.0, 10.6),
    ("B-571", "billie"): (16.7, 19.7),
}


@reads(PRIME_CURVES)
def table7_1() -> list[dict]:
    """Latency per operation (100K cycles), prime microarchitectures."""
    rows = []
    for config in ("baseline", "isa_ext", "monte"):
        for curve in PRIME_CURVES:
            lat = _model().latency(curve, config)
            ps, pv = PAPER_TABLE_7_1[(curve, config)]
            rows.append({
                "uarch": config, "key": curve,
                "sign": lat.sign_cycles / 1e5,
                "verify": lat.verify_cycles / 1e5,
                "sign+verify": lat.total_cycles / 1e5,
                "paper_sign": ps, "paper_verify": pv,
            })
    return rows


@reads(BINARY_CURVES)
def table7_2() -> list[dict]:
    """Latency per operation (100K cycles), binary microarchitectures."""
    rows = []
    for config in ("baseline", "binary_isa", "billie"):
        for curve in BINARY_CURVES:
            lat = _model().latency(curve, config)
            ps, pv = PAPER_TABLE_7_2[(curve, config)]
            rows.append({
                "uarch": config, "key": curve,
                "sign": lat.sign_cycles / 1e5,
                "verify": lat.verify_cycles / 1e5,
                "sign+verify": lat.total_cycles / 1e5,
                "paper_sign": ps, "paper_verify": pv,
            })
    return rows


#: Paper's Table 7.3: width -> key -> (area, static uW, dynamic uW).
PAPER_TABLE_7_3 = {
    (8, 192): (2091, 32.3, 166.2), (16, 192): (4244, 59.3, 311.9),
    (32, 192): (11329, 159.1, 659.9), (64, 192): (36582, 530.6, 1472.7),
    (8, 256): (2091, 34.0, 186.2), (16, 256): (4244, 61.6, 310.2),
    (32, 256): (11327, 161.4, 684.4), (64, 256): (36582, 532.9, 1613.4),
    (8, 384): (2168, 35.4, 197.1), (16, 384): (4322, 65.0, 321.6),
    (32, 384): (11405, 164.3, 888.5), (64, 384): (36664, 535.7, 1686.5),
}


def table7_3() -> list[dict]:
    """FFAU area / static / dynamic power vs datapath width."""
    rows = []
    for bits in (192, 256, 384):
        for width in (8, 16, 32, 64):
            power = FFAUPower(width)
            paper = PAPER_TABLE_7_3[(width, bits)]
            rows.append({
                "key": bits, "width": width,
                "area_cells": power.area_cells,
                "static_uw": power.static_uw(bits),
                "dynamic_uw": power.dynamic_pj_per_cycle(bits) * 100,
                "paper_area": paper[0], "paper_static": paper[1],
                "paper_dynamic": paper[2],
            })
    return rows


#: Paper's Table 7.4: (width, key) -> (avg power uW, time ns, energy nJ).
PAPER_TABLE_7_4 = {
    (8, 192): (198.5, 13920, 2.763), (16, 192): (371.2, 4220, 1.566),
    (32, 192): (819.0, 1520, 1.245), (64, 192): (2004.3, 710, 1.423),
    (8, 256): (220.2, 23510, 5.176), (16, 256): (371.8, 6710, 2.495),
    (32, 256): (845.7, 2150, 1.818), (64, 256): (2146.3, 830, 1.782),
    (8, 384): (232.5, 50550, 11.755), (16, 384): (386.6, 13830, 5.347),
    (32, 384): (888.5, 4110, 3.652), (64, 384): (2222.3, 1410, 3.133),
}


def ffau_width_point(width: int, bits: int) -> dict:
    """One (width, key size) point of the FFAU study, 100 MHz clock."""
    ffau = FFAU(FFAUConfig(width=width))
    power_model = FFAUPower(width)
    k = -(-bits // width)
    cycles = ffau.montmul_cycles(k)
    time_ns = cycles * 10.0
    power_uw = (power_model.static_uw(bits)
                + power_model.dynamic_pj_per_cycle(bits) * 100)
    energy_nj = power_uw * 1e-6 * time_ns
    return {
        "width": width, "key": bits, "cycles": cycles,
        "power_uw": power_uw, "time_ns": time_ns, "energy_nj": energy_nj,
    }


def table7_4() -> list[dict]:
    """FFAU average power / time / energy per Montgomery mult."""
    rows = []
    for bits in (192, 256, 384):
        for width in (8, 16, 32, 64):
            row = ffau_width_point(width, bits)
            paper = PAPER_TABLE_7_4[(width, bits)]
            row.update({"paper_power": paper[0], "paper_time": paper[1],
                        "paper_energy": paper[2]})
            rows.append(row)
    return rows


def table7_5() -> list[dict]:
    """ARM Cortex-M3 reference (embedded published measurements)."""
    rows = []
    for bits, ref in ARM_CORTEX_M3.items():
        rows.append({
            "key": bits, "time_ns": ref.exec_time_ns,
            "power_uw": ref.average_power_uw,
            "energy_nj": ref.energy_nj,
        })
    return rows


def table_bounds() -> list[dict]:
    """Static analyzer summary per registered kernel.

    Purely static (no simulator run, no random operands), so the rows
    are deterministic and safe for the content-addressed sweep cache:
    the whole-program cycle/memory upper bounds
    (:mod:`repro.analysis.bounds`), the static superblock map, and the
    finding/waiver tallies from the verifier.  An analysis refusal
    (unbounded loop, irreducible region) surfaces as ``certified=0``
    with ``-1`` bounds rather than a crash.
    """
    from repro.analysis.bounds import compute_bound
    from repro.analysis.registry import KERNELS, report_kernel
    from repro.analysis.superblock import coverage, static_blocks
    from repro.analysis.verify import analyze_spec
    from repro.kernels import catalog

    rows = []
    for spec in KERNELS:
        program, result = analyze_spec(spec)
        br = compute_bound(result)
        lint = report_kernel(spec)
        certified = br.certified
        total = br.total
        rows.append({
            "kernel": spec.name, "k": catalog.KERNELS[spec.name].k,
            "certified": int(certified),
            "bound_cycles": total.cycles if certified else -1,
            "bound_instrs": total.instructions if certified else -1,
            "ram_writes": total.ram_writes if certified else -1,
            "superblocks": len(static_blocks(program)),
            "sb_coverage": coverage(program),
            "dead_branches": len(result.dead_branches),
            "calls": len(result.calls),
            "findings": len(lint.findings) + len(result.findings),
            "waived": len(lint.waived),
        })
    return rows


TABLES = {
    "7.1": table7_1,
    "7.2": table7_2,
    "7.3": table7_3,
    "7.4": table7_4,
    "7.5": table7_5,
    "bounds": table_bounds,
}


def render_table(name: str) -> str:
    """Format a table as aligned text (recomputes the rows)."""
    return render_rows(name, TABLES[name]())


def render_rows(name: str, rows: list[dict]) -> str:
    """Format already-computed table rows as aligned text."""
    if not rows:
        return f"Table {name}: (empty)"
    keys = list(rows[0])
    widths = {k: max(len(k), max(len(_fmt(r[k])) for r in rows))
              for k in keys}
    lines = [f"Table {name}"]
    lines.append("  ".join(k.ljust(widths[k]) for k in keys))
    for row in rows:
        lines.append("  ".join(_fmt(row[k]).ljust(widths[k]) for k in keys))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
