"""Typed artifact registry: the one catalog of the paper's artifacts.

Every table and figure of the evaluation chapter is registered here as
an :class:`ArtifactSpec` -- ``(kind, name, producer, params)``.  The
registry is the single source the CLI (``runall``), the sweep engine
(:mod:`repro.sweep`), the public facade (:mod:`repro.api`) and the
regression gate's model cross-product all consume; the ad-hoc
``TABLES``/``FIGURES`` plumbing that used to be copied between them
lives only behind this module now.

An :class:`ArtifactSpec` knows how to *produce* its data (run the
simulators/models), *render* it (text and CSV), *summarize* it into the
ledger-record quantities, and assemble the whole thing into a cacheable
``payload`` -- the unit the sweep engine memoizes and replays.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro.harness.figures import FIGURES, render_series
from repro.harness.tables import TABLES, render_rows

KINDS = ("table", "figure")

#: Keys of the cacheable payload an :meth:`ArtifactSpec.payload` builds.
PAYLOAD_KEYS = ("text", "csv", "cycles", "energy_uj", "data",
                "components", "wall_s")


class UnknownArtifactError(LookupError):
    """A selection token matched no registered artifact."""


@dataclass(frozen=True)
class ArtifactSpec:
    """One registered artifact: what produces it and how it renders."""

    kind: str
    name: str
    producer: Callable[..., object]
    params: tuple[tuple[str, object], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown artifact kind {self.kind!r} "
                             f"(one of {', '.join(KINDS)})")

    # -- identity -----------------------------------------------------------

    @property
    def key(self) -> tuple[str, str]:
        return (self.kind, self.name)

    @property
    def artifact_id(self) -> str:
        """Ledger artifact name (``table_7.1``)."""
        return f"{self.kind}_{self.name}"

    @property
    def slug(self) -> str:
        """Filesystem stem (``table_7_1``)."""
        return self.artifact_id.replace(".", "_")

    @property
    def producer_module(self) -> str:
        """Module defining the producer -- the root of its code digest."""
        return self.producer.__module__

    @property
    def units(self) -> tuple[str, ...]:
        """The shared-model units the producer declares it reads
        (:func:`repro.model.units.reads`); empty for the rest."""
        return getattr(self.producer, "model_units", ())

    # -- computation --------------------------------------------------------

    def produce(self):
        """Run the producer: table rows or figure series."""
        return self.producer(**dict(self.params))

    def render(self, data=None) -> str:
        """The artifact as aligned text (``data`` avoids recomputing)."""
        if data is None:
            data = self.produce()
        if self.kind == "table":
            return render_rows(self.name, data)
        return render_series(self.name, data)

    def to_csv(self, data=None) -> str:
        """The artifact flattened into CSV rows."""
        if data is None:
            data = self.produce()
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        if self.kind == "table":
            writer.writerow(list(data[0]))
            for row in data:
                writer.writerow([row[key] for key in data[0]])
        else:
            writer.writerow(["series", "key", "value"])
            for series, values in data.items():
                if isinstance(values, dict):
                    for key, value in values.items():
                        writer.writerow([series, key, value])
                else:
                    writer.writerow([series, "", values])
        return buffer.getvalue()

    def summarize(self, data) -> tuple[float, float, dict, dict]:
        """``(cycles, energy_uj, data, components)`` for the ledger.

        Figure series flatten into the ``components`` map so
        ``repro.regress diff`` ranks per-series deltas -- the same
        summarization ``runall --out`` has always recorded.
        """
        from repro.trace.record import summarize_rows, summarize_series

        components: dict = {}
        if self.kind == "table":
            cycles, energy_uj, extra = summarize_rows(data)
        else:
            cycles, energy_uj, extra = summarize_series(data)
            for sname, values in data.items():
                if isinstance(values, dict):
                    components.update(
                        {f"{sname}/{k}": v for k, v in values.items()
                         if isinstance(v, (int, float))})
                elif isinstance(values, (int, float)):
                    components[str(sname)] = values
        return cycles, energy_uj, extra, components

    def payload(self) -> dict:
        """Produce once; bundle text, CSV and record quantities.

        The payload is pure data (JSON-serializable): it is what the
        sweep cache stores and what a warm cache replays without
        touching a simulator.
        """
        start = time.perf_counter()
        data = self.produce()
        cycles, energy_uj, extra, components = self.summarize(data)
        return {
            "text": self.render(data),
            "csv": self.to_csv(data),
            "cycles": cycles,
            "energy_uj": energy_uj,
            "data": extra,
            "components": components,
            "wall_s": time.perf_counter() - start,
        }

    def record(self, payload: dict | None = None) -> dict:
        """One ledger ``bench`` record, summarized from the same data
        the txt/csv artifacts render -- ``results/`` and the ledger can
        therefore never disagree."""
        from repro.trace.record import bench_record

        if payload is None:
            payload = self.payload()
        return bench_record(self.artifact_id,
                            cycles=payload["cycles"],
                            energy_uj=payload["energy_uj"],
                            data=payload["data"],
                            components=payload["components"])


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def registry() -> dict[tuple[str, str], ArtifactSpec]:
    """Every registered artifact, keyed ``(kind, name)``, in artifact
    order (tables first, then figures -- the historical runall order)."""
    specs: dict[tuple[str, str], ArtifactSpec] = {}
    for name, producer in TABLES.items():
        specs[("table", name)] = ArtifactSpec("table", name, producer)
    for name, producer in FIGURES.items():
        specs[("figure", name)] = ArtifactSpec("figure", name, producer)
    return specs


def get_spec(kind: str, name: str) -> ArtifactSpec:
    """Lookup one artifact; raises :class:`UnknownArtifactError`."""
    spec = registry().get((kind, name))
    if spec is None:
        raise UnknownArtifactError(
            f"unknown artifact {kind}_{name} "
            f"(available: {' '.join(sorted({n for _, n in registry()}))})")
    return spec


def model_rows() -> tuple[tuple[str, str], ...]:
    """The latency tables' (curve, config) cross-product.

    This is the registry's view of the model parameter space; the
    regression gate's full catalog
    (:func:`repro.regress.gate.full_model_rows`) consumes it rather
    than re-deriving its own copy.
    """
    from repro.harness.tables import PAPER_TABLE_7_1, PAPER_TABLE_7_2

    return tuple(sorted({**PAPER_TABLE_7_1, **PAPER_TABLE_7_2}))


# ---------------------------------------------------------------------------
# Selection (the --only matching rules)
# ---------------------------------------------------------------------------


def normalize_token(token: str) -> tuple[str | None, str]:
    """``(kind, name)``; a ``table_``/``figure_`` prefix pins the kind."""
    t = token.lower().replace("_", ".")
    for kind in KINDS:
        if t.startswith(kind + "."):
            return kind, t[len(kind) + 1:]
    return None, t


def matches(token: tuple[str | None, str], kind: str, name: str) -> bool:
    """Exact name, or a prefix ending at a component boundary (so
    ``7.1`` selects 7.1 but not 7.15, and ``7`` selects all of 7.x)."""
    want_kind, t = token
    if want_kind is not None and want_kind != kind:
        return False
    if t == name:
        return True
    return name.startswith(t) and not name[len(t)].isalnum()


def select(only: list[str] | None) -> list[ArtifactSpec]:
    """Resolve ``--only`` tokens to specs, in artifact order; raises
    :class:`UnknownArtifactError` on tokens matching nothing."""
    catalog = list(registry().values())
    if not only:
        return catalog
    tokens = [normalize_token(t) for t in only]
    unknown = [orig for orig, t in zip(only, tokens)
               if not any(matches(t, spec.kind, spec.name)
                          for spec in catalog)]
    if unknown:
        names = " ".join(sorted({spec.name for spec in catalog}))
        raise UnknownArtifactError(
            f"runall: unknown artifact name(s): {' '.join(unknown)}\n"
            f"available: {names}")
    return [spec for spec in catalog
            if any(matches(t, spec.kind, spec.name) for t in tokens)]
