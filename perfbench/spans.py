"""Self time over a :mod:`repro.obs` span tree.

A span's self time is its wall time minus the part of its interval its
child spans cover.  Children may overlap each other (pooled tasks run
side by side, and the sweep engine records inline tasks after the
fact), so the covered part is the union of their intervals, clipped to
the parent's.
"""

from __future__ import annotations


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` inside ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans) -> dict[str, float]:
    """``span_id -> self time`` for a list of span dicts (``span_id``,
    ``parent_id``, ``start_s``, ``wall_s``)."""
    children: dict[str, list] = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(
            (span["start_s"], span["start_s"] + span["wall_s"]))
    out = {}
    for span in spans:
        lo = span["start_s"]
        hi = lo + span["wall_s"]
        out[span["span_id"]] = span["wall_s"] - covered(
            children.get(span["span_id"], ()), lo, hi)
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: count, summed wall time and summed self time."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(span["name"],
                               {"count": 0, "wall_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["wall_s"] += span["wall_s"]
        entry["self_s"] += own[span["span_id"]]
    return dict(sorted(out.items()))
