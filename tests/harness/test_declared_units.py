"""Each producer declares every shared-model unit it reads.

A pooled sweep computes the declared units in the pool and renders the
reader in the parent; an undeclared read is computed in the parent,
where nothing can time it out.  Here every reader renders once over
warm unit memos that note each key looked up.
"""

import sys

import pytest

from repro.harness.registry import registry
from repro.model import units

READERS = [spec for spec in registry().values() if spec.units]


class _Recording(dict):
    """A memo's values that note every key looked up in them."""

    def __init__(self, memo: str, values: dict, looked_up: set) -> None:
        super().__init__(values)
        self.memo = memo
        self.looked_up = looked_up

    def __contains__(self, key) -> bool:
        self.looked_up.add((self.memo, key))
        return super().__contains__(key)


@pytest.fixture(scope="module")
def warm_units():
    for name in sorted({name for spec in READERS for name in spec.units}):
        if not units.held(name):
            units.seed(units.compute(name))


def _clear_model_memos_above_units() -> None:
    """Empty the model's other memos: a warm study answers without
    reaching the unit memos below it."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.model."):
            continue
        for obj in list(vars(module).values()):
            if (getattr(obj, "__module__", None) == name
                    and hasattr(obj, "cache_clear")
                    and f"{name}.{obj.__qualname__}" not in units.MEMOS):
                obj.cache_clear()


@pytest.mark.parametrize("spec", READERS, ids=lambda spec: spec.artifact_id)
def test_a_reader_reads_only_the_units_it_declares(spec, warm_units,
                                                   monkeypatch):
    looked_up: set = set()
    for memo_name, memo in units.MEMOS.items():
        monkeypatch.setattr(memo, "values",
                            _Recording(memo_name, memo.values, looked_up))
    _clear_model_memos_above_units()
    spec.produce()
    declared = {(memo, key) for name in spec.units
                for memo, key, _ in units._fills(name)}
    assert looked_up, "the render reached no unit memo"
    assert looked_up <= declared, sorted(looked_up - declared)
