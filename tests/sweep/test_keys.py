"""Cache keys: code digests, invalidation granularity, calibration."""

import dataclasses

import pytest

from repro.energy.calibration import CALIBRATION
from repro.harness.registry import get_spec
from repro.sweep.keys import CodeGraph, artifact_key, code_graph

# ---------------------------------------------------------------------------
# A synthetic package with a known import graph:
#
#     tables  -> costs -> kernels          (kernels is a leaf)
#     figures -> analytic                  (analytic is a leaf)
#     lazy    -> kernels (function-level import only)
# ---------------------------------------------------------------------------

_MODULES = {
    "__init__.py": "",
    "kernels.py": "WIDTH = 32\n",
    "analytic.py": "def area(m):\n    return m * m\n",
    "costs.py": "from pkg import kernels\n\nBASE = kernels.WIDTH\n",
    "tables.py": "from pkg.costs import BASE\n\n"
                 "def table():\n    return [BASE]\n",
    "figures.py": "from pkg.analytic import area\n\n"
                  "def figure():\n    return area(8)\n",
    "lazy.py": "def run():\n    from pkg import kernels\n"
               "    return kernels.WIDTH\n",
}


@pytest.fixture
def pkg(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    for name, text in _MODULES.items():
        (root / name).write_text(text)
    return root


def graph(root):
    return CodeGraph("pkg", root=root)


def test_closure_follows_static_imports(pkg):
    g = graph(pkg)
    assert g.closure("pkg.tables") == {
        "pkg", "pkg.tables", "pkg.costs", "pkg.kernels"}
    assert g.closure("pkg.figures") == {
        "pkg", "pkg.figures", "pkg.analytic"}


def test_closure_includes_lazy_function_level_imports(pkg):
    g = graph(pkg)
    assert "pkg.kernels" in g.closure("pkg.lazy")


def test_editing_a_module_invalidates_exactly_its_dependents(pkg):
    before = graph(pkg)
    (pkg / "kernels.py").write_text("WIDTH = 64\n")
    after = graph(pkg)
    # tables reaches kernels (via costs); figures does not
    assert after.digest("pkg.tables") != before.digest("pkg.tables")
    assert after.digest("pkg.costs") != before.digest("pkg.costs")
    assert after.digest("pkg.lazy") != before.digest("pkg.lazy")
    assert after.digest("pkg.figures") == before.digest("pkg.figures")
    assert after.digest("pkg.analytic") == before.digest("pkg.analytic")


def test_editing_init_invalidates_everything(pkg):
    before = graph(pkg)
    (pkg / "__init__.py").write_text("# touched\n")
    after = graph(pkg)
    for mod in ("pkg.tables", "pkg.figures", "pkg.kernels"):
        assert after.digest(mod) != before.digest(mod)


def test_digest_walks_each_closure_once_per_graph(pkg):
    g = graph(pkg)
    walks = []
    closure = g.closure
    g.closure = lambda module: walks.append(module) or closure(module)
    first = g.digest("pkg.tables")
    assert g.digest("pkg.tables") == first
    g.digest("pkg.figures")
    g.digest("pkg.figures")
    assert walks == ["pkg.tables", "pkg.figures"]
    # a fresh graph still sees an edit
    (pkg / "kernels.py").write_text("WIDTH = 16\n")
    assert graph(pkg).digest("pkg.tables") != first


def test_unknown_module_raises(pkg):
    with pytest.raises(KeyError):
        graph(pkg).closure("pkg.nope")


# ---------------------------------------------------------------------------
# artifact_key over the real registry
# ---------------------------------------------------------------------------


def test_key_is_stable_and_distinct_per_artifact():
    t = get_spec("table", "7.5")
    f = get_spec("figure", "s7.8")
    assert artifact_key(t) == artifact_key(t)
    assert artifact_key(t) != artifact_key(f)


def test_calibration_change_invalidates_every_key():
    spec = get_spec("table", "7.5")
    tweaked = dataclasses.replace(CALIBRATION, ram_energy_scale=1.01)
    assert tweaked.fingerprint() != CALIBRATION.fingerprint()
    assert artifact_key(spec, calibration=tweaked) != artifact_key(spec)


def test_real_graph_table_producers_reach_the_kernel_generators():
    # tables price software configs from measured kernels, so editing a
    # kernel generator must invalidate table artifacts
    g = code_graph("repro")
    closure = g.closure(get_spec("table", "7.1").producer_module)
    assert "repro.kernels.prime_kernels" in closure
    # ...but nothing in the artifact stack imports the sweep engine
    # itself: engine edits never invalidate cached results
    assert "repro.sweep.engine" not in closure
