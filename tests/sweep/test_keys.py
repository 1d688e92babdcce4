"""Cache keys: code digests, invalidation granularity, calibration."""

import ast
import dataclasses
import textwrap

import pytest

from repro.energy.calibration import CALIBRATION
from repro.harness.registry import ArtifactSpec, get_spec
from repro.sweep import keys
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


def test_graph_parses_only_what_a_closure_reaches(pkg):
    g = graph(pkg)
    parsed = []
    imports_of = g._imports_of
    g._imports_of = lambda name, source: (parsed.append(name)
                                          or imports_of(name, source))
    g.closure("pkg.figures")
    assert sorted(parsed) == ["pkg", "pkg.analytic", "pkg.figures"]
    g.closure("pkg.figures")
    g.digest("pkg.figures")
    g.closure("pkg.tables")          # pkg is parsed already
    assert sorted(parsed) == ["pkg", "pkg.analytic", "pkg.costs",
                              "pkg.figures", "pkg.kernels", "pkg.tables"]


def test_graph_is_a_snapshot_of_construction_time(pkg):
    reference = graph(pkg)
    expected = {m: reference.digest(m) for m in reference.files}
    g = graph(pkg)
    # an edit after construction, to a module g has not parsed yet,
    # that changes both its bytes and its imports
    (pkg / "kernels.py").write_text("from pkg import analytic\n")
    assert {m: g.digest(m) for m in g.files} == expected
    assert "pkg.analytic" not in g.closure("pkg.tables")
    fresh = graph(pkg)
    assert "pkg.analytic" in fresh.closure("pkg.tables")
    assert fresh.digest("pkg.tables") != expected["pkg.tables"]
    assert fresh.digest("pkg.figures") == expected["pkg.figures"]


def _walked_imports(tree):
    return {id(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))}


def _statement_imports(tree):
    found = [id(node) for node in keys._import_statements(tree)]
    assert len(found) == len(set(found)), "an import visited twice"
    return set(found)


def test_statement_walk_finds_every_import_of_every_repro_module():
    g = code_graph("repro")
    total = 0
    for name, path in g.files.items():
        with open(path, "rb") as fh:
            tree = ast.parse(fh.read())
        walked = _walked_imports(tree)
        assert _statement_imports(tree) == walked, name
        total += len(walked)
    assert total > 0


_NESTED_IMPORTS = textwrap.dedent("""
    import a
    try:
        import b
    except ImportError:
        import c
    except (KeyError, ValueError) as exc:
        from d import x
    else:
        from . import e
    finally:
        from .. import f
    with open(p) as fh, lock:
        import g
    class K:
        import h
        def method(self):
            import i
            def inner():
                from j import y
            async def coro():
                import k
                async with ctx:
                    import l
                async for _ in it:
                    import m
                else:
                    import n
    for _ in range(3):
        import o
    else:
        import p
    while cond:
        import q
    else:
        import r
    if cond:
        import s
    elif other:
        import t
    else:
        import u
    match value:
        case 1:
            import v
        case [w, *_] if w:
            from z import w
        case _:
            import zz
    x = [lambda: __import__("not_a_statement")]
""")


def test_statement_walk_finds_nested_imports():
    tree = ast.parse(_NESTED_IMPORTS)
    walked = _walked_imports(tree)
    assert len(walked) == 24
    assert _statement_imports(tree) == walked


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


def test_key_memo_equals_a_fresh_derivation():
    spec = get_spec("table", "7.5")
    g = CodeGraph("repro")
    first = artifact_key(spec, graph=g)
    digests = []
    digest = g.digest
    g.digest = lambda module: digests.append(module) or digest(module)
    assert artifact_key(spec, graph=g) == first
    assert artifact_key(spec, calibration=CALIBRATION, graph=g) == first
    assert digests == [], "a memo hit derives nothing"
    assert artifact_key(spec, graph=CodeGraph("repro")) == first
    tweaked = dataclasses.replace(CALIBRATION, ram_energy_scale=1.01)
    other = artifact_key(spec, calibration=tweaked, graph=g)
    assert other != first
    assert other == artifact_key(spec, calibration=tweaked,
                                 graph=CodeGraph("repro"))


def test_key_memo_lives_on_its_graph(pkg):
    # a fresh graph still sees an edit the memoized one predates
    def producer():
        return None

    producer.__module__ = "pkg.tables"
    spec = ArtifactSpec("table", "t", producer)
    before = graph(pkg)
    first = artifact_key(spec, graph=before)
    (pkg / "tables.py").write_text("# touched\n")
    assert artifact_key(spec, graph=before) == first
    assert artifact_key(spec, graph=graph(pkg)) != first


def test_real_graph_table_producers_reach_the_kernel_generators():
    # tables price software configs from measured kernels, so editing a
    # kernel generator must invalidate table artifacts
    g = code_graph("repro")
    closure = g.closure(get_spec("table", "7.1").producer_module)
    assert "repro.kernels.prime_kernels" in closure
    # ...but nothing in the artifact stack imports the sweep engine
    # itself: engine edits never invalidate cached results
    assert "repro.sweep.engine" not in closure
