"""Content-addressed cache keys: code digests + calibration identity.

A cached artifact result is only valid while three things hold: the
code that produces it, the calibration coefficients it was priced with,
and the artifact's own parameters.  :func:`artifact_key` hashes all
three into one key:

* **code digest** -- :class:`CodeGraph` reads and hashes every module
  of the ``repro`` package at construction.  It parses a module's
  import statements with :mod:`ast` (no imports are executed) the
  first time a closure walk reaches it, *including* lazy
  function-level imports.  A producer's digest covers the transitive
  closure of modules its defining module can reach, plus the
  ``__init__`` of every enclosing package (importing ``a.b.c``
  executes them).  Every
  producer lives in :mod:`repro.harness.tables` or
  :mod:`repro.harness.figures`, and every package ``__init__`` imports
  its submodules eagerly, so both closures are the same 97 of the 134
  modules: an edit under ``model``, ``kernels``, ``accel``, ``fields``,
  ``analysis`` or ``harness``, a comment included, changes every
  artifact's key.  Edits outside the closures (``sweep``, ``serve``,
  ``obs``, ...) change none.
* **calibration fingerprint** --
  :meth:`repro.energy.calibration.Calibration.fingerprint`, a content
  hash of every coefficient.
* **artifact parameters** -- the spec's ``(kind, name, params)`` and
  the producer's qualified name.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import os
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.energy.calibration import Calibration
    from repro.harness.registry import ArtifactSpec

#: Bump when the key layout (not the hashed content) changes.
KEY_SCHEMA = "repro.sweep.key.v1"


def _package_root(package: str) -> str:
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        raise ImportError(f"cannot locate package {package!r}")
    return list(spec.submodule_search_locations)[0]


class CodeGraph:
    """Static import graph of one package's sources.

    A snapshot of the files on disk at construction time: every module
    is read and hashed then, and its imports are parsed from those same
    bytes the first time a closure walk reaches it.  Construct a fresh
    instance (or call :func:`code_graph.cache_clear`) to pick up edits.
    """

    def __init__(self, package: str, root: str | os.PathLike | None = None
                 ) -> None:
        self.package = package
        self.root = str(root) if root is not None else _package_root(package)
        self.files: dict[str, str] = {}      # module name -> file path
        self.packages: set[str] = set()      # names that are __init__.py
        self._scan()
        #: each module's bytes, until its imports are parsed
        self._unparsed: dict[str, bytes] = {
            name: _read_bytes(path) for name, path in self.files.items()}
        self.source_sha: dict[str, str] = {
            name: hashlib.sha256(source).hexdigest()
            for name, source in self._unparsed.items()}
        self._edges: dict[str, frozenset[str]] = {}
        #: digests by module and keys by (spec, calibration): exact,
        #: since the graph is a snapshot
        self._digests: dict[str, str] = {}
        self._keys: dict[tuple, str] = {}

    # -- construction -------------------------------------------------------

    def _scan(self) -> None:
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            rel = os.path.relpath(dirpath, self.root)
            parts = [] if rel == "." else rel.split(os.sep)
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                if filename == "__init__.py":
                    name = ".".join([self.package, *parts])
                    self.packages.add(name)
                else:
                    name = ".".join([self.package, *parts, filename[:-3]])
                self.files[name] = os.path.join(dirpath, filename)

    def _imports(self, name: str) -> frozenset[str]:
        """The package modules ``name`` imports, parsed from its snapshot
        the first time a walk reaches it (its bytes are released then)."""
        if name not in self._edges:
            self._edges[name] = self._imports_of(name,
                                                 self._unparsed.pop(name))
        return self._edges[name]

    def _imports_of(self, name: str, source: bytes) -> frozenset[str]:
        try:
            tree = ast.parse(source)
        except SyntaxError:
            return frozenset()
        out: set[str] = set()

        def add(candidate: str) -> None:
            # resolve to the longest known module prefix (``from m import
            # attr`` names either a submodule or an attribute of m)
            while candidate:
                if candidate in self.files:
                    out.add(candidate)
                    return
                candidate = candidate.rpartition(".")[0]

        own_pkg = name if name in self.packages \
            else name.rpartition(".")[0]
        for node in _import_statements(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    add(alias.name)
            else:
                if node.level:
                    base = own_pkg
                    for _ in range(node.level - 1):
                        base = base.rpartition(".")[0]
                    if node.module:
                        base = f"{base}.{node.module}" if base \
                            else node.module
                else:
                    base = node.module or ""
                add(base)
                for alias in node.names:
                    add(f"{base}.{alias.name}" if base else alias.name)
        out.discard(name)
        return frozenset(out)

    # -- queries ------------------------------------------------------------

    def _ancestors(self, name: str) -> set[str]:
        out = set()
        while "." in name:
            name = name.rpartition(".")[0]
            if name in self.files:
                out.add(name)
        return out

    def closure(self, module: str) -> frozenset[str]:
        """``module`` plus every package module it can transitively
        reach through static imports (and the enclosing ``__init__``s,
        which importing it executes)."""
        if module not in self.files:
            raise KeyError(f"{module!r} is not a module of "
                           f"{self.package!r}")
        seen: set[str] = set()
        frontier = [module]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._ancestors(current) - seen)
            frontier.extend(self._imports(current) - seen)
        return frozenset(seen)

    def digest(self, module: str) -> str:
        """Content hash over the sources of ``module``'s closure."""
        if module not in self._digests:
            pairs = sorted((name, self.source_sha[name])
                           for name in self.closure(module))
            blob = json.dumps(pairs)
            self._digests[module] = hashlib.sha256(
                blob.encode("utf-8")).hexdigest()
        return self._digests[module]


def _import_statements(tree: ast.Module):
    """Every ``import`` and ``from ... import`` statement of ``tree``,
    function- and class-level ones included.  Statements nest only in
    statement lists (bodies, ``else``/``finally`` blocks, ``except``
    handlers and ``match`` cases), so the walk visits only those."""
    stack: list = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
            continue
        for block in ("body", "orelse", "finalbody", "handlers", "cases"):
            stack.extend(getattr(node, block, ()))


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@lru_cache(maxsize=4)
def code_graph(package: str = "repro") -> CodeGraph:
    """Process-cached graph of ``package``.

    The cache assumes sources do not change underneath a running
    process; tools that edit sources and re-key (tests) should build
    :class:`CodeGraph` instances directly.
    """
    return CodeGraph(package)


def artifact_key(spec: "ArtifactSpec",
                 calibration: "Calibration | None" = None,
                 graph: CodeGraph | None = None) -> str:
    """The content-addressed cache key of one artifact.

    ``spec`` is an :class:`repro.harness.registry.ArtifactSpec`;
    ``calibration`` defaults to the process default
    :data:`~repro.energy.calibration.CALIBRATION`.  Keys are memoized
    on ``graph`` by ``(spec, calibration)``: both are frozen and the
    graph is a snapshot, so a memo hit equals a fresh derivation.
    """
    from repro.energy.calibration import CALIBRATION

    if graph is None:
        graph = code_graph(spec.producer_module.partition(".")[0])
    cal = calibration if calibration is not None else CALIBRATION
    key = graph._keys.get((spec, cal))
    if key is None:
        payload = {
            "schema": KEY_SCHEMA,
            "kind": spec.kind,
            "name": spec.name,
            "params": [[str(k), repr(v)] for k, v in spec.params],
            "producer": f"{spec.producer_module}."
                        f"{spec.producer.__qualname__}",
            "code": graph.digest(spec.producer_module),
            "calibration": cal.fingerprint(),
        }
        blob = json.dumps(payload, sort_keys=True)
        key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        graph._keys[(spec, cal)] = key
    return key
