"""The shared model's units, and the seedable memos that hold them.

The paper prices every configuration from a few characterizations made
once and then composed (Ch. 5-6).  A *unit* is one of them:

* ``curve:<name>`` -- the curve's ECDSA operation counts, its software
  cost tables for each ISA setting a software configuration prices it
  with (two per curve) and, for a binary curve, both Billie runs;
* ``icache:<bytes>:<prefetch>`` -- one I-cache study (prefetch 0/1).

The four functions units fill memoize through :func:`unit`, which keeps
``lru_cache``'s ``cache_info()``/``cache_clear()`` and registers each
memo in :data:`MEMOS`.  :func:`compute` fills a unit and returns its
entries as plain, picklable values; :func:`seed` writes them into
another process's memos through :data:`MEMOS` (a tracer may rebind the
module attributes).  Producers declare the units they read with
:func:`reads`; a pooled sweep (:mod:`repro.sweep.engine`) computes each
unit once and renders each reader in the parent as soon as its units
have landed.

Units do not depend on the calibration: they hold cycles, counts and
cache statistics, and the calibration enters only in
:meth:`repro.model.system.SystemModel._energy`.  This module imports
only the standard library at module level.
"""

from __future__ import annotations

import functools
from collections import namedtuple

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

#: Qualified names of the memos the units fill.
OPCOUNTS = "repro.model.opcount.ecdsa_opcounts"
SOFTWARE_COSTS = "repro.model.costs._software_costs"
BILLIE_RUN = "repro.model.system._billie_primitive_run"
CACHE_STUDY = "repro.model.icache_model.cache_study"

_KWARGS = object()      # separates positional from keyword arguments


class _Memo:
    """One function's memoized values and lru_cache-style counts."""

    def __init__(self) -> None:
        self.values: dict = {}
        self.hits = self.misses = 0

    def info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, None, len(self.values))

    def clear(self) -> None:
        self.values.clear()
        self.hits = self.misses = 0


#: Every seedable memo, by the qualified name of the function it wraps.
MEMOS: dict[str, _Memo] = {}


def unit(fn):
    """Memoize ``fn`` like ``lru_cache(maxsize=None)``, in a memo that
    :func:`seed` can fill; a seeded key is a hit and skips ``fn``."""
    memo = MEMOS[f"{fn.__module__}.{fn.__qualname__}"] = _Memo()

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        key = args if not kwargs else (*args, _KWARGS,
                                       *sorted(kwargs.items()))
        if key in memo.values:
            memo.hits += 1
            return memo.values[key]
        memo.misses += 1
        value = memo.values[key] = fn(*args, **kwargs)
        return value

    cached.cache_info = memo.info
    cached.cache_clear = memo.clear
    return cached


def reads(curves=(), icache=()):
    """Declare the units a producer reads: the ``curves`` it prices and
    the I-cache studies of the configurations in ``icache``.  Returns
    the producer itself, with a ``model_units`` attribute."""
    names = tuple(dict.fromkeys(
        [f"curve:{curve}" for curve in curves]
        + [f"icache:{c.icache.size_bytes}:{int(c.icache.prefetch)}"
           for c in icache]))

    def declare(producer):
        producer.model_units = names
        return producer

    return declare


def _software_configs(curve: str) -> list:
    """One software configuration per ISA setting ``curve`` is priced
    with (the accelerated paths price order arithmetic as baseline)."""
    from repro.model.configs import ALL_CONFIGS, FUTURE_CONFIGS

    binary = curve.startswith("B")
    by_setting: dict = {}
    for c in ALL_CONFIGS + FUTURE_CONFIGS:
        if c.accelerator is None and (c.supports_binary if binary
                                      else c.supports_prime):
            by_setting.setdefault((c.prime_isa_ext, c.binary_isa_ext), c)
    return list(by_setting.values())


def _fills(name: str) -> list[tuple[str, tuple, functools.partial]]:
    """``(memo, key, fill)`` per entry of unit ``name``; ``fill()``
    computes the entry through the model's public entry points."""
    from repro.model import costs, icache_model, opcount, system

    kind, _, arg = name.partition(":")
    if kind == "icache":
        size, prefetch = arg.split(":")
        key = (int(size), prefetch == "1")
        return [(CACHE_STUDY, key,
                 functools.partial(icache_model.cache_study, *key))]
    fills = [(OPCOUNTS, (arg,),
              functools.partial(opcount.ecdsa_opcounts, arg))]
    for c in _software_configs(arg):
        fills.append((SOFTWARE_COSTS, (arg, c.prime_isa_ext, c.binary_isa_ext),
                      functools.partial(costs.software_costs, arg, c)))
    if arg.startswith("B"):
        fills += [(BILLIE_RUN, (arg, primitive),
                   functools.partial(system._billie_primitive_run, arg,
                                     primitive))
                  for primitive in ("sign", "verify")]
    return fills


def held(name: str) -> bool:
    """Whether this process's memos hold every entry of unit ``name``."""
    return all(key in MEMOS[memo].values for memo, key, _ in _fills(name))


def plan(names) -> list[str]:
    """The units among ``names`` this process does not hold, each once,
    in the order ``names`` first gives it."""
    return [n for n in dict.fromkeys(names) if not held(n)]


def compute(name: str) -> list[tuple[str, tuple, object]]:
    """Fill unit ``name`` here; returns its ``(memo, key, value)``
    entries for :func:`seed`."""
    return [(memo, key, fill()) for memo, key, fill in _fills(name)]


def seed(entries) -> None:
    """Install entries that :func:`compute` returned."""
    for memo, key, value in entries:
        MEMOS[memo].values[key] = value


def misses() -> int:
    """Memo misses so far, summed over every seedable memo."""
    return sum(memo.misses for memo in MEMOS.values())


def clear() -> None:
    """Empty every seedable memo and reset its counts."""
    for memo in MEMOS.values():
        memo.clear()
