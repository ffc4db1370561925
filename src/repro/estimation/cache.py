"""Memoization layer for the estimation hot path (bounded LRU caches).

DSE sweeps estimate tens of thousands of design points whose IR is built
from the same handful of templates: the *same* counter/load/store/prim
parameter tuples recur across thousands of points, and points that only
change tile sizes or metapipe toggles share identical Pipe body
structure. This module exploits that redundancy without changing a
single estimated bit:

* :class:`LRUCache` — a bounded, fork-inheritable cache with local
  hit/miss/evict statistics, published into :mod:`repro.obs` counters
  (``estimation.cache.{hit,miss,evict}`` plus per-cache variants) once
  per estimator call or shard rather than on every lookup.
* :class:`CachedTemplateModels` — a memoizing view over
  :class:`~repro.estimation.characterize.TemplateModels` keyed on
  ``(template key, canonical parameter tuple)``. Cache values are plain
  number tuples; every lookup reconstructs a fresh
  :class:`~repro.estimation.counts.Counts`, so callers that mutate the
  result (the BRAM block override) never alias cached state.
* :class:`EstimationCaches` — the bundle an
  :class:`~repro.estimation.estimator.Estimator` owns: template
  predictions and per-Pipe ASAP schedules (critical path and
  delay-edge slacks) keyed on a structural hash
  (:func:`repro.synth.netlist.structural_signature`).

Estimation plans (:mod:`repro.estimation.plan`) predict every template
through the template cache on every replay, with the cache's own key
format; the schedule cache serves plan compiles.

There is no whole-design-point cache: a DSE sweep prices distinct
sampled points, and guided search dedupes its own walk.

Everything stored here is plain data (tuples, floats,
:class:`~repro.estimation.counts.Counts`), so caches
survive the fork-after-training worker pool: children inherit the warm
parent cache copy-on-write and keep private statistics.

Exactness contract: a cached value is always the object (or a
value-equal reconstruction) the cold path would have computed, so
estimates with caching enabled are bit-identical to the
``--no-cache`` path (property-tested in
``tests/estimation/test_cache_equivalence.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

from .. import obs
from ..synth.netlist import structural_signature
from .characterize import Params, TemplateModels
from .counts import Counts
from .cycles import PipeSchedule, schedule_pipe

#: Sentinel returned by :meth:`LRUCache.get` on a miss.
MISS = object()

DEFAULT_TEMPLATE_ENTRIES = 65_536
DEFAULT_SCHEDULE_ENTRIES = 8_192


class LRUCache:
    """Bounded least-recently-used cache with hit/miss/evict accounting.

    Statistics are kept as plain integers (always on, fork-private); a
    lookup touches nothing else. :meth:`publish` pushes the counts accrued
    since the previous publish into :mod:`repro.obs` counters — the
    estimator calls it once per ``estimate``/``finish_many`` call.
    """

    __slots__ = (
        "name", "maxsize", "hits", "misses", "evictions", "_data",
        "_published", "_hit_names", "_miss_names", "_evict_names",
    )

    def __init__(self, name: str, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[object, object]" = OrderedDict()
        self._published = (0, 0, 0)  # (hits, misses, evictions) at publish
        prefix = "estimation.cache"
        self._hit_names = (f"{prefix}.hit", f"{prefix}.{name}.hit")
        self._miss_names = (f"{prefix}.miss", f"{prefix}.{name}.miss")
        self._evict_names = (f"{prefix}.evict", f"{prefix}.{name}.evict")

    def get(self, key: object) -> object:
        """Return the cached value for ``key``, or :data:`MISS`."""
        data = self._data
        try:
            value = data[key]
        except KeyError:
            self.misses += 1
            return MISS
        data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: object, value: object) -> None:
        """Insert/refresh ``key``; evict the oldest entry past the bound."""
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def publish(self) -> None:
        """Add the hits/misses/evictions since the last publish to obs.

        Counts accrued while metrics are disabled are dropped, not held
        back for a later publish, so a counter only ever covers lookups
        made while metrics were on (up to one call's granularity).
        """
        now = (self.hits, self.misses, self.evictions)
        last, self._published = self._published, now
        if now == last or not obs.metrics_enabled():
            return
        for names, count, before in zip(
            (self._hit_names, self._miss_names, self._evict_names), now, last
        ):
            if count != before:
                for name in names:
                    obs.counter(name).inc(count - before)

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def stats(self) -> Dict[str, object]:
        """Snapshot of size, bound, and hit/miss/evict counts."""
        lookups = self.hits + self.misses
        return {
            "name": self.name,
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


class CachedTemplateModels:
    """Memoizing view over :class:`TemplateModels` (drop-in for predicts).

    Keys are ``(template key, canonical sorted parameter tuple)``; values
    are the five predicted resource numbers. Every hit reconstructs a
    fresh :class:`Counts`, so downstream mutation (e.g. the analytic BRAM
    block override in ``_count_memory``) cannot corrupt the cache.
    """

    __slots__ = ("_models", "_cache")

    def __init__(self, models: TemplateModels, cache: LRUCache) -> None:
        self._models = models
        self._cache = cache

    @property
    def device(self):
        """The characterized device (mirrors :class:`TemplateModels`)."""
        return self._models.device

    def predict_tuple(
        self, key: str, params: Tuple[Tuple[str, object], ...]
    ) -> Tuple[float, ...]:
        """Memoized :meth:`TemplateModels.predict_tuple` (value-identical).

        ``(key, params)`` is the cache key as given: ``params`` must be
        sorted by name, as :meth:`predict` and the estimation plans
        (:mod:`repro.estimation.area`) build it.
        """
        cache_key = (key, params)
        hit = self._cache.get(cache_key)
        if hit is MISS:
            hit = self._models.predict_tuple(key, params)
            self._cache.put(cache_key, hit)
        return hit  # type: ignore[return-value]

    def predict(self, key: str, params: Params) -> Counts:
        """Memoized :meth:`TemplateModels.predict` (value-identical)."""
        return Counts(*self.predict_tuple(key, tuple(sorted(params.items()))))

    def prim_key(self, op: str, tp) -> str:
        """Model key for a primitive op (:meth:`TemplateModels.prim_key`)."""
        return self._models.prim_key(op, tp)

    def predict_prim(self, op: str, tp, width: int) -> Counts:
        """Memoized :meth:`TemplateModels.predict_prim`."""
        key = self._models.prim_key(op, tp)
        return self.predict(key, {"bits": tp.bits, "width": width})


class EstimationCaches:
    """The bounded cache bundle one :class:`Estimator` owns.

    * ``template`` — memoized template-model predictions;
    * ``schedule`` — per-Pipe ASAP latency and delay-edge slacks,
      keyed on :func:`~repro.synth.netlist.structural_signature`.
    """

    def __init__(
        self,
        template_entries: int = DEFAULT_TEMPLATE_ENTRIES,
        schedule_entries: int = DEFAULT_SCHEDULE_ENTRIES,
    ) -> None:
        self.template = LRUCache("template", template_entries)
        self.schedule = LRUCache("schedule", schedule_entries)

    def wrap_templates(self, models: TemplateModels) -> CachedTemplateModels:
        """A memoizing predict view over ``models`` backed by this bundle."""
        if isinstance(models, CachedTemplateModels):
            return models
        return CachedTemplateModels(models, self.template)

    def pipe_info(self, pipe, body) -> PipeSchedule:
        """:func:`~repro.estimation.cycles.schedule_pipe` of ``pipe``'s
        body, reused across designs.

        The structural signature is memoized on the Pipe node itself so
        the cycle and area compilers of one design hash the body once; it
        holds no vector width, so it stays valid across skeleton re-binds.
        """
        sig = getattr(pipe, "_schedule_sig", None)
        if sig is None:
            sig = structural_signature(body)
            pipe._schedule_sig = sig
        info = self.schedule.get(sig)
        if info is MISS:
            info = schedule_pipe(body)
            self.schedule.put(sig, info)
        return info  # type: ignore[return-value]

    def publish(self) -> None:
        """Publish every cache's new statistics (see :meth:`LRUCache.publish`)."""
        for cache in self.caches():
            cache.publish()

    def clear(self) -> None:
        """Empty every cache (statistics are kept)."""
        self.template.clear()
        self.schedule.clear()

    def caches(self) -> List[LRUCache]:
        """The individual caches, in display order."""
        return [self.template, self.schedule]

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-cache statistics snapshot (see :meth:`LRUCache.stats`)."""
        return {c.name: c.stats() for c in self.caches()}

    def summary_lines(self) -> List[str]:
        """Human-readable per-cache table (``repro report`` metrics section)."""
        lines = [
            f"{'cache':12s} {'size':>8s} {'max':>8s} {'hits':>10s} "
            f"{'misses':>10s} {'evict':>8s} {'hit rate':>9s}"
        ]
        for cache in self.caches():
            s = cache.stats()
            lines.append(
                f"{s['name']:12s} {s['size']:8,} {s['maxsize']:8,} "
                f"{s['hits']:10,} {s['misses']:10,} {s['evictions']:8,} "
                f"{100 * s['hit_rate']:8.1f}%"
            )
        return lines
