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
  predictions, per-Pipe ASAP schedule/delay-balancing reuse keyed on a
  structural hash (:func:`repro.synth.netlist.structural_signature`),
  and a design-point estimate cache shared by guided search and the
  sharded explore runner.

Everything stored here is plain data (tuples, floats,
:class:`~repro.estimation.counts.Counts`, pickled-tested
:class:`~repro.estimation.estimator.Estimate` records), so caches
survive the fork-after-training worker pool: children inherit the warm
parent cache copy-on-write and keep private statistics.

Exactness contract: a cached value is always the object (or a
value-equal reconstruction) the cold path would have computed, and the
delay-balancing replay performs the same float additions in the same
order — estimates with caching enabled are bit-identical to the
``--no-cache`` path (property-tested in
``tests/estimation/test_cache_equivalence.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Tuple

from .. import obs
from ..synth.netlist import asap_schedule, structural_signature
from .area import delay_contributions
from .characterize import TemplateModels
from .counts import Counts

#: Sentinel returned by :meth:`LRUCache.get` on a miss (``None`` is a
#: legitimate cached value: an illegal design point).
MISS = object()

DEFAULT_TEMPLATE_ENTRIES = 65_536
DEFAULT_SCHEDULE_ENTRIES = 8_192
DEFAULT_POINT_ENTRIES = 32_768


class LRUCache:
    """Bounded least-recently-used cache with hit/miss/evict accounting.

    Statistics are kept as plain integers (always on, fork-private); a
    lookup touches nothing else. :meth:`publish` pushes the counts accrued
    since the previous publish into :mod:`repro.obs` counters — the
    estimator calls it once per ``estimate``/``estimate_many`` call and
    the DSE runner once per shard.
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

    def predict(self, key: str, params: Dict[str, object]) -> Counts:
        """Memoized :meth:`TemplateModels.predict` (value-identical)."""
        cache_key = (key, tuple(sorted(params.items())))
        hit = self._cache.get(cache_key)
        if hit is not MISS:
            return Counts(*hit)  # type: ignore[misc]
        counts = self._models.predict(key, params)
        self._cache.put(
            cache_key,
            (counts.luts_packable, counts.luts_unpackable, counts.regs,
             counts.dsps, counts.brams),
        )
        return counts

    def predict_prim(self, op: str, tp, width: int) -> Counts:
        """Memoized :meth:`TemplateModels.predict_prim`."""
        key = self._models.prim_key(op, tp)
        return self.predict(key, {"bits": tp.bits, "width": width})


class PipeScheduleInfo(NamedTuple):
    """Everything the estimator derives from one Pipe body's ASAP schedule."""

    #: Critical-path latency (max ASAP end time; 1 for empty bodies).
    latency: float
    #: Delay-balancing contributions in deterministic traversal order.
    delays: Tuple[Counts, ...]


def compute_pipe_info(body) -> PipeScheduleInfo:
    """Schedule one Pipe body and derive its cacheable summary."""
    times = asap_schedule(body)
    latency = max((end for _, end in times.values()), default=1)
    return PipeScheduleInfo(latency, tuple(delay_contributions(body, times)))


def point_key(
    bench_name: str,
    dataset: Dict[str, int],
    params: Dict[str, object],
) -> Tuple:
    """Canonical cache key for one (benchmark, dataset, parameters) point."""
    return (
        bench_name,
        tuple(sorted(dataset.items())),
        tuple(sorted(params.items())),
    )


class EstimationCaches:
    """The bounded cache bundle one :class:`Estimator` owns.

    * ``template`` — memoized template-model predictions;
    * ``schedule`` — per-Pipe ASAP latency + delay-balancing counts,
      keyed on :func:`~repro.synth.netlist.structural_signature`;
    * ``points`` — full design-point estimates keyed on
      :func:`point_key`, shared by guided search
      (:func:`repro.dse.search.local_search`) and the sharded explore
      runner for duplicate-point dedupe.
    """

    def __init__(
        self,
        template_entries: int = DEFAULT_TEMPLATE_ENTRIES,
        schedule_entries: int = DEFAULT_SCHEDULE_ENTRIES,
        point_entries: int = DEFAULT_POINT_ENTRIES,
    ) -> None:
        self.template = LRUCache("template", template_entries)
        self.schedule = LRUCache("schedule", schedule_entries)
        self.points = LRUCache("points", point_entries)

    def wrap_templates(self, models: TemplateModels) -> CachedTemplateModels:
        """A memoizing predict view over ``models`` backed by this bundle."""
        if isinstance(models, CachedTemplateModels):
            return models
        return CachedTemplateModels(models, self.template)

    def pipe_info(self, pipe, body) -> PipeScheduleInfo:
        """Schedule summary for ``pipe``'s body, reused across designs.

        The structural signature is memoized on the Pipe node itself so
        the cycle and area passes of one estimate hash the body once.
        """
        sig = getattr(pipe, "_schedule_sig", None)
        if sig is None:
            sig = structural_signature(body)
            pipe._schedule_sig = sig
        info = self.schedule.get(sig)
        if info is MISS:
            info = compute_pipe_info(body)
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
        self.points.clear()

    def caches(self) -> List[LRUCache]:
        """The individual caches, in display order."""
        return [self.template, self.schedule, self.points]

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
