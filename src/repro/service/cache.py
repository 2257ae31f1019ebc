"""Content-addressed artifact cache for the compilation service.

The offline step is the expensive, µproc-independent half of Figure 1;
its whole point is to run *once* per program and be reused by every
deployment.  This module makes that concrete: offline artifacts are
keyed by ``sha256(source, offline options)`` so any two requests for
the same compilation share one artifact, across an in-memory LRU and
(optionally) an on-disk store that survives the process.

The LRU is *sharded*: N independently locked slices with key-hash
routing, per-shard recency and per-shard disk directories, so
concurrent lookups of different keys no longer serialize on one
global lock (the hot path of a service absorbing deployment traffic
for many cores at once).

Persistence reuses the binary PVI serialization (`encode_module` /
`decode_module`) for both bytecode flavours, plus a small JSON metadata
sidecar carrying the fields of :class:`OfflineArtifact` that the
bytecode itself does not record (analysis work, vectorized functions).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.bytecode.encode import VERSION as PVI_ENCODER_VERSION
from repro.bytecode.encode import decode_module, encode_module
from repro.bytecode.varint import read_bytes, write_bytes
from repro.core.offline import (
    OfflineArtifact, effective_pipeline, offline_compile,
)
from repro.opt import PassStats

#: magic prefix of a persisted artifact file (PVI Artifact, container
#: layout 2: metadata sidecar carries schema/source/pipeline/per-pass)
ARTIFACT_MAGIC = b"PVA2"

#: full schema identity of anything this module writes or keys:
#: the artifact container layout plus the PVI wire-format version.
#: It is embedded in every cache key and persisted entry, so artifacts
#: written by an older encoding self-invalidate (key miss on lookup,
#: rejection on decode) instead of decoding garbage.
SCHEMA_VERSION = f"pva2+pvi{PVI_ENCODER_VERSION}"

#: default options of :func:`repro.core.offline.offline_compile` — the
#: key canonicalization fills these in so explicit-default and implicit
#: calls hash identically.  Derived from the signature (its options are
#: exactly the keyword-only parameters) so adding or re-defaulting an
#: offline option can never silently desynchronize the cache key.
DEFAULT_OFFLINE_OPTIONS: Dict[str, object] = {
    param.name: param.default
    for param in inspect.signature(offline_compile).parameters.values()
    if param.kind == inspect.Parameter.KEYWORD_ONLY
}


def canonical_options(options: Optional[Dict[str, object]] = None) \
        -> Dict[str, object]:
    """Fill defaults and reject unknown offline options.

    A ``pipeline`` option (a :class:`~repro.flows.PipelineSpec` or its
    dict form) is normalized to a validated spec; it overrides the
    legacy boolean knobs exactly as ``offline_compile`` would.
    """
    merged = dict(DEFAULT_OFFLINE_OPTIONS)
    if options:
        unknown = set(options) - set(DEFAULT_OFFLINE_OPTIONS)
        if unknown:
            raise ValueError(f"unknown offline options {sorted(unknown)}; "
                             f"have {sorted(DEFAULT_OFFLINE_OPTIONS)}")
        merged.update(options)
    hotness = merged["hotness"]
    if hotness is not None:
        merged["hotness"] = {name: int(w)
                             for name, w in sorted(hotness.items())}
    if merged.get("pipeline") is not None:
        merged["pipeline"] = effective_pipeline(merged["pipeline"])
    return merged


def _json_options(merged: Dict[str, object]) -> Dict[str, object]:
    """Canonicalized options in JSON-able form (for key hashing)."""
    out = dict(merged)
    pipeline = out.get("pipeline")
    if pipeline is not None:
        out["pipeline"] = pipeline.to_dict()
    return out


def artifact_key(source: str, name: str = "module",
                 options: Optional[Dict[str, object]] = None) -> str:
    """Content address of one offline compilation.

    Covers everything that determines the artifact: the program text,
    the module name (it is embedded in the bytecode), the full
    canonicalized option set — including the pipeline spec, so every
    flow with its own offline pipeline gets its own entry — and the
    encoder schema version, so entries persisted by an older encoding
    can never be served to a newer decoder.
    """
    payload = json.dumps(
        {"schema": SCHEMA_VERSION, "source": source, "name": name,
         "options": _json_options(canonical_options(options))},
        sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def artifact_fingerprint(artifact: OfflineArtifact) -> str:
    """Content address of an already-built artifact (deployment key).

    Used when a caller hands the deployment layer an artifact that did
    not come through the cache: the hash of both encoded bytecode
    flavours identifies it exactly.  Memoized on the artifact object —
    encoding is linear but not free.
    """
    cached = getattr(artifact, "_pvi_fingerprint", None)
    if cached is None:
        digest = hashlib.sha256()
        digest.update(encode_module(artifact.bytecode))
        digest.update(encode_module(artifact.scalar_bytecode))
        cached = digest.hexdigest()
        artifact._pvi_fingerprint = cached
    return cached


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def serialize_artifact(artifact: OfflineArtifact) -> bytes:
    """Artifact -> bytes: magic, JSON metadata sidecar, both modules.

    The sidecar records what the bytecode does not: the schema
    version, the source text, the pipeline spec that produced the
    artifact and the per-pass instrumentation summary — so a
    disk-revived artifact is a faithful stand-in for the original
    (and an entry written under any other schema self-invalidates on
    decode).  Everything an engine consumes rides the two modules as
    annotations; the sidecar carries no analysis result, and a key a
    reader does not know is ignored."""
    meta = {
        "schema": SCHEMA_VERSION,
        "name": artifact.name,
        "offline_work": artifact.offline_work,
        "offline_time": artifact.offline_time,
        "vectorized_functions": list(artifact.vectorized_functions),
        "source": artifact.source,
        "pipeline": artifact.pipeline.to_dict()
        if artifact.pipeline is not None else None,
        "hotness": artifact.hotness,
        "per_pass": artifact.pass_stats.summary_dict(),
    }
    out = bytearray()
    out.extend(ARTIFACT_MAGIC)
    write_bytes(out, json.dumps(meta, sort_keys=True).encode("utf-8"))
    write_bytes(out, encode_module(artifact.bytecode))
    write_bytes(out, encode_module(artifact.scalar_bytecode))
    return bytes(out)


def deserialize_artifact(raw: bytes) -> OfflineArtifact:
    if raw[:4] != ARTIFACT_MAGIC:
        raise ValueError("not a persisted PVI artifact (bad magic)")
    pos = 4
    meta_raw, pos = read_bytes(raw, pos)
    meta = json.loads(meta_raw.decode("utf-8"))
    schema = meta.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"persisted artifact schema {schema!r} does not match this "
            f"encoder ({SCHEMA_VERSION!r}); entry is stale")
    bytecode_raw, pos = read_bytes(raw, pos)
    scalar_raw, pos = read_bytes(raw, pos)
    pipeline = meta.get("pipeline")
    # disk-revived modules are as immutable as freshly compiled
    # ones: freeze so the VM's call inline caching applies
    return OfflineArtifact(
        name=meta["name"],
        bytecode=decode_module(bytecode_raw).freeze(),
        scalar_bytecode=decode_module(scalar_raw).freeze(),
        offline_work=int(meta["offline_work"]),
        offline_time=float(meta["offline_time"]),
        vectorized_functions=list(meta["vectorized_functions"]),
        source=meta.get("source"),
        pipeline=effective_pipeline(pipeline)
        if pipeline is not None else None,
        hotness={name: int(w)
                 for name, w in meta["hotness"].items()}
        if meta.get("hotness") else None,
        pass_stats=PassStats.from_summary(meta.get("per_pass", {})),
    )


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

@dataclass
class CacheStats:
    hits: int = 0              # served from the in-memory LRU
    disk_hits: int = 0         # revived from the persistence directory
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt_entries: int = 0   # undecodable disk entries (self-healed)
    #: I/O failures against the persistence directory (permission
    #: denied, disk full, ...).  Distinct from ``corrupt_entries``:
    #: the entry bytes were never seen, so nothing is unlinked and the
    #: lookup degrades to a miss — a climbing count here is how an
    #: unreadable/unwritable persist dir shows up instead of
    #: masquerading as an endless cache-miss recompile loop.
    io_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        if lookups == 0:
            return 0.0
        return (self.hits + self.disk_hits) / lookups

    def add(self, other: "CacheStats") -> "CacheStats":
        """Accumulate another counter set (shard aggregation)."""
        self.hits += other.hits
        self.disk_hits += other.disk_hits
        self.misses += other.misses
        self.stores += other.stores
        self.evictions += other.evictions
        self.corrupt_entries += other.corrupt_entries
        self.io_errors += other.io_errors
        return self

    def as_dict(self) -> Dict[str, object]:
        return {"hits": self.hits, "disk_hits": self.disk_hits,
                "misses": self.misses, "stores": self.stores,
                "evictions": self.evictions,
                "corrupt_entries": self.corrupt_entries,
                "io_errors": self.io_errors,
                "hit_rate": self.hit_rate}


#: shard-count ceiling when the caller does not choose one; the
#: auto-pick never exceeds the capacity (a shard must hold >= 1 entry)
DEFAULT_CACHE_SHARDS = 8

#: disk-layout fan-out, *fixed* regardless of the in-memory shard
#: count: a key's ``shard-NN/`` directory depends only on the key, so
#: a persistence directory written under any shard/capacity
#: configuration stays fully readable under any other
DISK_SHARDS = 16


class _CacheShard:
    """One independently locked slice of the cache: its own LRU, its
    own stats.  All the locking lives here — two lookups that route
    to different shards never contend.  Disk paths come from the
    owning cache (``path_for``), whose layout is shard-count
    independent."""

    __slots__ = ("capacity", "path_for", "stats", "_entries", "_lock")

    def __init__(self, capacity: int, path_for):
        self.capacity = capacity
        self.path_for = path_for
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, OfflineArtifact]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> Optional[OfflineArtifact]:
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return artifact
        artifact = self._load_persisted(key)
        if artifact is not None:
            # The cache key IS the content address; pin it so the
            # deployment memo sees the same identity as the in-memory
            # copy it replaces.
            artifact._pvi_fingerprint = key
            with self._lock:
                self.stats.disk_hits += 1
                self._insert(key, artifact)
            return artifact
        with self._lock:
            self.stats.misses += 1
        return None

    def peek(self, key: str) -> Optional[OfflineArtifact]:
        """Stat-free, recency-free in-memory lookup (the in-flight
        dedup's lost-race re-check)."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, artifact: OfflineArtifact) -> None:
        if getattr(artifact, "_pvi_fingerprint", None) is None:
            artifact._pvi_fingerprint = key
        with self._lock:
            self.stats.stores += 1
            self._insert(key, artifact)
        path = self.path_for(key)
        if path is not None and not path.exists():
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                # Write aside, then rename: a concurrent reader sees
                # the whole entry or none of it, never a prefix it
                # would count as corrupt and unlink.
                scratch = path.with_suffix(
                    f".{os.getpid()}-{threading.get_ident()}.tmp")
                scratch.write_bytes(serialize_artifact(artifact))
                scratch.replace(path)
            except OSError:
                # Persistence is an optimization; a read-only persist
                # dir must not fail the compile that produced the
                # artifact.  Surface it instead of looping silently.
                with self._lock:
                    self.stats.io_errors += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- internals ----------------------------------------------------------

    def _insert(self, key: str, artifact: OfflineArtifact) -> None:
        self._entries[key] = artifact
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _load_persisted(self, key: str) -> Optional[OfflineArtifact]:
        path = self.path_for(key)
        if path is None or not path.exists():
            return None
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None                 # raced with another unlink
        except OSError:
            # The entry could not be *read* (permissions, I/O
            # error) — that says nothing about its content, so it
            # is neither corrupt nor healed by deletion.  Count it
            # where operators can see it (``io_errors``, surfaced
            # through ``ServiceStats``) and degrade this lookup to
            # a miss; recompilation keeps the service alive.
            with self._lock:
                self.stats.io_errors += 1
            return None
        try:
            return deserialize_artifact(raw)
        except Exception:
            # A truncated or corrupted entry degrades to a miss
            # (and a recompile overwrites it); it must never take
            # the service down.  Self-heal by deleting the entry —
            # but a deletion *failure* is an I/O problem, not more
            # corruption.
            with self._lock:
                self.stats.corrupt_entries += 1
            try:
                path.unlink(missing_ok=True)
            except OSError:
                with self._lock:
                    self.stats.io_errors += 1
        return None


class ArtifactCache:
    """Sharded in-memory LRU over content-addressed artifacts, with
    optional on-disk persistence.

    The cache is split into ``shards`` independently locked
    :class:`_CacheShard` slices; a key is routed by a stable hash of
    its text (CRC32 — deterministic across processes, so disk entries
    land in the same shard directory every run).  ``get``/``put`` are
    thread-safe and, across shards, contention-free: the single global
    lock the service's hot path used to funnel through is gone.

    ``capacity`` is the *total* entry budget, divided evenly across
    shards (per-shard LRU; the per-shard slice rounds *up*, so the
    effective bound can exceed ``capacity`` by at most ``shards - 1``
    entries).  Disk entries outlive LRU eviction, so an
    evicted artifact costs a decode instead of a full recompilation.
    The on-disk layout (``shard-NN/`` by ``crc32(key) % DISK_SHARDS``)
    is deliberately *independent* of the in-memory shard count, so one
    persistence directory serves every shard/capacity configuration.

    ``shards=1`` restores the exact single-LRU behaviour (strict
    global recency ordering), which a few tests rely on.
    """

    def __init__(self, capacity: int = 64,
                 persist_dir: Optional[Path] = None,
                 shards: Optional[int] = None):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if shards is None:
            shards = min(DEFAULT_CACHE_SHARDS, capacity)
        if shards < 1:
            raise ValueError("cache shard count must be >= 1")
        self.capacity = capacity
        self.shard_count = shards
        self.persist_dir = Path(persist_dir) if persist_dir else None
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
        per_shard = -(-capacity // shards)            # ceil division
        self._shards = tuple(
            _CacheShard(per_shard, self._disk_path)
            for _ in range(shards))

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.persist_dir is None:
            return None
        index = zlib.crc32(key.encode("utf-8")) % DISK_SHARDS
        return self.persist_dir / f"shard-{index:02d}" / f"{key}.pvia"

    def _shard_for(self, key: str) -> _CacheShard:
        if self.shard_count == 1:
            return self._shards[0]
        return self._shards[
            zlib.crc32(key.encode("utf-8")) % self.shard_count]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, key: str) -> bool:
        return key in self._shard_for(key)

    def get(self, key: str) -> Optional[OfflineArtifact]:
        return self._shard_for(key).get(key)

    def peek(self, key: str) -> Optional[OfflineArtifact]:
        """In-memory lookup with no stats and no recency update."""
        return self._shard_for(key).peek(key)

    def put(self, key: str, artifact: OfflineArtifact) -> None:
        self._shard_for(key).put(key, artifact)

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()

    @property
    def stats(self) -> CacheStats:
        """Aggregated counters across every shard (snapshot)."""
        total = CacheStats()
        for shard in self._shards:
            total.add(shard.stats)
        return total

    def shard_stats(self) -> List[CacheStats]:
        """Per-shard counter snapshots, in shard order."""
        return [CacheStats().add(shard.stats)
                for shard in self._shards]
