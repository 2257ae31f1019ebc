"""Content-addressed artifact cache for the compilation service.

The offline step is the expensive, µproc-independent half of Figure 1;
its whole point is to run *once* per program and be reused by every
deployment.  This module makes that concrete: offline artifacts are
keyed by ``sha256(source, offline options)`` so any two requests for
the same compilation share one artifact, across an in-memory LRU and
(optionally) an on-disk store that survives the process.

Persistence reuses the binary PVI serialization (`encode_module` /
`decode_module`) for both bytecode flavours, plus a small JSON metadata
sidecar carrying the fields of :class:`OfflineArtifact` that the
bytecode itself does not record (analysis work, vectorized functions).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zlib
from collections import OrderedDict
from collections.abc import Mapping
from pathlib import Path
from typing import Dict, Optional

from repro.bytecode.encode import VERSION as PVI_ENCODER_VERSION
from repro.bytecode.encode import decode_module, encode_module
from repro.bytecode.varint import read_bytes, write_bytes
from repro.core.offline import OfflineArtifact
from repro.flows import DEFAULT_PIPELINE, PipelineSpec
from repro.opt import PassStats
from repro.telemetry import Counters

#: magic prefix of a persisted artifact file (PVI Artifact, container
#: layout 2: metadata sidecar carries schema/source/pipeline/per-pass)
ARTIFACT_MAGIC = b"PVA2"

#: full schema identity of anything this module writes or keys: the
#: artifact container layout, the PVI wire-format version and the form
#: of the options a key hashes (``k2``: one pipeline spec and one
#: hotness map, see :func:`canonical_options`).  It is embedded in
#: every cache key and persisted entry, so artifacts written by an
#: older encoding self-invalidate (key miss on lookup, rejection on
#: decode) instead of decoding garbage.
SCHEMA_VERSION = f"pva2+pvi{PVI_ENCODER_VERSION}+k2"


def canonical_options(options: Optional[Dict[str, object]] = None) \
        -> Dict[str, object]:
    """The one form of a set of offline options, which is also the
    keyword arguments of ``offline_compile``: ``{"pipeline": spec,
    "hotness": map or None}``.

    A missing ``pipeline`` is ``DEFAULT_PIPELINE`` and a dict one is
    parsed by :meth:`PipelineSpec.from_dict`; a missing or empty
    ``hotness`` is ``None``, and a map is sorted by name.  So every
    spelling of one compilation has one form, hence one key.  Every
    rejection is a ``ValueError`` (the edge answers it with a 400): an
    unknown option, a ``hotness`` that is not a mapping of names to
    integer weights, a ``pipeline`` that is neither a spec nor a valid
    dict form of one.
    """
    options = options or {}
    unknown = set(options) - {"pipeline", "hotness"}
    if unknown:
        raise ValueError(f"unknown offline options {sorted(unknown)}; "
                         "have ['hotness', 'pipeline']")
    pipeline = options.get("pipeline")
    if pipeline is None:
        pipeline = DEFAULT_PIPELINE
    elif isinstance(pipeline, dict):
        pipeline = PipelineSpec.from_dict(pipeline)
    elif not isinstance(pipeline, PipelineSpec):
        raise ValueError("offline option 'pipeline' must be a "
                         "pipeline spec or its dict form")
    hotness = options.get("hotness")
    if hotness is not None:
        if not isinstance(hotness, Mapping) or not all(
                isinstance(name, str) and isinstance(weight, int)
                for name, weight in hotness.items()):
            raise ValueError("offline option 'hotness' must map function "
                             "names to integer weights")
        hotness = {name: int(w) for name, w in sorted(hotness.items())} \
            or None
    return {"pipeline": pipeline, "hotness": hotness}


def artifact_key(source: str, name: str = "module",
                 options: Optional[Dict[str, object]] = None) -> str:
    """Content address of one offline compilation.

    Covers everything that determines the artifact: the program text,
    the module name (it is embedded in the bytecode), the canonical
    options — the pipeline spec, so every flow with its own offline
    pipeline gets its own entry, and the hotness map — and the
    encoder schema version, so entries persisted by an older encoding
    can never be served to a newer decoder.
    """
    canonical = canonical_options(options)
    payload = json.dumps([SCHEMA_VERSION, source, name,
                          canonical["pipeline"].to_json(),
                          canonical["hotness"]])
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
        pipeline=PipelineSpec.from_dict(pipeline)
        if pipeline is not None else None,
        hotness={name: int(w)
                 for name, w in meta["hotness"].items()}
        if meta.get("hotness") else None,
        pass_stats=PassStats.from_summary(meta.get("per_pass", {})),
    )


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

#: disk-layout fan-out: a key's ``shard-NN/`` directory is
#: ``crc32(key) % DISK_SHARDS``, a function of the key alone, so a
#: persistence directory written under any capacity stays readable
#: under any other
DISK_SHARDS = 16


class ArtifactCache:
    """In-memory LRU over content-addressed artifacts, with optional
    on-disk persistence.

    One ``OrderedDict`` under one lock: ``capacity`` is a hard bound
    and recency is global.  The lock is never held across disk I/O or
    serialization, so a disk revival or a persist does not stall other
    lookups.  Disk entries outlive LRU eviction, so an evicted artifact
    costs a decode instead of a full recompilation.

    ``counts`` holds the cache's books (``hits`` from memory,
    ``disk_hits`` revived from the persistence directory, ``misses``,
    ``stores``, ``evictions``, ``corrupt_entries`` self-healed on
    decode failure, ``io_errors`` against the persistence directory);
    :meth:`stats` is their view.
    """

    def __init__(self, capacity: int = 64,
                 persist_dir: Optional[Path] = None):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.persist_dir = Path(persist_dir) if persist_dir else None
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
        self.counts = Counters("hits", "disk_hits", "misses", "stores",
                               "evictions", "corrupt_entries",
                               "io_errors")
        self._entries: "OrderedDict[str, OfflineArtifact]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> Optional[OfflineArtifact]:
        artifact = self.peek(key)
        if artifact is not None:
            self.hit(key)
            return artifact
        artifact = self._load_persisted(key)
        if artifact is not None:
            # The cache key IS the content address; pin it so the
            # deployment memo sees the same identity as the in-memory
            # copy it replaces.
            artifact._pvi_fingerprint = key
            self._insert(key, artifact)
            self.counts.add("disk_hits")
            return artifact
        self.counts.add("misses")
        return None

    def peek(self, key: str) -> Optional[OfflineArtifact]:
        """In-memory lookup with no counting and no recency update
        (the in-flight dedup's lost-race re-check, and the first look
        of a request that may turn out not to be resident)."""
        with self._lock:
            return self._entries.get(key)

    def hit(self, key: str) -> None:
        """Book a memory hit on ``key``, found by :meth:`peek`: count
        it and refresh its recency (if a concurrent insert evicted it
        meanwhile, it was still served from memory)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
        self.counts.add("hits")

    def put(self, key: str, artifact: OfflineArtifact) -> None:
        if getattr(artifact, "_pvi_fingerprint", None) is None:
            artifact._pvi_fingerprint = key
        self._insert(key, artifact)
        self.counts.add("stores")
        path = self._disk_path(key)
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
                self.counts.add("io_errors")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, object]:
        """The counts, plus the hit rate over all lookups."""
        view: Dict[str, object] = self.counts.snapshot()
        hits = view["hits"] + view["disk_hits"]
        lookups = hits + view["misses"]
        view["hit_rate"] = hits / lookups if lookups else 0.0
        return view

    # -- internals ----------------------------------------------------------

    def _insert(self, key: str, artifact: OfflineArtifact) -> None:
        evicted = 0
        with self._lock:
            self._entries[key] = artifact
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            self.counts.add("evictions", evicted)

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.persist_dir is None:
            return None
        index = zlib.crc32(key.encode("utf-8")) % DISK_SHARDS
        return self.persist_dir / f"shard-{index:02d}" / f"{key}.pvia"

    def _load_persisted(self, key: str) -> Optional[OfflineArtifact]:
        path = self._disk_path(key)
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
            # through the service's stats) and degrade this lookup
            # to a miss; recompilation keeps the service alive.
            self.counts.add("io_errors")
            return None
        try:
            return deserialize_artifact(raw)
        except Exception:
            # A truncated or corrupted entry degrades to a miss
            # (and a recompile overwrites it); it must never take
            # the service down.  Self-heal by deleting the entry —
            # but a deletion *failure* is an I/O problem, not more
            # corruption.
            self.counts.add("corrupt_entries")
            try:
                path.unlink(missing_ok=True)
            except OSError:
                self.counts.add("io_errors")
        return None
