"""Unit tests for the compilation service (cache, deployment, stats)."""

from __future__ import annotations

import json
import pathlib
import sys
import threading
import time
from concurrent.futures import Future

import pytest

from repro.bytecode.varint import read_bytes
from repro.core import deploy, offline_compile
from repro.core.offline import OfflineArtifact
from repro.semantics import Memory
from repro.service import (
    ArtifactCache, CompilationService, CompileRequest, artifact_key,
    canonical_options, deserialize_artifact, serialize_artifact,
)
from repro.service.cache import ARTIFACT_MAGIC, artifact_fingerprint
from repro.service.singleflight import SingleFlight, run_settled
from repro.targets import Simulator, X86
from repro.targets.catalog import TARGETS
from repro.vm import threaded
from repro.workloads import TABLE1

SAXPY = TABLE1["saxpy_fp"].source
SUM_U8 = TABLE1["sum_u8"].source
ALL_TARGETS = list(TARGETS.values())


@pytest.fixture
def service():
    svc = CompilationService(cache_capacity=8)
    yield svc
    svc.shutdown()


# ---------------------------------------------------------------------------
# cache keys
# ---------------------------------------------------------------------------

class TestCacheKey:
    def test_key_is_stable(self):
        assert artifact_key(SAXPY) == artifact_key(SAXPY)

    def test_explicit_defaults_hash_like_implicit(self):
        assert artifact_key(SAXPY) == artifact_key(
            SAXPY, options={"optimize": True, "do_vectorize": True})

    def test_source_changes_key(self):
        assert artifact_key(SAXPY) != artifact_key(SUM_U8)

    def test_name_changes_key(self):
        assert artifact_key(SAXPY, "a") != artifact_key(SAXPY, "b")

    def test_options_change_key(self):
        assert artifact_key(SAXPY) != \
            artifact_key(SAXPY, options={"do_vectorize": False})

    def test_hotness_is_order_insensitive(self):
        assert artifact_key(SAXPY, options={"hotness": {"a": 1, "b": 2}}) \
            == artifact_key(SAXPY, options={"hotness": {"b": 2, "a": 1}})

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown offline option"):
            canonical_options({"opt_level": 3})

    def test_fingerprint_distinguishes_artifacts(self):
        a = offline_compile(SAXPY)
        b = offline_compile(SUM_U8)
        assert artifact_fingerprint(a) != artifact_fingerprint(b)


# ---------------------------------------------------------------------------
# LRU + stats
# ---------------------------------------------------------------------------

class TestLRU:
    def make(self, name: str) -> OfflineArtifact:
        return offline_compile(SAXPY, name, do_vectorize=False,
                               optimize=False)

    def test_eviction_drops_least_recent(self):
        # shards=1: strict global LRU ordering is the property under
        # test (sharded recency is per-shard by design)
        cache = ArtifactCache(capacity=2, shards=1)
        for key in ("k1", "k2", "k3"):
            cache.put(key, self.make(key))
        assert "k1" not in cache
        assert "k2" in cache and "k3" in cache
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = ArtifactCache(capacity=2, shards=1)
        cache.put("k1", self.make("k1"))
        cache.put("k2", self.make("k2"))
        assert cache.get("k1") is not None     # k2 is now least recent
        cache.put("k3", self.make("k3"))
        assert "k1" in cache and "k2" not in cache

    def test_stats_counters(self):
        cache = ArtifactCache(capacity=2)
        assert cache.get("missing") is None
        cache.put("k1", self.make("k1"))
        assert cache.get("k1") is not None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ArtifactCache(capacity=0)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

class TestPersistence:
    def test_serialize_roundtrip_preserves_everything(self):
        artifact = offline_compile(SAXPY, "persisted",
                                   hotness={"saxpy": 9})
        revived = deserialize_artifact(serialize_artifact(artifact))
        assert revived.name == artifact.name
        assert revived.offline_work == artifact.offline_work
        assert revived.vectorized_functions == \
            artifact.vectorized_functions
        assert serialize_artifact(revived) == serialize_artifact(artifact)

    def test_facts_tables_persist_with_the_artifact(self):
        """The tables tier-2 consumes ride the bytecode, so a revived
        artifact has them where the original does: its annotations
        are equal, and warming the revived module computes none."""
        artifact = offline_compile(SAXPY, "facts")
        revived = deserialize_artifact(serialize_artifact(artifact))
        assert revived.bytecode.annotations == \
            artifact.bytecode.annotations
        assert revived.scalar_bytecode.annotations == []
        threaded.reset_tier2_build_stats()
        threaded.warm_bytecode_module(revived.bytecode)
        stats = threaded.tier2_build_stats()
        assert stats["warm"] > 0 and stats["facts_warm"] == 0

    def test_warm_start_counts_facts_warm(self, tmp_path):
        """A second service over the same persist dir revives the
        artifact from disk and builds tier-2 with no table computed
        (``facts_warm`` counts computed tables: zero).  The entry
        itself carries no analysis result beside the bytecode."""
        cold = CompilationService(cache_capacity=4,
                                  persist_dir=tmp_path)
        try:
            cold.compile(SAXPY, "w")
        finally:
            cold.shutdown()
        entry = next(tmp_path.rglob("*.pvia")).read_bytes()
        meta_raw, _ = read_bytes(entry, len(ARTIFACT_MAGIC))
        assert "facts" not in json.loads(meta_raw)
        warm = CompilationService(cache_capacity=4,
                                  persist_dir=tmp_path)
        try:
            outcome = warm.compile(SAXPY, "w")
            assert warm.stats().artifact_disk_hits == 1
            threaded.reset_tier2_build_stats()
            threaded.warm_bytecode_module(outcome.artifact.bytecode)
            stats = threaded.tier2_build_stats()
            assert stats["warm"] > 0 and stats["facts_warm"] == 0
        finally:
            warm.shutdown()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="bad magic"):
            deserialize_artifact(b"NOPE" + b"\x00" * 16)

    def test_corrupt_disk_entry_degrades_to_miss(self, tmp_path):
        svc = CompilationService(cache_capacity=1, persist_dir=tmp_path)
        try:
            svc.compile(SAXPY, "one")
            entry = next(tmp_path.rglob("*.pvia"))
            entry.write_bytes(entry.read_bytes()[:40])   # truncate
            svc.cache.clear()
            outcome = svc.compile(SAXPY, "one")          # must recompile
            assert not outcome.cache_hit
            assert svc.cache.stats.corrupt_entries == 1
            # the recompile re-persisted a healthy entry
            svc.cache.clear()
            assert svc.compile(SAXPY, "one").cache_hit
        finally:
            svc.shutdown()

    def test_unreadable_entry_is_io_error_not_corruption(
            self, tmp_path, monkeypatch):
        """A persist entry that cannot be *read* (permissions, I/O)
        says nothing about its content: it must degrade to a miss,
        count as an ``io_error`` — never as corruption — and must not
        be self-heal-deleted (the bytes may be perfectly fine)."""
        svc = CompilationService(cache_capacity=1, persist_dir=tmp_path)
        try:
            svc.compile(SAXPY, "one")
            entry = next(tmp_path.rglob("*.pvia"))
            svc.cache.clear()
            # Tests run as root, so chmod(0o000) would not deny the
            # read; fail it at the Path layer instead.
            monkeypatch.setattr(
                pathlib.Path, "read_bytes",
                lambda self: (_ for _ in ()).throw(
                    PermissionError(13, "denied", str(self))))
            outcome = svc.compile(SAXPY, "one")     # recompiles
            assert not outcome.cache_hit
            stats = svc.cache.stats
            assert stats.io_errors >= 1
            assert stats.corrupt_entries == 0
            assert entry.exists(), "read failure must not unlink"
            # surfaced through the service snapshot too
            snapshot = svc.stats()
            assert snapshot.artifact_io_errors == stats.io_errors
            assert snapshot.as_dict()["artifact"]["io_errors"] == \
                stats.io_errors
        finally:
            svc.shutdown()

    def test_read_only_persist_dir_does_not_miss_loop(
            self, tmp_path, monkeypatch):
        """An unwritable persist dir must not fail the compile, and —
        since the in-memory store still works — repeated compiles must
        be cache hits, not a silent recompile loop."""
        monkeypatch.setattr(
            pathlib.Path, "write_bytes",
            lambda self, data: (_ for _ in ()).throw(
                PermissionError(13, "denied", str(self))))
        svc = CompilationService(cache_capacity=4, persist_dir=tmp_path)
        try:
            first = svc.compile(SAXPY, "ro")
            assert not first.cache_hit
            assert svc.cache.stats.io_errors >= 1
            assert svc.cache.stats.corrupt_entries == 0
            # the failed persist left the in-memory entry intact
            for _ in range(3):
                assert svc.compile(SAXPY, "ro").cache_hit
            assert svc.cache.stats.misses == 1
        finally:
            svc.shutdown()

    def test_disk_revival_after_eviction(self, tmp_path):
        svc = CompilationService(cache_capacity=1, persist_dir=tmp_path)
        try:
            svc.compile(SAXPY, "one")
            svc.compile(SUM_U8, "two")     # evicts "one" from memory
            outcome = svc.compile(SAXPY, "one")
            assert outcome.cache_hit
            assert svc.cache.stats.disk_hits == 1
            # the revived artifact deploys identically to a fresh one
            fresh = deploy(offline_compile(SAXPY, "one"), X86, "split")
            revived = svc.deploy(outcome.artifact, X86, "split")
            assert [repr(i) for i in revived["saxpy"].code] == \
                [repr(i) for i in fresh["saxpy"].code]
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# the service facade
# ---------------------------------------------------------------------------

class TestService:
    def test_repeat_compile_hits_cache(self, service):
        first = service.compile(SAXPY)
        second = service.compile(SAXPY)
        assert not first.cache_hit and second.cache_hit
        assert first.artifact is second.artifact

    def test_deploy_memoizes_per_target_and_flow(self, service):
        artifact = service.artifact(SAXPY)
        split = service.deploy(artifact, X86, "split")
        assert service.deploy(artifact, X86, "split") is split
        assert service.deploy(artifact, X86, "offline-only") is not split
        stats = service.stats()
        assert stats.deploy_compiles == 2
        assert stats.deploy_memo_hits == 1

    def test_deploy_through_core_online(self, service):
        artifact = service.artifact(SAXPY)
        a = deploy(artifact, X86, "split", service=service)
        b = deploy(artifact, X86, "split", service=service)
        assert a is b
        # without a service every deploy is a fresh JIT
        assert deploy(artifact, X86, "split") is not a

    def test_unknown_flow_rejected(self, service):
        artifact = service.artifact(SAXPY)
        with pytest.raises(ValueError, match="unknown flow"):
            service.deploy_many(artifact, ALL_TARGETS, "hybrid")

    def test_submit_reports_hits_and_latency(self, service):
        request = CompileRequest(source=SAXPY, name="m",
                                 targets=ALL_TARGETS, flow="split")
        first = service.submit(request)
        second = service.submit(request)
        assert not first.artifact_cache_hit and not first.fully_cached
        assert second.artifact_cache_hit and second.fully_cached
        assert sorted(first.target_names) == sorted(TARGETS)
        assert first.total_latency > 0
        assert all(d.latency > 0 for d in first.deployments.values())
        assert all(d.memo_hit for d in second.deployments.values())

    def test_submit_batch(self, service):
        results = service.submit_batch([
            CompileRequest(source=SAXPY, name="m", targets=[X86]),
            CompileRequest(source=SAXPY, name="m", targets=[X86]),
        ])
        assert len(results) == 2
        assert results[1].fully_cached


# ---------------------------------------------------------------------------
# the single-flight helper
# ---------------------------------------------------------------------------

class _Memo:
    """A caller-side memo plus counted hooks, as both users have."""

    def __init__(self):
        self.values = {}
        self.peeks = 0
        self.works = []             # one pending Future per start()

    def fly(self, flights, key):
        def peek():
            self.peeks += 1
            return self.values.get(key)

        def start():
            self.works.append(Future())
            return self.works[-1]

        def store(value):
            self.values[key] = value

        return flights.fly(key, peek, start, store)


class TestSingleFlight:
    def test_joiner_sees_the_winners_exception(self):
        flights, memo = SingleFlight(), _Memo()
        winner, joined = memo.fly(flights, "k")
        assert not joined
        joiner, joined = memo.fly(flights, "k")
        assert joined and joiner is winner
        assert len(memo.works) == 1
        boom = MemoryError("work failed")
        memo.works[0].set_exception(boom)
        assert winner.exception(timeout=1) is boom
        with pytest.raises(MemoryError):
            joiner.result(timeout=1)

    def test_failed_key_is_rerunnable(self):
        flights, memo = SingleFlight(), _Memo()
        first, _ = memo.fly(flights, "k")
        memo.works[0].set_exception(MemoryError("transient"))
        assert first.exception(timeout=1) is not None
        assert "k" not in memo.values            # never cached
        retry, joined = memo.fly(flights, "k")
        assert not joined and retry is not first
        memo.works[1].set_result("image")
        assert retry.result(timeout=1) == "image"
        assert memo.values == {"k": "image"}     # stored on landing

    def test_rejected_start_settles_and_releases(self):
        flights = SingleFlight()

        def rejected():
            raise RuntimeError("executor shut down")

        future, joined = flights.fly("k", lambda: None, rejected,
                                     lambda value: None)
        assert not joined
        assert isinstance(future.exception(timeout=1), RuntimeError)
        again, joined = flights.fly(
            "k", lambda: None, lambda: run_settled(lambda: 7),
            lambda value: None)
        assert not joined and again.result(timeout=1) == 7

    def test_lost_race_costs_a_peek_not_a_rerun(self):
        """A caller that missed the memo just before the previous
        winner stored and released wins the slot — and must find the
        value by re-checking, not run the work again."""
        flights, memo = SingleFlight(), _Memo()
        memo.values["k"] = "stored meanwhile"
        future, joined = memo.fly(flights, "k")
        assert joined
        assert future.result(timeout=1) == "stored meanwhile"
        assert memo.peeks == 1 and memo.works == []
        # the slot was released: a later miss flies normally
        del memo.values["k"]
        _, joined = memo.fly(flights, "k")
        assert not joined and len(memo.works) == 1

    def test_stress_each_key_runs_once(self):
        """More threads than cores, a short switch interval, every
        thread walking every key through memo-miss -> fly: a lost
        update in the helper shows up as a key whose work ran twice
        or a caller holding a different value."""
        flights = SingleFlight()
        memo, memo_lock = {}, threading.Lock()
        runs, seen = [], []
        keys = list(range(40))

        def lookup(key):
            with memo_lock:
                return memo.get(key)

        def store(key, value):
            with memo_lock:
                memo[key] = value

        def work(key):
            runs.append(key)
            time.sleep(0.0005)
            return object()

        def worker():
            for key in keys:
                value = lookup(key)
                if value is None:
                    value = flights.fly(
                        key, lambda: lookup(key),
                        lambda: run_settled(work, key),
                        lambda value: store(key, value),
                    )[0].result(timeout=10)
                seen.append((key, value))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker)
                       for _ in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(runs) == keys
        assert len(seen) == 16 * len(keys)
        assert all(value is memo[key] for key, value in seen)


# ---------------------------------------------------------------------------
# latency accounting for coalesced requests
# ---------------------------------------------------------------------------

class TestCoalescedWait:
    def test_joiners_add_wait_not_compile_latency(self, monkeypatch):
        """N requests coalescing onto one in-flight compile must leave
        the offline latency total at ~one compile's worth; the
        joiners' wall clock lands in ``coalesced_wait`` instead."""
        import repro.service as service_mod
        real = service_mod.offline_compile
        svc = CompilationService(cache_capacity=4)
        joiners = 4

        def slow(source, name="module", **options):
            # Hold the compile open until every joiner has actually
            # joined the in-flight future, so each one's measured
            # latency covers a real wait.
            deadline = time.monotonic() + 5.0
            while svc._coalesced < joiners and \
                    time.monotonic() < deadline:
                time.sleep(0.002)
            return real(source, name, **options)

        monkeypatch.setattr(service_mod, "offline_compile", slow)
        try:
            outcomes = []
            barrier = threading.Barrier(joiners + 1)

            def worker():
                barrier.wait()
                outcomes.append(svc.compile(SAXPY, "herd"))

            threads = [threading.Thread(target=worker)
                       for _ in range(joiners + 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = svc.stats()
            assert stats.coalesced_requests == joiners
            assert sum(1 for o in outcomes if not o.cache_hit) == 1
            # every joiner waited for (most of) the compile, so the
            # wait bucket dwarfs the single compile charged to the
            # offline total
            assert stats.total_coalesced_wait > \
                stats.total_offline_latency
            assert stats.as_dict()["latency"]["coalesced_wait_s"] == \
                stats.total_coalesced_wait
        finally:
            svc.shutdown()

    def test_fully_memoized_submit_charges_wait(self, service):
        """A repeat submit whose every target rides the deployment
        memo did no JIT work: its fan-out wall clock belongs to
        ``coalesced_wait``, not the deploy latency total."""
        request = CompileRequest(source=SAXPY, name="m",
                                 targets=[X86], flow="split")
        service.submit(request)
        before = service.stats()
        second = service.submit(request)
        assert second.fully_cached
        after = service.stats()
        assert after.total_deploy_latency == before.total_deploy_latency
        assert after.total_coalesced_wait > before.total_coalesced_wait


# ---------------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------------

class TestConcurrentDeployment:
    def _simulate(self, compiled, n=64, seed=7):
        kernel = TABLE1["saxpy_fp"]
        memory = Memory(1 << 21)
        run = kernel.prepare(memory, n, seed)
        result = Simulator(compiled, memory).run(kernel.entry, run.args)
        outputs = [memory.read_array(t, addr, count)
                   for t, addr, count in run.outputs]
        return repr(result.value), [repr(o) for o in outputs], \
            result.cycles

    def test_concurrent_matches_serial_deploy(self, service):
        """The fan-out must be an optimization, not a semantic change."""
        artifact = service.artifact(SAXPY)
        concurrent = service.deploy_many(artifact, ALL_TARGETS, "split")
        for target in ALL_TARGETS:
            serial = deploy(artifact, target, "split")
            image = concurrent[target.name]
            assert [repr(i) for i in image["saxpy"].code] == \
                [repr(i) for i in serial["saxpy"].code]
            assert self._simulate(image) == self._simulate(serial)

    def test_duplicate_targets_compile_once(self, service):
        artifact = service.artifact(SAXPY)
        catalog = [X86, X86, X86]
        images = service.deploy_many(artifact, catalog, "split")
        assert len(images) == 1
        assert service.stats().deploy_compiles == 1

    def test_same_name_different_target_not_aliased(self, service):
        """Memo keys cover the whole TargetDesc, not just its name."""
        from dataclasses import replace
        artifact = service.artifact(SAXPY)
        full = service.deploy(artifact, X86, "split")
        squeezed = service.deploy(artifact, replace(X86, int_regs=4),
                                  "split")
        assert squeezed is not full
        assert service.stats().deploy_compiles == 2
        assert squeezed["saxpy"].spill_slot_count > \
            full["saxpy"].spill_slot_count

    def test_failed_compile_is_not_poisoned(self, service):
        """A raising deploy must not stick in the memo forever."""
        artifact = service.artifact(SAXPY)
        original = service.pool._compile
        calls = []

        def flaky(artifact, target, flow):
            calls.append(flow)
            if len(calls) == 1:
                raise MemoryError("transient")
            return original(artifact, target, flow)

        service.pool._compile = flaky
        with pytest.raises(MemoryError):
            service.deploy(artifact, X86, "split")
        assert service.pool.cached_image(artifact, X86, "split") is None
        image = service.deploy(artifact, X86, "split")   # retried
        assert image["saxpy"].code
        assert len(calls) == 2

    def test_image_memo_is_bounded(self):
        from repro.service import DeploymentPool
        pool = DeploymentPool(max_images=2)
        try:
            artifact = offline_compile(SAXPY)
            for target in ALL_TARGETS[:4]:
                pool.deploy_one(artifact, target, "split")
            assert len(pool.known_keys()) <= 2
            assert pool.stats.evictions >= 2
        finally:
            pool.shutdown()

    def test_racing_threads_share_one_image(self, service):
        artifact = service.artifact(SAXPY)
        images = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            images.append(service.deploy(artifact, X86, "split"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(images) == 8
        assert all(image is images[0] for image in images)
        assert service.stats().deploy_compiles == 1


# ---------------------------------------------------------------------------
# sharded cache
# ---------------------------------------------------------------------------

class TestShardedCache:
    def make(self, name: str) -> OfflineArtifact:
        return offline_compile(SAXPY, name, do_vectorize=False,
                               optimize=False)

    def test_routing_is_deterministic_and_total(self):
        cache = ArtifactCache(capacity=16, shards=4)
        keys = [artifact_key(SAXPY, f"k{i}") for i in range(32)]
        for key in keys:
            assert cache._shard_for(key) is cache._shard_for(key)
        owners = {id(cache._shard_for(key)) for key in keys}
        assert len(owners) > 1, "sha256 keys must spread over shards"

    def test_capacity_is_divided_across_shards(self):
        cache = ArtifactCache(capacity=8, shards=4)
        assert cache.shard_count == 4
        assert all(shard.capacity == 2 for shard in cache._shards)

    def test_aggregated_stats_sum_shards(self):
        cache = ArtifactCache(capacity=8, shards=4)
        artifact = self.make("a")
        keys = [artifact_key(SAXPY, f"k{i}") for i in range(8)]
        for key in keys:
            cache.put(key, artifact)
        # an unlucky hash spread may overflow one 2-entry shard; the
        # survivors must all be served, the evicted ones are misses
        present = [key for key in keys if key in cache]
        assert present, "at least some keys must survive"
        for key in present:
            assert cache.get(key) is not None
        assert cache.get("missing-key") is None
        stats = cache.stats
        assert stats.stores == 8
        assert stats.hits == len(present)
        assert stats.misses == 1
        assert stats.evictions == 8 - len(present)
        per_shard = cache.shard_stats()
        assert len(per_shard) == 4
        assert sum(s.stores for s in per_shard) == stats.stores
        assert sum(s.hits for s in per_shard) == stats.hits

    def test_shard_disk_dirs_and_legacy_fallback(self, tmp_path):
        sharded = ArtifactCache(capacity=4, shards=4,
                                persist_dir=tmp_path)
        key = artifact_key(SAXPY, "persisted")
        sharded.put(key, offline_compile(SAXPY, "persisted"))
        shard_files = list(tmp_path.rglob("*.pvia"))
        assert len(shard_files) == 1
        assert shard_files[0].parent.name.startswith("shard-")
        # a fresh cache (new process, same dir) revives from its shard
        revived = ArtifactCache(capacity=4, shards=4,
                                persist_dir=tmp_path)
        assert revived.get(key) is not None
        assert revived.stats.disk_hits == 1


class TestConcurrentEvictionRaces:
    """Satellite: hammer a tiny sharded cache from 8 threads and
    prove no lost updates, no compile work beyond dedup misses, and
    disk-entry self-healing."""

    def test_no_lost_updates_under_eviction_pressure(self, tmp_path):
        cache = ArtifactCache(capacity=2, shards=2,
                              persist_dir=tmp_path)
        artifacts = {f"w{i}": offline_compile(SAXPY, f"w{i}",
                                              optimize=False,
                                              do_vectorize=False)
                     for i in range(6)}
        keys = {name: artifact_key(SAXPY, name)
                for name in artifacts}
        rounds = 30
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed):
            try:
                barrier.wait()
                names = list(artifacts)
                for i in range(rounds):
                    name = names[(seed + i) % len(names)]
                    cache.put(keys[name], artifacts[name])
                    got = cache.get(keys[name])
                    # eviction may race the get; a miss is legal,
                    # a *wrong* artifact never is
                    if got is not None and got.name != name:
                        errors.append((name, got.name))
            except Exception as exc:            # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        # in-memory cache is over capacity by at most nothing; every
        # entry remains reachable through its disk shard (no lost
        # updates even for evicted keys)
        assert len(cache) <= 2 * cache.shard_count
        for name, key in keys.items():
            revived = cache.get(key)
            assert revived is not None and revived.name == name
        stats = cache.stats
        assert stats.stores == 8 * rounds
        assert stats.corrupt_entries == 0

    def test_disk_entries_self_heal_after_corruption(self, tmp_path):
        svc = CompilationService(cache_capacity=2, cache_shards=2,
                                 persist_dir=tmp_path,
                                 executor="inline")
        try:
            for i in range(4):
                svc.compile(SAXPY, f"m{i}")
            paths = sorted(tmp_path.rglob("*.pvia"))
            assert len(paths) == 4
            for path in paths:
                path.write_bytes(path.read_bytes()[:32])  # truncate all
            svc.cache.clear()
            for i in range(4):
                outcome = svc.compile(SAXPY, f"m{i}")    # recompiles
                assert not outcome.cache_hit
            assert svc.cache.stats.corrupt_entries == 4
            # the recompiles re-persisted healthy entries
            svc.cache.clear()
            for i in range(4):
                assert svc.compile(SAXPY, f"m{i}").cache_hit
        finally:
            svc.shutdown()

    def test_no_double_compile_beyond_dedup_misses(self):
        """8 threads racing the same request: the offline in-flight
        dedup and the pool's future dedup must keep actual compiles
        at one each."""
        svc = CompilationService(cache_capacity=4)
        try:
            barrier = threading.Barrier(8)
            results = []
            errors = []

            def worker():
                try:
                    barrier.wait()
                    results.append(svc.submit(CompileRequest(
                        source=SAXPY, name="raced", targets=[X86])))
                except Exception as exc:        # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker)
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            assert len(results) == 8
            stats = svc.stats()
            # one offline compile total: 7 threads joined in flight
            # (coalesced) or hit the cache afterwards
            assert stats.artifact_stores == 1
            # one JIT total for the single (artifact, target, flow)
            assert stats.deploy_compiles == 1
            images = {id(r.image_for("x86")) for r in results}
            assert len(images) == 1, "all callers must share one image"
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# encapsulation guard
# ---------------------------------------------------------------------------

class TestServiceEncapsulationGuard:
    """Satellite: nothing outside ``repro.service`` may reach into the
    cache's or pool's synchronization internals — the sharding and
    executor redesign is only safe while every consumer stays behind
    the public surface."""

    import re as _re
    BANNED = _re.compile(
        r"\.(?:cache|pool)\._\w+"               # svc.cache._lock, ...
        r"|ArtifactCache\._\w+"
        r"|DeploymentPool\._\w+"
        r"|_CacheShard\b")

    def test_no_service_internal_access_outside_package(self):
        import pathlib
        root = pathlib.Path(__file__).parent.parent
        offenders = []
        for base in (root / "src" / "repro", root / "examples",
                     root / "benchmarks"):
            for path in sorted(base.rglob("*.py")):
                if "service" in path.parts and path.match(
                        "*/repro/service/*"):
                    continue
                if self.BANNED.search(path.read_text()):
                    offenders.append(str(path.relative_to(root)))
        assert not offenders, (
            f"modules reaching into repro.service internals (use the "
            f"public cache/pool/stats surface): {offenders}")
