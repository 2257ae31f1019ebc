"""The target registry and backend protocol.

Covers the api_redesign acceptance surface: registry mechanics and the
unified ``UnknownTargetError``, a target registered at runtime from
user code (no edits under ``src/repro/``) flowing through the
compilation service, ``compare_flows`` and the KPN mapper, the
``wasm32`` stack backend differentially verified against the VM over
every workload kernel, ``TargetDesc`` pickling across the
``ProcessPoolExecutor`` seam, cache-key separation between same-named
targets, and the guard that keeps ``repro`` internals off direct
catalog-constant imports.
"""

import concurrent.futures
import pathlib
import pickle
import re
from dataclasses import replace

import pytest

from repro.core import (
    Core, DeploymentManager, Platform, compare_flows, deploy,
    offline_compile,
)
from repro.core.online import select_bytecode
from repro.semantics import Memory, TrapError
from repro.service import (
    CompilationService, CompileRequest, SCHEMA_VERSION, ThreadExecutor,
)
from repro.service.deployment import DeploymentPool
from repro.targets import (
    ARM, WASM32, X86, Backend, CostModel, SizeModel, Simulator,
    StackImage, TargetDesc, UnknownBackendError, UnknownTargetError,
    as_target, backend_for, executor_for, get_target, register_target,
    target_names, unregister_target,
)
from repro.vm.interpreter import VM
from repro.workloads import ALL_KERNELS, TABLE1


def make_custom_target(name="rv32imv", **overrides) -> TargetDesc:
    """A RISC-V-class embedded core with the vector extension —
    defined entirely in user (test) code, never in the repro tree."""
    fields = dict(
        name=name,
        description="RISC-V RV32IMV-class embedded core",
        has_simd=True,
        int_regs=26,
        flt_regs=30,
        vec_regs=30,
        costs=CostModel(alu=1, mul=4, div=32, fp_alu=2, fp_mul=4,
                        fp_div=24, load=2, store=2, branch=1, jump=1,
                        vec_alu=1, vec_mul=2, vec_load=2, vec_store=2,
                        vec_splat=1, vec_reduce=3),
        sizes=SizeModel(fixed=4, prologue_bytes=12),
        clock_scale=0.8,
    )
    fields.update(overrides)
    return TargetDesc(**fields)


@pytest.fixture
def custom_target():
    target = register_target(make_custom_target())
    try:
        yield target
    finally:
        unregister_target(target.name)


class TestRegistryBasics:
    def test_get_and_as_target_resolve_names(self):
        assert get_target("x86") is as_target("x86")
        assert as_target(X86) is X86

    def test_as_target_passes_unregistered_descriptors_through(self):
        ad_hoc = replace(X86, name="x86k6", int_regs=6)
        assert as_target(ad_hoc) is ad_hoc

    def test_unknown_name_lists_registered(self):
        with pytest.raises(UnknownTargetError) as info:
            get_target("z80")
        assert "x86" in str(info.value)
        assert "wasm32" in str(info.value)
        assert info.value.target_name == "z80"

    def test_unknown_target_error_is_keyerror_and_valueerror(self):
        # KeyError keeps legacy `except KeyError` call sites working;
        # ValueError matches UnknownFlowError ergonomics.
        with pytest.raises(KeyError):
            as_target("z80")
        with pytest.raises(ValueError):
            as_target("z80")

    def test_duplicate_registration_rejected(self, custom_target):
        with pytest.raises(ValueError, match="already registered"):
            register_target(make_custom_target())
        # replace=True swaps the entry in place
        bigger = register_target(
            make_custom_target(int_regs=30), replace=True)
        assert get_target(custom_target.name) is bigger

    def test_register_rejects_non_descriptor(self):
        with pytest.raises(TypeError):
            register_target("x86")

    def test_register_rejects_unknown_backend(self):
        bad = make_custom_target(name="bad-backend", backend="llvm")
        with pytest.raises(UnknownBackendError, match="native"):
            register_target(bad)

    def test_backend_for_resolves_protocol_object(self):
        assert isinstance(backend_for("x86"), Backend)
        assert backend_for("wasm32").name == "stack"

    def test_cache_key_separates_same_named_targets(self):
        a = make_custom_target()
        b = make_custom_target(costs=CostModel(alu=2))
        assert a.cache_key() != b.cache_key()
        assert a.cache_key() == make_custom_target().cache_key()
        assert a.cache_key().startswith("rv32imv#")

    def test_builtin_names_present(self):
        names = target_names()
        for name in ("x86", "sparc", "ppc", "dsp", "host", "arm",
                     "wasm32"):
            assert name in names


class TestCustomTargetEndToEnd:
    """A runtime-registered target must flow through every layer with
    zero edits under src/repro/ — the acceptance criterion."""

    def test_service_deploy_by_name(self, custom_target):
        kernel = TABLE1["saxpy_fp"]
        service = CompilationService()
        try:
            result = service.submit(CompileRequest(
                source=kernel.source, name="saxpy",
                targets=["rv32imv", "x86"], flow="split"))
            assert set(result.target_names) == {"rv32imv", "x86"}
            image = result.image_for("rv32imv")
            memory = Memory()
            run = kernel.prepare(memory, 64, seed=3)
            sim = executor_for(image, memory).run(kernel.entry,
                                                  run.args)
            assert sim.cycles > 0
        finally:
            service.shutdown()

    def test_compare_flows_by_name(self, custom_target):
        kernel = TABLE1["sum_u8"]
        artifact = offline_compile(kernel.source)

        def make_args(memory):
            return kernel.prepare(memory, 128, seed=5).args

        reports = compare_flows(artifact, "rv32imv", kernel.entry,
                                make_args)
        assert {r.target for r in reports} == {"rv32imv"}
        values = {repr(r.value) for r in reports}
        assert len(values) == 1          # flows agree on the result
        # SIMD target: the split flow beats the scalar baseline
        by_flow = {r.flow: r for r in reports}
        assert by_flow["split"].cycles < by_flow["offline-only"].cycles

    def test_kpn_mapping_schedules_custom_core(self, custom_target):
        from repro.kpn import (
            deploy_actor_images, estimate_costs, greedy_map,
            simulate_makespan,
        )
        from repro.workloads.pipeline import (
            PIPELINE_SOURCE, build_pipeline,
        )

        service = CompilationService()
        try:
            artifact = service.artifact(PIPELINE_SOURCE)
            network = build_pipeline()
            platform = Platform("host + rv32imv",
                                [Core("host", 2), Core("rv32imv", 1)])
            manager = DeploymentManager(platform, service=service)
            images = manager.install(artifact)
            assert "rv32imv" in images
            costs = estimate_costs(network, images, platform)
            mapping = greedy_map(network, platform, costs)
            makespan = simulate_makespan(network, platform, mapping,
                                         costs, blocks=4)
            assert makespan > 0
            # the SIMD-hungry actors prefer the vector-capable core
            cores = platform.core_list()
            placed = {cores[i].name for i in mapping.assignment.values()}
            assert "rv32imv" in placed
            actor_images = deploy_actor_images(network, artifact,
                                               platform, mapping,
                                               service)
            for actor, core in mapping.assignment.items():
                kind = cores[core].name
                assert actor_images[actor] is images[kind]
        finally:
            service.shutdown()


class TestWasm32Differential:
    """The stack backend must agree with the VM on values and traps —
    across every workload kernel, for both bytecode flavours."""

    @pytest.mark.parametrize("kernel_name", sorted(ALL_KERNELS))
    @pytest.mark.parametrize("flow", ["split", "offline-only"])
    def test_values_match_vm(self, kernel_name, flow):
        kernel = ALL_KERNELS[kernel_name]
        artifact = offline_compile(kernel.source)
        bytecode = select_bytecode(artifact, flow)

        vm_memory = Memory()
        vm_run = kernel.prepare(vm_memory, 96, seed=11)
        vm_value = VM(bytecode, vm_memory).call(kernel.entry,
                                                vm_run.args)

        image = deploy(artifact, "wasm32", flow)
        assert isinstance(image, StackImage)
        memory = Memory()
        run = kernel.prepare(memory, 96, seed=11)
        result = executor_for(image, memory).run(kernel.entry, run.args)
        assert repr(result.value) == repr(vm_value)
        assert result.instructions > 0
        assert result.cycles == \
            result.instructions * image.dispatch_cost
        for elem_ty, addr, count in run.outputs:
            assert memory.read_array(elem_ty, addr, count) == \
                vm_memory.read_array(elem_ty, addr, count)

    @pytest.mark.parametrize("source,args,message", [
        ("int f(int a) { return 10 / a; }", [0], "division by zero"),
        ("int f(int p) { int x[4]; return x[p]; }", [1 << 20],
         "out of bounds"),
    ])
    def test_traps_match_vm(self, source, args, message):
        artifact = offline_compile(source)
        bytecode = select_bytecode(artifact, "split")
        with pytest.raises(TrapError, match=message) as vm_trap:
            VM(bytecode, Memory()).call("f", list(args))
        image = deploy(artifact, "wasm32", "split")
        with pytest.raises(TrapError, match=message) as stack_trap:
            executor_for(image, Memory()).run("f", list(args))
        assert str(stack_trap.value) == str(vm_trap.value)

    def test_vectorized_bytecode_is_cheaper_on_wasm32(self):
        # Fewer, wider instructions -> fewer interpretive dispatches:
        # the split-flow story survives the backend swap.
        kernel = TABLE1["vecadd_fp"]
        artifact = offline_compile(kernel.source)

        def make_args(memory):
            return kernel.prepare(memory, 256, seed=2).args

        reports = compare_flows(artifact, "wasm32", kernel.entry,
                                make_args,
                                flows=["offline-only", "split"])
        by_flow = {r.flow: r for r in reports}
        assert by_flow["split"].cycles < by_flow["offline-only"].cycles

    def test_unregistered_stack_target_still_gets_stack_executor(self):
        """The image names its builder backend, so executor_for must
        not fall back to the native Simulator for an ad-hoc stack
        descriptor that was never registered."""
        ad_hoc = replace(WASM32, name="wasm-fast",
                         clock_scale=2.0)
        kernel = TABLE1["sum_u8"]
        artifact = offline_compile(kernel.source)
        image = deploy(artifact, ad_hoc, "split")
        assert isinstance(image, StackImage)
        assert image.backend_name == "stack"
        memory = Memory()
        run = kernel.prepare(memory, 64, seed=4)
        result = executor_for(image, memory).run(kernel.entry, run.args)
        assert result.cycles == \
            result.instructions * image.dispatch_cost

    def test_stack_codegen_skips_regalloc(self):
        image = deploy(offline_compile(TABLE1["saxpy_fp"].source),
                       "wasm32", "split")
        assert all(f.spill_slot_count == 0
                   for f in image.functions.values())
        assert image.total_jit_analysis_work == 0
        assert image.total_code_bytes > 0

    def test_wasm32_through_service_and_kpn_mapper(self):
        """The stack backend rides the service memo and is schedulable
        next to native cores — heterogeneous in *backend*, not just
        cost model."""
        from repro.kpn import estimate_costs, greedy_map
        from repro.workloads.pipeline import (
            PIPELINE_SOURCE, build_pipeline,
        )

        service = CompilationService()
        try:
            artifact = service.artifact(PIPELINE_SOURCE)
            network = build_pipeline()
            platform = Platform("host + wasm32",
                                [Core("host", 2), Core("wasm32", 1)])
            manager = DeploymentManager(platform, service=service)
            images = manager.install(artifact)
            assert isinstance(images["wasm32"], StackImage)
            # the image memo serves the stack image like any other
            again = service.deploy(artifact, "wasm32", "split")
            assert again is images["wasm32"]
            costs = estimate_costs(network, images, platform)
            assert all(costs[(a, "wasm32")] > 0
                       for a in network.actors)
            mapping = greedy_map(network, platform, costs)
            assert set(mapping.assignment) == set(network.actors)
        finally:
            service.shutdown()


def _identity(value):
    return value


class TestPickling:
    def test_target_desc_pickle_round_trip(self):
        for target in (X86, ARM, WASM32, make_custom_target()):
            clone = pickle.loads(pickle.dumps(target))
            assert clone == target
            assert clone.cache_key() == target.cache_key()
            assert clone.backend == target.backend

    def test_target_desc_crosses_process_pool_seam(self):
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) \
                as pool:
            echoed = list(pool.map(_identity,
                                   [X86, WASM32, make_custom_target()]))
        assert echoed == [X86, WASM32, make_custom_target()]


class TestCacheKeySeparation:
    def test_same_name_different_models_get_distinct_images(self):
        artifact = offline_compile(TABLE1["sum_u8"].source)
        fast = make_custom_target(name="niche")
        slow = make_custom_target(name="niche",
                                  costs=CostModel(alu=3, load=9))
        pool = DeploymentPool(executor=ThreadExecutor(max_workers=2))
        try:
            image_fast = pool.deploy_one(artifact, fast)
            image_slow = pool.deploy_one(artifact, slow)
            assert image_fast is not image_slow
            assert pool.stats.compiles == 2
            assert pool.stats.memo_hits == 0
            # same descriptor again: memoized
            assert pool.deploy_one(artifact, fast) is image_fast
            assert pool.stats.memo_hits == 1
            keys = pool.known_keys()
            assert len({key[1] for key in keys}) == 2
            assert all(key[1].startswith(f"{SCHEMA_VERSION}:niche#")
                       for key in keys)
        finally:
            pool.shutdown()

    def test_modeled_cycles_differ_between_the_aliased_targets(self):
        kernel = TABLE1["sum_u8"]
        artifact = offline_compile(kernel.source)
        fast = make_custom_target(name="niche")
        slow = make_custom_target(name="niche",
                                  costs=CostModel(alu=3, load=9))
        cycles = {}
        for tag, target in (("fast", fast), ("slow", slow)):
            compiled = deploy(artifact, target, "split")
            memory = Memory()
            run = kernel.prepare(memory, 64, seed=9)
            cycles[tag] = executor_for(compiled, memory).run(
                kernel.entry, run.args).cycles
        assert cycles["slow"] > cycles["fast"]


class TestUnifiedErrorPaths:
    """Unknown-target failures must surface as UnknownTargetError from
    every entry point, never a raw KeyError/AttributeError mid-stack."""

    def test_deploy(self):
        artifact = offline_compile(TABLE1["sum_u8"].source)
        with pytest.raises(UnknownTargetError, match="registered"):
            deploy(artifact, "z80")

    def test_service_deploy_many_fails_before_compiling(self):
        service = CompilationService()
        try:
            artifact = service.artifact(TABLE1["sum_u8"].source)
            with pytest.raises(UnknownTargetError):
                service.deploy_many(artifact, ["x86", "z80"])
            assert service.stats().deploy_compiles == 0
        finally:
            service.shutdown()

    def test_service_submit(self):
        service = CompilationService()
        try:
            with pytest.raises(UnknownTargetError):
                service.submit(CompileRequest(
                    source=TABLE1["sum_u8"].source,
                    targets=["z80"]))
        finally:
            service.shutdown()

    def test_platform_core(self):
        with pytest.raises(UnknownTargetError):
            Core("z80", 2)

    def test_compare_flows(self):
        artifact = offline_compile(TABLE1["sum_u8"].source)
        with pytest.raises(UnknownTargetError):
            compare_flows(artifact, "z80", "sum_u8", lambda m: [])

    def test_iterative_evaluate(self):
        from repro.iterative.search import (
            default_configuration, evaluate,
        )
        with pytest.raises(UnknownTargetError):
            evaluate(TABLE1["sum_u8"], default_configuration(), "z80",
                     n=8)

    def test_compile_for_target(self):
        from repro.jit import compile_for_target
        artifact = offline_compile(TABLE1["sum_u8"].source)
        with pytest.raises(UnknownTargetError):
            compile_for_target(artifact.bytecode, "z80")


class TestNoDirectCatalogImports:
    """Guard: only targets/ itself may touch the catalog constants —
    everything else goes through the registry (the whole point of the
    redesign; a regression here reopens the hardcoded-catalog seam)."""

    BANNED = re.compile(
        r"from\s+repro\.targets\.catalog\s+import"
        r"|import\s+repro\.targets\.catalog"
        r"|from\s+repro\.targets(?:\.catalog)?\s+import[^\n]*\b"
        r"(?:X86|SPARC|PPC|DSP|HOST|ARM|TARGETS|target_by_name)\b")

    def test_no_module_outside_targets_imports_catalog_constants(self):
        src = pathlib.Path(__file__).parent.parent / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            if path.parent.name == "targets":
                continue
            if self.BANNED.search(path.read_text()):
                offenders.append(str(path.relative_to(src)))
        assert not offenders, (
            f"modules importing catalog constants directly (use the "
            f"target registry instead): {offenders}")
