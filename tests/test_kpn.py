"""KPN tests: graph structure, determinism, mapping, makespan."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Core, DeploymentManager, Platform, offline_compile
from repro.kpn import (
    NetworkRuntime, estimate_costs, greedy_map, host_only_map,
    simulate_makespan,
)
from repro.kpn.graph import ProcessNetwork
from repro.targets import DSP, HOST, X86
from repro.workloads.pipeline import PIPELINE_SOURCE, build_pipeline


@pytest.fixture(scope="module")
def artifact():
    return offline_compile(PIPELINE_SOURCE)


@pytest.fixture(scope="module")
def network():
    return build_pipeline()


def make_signal(n=192):
    return [math.sin(i * 0.21) * (1.0 + 0.4 * math.sin(i * 0.017))
            for i in range(n)]


class TestGraph:
    def test_pipeline_structure(self, network):
        assert len(network.actors) == 12
        assert set(network.input_channels()) == {"in_l", "in_r"}
        assert set(network.output_channels()) == {"out_main", "out_rms"}

    def test_topological_order_respects_edges(self, network):
        order = network.topological_order()
        position = {name: i for i, name in enumerate(order)}
        for name in network.actors:
            for pred in network.predecessors(name):
                assert position[pred] < position[name]

    def test_single_consumer_enforced(self):
        net = ProcessNetwork("bad")
        net.add_actor("a", "f", [], ["c"])
        net.add_actor("b", "g", ["c"], [])
        with pytest.raises(ValueError):
            net.add_actor("b2", "g", ["c"], [])

    def test_single_producer_enforced(self):
        net = ProcessNetwork("bad")
        net.add_actor("a", "f", [], ["c"])
        with pytest.raises(ValueError):
            net.add_actor("a2", "f", [], ["c"])

    def test_cycle_detected(self):
        net = ProcessNetwork("loop")
        net.add_actor("a", "f", ["x"], ["y"])
        net.add_actor("b", "g", ["y"], ["x"])
        with pytest.raises(ValueError):
            net.topological_order()


class TestDeterminism:
    def test_outputs_independent_of_schedule(self, artifact, network):
        runtime = NetworkRuntime(network, artifact.bytecode)
        signal = make_signal()
        reference = runtime.run({"in_l": signal, "in_r": signal})
        for seed in (1, 2, 3):
            shuffled = runtime.run({"in_l": signal, "in_r": signal},
                                   schedule_seed=seed)
            assert shuffled == reference

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_determinism_property(self, artifact, network, seed):
        runtime = NetworkRuntime(network, artifact.bytecode)
        signal = make_signal(128)
        a = runtime.run({"in_l": signal, "in_r": signal},
                        schedule_seed=seed)
        b = runtime.run({"in_l": signal, "in_r": signal},
                        schedule_seed=seed + 1)
        assert a == b

    def test_output_lengths_match_input_blocks(self, artifact, network):
        runtime = NetworkRuntime(network, artifact.bytecode)
        signal = make_signal(network.block_size * 3)
        outputs = runtime.run({"in_l": signal, "in_r": signal})
        for samples in outputs.values():
            assert len(samples) == network.block_size * 3

    def test_clipper_bounds_output(self, artifact, network):
        runtime = NetworkRuntime(network, artifact.bytecode)
        loud = [5.0] * 128
        outputs = runtime.run({"in_l": loud, "in_r": loud})
        # after clip at +-0.9 and AGC, magnitudes stay bounded
        assert all(abs(v) <= 4.0 for v in outputs["out_main"])


class TestMapping:
    @pytest.fixture(scope="class")
    def platform(self):
        return Platform("soc", [Core(HOST, 2), Core(DSP, 1), Core(X86, 1)])

    @pytest.fixture(scope="class")
    def costs(self, artifact, network, platform):
        manager = DeploymentManager(platform)
        images = manager.install(artifact)
        return estimate_costs(network, images, platform)

    def test_costs_cover_all_pairs(self, network, platform, costs):
        for actor in network.actors:
            for target in platform.kinds():
                assert (actor, target.name) in costs
                assert costs[(actor, target.name)] > 0

    def test_dsp_wins_on_elementwise_actors(self, costs):
        # the gain stage is vectorized; the DSP must beat the host
        assert costs[("gain_l", "dsp")] < costs[("gain_l", "host")]

    def test_host_only_assigns_everything_to_host(self, network,
                                                  platform):
        mapping = host_only_map(network, platform)
        cores = platform.core_list()
        assert all(cores[c].name == "host"
                   for c in mapping.assignment.values())

    def test_greedy_beats_host_only(self, network, platform, costs):
        baseline = simulate_makespan(
            network, platform, host_only_map(network, platform), costs,
            blocks=24)
        mapped = simulate_makespan(
            network, platform, greedy_map(network, platform, costs),
            costs, blocks=24)
        assert mapped < baseline

    def test_makespan_scales_with_blocks(self, network, platform, costs):
        mapping = greedy_map(network, platform, costs)
        short = simulate_makespan(network, platform, mapping, costs, 8)
        long = simulate_makespan(network, platform, mapping, costs, 32)
        assert long > short * 2.5

    def test_makespan_zero_for_zero_blocks(self, network, platform,
                                           costs):
        mapping = greedy_map(network, platform, costs)
        assert simulate_makespan(network, platform, mapping, costs,
                                 0) == 0.0


class TestDeploymentManager:
    def test_one_image_per_core_kind(self, artifact):
        platform = Platform("p", [Core(HOST, 3), Core(DSP, 2)])
        manager = DeploymentManager(platform)
        images = manager.install(artifact)
        assert set(images) == {"host", "dsp"}

    def test_hw_hint_prefers_simd_core(self, artifact):
        platform = Platform("p", [Core(HOST, 1), Core(DSP, 1)])
        manager = DeploymentManager(platform)
        manager.install(artifact)
        # 'gain' is vectorized -> wants SIMD -> should point at the DSP
        assert manager.preferred_core("gain").name == "dsp"


class TestPreferredCore:
    """Every branch of the advisory core hint, and the image lookup."""

    SOURCE = """
        float scale(float x, float k) { return x * k; }
        int count(int n) { int c = 0; while (n > 1) { n = n / 2; c++; }
                           return c; }
    """

    def manager(self, cores, install=True):
        artifact = offline_compile(self.SOURCE, "hints")
        manager = DeploymentManager(Platform("p", cores))
        if install:
            manager.install(artifact.bytecode)
        return manager, artifact

    def test_nothing_installed_no_hint(self):
        manager, _ = self.manager([Core(HOST, 1)], install=False)
        assert manager.preferred_core("scale") is None

    def test_fp_and_control_code(self):
        """No SIMD wanted: fp code goes to the fastest multiplier per
        clock, control code to the cheapest branch per clock."""
        manager, artifact = self.manager([Core(HOST, 1), Core(X86, 1)])
        assert manager.image_for("x86") is manager.installed["x86"]
        assert [c.name for c in
                Platform("p", [Core(HOST, 2)]).cores] == ["host"]
        kinds = manager.platform.kinds()
        want_fp = min(kinds, key=lambda t: t.costs.fp_mul / t.clock_scale)
        want_branch = min(kinds,
                          key=lambda t: t.costs.branch / t.clock_scale)
        assert manager.preferred_core("scale") is want_fp
        assert manager.preferred_core("count") is want_branch

    def test_unannotated_function_no_hint(self):
        manager, _ = self.manager([Core(HOST, 1)])
        manager._bytecode.annotations = [
            a for a in manager._bytecode.annotations
            if a.function != "count"]
        assert manager.preferred_core("count") is None


class TestNetworkEdges:
    def test_duplicate_names_are_refused(self):
        network = ProcessNetwork("n", block_size=4)
        network.add_actor("a", "gain", ["x"], ["y"])
        with pytest.raises(ValueError, match="duplicate actor 'a'"):
            network.add_actor("a", "gain", ["y"], ["z"])
        with pytest.raises(ValueError, match="duplicate channel 'x'"):
            network.add_channel("x")

    def test_a_channel_has_one_reader(self):
        network = ProcessNetwork("n", block_size=4)
        network.add_actor("first", "gain", ["x"], ["y"])
        with pytest.raises(ValueError, match="channel 'x' already "
                                             "consumed"):
            network.add_actor("second", "gain", ["x"], ["z"])

    def test_host_only_without_a_host_uses_core_zero(self, network):
        platform = Platform("dsp only", [Core(DSP, 2)])
        mapping = host_only_map(network, platform)
        assert set(mapping.assignment.values()) == {0}

    def test_actor_images_from_the_default_service(self, artifact,
                                                   network):
        from repro.kpn import deploy_actor_images
        platform = Platform("p", [Core(HOST, 1)])
        images = deploy_actor_images(network, artifact, platform,
                                     host_only_map(network, platform))
        assert set(images) == set(network.actors)
        assert len({id(image) for image in images.values()}) == 1
