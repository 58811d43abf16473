"""The columnar engine against its scalar reference.

``PowerEngine._resolve_phases`` resolves every phase, node and GPU in one
batched pass into a ``[phases, nodes, len(COMPONENT_KEYS)]`` means array;
:mod:`tests.runner.reference_engine` is the scalar specification.  These
tests replay both over caps, imbalance settings, phase mixes and
mixed-platform pools and require bit-for-bit equality, plus regression
coverage for the sample-count bookkeeping.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.capping.shard import clamped_cap_w
from repro.hardware.node import GpuNode
from repro.hardware.platform import get_platform
from repro.perfmodel.kernels import KernelCatalogue
from repro.runner.engine import RENDER_CHUNK_ENV, EngineConfig, PowerEngine
from repro.runner.trace import COMPONENT_KEYS, TRACE_DTYPE_ENV
from repro.vasp.phases import MacroPhase

from tests.runner import reference_engine


def phase_mix():
    return [
        MacroPhase(name="xc", duration_s=4.0, gpu_profile=KernelCatalogue.DGEMM_TEST),
        MacroPhase(name="fft", duration_s=2.5, gpu_profile=KernelCatalogue.FFT_BATCHED),
        MacroPhase(
            name="host",
            duration_s=1.0,
            gpu_profile=KernelCatalogue.HOST_SECTION,
            cpu_utilization=0.8,
        ),
        MacroPhase(
            name="comm",
            duration_s=0.7,
            gpu_profile=KernelCatalogue.NCCL_COLLECTIVE,
            nic_utilization=0.5,
        ),
    ]


def idle_phase():
    """A GPU-idle phase (zero duty cycle): the engine's ``duty <= 0`` branch."""
    return MacroPhase(name="idle", duration_s=3.0, gpu_profile=KernelCatalogue.HOST_SECTION)


def mixed_nodes():
    """An a100-40g / h100-sxm node list (both 4 GPUs per node)."""
    h100 = get_platform("h100-sxm").node
    return [
        GpuNode("nid005000"),
        GpuNode("nid005001", spec=h100),
        GpuNode("nid005002"),
        GpuNode("nid005003", spec=h100),
    ]


def assert_resolution_matches(engine, phases):
    means, nominal_s, slowdown = engine._resolve_phases(phases)
    assert means.shape == (len(phases), len(engine.nodes), len(COMPONENT_KEYS))
    assert means.dtype == np.float64
    for phase_index, phase in enumerate(phases):
        ref_means, ref_slowdown = reference_engine.resolve_phase(engine, phase)
        assert slowdown[phase_index] == ref_slowdown, phase.name
        assert nominal_s[phase_index] == phase.duration_s
        for node_index, node_ref in enumerate(ref_means):
            for row, key in enumerate(COMPONENT_KEYS):
                assert means[phase_index, node_index, row] == node_ref[key], (
                    phase.name,
                    node_index,
                    key,
                )


def assert_run_matches(monkeypatch):
    """``PowerEngine.run`` equals the reference schedule and render."""
    monkeypatch.setenv(TRACE_DTYPE_ENV, "float64")
    phases = phase_mix() + [idle_phase()]
    nodes = mixed_nodes()
    for node in nodes:
        node.set_gpu_power_limit(200.0)
    engine = PowerEngine(nodes, EngineConfig(rank_imbalance=0.1))
    result = engine.run(phases, seed=9)
    records, runtime_s, data = reference_engine.run(engine, phases, seed=9)

    assert result.phases == records
    assert result.runtime_s == runtime_s
    for trace, ref in zip(result.traces, data):
        np.testing.assert_array_equal(trace.block.data, ref)


class TestVectorizedAgainstReference:
    @pytest.mark.parametrize("cap_w", [None, 300.0, 200.0, 100.0])
    def test_caps(self, cap_w):
        phases = phase_mix() + [idle_phase()]
        for imbalance in (0.0, 0.25):
            nodes = [GpuNode("nid005000"), GpuNode("nid005001")]
            if cap_w is not None:
                for node in nodes:
                    node.set_gpu_power_limit(cap_w)
            engine = PowerEngine(nodes, EngineConfig(rank_imbalance=imbalance))
            assert_resolution_matches(engine, phases)

    @pytest.mark.parametrize("imbalance", [0.0, 0.25])
    def test_rank_imbalance(self, imbalance):
        engine = PowerEngine(
            [GpuNode(f"nid00500{i}") for i in range(4)],
            EngineConfig(rank_imbalance=imbalance),
        )
        assert_resolution_matches(engine, phase_mix())

    def test_idle_only_phase(self):
        engine = PowerEngine([GpuNode("nid005000")])
        assert_resolution_matches(engine, [idle_phase()])

    @pytest.mark.parametrize("cap_w", [None, 250.0, 150.0])
    def test_mixed_platform_pool(self, cap_w):
        nodes = mixed_nodes()
        if cap_w is not None:
            for node in nodes:
                node.set_gpu_power_limit(clamped_cap_w(cap_w, node.spec))
        for imbalance in (0.0, 0.25):
            engine = PowerEngine(nodes, EngineConfig(rank_imbalance=imbalance))
            assert_resolution_matches(engine, phase_mix() + [idle_phase()])

    def test_mixed_gpu_counts_raise(self):
        nodes = [GpuNode("nid005000"), GpuNode("nid005001")]
        nodes[1].gpus = nodes[1].gpus[:2]  # asymmetric pool
        with pytest.raises(ValueError, match="GPU counts \\[2, 4\\]"):
            PowerEngine(nodes)

    def test_end_to_end_traces_identical(self, monkeypatch):
        assert_run_matches(monkeypatch)

    def test_chunked_render_identical(self, monkeypatch):
        monkeypatch.setenv(RENDER_CHUNK_ENV, "3")
        assert_run_matches(monkeypatch)

    def test_stream_matches_reference(self, monkeypatch):
        monkeypatch.setenv(TRACE_DTYPE_ENV, "float64")
        phases = phase_mix()
        engine = PowerEngine(mixed_nodes())
        streamed = engine.stream(phases, seed=4, chunk_samples=5)
        records, runtime_s, data = reference_engine.run(engine, phases, seed=4)
        assert streamed.phases == records
        assert streamed.runtime_s == runtime_s
        assert streamed.n_samples == data[0].shape[1]
        rendered = [np.empty_like(node_data) for node_data in data]
        for chunk in streamed.chunks:
            row = COMPONENT_KEYS.index(chunk.component)
            stop = chunk.start_index + chunk.n_samples
            rendered[chunk.node_index][row, chunk.start_index : stop] = chunk.values
        for node_data, ref in zip(rendered, data):
            np.testing.assert_array_equal(node_data, ref)


#: Durations whose running sum rounds to 230 samples at 0.1 s, while
#: numpy's pairwise ``np.sum`` of the same values rounds to 229: the
#: sample total must come from the sequential running sum.
SUM_ORDER_SENSITIVE = (
    2.6, 0.3, 0.65, 0.15000000000000002, 0.2, 1.11, 0.71, 2.79, 0.42,
    1.83, 2.57, 0.75, 1.23, 2.65, 0.91, 2.48, 1.6,
)


class TestRenderTraceCounts:
    """Phase sample counts must always sum to the trace length."""

    @pytest.mark.parametrize(
        "durations",
        [
            (0.05, 0.05, 0.05),  # each phase shorter than the 0.1 s grid
            (0.26, 0.11, 0.03),  # irregular rounding
            (0.1,),  # exactly one sample
            (0.04,),  # rounds to zero samples -> clamped to one
            (3.33, 0.07, 1.99, 0.01),
            SUM_ORDER_SENSITIVE,
        ],
    )
    def test_adversarial_durations(self, durations):
        engine = PowerEngine([GpuNode("nid005000")], EngineConfig(noise_rel_sigma=0.0))
        phases = [
            MacroPhase(
                name=f"p{i}", duration_s=d, gpu_profile=KernelCatalogue.DGEMM_TEST
            )
            for i, d in enumerate(durations)
        ]
        result = engine.run(phases, seed=0)
        trace = result.traces[0]
        total = sum(p.duration_s for p in result.phases)
        expected = max(int(round(total / engine.config.base_interval_s)), 1)
        assert len(trace.times) == expected
        # Noise-free rendering is piecewise constant: the number of level
        # changes can never exceed the number of phase boundaries, so no
        # samples were lost or double-assigned.
        levels = np.flatnonzero(np.diff(trace.node_power)).size
        assert levels <= len(phases) - 1

    def test_empty_schedule_renders_zero_samples(self):
        engine = PowerEngine([GpuNode("nid005000")])
        rng = np.random.default_rng(0)
        means = np.empty((0, 1, len(COMPONENT_KEYS)))
        traces = engine._render_traces(means, np.empty(0, dtype=np.int64), rng)
        assert len(traces) == 1
        assert traces[0].times.size == 0
        assert all(v.size == 0 for v in traces[0].components.values())

    @given(
        durations=st.lists(
            st.one_of(
                st.just(0.0),
                # Sub-grid phases, many of which round to zero samples.
                st.floats(min_value=0.0, max_value=0.15, allow_nan=False),
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        dt=st.sampled_from([0.1, 0.05, 1.0, 0.3]),
    )
    @example(durations=list(SUM_ORDER_SENSITIVE), dt=0.1)
    @settings(max_examples=300, deadline=None)
    def test_counts_match_scalar_loop(self, durations, dt):
        engine = PowerEngine([GpuNode("nid005000")], EngineConfig(base_interval_s=dt))
        counts = engine._phase_sample_counts(np.array(durations))
        n_samples, ref_counts = reference_engine.phase_sample_counts(durations, dt)
        assert counts.tolist() == ref_counts
        assert int(counts.sum()) == n_samples
        assert (counts >= 0).all()
