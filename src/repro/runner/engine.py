"""The power engine: macro-phases x nodes x caps -> power traces.

For every phase the engine resolves, per GPU:

1. demand power from the phase's kernel profile (occupancy-scaled);
2. the cap response — clock fraction, sustained power, slowdown — via the
   GPU's DVFS model;
3. the duty-cycle average between active and idle power;

then assembles node-level component samples, stretches the phase by the
cap-imposed slowdown, and renders the whole schedule to a regular
0.1-second grid with AR(1) measurement/activity noise (what makes the
KDE analysis of Section III meaningful).
"""

from __future__ import annotations

import logging
import os
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.hardware.gpu import resolve_phase_batch
from repro.hardware.node import GpuNode
from repro.hardware.variability import unit_rng
from repro.perfmodel.power import demand_power_batch
from repro.vasp.phases import MacroPhase
from repro.runner.trace import (
    COMPONENT_KEYS,
    GPU_KEYS,
    PhaseRecord,
    PowerTrace,
    RunResult,
    TraceBlock,
    trace_dtype,
)

logger = logging.getLogger(__name__)

#: Environment variable selecting the render chunk size, in samples.
#: When set, ``run()`` renders through the chunked streaming path
#: (bit-identical to the whole-schedule render); streaming consumers
#: (:meth:`PowerEngine.stream`) use it as their default chunk size.
RENDER_CHUNK_ENV = "REPRO_RENDER_CHUNK"

#: Default chunk size for streaming consumers when the env is unset.
DEFAULT_STREAM_CHUNK = 16_384


def render_chunk_samples() -> int | None:
    """Chunk size from ``REPRO_RENDER_CHUNK`` (None = whole-schedule)."""
    raw = os.environ.get(RENDER_CHUNK_ENV)
    if raw is None or raw.strip() == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        logger.warning("ignoring invalid %s=%r", RENDER_CHUNK_ENV, raw)
        return None
    if value < 1:
        logger.warning("ignoring non-positive %s=%r", RENDER_CHUNK_ENV, raw)
        return None
    return value


def import_render_modules() -> None:
    """Import the render path's ``scipy.signal`` (~1 s) in this process.

    The engine imports it at first render, so commands that never render
    skip the cost.  Call this before forking render workers: forked
    children then inherit the module instead of each importing it.
    """
    import scipy.signal  # noqa: F401


@dataclass(frozen=True)
class EngineConfig:
    """Engine tunables.

    ``base_interval_s`` is the ground-truth resolution (the paper measured
    at 0.1 s for the Fig 2 study); ``noise_rel_sigma`` the relative AR(1)
    noise on dynamic power; ``noise_ar_coeff`` its lag-1 correlation.
    """

    base_interval_s: float = 0.1
    noise_rel_sigma: float = 0.03
    noise_ar_coeff: float = 0.85
    noise_floor_w: float = 1.5
    #: Relative per-rank work skew.  The paper's benchmarks were
    #: "meticulously designed to ensure load balancing among MPI tasks"
    #: (Section III-A); setting this above zero models what they avoided:
    #: loaded ranks run longer while the rest idle-wait, stretching the
    #: phase and widening the node-power distribution.
    rank_imbalance: float = 0.0

    def __post_init__(self) -> None:
        if self.base_interval_s <= 0:
            raise ValueError(f"base_interval_s must be positive, got {self.base_interval_s}")
        if not 0.0 <= self.noise_ar_coeff < 1.0:
            raise ValueError(f"noise_ar_coeff must be in [0, 1), got {self.noise_ar_coeff}")
        if self.noise_rel_sigma < 0:
            raise ValueError(f"noise_rel_sigma must be >= 0, got {self.noise_rel_sigma}")
        if not 0.0 <= self.rank_imbalance < 1.0:
            raise ValueError(
                f"rank_imbalance must be in [0, 1), got {self.rank_imbalance}"
            )


@dataclass(frozen=True)
class TraceChunk:
    """One fixed-size slice of one node component's rendered series."""

    node_name: str
    node_index: int
    component: str
    #: Sample offset of this chunk within the schedule's regular grid.
    start_index: int
    times: np.ndarray
    values: np.ndarray

    @property
    def n_samples(self) -> int:
        """Samples in this chunk."""
        return len(self.values)


@dataclass
class StreamedRun:
    """A resolved schedule whose render arrives as a chunk stream.

    ``chunks`` is a single-pass iterator over :class:`TraceChunk` records
    in (node, component, time) order — every component of
    :data:`~repro.runner.trace.COMPONENT_KEYS` is rendered (the RNG
    stream must advance identically to the whole-schedule render), so
    consumers filter for the components they aggregate.
    """

    label: str
    phases: list[PhaseRecord]
    runtime_s: float
    gpu_power_cap_w: float
    n_nodes: int
    n_samples: int
    base_interval_s: float
    chunk_samples: int
    chunks: Iterator[TraceChunk]


class PowerEngine:
    """Runs phase sequences on a fixed set of nodes.

    A resolved schedule stays columnar from the cap resolve to the noise
    render: one ``[phases, nodes, len(COMPONENT_KEYS)]`` float64 ``means``
    array plus per-phase sample counts on the regular grid.
    """

    def __init__(self, nodes: list[GpuNode], config: EngineConfig | None = None) -> None:
        if not nodes:
            raise ValueError("engine needs at least one node")
        gpu_counts = sorted({len(node.gpus) for node in nodes})
        if gpu_counts != [len(GPU_KEYS)]:
            raise ValueError(
                f"engine nodes must each carry {len(GPU_KEYS)} GPUs (the trace "
                f"schema's {', '.join(GPU_KEYS)}), got GPU counts {gpu_counts}"
            )
        self.nodes = nodes
        self.config = config if config is not None else EngineConfig()

    # ------------------------------------------------------------------
    def _rank_skew(self, gpu_serial: str) -> float:
        """Deterministic per-rank work skew in [0, rank_imbalance]."""
        if self.config.rank_imbalance <= 0.0:
            return 0.0
        return float(
            unit_rng(gpu_serial, "imbalance").uniform(0.0, self.config.rank_imbalance)
        )

    def _resolve_phases(
        self, phases: list[MacroPhase]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cap-resolve all phases on all nodes x GPUs with array ops.

        Returns ``(means, nominal_s, slowdown)``: ``means`` is the
        ``[phases, nodes, len(COMPONENT_KEYS)]`` mean power of every node
        component during each phase; ``nominal_s`` and ``slowdown`` are
        per-phase ``[phases]`` arrays (the phase runs for
        ``nominal_s * slowdown`` once capped).
        """
        obs.inc("repro_engine_resolve_total", len(phases), path="vectorized")
        nodes = self.nodes

        # Per-phase inputs, shape [P] (broadcast against GPUs as [P, 1, 1]).
        duty = np.array([p.gpu_profile.duty_cycle for p in phases])
        uc = np.array([p.gpu_profile.compute_utilization for p in phases])
        um = np.array([p.gpu_profile.memory_utilization for p in phases])
        cf = np.array([p.gpu_profile.compute_fraction for p in phases])
        duty_b = duty[:, None, None]

        # Per-GPU model state, shape [N, G].
        per_node = [node.gpu_state_arrays() for node in nodes]
        state = {
            key: np.stack([arrays[key] for arrays in per_node])
            for key in per_node[0]
        }
        skews = np.array(
            [[self._rank_skew(gpu.serial) for gpu in node.gpus] for node in nodes]
        )
        max_skew = float(skews.max())

        demand = demand_power_batch(
            uc[:, None, None],
            um[:, None, None],
            state["tdp_w"][None],
            state["idle_env_w"][None],
        )
        biased, _frac, slow = resolve_phase_batch(
            demand,
            cf[:, None, None],
            state["cap_w"][None],
            static_w=state["static_w"][None],
            idle_env_w=state["idle_env_w"][None],
            cap_min_w=state["cap_min_w"][None],
            cap_max_w=state["cap_max_w"][None],
            power_factor=state["power_factor"][None],
            idle_offset_w=state["idle_offset_w"][None],
            min_clock_fraction=state["min_clock_fraction"][None],
            control_margin=state["control_margin"][None],
            regulation_error_max=state["regulation_error_max"][None],
            regulation_error_exponent=state["regulation_error_exponent"][None],
        )

        # Load imbalance: rank i holds (1 + skew_i) of the nominal work;
        # the phase runs at the most-loaded rank's pace while the others
        # idle-wait, diluting their duty cycle.
        idle_w = state["idle_w"][None]
        rank_duty = np.minimum(duty_b * (1.0 + skews[None]) / (1.0 + max_skew), 1.0)
        gpu_means = rank_duty * biased + (1.0 - rank_duty) * idle_w
        gpu_means = np.where(duty_b <= 0.0, idle_w, gpu_means)

        # Ranks synchronize: each phase runs at the slowest GPU's pace.
        slow_terms = (duty_b * slow + (1.0 - duty_b)) * (1.0 + max_skew)
        slowdown = np.maximum(slow_terms.max(axis=(1, 2)), 1.0)
        slowdown = np.where(duty <= 0.0, 1.0, slowdown)

        # Host-side components, shape [P, N].  Summation order matches
        # NodePowerSample.node_w: GPUs from 0.0 in index order, then
        # cpu + gpus + memory + nic + baseboard.
        cpu_u = np.array([p.cpu_utilization for p in phases])
        mem_u = np.array([p.mem_bw_utilization for p in phases])
        nic_u = np.array([p.nic_utilization for p in phases])
        host = [node.host_power_batch(cpu_u, mem_u, nic_u) for node in nodes]
        cpu_w, memory_w, nic_w = (np.stack(parts, axis=1) for parts in zip(*host))
        gpu_total = 0.0
        for gpu_index in range(len(GPU_KEYS)):
            gpu_total = gpu_total + gpu_means[:, :, gpu_index]
        baseboard_w = np.array([node.baseboard_power_w for node in nodes])
        columns = {
            "cpu": cpu_w,
            "memory": memory_w,
            "node": cpu_w + gpu_total + memory_w + nic_w + baseboard_w,
        }
        for gpu_index, key in enumerate(GPU_KEYS):
            columns[key] = gpu_means[:, :, gpu_index]
        means = np.stack([columns[key] for key in COMPONENT_KEYS], axis=-1)
        nominal_s = np.array([p.duration_s for p in phases], dtype=float)
        return means, nominal_s, slowdown

    def _phase_sample_counts(self, durations: np.ndarray) -> np.ndarray:
        """Per-phase sample counts on the regular grid.

        ``durations`` are the laid-out phase wall times (``end - start``).
        Phase ``i`` ends at sample ``rint(sum(durations[:i + 1]) / dt)``
        (half to even, as ``round()``); counts are the differences of
        those boundaries.  A schedule always renders at least one
        sample: a total that rounds to zero puts one on the final phase.
        """
        upto = np.rint(np.cumsum(durations) / self.config.base_interval_s)
        counts = np.diff(upto.astype(np.int64), prepend=0)
        if upto[-1] == 0:
            counts[-1] = 1
        return counts

    def _render_traces(
        self,
        means: np.ndarray,
        counts: np.ndarray,
        rng: np.random.Generator,
        chunk_samples: int | None = None,
    ) -> list[PowerTrace]:
        """Render a resolved ``[P, N, C]`` schedule onto the sample grid.

        ``counts`` holds each phase's samples (see
        :meth:`_phase_sample_counts`).  The output is columnar: one
        ``(n_components, n_samples)`` block per node.  With
        ``chunk_samples`` set, rows are filled through the chunked path
        (bit-identical; see :meth:`_iter_component_chunks`).
        """
        dt = self.config.base_interval_s
        dtype = trace_dtype()
        n_samples = int(counts.sum())
        times = (np.arange(n_samples) + 0.5) * dt

        blocks = [
            TraceBlock(
                node_name=node.name,
                times=times,
                data=np.empty((len(COMPONENT_KEYS), n_samples), dtype=dtype),
                base_interval_s=dt,
            )
            for node in self.nodes
        ]
        if chunk_samples is None:
            for node_index, block in enumerate(blocks):
                for row in range(len(COMPONENT_KEYS)):
                    block.data[row] = self._add_noise(
                        np.repeat(means[:, node_index, row], counts), rng
                    )
        else:
            for node_index, row, start, values in self._iter_component_chunks(
                means, counts, rng, chunk_samples
            ):
                blocks[node_index].data[row, start : start + len(values)] = values
        return [PowerTrace.from_block(block) for block in blocks]

    def _iter_component_chunks(
        self,
        means: np.ndarray,
        counts: np.ndarray,
        rng: np.random.Generator,
        chunk_samples: int,
    ) -> Iterator[tuple[int, int, int, np.ndarray]]:
        """Yield ``(node_index, row, start, values)`` fixed-size chunks.

        ``row`` indexes :data:`~repro.runner.trace.COMPONENT_KEYS`.
        Bit-identical to the whole-schedule render: chunks are emitted in
        the same (node, component, time) order the whole render consumes
        the RNG stream in, and the AR(1) filter state is carried across
        chunk boundaries via ``lfilter``'s ``zi``/``zf`` so a chunked
        series equals its unchunked counterpart sample for sample.  Peak
        working memory is O(chunk), not O(schedule).
        """
        if chunk_samples < 1:
            raise ValueError(f"chunk_samples must be >= 1, got {chunk_samples}")
        n_samples = int(counts.sum())
        edges = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        for node_index in range(means.shape[1]):
            for row in range(len(COMPONENT_KEYS)):
                levels = means[:, node_index, row]
                zi = np.zeros(1)
                for start in range(0, n_samples, chunk_samples):
                    stop = min(start + chunk_samples, n_samples)
                    # Phase segments overlapping [start, stop).
                    i0 = int(np.searchsorted(edges, start, side="right")) - 1
                    i1 = int(np.searchsorted(edges, stop, side="left"))
                    seg_counts = (
                        np.minimum(edges[i0 + 1 : i1 + 1], stop)
                        - np.maximum(edges[i0:i1], start)
                    )
                    values, zi = self._add_noise_chunk(
                        np.repeat(levels[i0:i1], seg_counts), rng, zi
                    )
                    obs.inc("repro_engine_chunks_total")
                    yield node_index, row, start, values

    def _add_noise(self, means: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """AR(1) noise proportional to the signal's dynamic range."""
        values, _zi = self._add_noise_chunk(means, rng, np.zeros(1))
        return values

    def _add_noise_chunk(
        self, means: np.ndarray, rng: np.random.Generator, zi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One noise chunk plus the AR(1) filter state to carry forward.

        ``zi`` is the direct-form filter state from the previous chunk of
        the same series (zeros at series start); threading it through
        ``lfilter`` makes chunked rendering bit-identical to filtering the
        whole series at once.
        """
        from scipy.signal import lfilter  # deferred: see import_render_modules

        cfg = self.config
        if cfg.noise_rel_sigma == 0.0 or len(means) == 0:
            return means.astype(float), zi
        sigma = cfg.noise_rel_sigma * means + cfg.noise_floor_w
        white = rng.standard_normal(len(means)) * sigma
        # AR(1) filter: y[t] = a*y[t-1] + e[t]; normalize stationary variance.
        ar, zf = lfilter([1.0], [1.0, -cfg.noise_ar_coeff], white, zi=zi)
        ar *= np.sqrt(1.0 - cfg.noise_ar_coeff**2)
        return np.maximum(means + ar, 0.0), zf

    # ------------------------------------------------------------------
    def run(
        self,
        phases: list[MacroPhase],
        label: str = "run",
        seed: int = 0,
    ) -> RunResult:
        """Execute a phase sequence and return traces plus the schedule.

        GPU power caps are whatever is currently set on the engine's nodes
        (``GpuNode.set_gpu_power_limit``), mirroring how the paper applied
        ``nvidia-smi -pl`` before launching jobs.
        """
        if not phases:
            raise ValueError("cannot run an empty phase list")
        obs.inc("repro_engine_runs_total")
        with obs.span(
            "engine.run", label=label, phases=len(phases), nodes=len(self.nodes)
        ):
            return self._run_instrumented(phases, label, seed)

    def _resolve_and_layout(
        self, phases: list[MacroPhase]
    ) -> tuple[np.ndarray, np.ndarray, list[PhaseRecord], float]:
        """Cap-resolve phases and lay them out on the wall clock.

        Returns ``(means, counts, records, runtime_s)``: the ``[P, N, C]``
        resolved means, per-phase sample counts, the phase schedule and
        its total wall time.  Phases run back to back, so each one ends at
        the running sum of the capped durations.
        """
        with obs.span(
            "engine.resolve_phases", phases=len(phases), nodes=len(self.nodes)
        ):
            means, nominal_s, slowdown = self._resolve_phases(phases)
        ends = np.cumsum(nominal_s * slowdown)
        starts = np.concatenate([[0.0], ends[:-1]])
        # Sample counts follow the laid-out durations ``end - start``, which
        # can differ from ``nominal_s * slowdown`` in the last bit.
        counts = self._phase_sample_counts(ends - starts)
        records = [
            PhaseRecord(
                name=phase.name,
                start_s=start,
                end_s=end,
                nominal_duration_s=phase.duration_s,
                slowdown=factor,
            )
            for phase, start, end, factor in zip(
                phases, starts.tolist(), ends.tolist(), slowdown.tolist()
            )
        ]
        return means, counts, records, float(ends[-1])

    def _run_instrumented(
        self, phases: list[MacroPhase], label: str, seed: int
    ) -> RunResult:
        rng = np.random.default_rng(seed)
        means, counts, records, runtime_s = self._resolve_and_layout(phases)
        with obs.span(
            "engine.render_traces", phases=len(records), nodes=len(self.nodes)
        ) as render_span:
            traces = self._render_traces(
                means, counts, rng, chunk_samples=render_chunk_samples()
            )
            render_span.annotate(samples=int(traces[0].times.size))
        return RunResult(
            label=label,
            traces=traces,
            phases=records,
            runtime_s=runtime_s,
            gpu_power_cap_w=self.nodes[0].gpu_power_limit_w,
        )

    # ------------------------------------------------------------------
    def stream(
        self,
        phases: list[MacroPhase],
        label: str = "run",
        seed: int = 0,
        chunk_samples: int | None = None,
        on_chunk: (
            "Callable[[TraceChunk], None]"
            " | Sequence[Callable[[TraceChunk], None]] | None"
        ) = None,
    ) -> "StreamedRun":
        """Resolve a schedule and stream its render in fixed-size chunks.

        Returns a :class:`StreamedRun` whose ``chunks`` iterator yields
        :class:`TraceChunk` records in (node, component, time) order; the
        concatenation of one series' chunks is bit-identical to the trace
        :meth:`run` renders for the same seed.  Peak render memory is
        O(chunk) instead of O(schedule) — nothing is retained between
        chunks, which is what lets fleet-scale consumers aggregate
        thousands of node traces in bounded memory.

        ``on_chunk`` is an observer tap — one callable or a sequence of
        callables (shard workers stack a monitor probe on top of their
        partial builder): each sees every chunk (all components, not
        just the ones the consumer keeps) before the consumer does, in
        the given order.  Taps must not mutate chunk arrays — the render
        is oblivious to them, which is what keeps monitored runs
        bit-identical to unmonitored ones.
        """
        if not phases:
            raise ValueError("cannot run an empty phase list")
        if on_chunk is None:
            taps: tuple = ()
        elif callable(on_chunk):
            taps = (on_chunk,)
        else:
            taps = tuple(on_chunk)
        if chunk_samples is None:
            chunk_samples = render_chunk_samples() or DEFAULT_STREAM_CHUNK
        obs.inc("repro_engine_streams_total")
        rng = np.random.default_rng(seed)
        means, counts, records, runtime_s = self._resolve_and_layout(phases)
        dt = self.config.base_interval_s
        dtype = trace_dtype()

        def generate() -> Iterator[TraceChunk]:
            for node_index, row, start, values in self._iter_component_chunks(
                means, counts, rng, chunk_samples
            ):
                stop = start + len(values)
                chunk = TraceChunk(
                    node_name=self.nodes[node_index].name,
                    node_index=node_index,
                    component=COMPONENT_KEYS[row],
                    start_index=start,
                    times=(np.arange(start, stop) + 0.5) * dt,
                    values=values.astype(dtype),
                )
                for tap in taps:
                    tap(chunk)
                yield chunk

        return StreamedRun(
            label=label,
            phases=records,
            runtime_s=runtime_s,
            gpu_power_cap_w=self.nodes[0].gpu_power_limit_w,
            n_nodes=len(self.nodes),
            n_samples=int(counts.sum()),
            base_interval_s=dt,
            chunk_samples=chunk_samples,
            chunks=generate(),
        )
