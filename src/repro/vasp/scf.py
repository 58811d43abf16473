"""SCF phase generation: method + algorithm -> macro-phase sequence.

This module is the heart of the workload model.  Given the computational
parameters of a run (plane waves, bands, k-points, method, algorithm) and
a parallel layout, it emits the sequence of :class:`MacroPhase` objects
whose power profile and duration reproduce VASP's behaviour:

* **Davidson (ALGO=Normal)** iterations mix bandwidth-bound batched FFTs,
  projector work and compute-bound subspace GEMMs; the GEMM share grows
  with NBANDS, which is why large silicon supercells approach GPU TDP
  (Fig 6) while small RMM workloads stay far below it.
* **RMM-DIIS (ALGO=VeryFast)** avoids most subspace GEMMs — FFT-heavy,
  memory-bound, hence low power *and* insensitivity to power caps.
* **HSE (LHFCALC)** adds the exact-exchange phase: long, well-batched,
  compute-bound streams over occupied x all band pairs.  It dominates
  runtime and draws near-TDP power — the paper's hottest workloads.
* **ACFDT/RPA (ALGO=ACFDTR)** runs a DFT ground state, then a *host-side*
  exact diagonalization (not GPU-ported in VASP 6.4.1 — the flat CPU
  section in Fig 3), then compute-bound polarizability GEMM sweeps.

Occupancy and duty-cycle scaling follow DESIGN.md section 4: utilization
saturates with simultaneously-batched work (``NPLWV x batch``), and the
GPU's duty cycle saturates with resident local work (``bands_per_rank x
NPLWV``), degraded by k-point churn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.perfmodel.kernels import GpuKernelProfile, KernelCatalogue
from repro.perfmodel.dvfs import occupancy
from repro.perfmodel.roofline import RooflineModel
from repro.vasp.methods import Algorithm, Functional
from repro.vasp.parallel import CommunicationModel, ParallelConfig
from repro.vasp.phases import MacroPhase


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the execution-cost model.

    The defaults are calibrated (see ``tests/test_calibration.py``) so the
    seven Table I benchmarks land inside the paper's published power
    ranges.  They are exposed so ablation benches can perturb them.
    """

    # --- occupancy (utilization saturation with batched work) ---
    occupancy_w_half: float = 1.6e6
    occupancy_hill: float = 1.5
    # Subspace GEMMs are B x P_loc panels: tensor-core efficiency is set
    # by the band count (the skinny dimension), not the plane-wave count.
    subspace_bands_half: float = 1400.0
    subspace_bands_hill: float = 1.5
    # Projector application is a (16 x n_ions)-wide GEMM; its skinny
    # dimension is the projector count.
    projector_count_half: float = 3000.0
    # Effective simultaneously-batched band count per kernel class.
    batch_fft: float = 8.0
    batch_subspace: float = 16.0
    batch_exchange: float = 24.0
    batch_projector: float = 8.0

    # --- duty cycle (fraction of wall time with kernels resident) ---
    # Work per launch saturates at duty_band_sat local bands: beyond that,
    # extra bands lengthen the run but cannot fill inter-launch gaps
    # further -- which is why power barely moves with concurrency until
    # bands per GPU get very small (Section IV-C).
    duty_w_half: float = 3.5e5
    duty_band_sat: float = 32.0
    duty_kpoint_churn: float = 0.05  # per extra sequential k-point
    duty_exchange: float = 0.97  # exchange streams without host round-trips

    # --- per-iteration kernel volumes ---
    fft_passes: dict[str, float] | None = None  # algo name -> FFT passes/band
    # Bytes per FFT pass per grid point: 3 1-D passes x read+write x
    # transposes; the orbital update streams the grid ~12x per pass.
    fft_bytes_redundancy: float = 12.0
    subspace_gemm_scale: dict[str, float] | None = None  # algo -> GEMM weight
    projector_flops_per_ion: float = 16.0
    # FFT round trips per exchange pair per iteration.
    exchange_pair_scale: float = 6.0
    # Exchange throughput collapses for small batched FFTs (launch latency
    # and transposes dominate): achieved rate ~ occupancy ** this power.
    exchange_eff_size_power: float = 8.0
    # --- achieved fraction of the roofline-ideal rate, per kernel class ---
    # (launch overheads, unfused ops; exchange is FFT work counted in
    # flops, so its fraction of the tensor-core peak is low even though
    # the GPU is fully busy -- that is precisely why it is hot AND slow).
    time_eff_exchange: float = 0.04
    # Batched-FFT throughput rises steeply with batch occupancy (small
    # grids are launch-latency bound, large batched grids stream HBM):
    # eff = clip(fft_eff_max * s**fft_eff_size_power, fft_eff_floor, 1).
    fft_eff_max: float = 0.1667
    fft_eff_size_power: float = 1.0
    fft_eff_floor: float = 0.0067
    time_eff_subspace: float = 0.20
    time_eff_projector: float = 0.1667
    time_eff_rpa: float = 0.50
    rpa_freq_points: int = 16
    # FFT round trips per (occupied x virtual) pair per frequency point in
    # the chi0 construction.
    rpa_pair_scale: float = 2.0
    batch_rpa: float = 48.0
    time_eff_rpa_fft: float = 0.04
    host_diag_flops_scale: float = 10.0  # ~10 n^3 flops for a ZHEEVD
    cpu_effective_flops: float = 1.47e11  # Milan socket, effective

    # --- communication ---
    density_collectives_per_iter: float = 2.0
    interleaved_comm_fraction: float = 0.5
    # Share of the per-iteration host/sync overhead that interleaves with
    # the compute phases (band-block logic, MPI waits): it dilutes GPU
    # duty as per-rank compute shrinks, producing the power droop at poor
    # parallel efficiency (Figs 5, 8).
    interleaved_overhead_fraction: float = 0.5

    # --- fixed overheads ---
    # Host-side density mixing / onsite terms per HSE iteration (the low
    # power mode of Fig 2); parallelized across nodes.
    hse_mixing_s: float = 8.0
    startup_s: float = 20.0
    finalize_s: float = 10.0
    iter_host_overhead_s: float = 1.5

    def fft_passes_for(self, algo: Algorithm) -> float:
        """FFT passes per band per iteration for an algorithm."""
        table = self.fft_passes or {
            Algorithm.NORMAL.value: 24.0,
            Algorithm.VERYFAST.value: 24.0,
            Algorithm.FAST.value: 24.0,
            Algorithm.DAMPED.value: 64.0,
            Algorithm.ALL.value: 10.0,
            Algorithm.EXACT.value: 2.0,
            Algorithm.ACFDTR.value: 8.0,
        }
        return table[algo.value]

    def subspace_scale_for(self, algo: Algorithm) -> float:
        """Relative weight of subspace GEMMs for an algorithm."""
        table = self.subspace_gemm_scale or {
            # Davidson's Rayleigh-Ritz works in a 2B subspace and
            # re-orthonormalizes: ~16x the single-rotation volume.
            Algorithm.NORMAL.value: 16.0,
            Algorithm.VERYFAST.value: 0.08,
            Algorithm.FAST.value: 0.4,
            Algorithm.DAMPED.value: 0.6,
            Algorithm.ALL.value: 8.0,
            Algorithm.EXACT.value: 32.0,
            Algorithm.ACFDTR.value: 16.0,
        }
        return table[algo.value]


DEFAULT_COSTS = CostModel()


@dataclass(frozen=True)
class WorkloadSpec:
    """Computational parameters of one VASP run (method + problem size)."""

    name: str
    functional: Functional
    algo: Algorithm
    nplwv: int
    nbands: int
    nelect: float
    n_ions: int
    irreducible_kpoints: int = 1
    kpar: int = 1
    nelm: int = 60
    nelmdl: int = 0
    nsim: int = 4
    nbandsexact: int | None = None

    def __post_init__(self) -> None:
        if self.nplwv < 1 or self.nbands < 1 or self.n_ions < 1:
            raise ValueError("nplwv, nbands and n_ions must be positive")
        if self.nelect <= 0:
            raise ValueError(f"nelect must be positive, got {self.nelect}")
        if self.irreducible_kpoints < 1:
            raise ValueError("irreducible_kpoints must be >= 1")
        if self.kpar > self.irreducible_kpoints:
            raise ValueError(
                f"KPAR={self.kpar} exceeds {self.irreducible_kpoints} irreducible k-points"
            )
        if self.nelm < 1:
            raise ValueError(f"nelm must be >= 1, got {self.nelm}")

    @property
    def n_occupied(self) -> float:
        """Occupied bands (NELECT / 2 for non-spin-polarized runs)."""
        return self.nelect / 2.0

    def kpoints_per_group(self) -> int:
        """Sequential k-points per KPAR group."""
        return math.ceil(self.irreducible_kpoints / self.kpar)


# ----------------------------------------------------------------------
# Phase construction helpers
# ----------------------------------------------------------------------


class ScfPhaseBuilder:
    """Builds the macro-phase sequence for one (spec, parallel) pair."""

    def __init__(
        self,
        spec: WorkloadSpec,
        parallel: ParallelConfig,
        comm: CommunicationModel | None = None,
        costs: CostModel = DEFAULT_COSTS,
    ) -> None:
        if parallel.kpar != spec.kpar:
            parallel = ParallelConfig(
                n_nodes=parallel.n_nodes,
                gpus_per_node=parallel.gpus_per_node,
                kpar=spec.kpar,
            )
        self.spec = spec
        self.parallel = parallel
        self.comm = comm if comm is not None else CommunicationModel()
        self.costs = costs
        self.roofline = RooflineModel()
        self.ranks_per_kgroup = parallel.ranks_per_kgroup
        self.bands_per_rank = parallel.bands_per_rank(spec.nbands)
        self.k_seq = spec.kpoints_per_group()

    # -- occupancy / duty -------------------------------------------------
    def _occupancy(self, batch: float) -> float:
        return float(
            occupancy(
                self.spec.nplwv * batch,
                w_half=self.costs.occupancy_w_half,
                hill=self.costs.occupancy_hill,
            )
        )

    def _duty(self) -> float:
        """Duty cycle from per-launch work and k-point churn."""
        costs = self.costs
        band_factor = min(self.bands_per_rank, costs.duty_band_sat) / costs.duty_band_sat
        work = self.spec.nplwv * costs.batch_fft * band_factor
        duty_work = work / (work + costs.duty_w_half)
        churn = 1.0 / (1.0 + costs.duty_kpoint_churn * (self.k_seq - 1))
        return duty_work * churn

    def _scaled_profile(
        self,
        base: GpuKernelProfile,
        batch: float,
        duty: float | None = None,
        occupancy_override: float | None = None,
    ) -> GpuKernelProfile:
        s = self._occupancy(batch) if occupancy_override is None else occupancy_override
        prof = base.scaled(s)
        return replace(prof, duty_cycle=self._duty() if duty is None else duty)

    def _fft_time_efficiency(self) -> float:
        """Achieved fraction of ideal bandwidth for the batched FFTs."""
        c = self.costs
        s = self._occupancy(c.batch_fft)
        return float(min(max(c.fft_eff_max * s**c.fft_eff_size_power, c.fft_eff_floor), 1.0))

    def _projector_occupancy(self) -> float:
        """Occupancy of the projector GEMM (skinny dim: 16 x n_ions)."""
        return float(
            occupancy(
                16.0 * self.spec.n_ions,
                w_half=self.costs.projector_count_half,
                hill=self.costs.subspace_bands_hill,
            )
        )

    def _subspace_occupancy(self) -> float:
        """Occupancy of the B x P_loc subspace GEMM panels.

        Tensor-core efficiency of a tall-skinny GEMM is governed by the
        skinny (band) dimension; this is what keeps a 640-band workload
        far below TDP while a 5,000+-band supercell approaches it (Fig 6).
        """
        return float(
            occupancy(
                float(self.spec.nbands),
                w_half=self.costs.subspace_bands_half,
                hill=self.costs.subspace_bands_hill,
            )
        )

    # -- kernel volumes (per rank, per SCF iteration, over k_seq points) --
    def _fft_volume(self, passes: float) -> tuple[float, float]:
        """(flops, bytes) per rank for the FFT-dominated orbital work."""
        spec, costs = self.spec, self.costs
        bands = self.bands_per_rank
        per_band_flops = 5.0 * spec.nplwv * math.log2(max(spec.nplwv, 2))
        flops = passes * bands * per_band_flops * self.k_seq
        bytes_moved = (
            passes * bands * spec.nplwv * 16.0 * costs.fft_bytes_redundancy * self.k_seq
        )
        return flops, bytes_moved

    def _projector_volume(self) -> tuple[float, float]:
        """(flops, bytes) per rank for the nonlocal projector work.

        Each local band takes inner products with ~``projector_flops_per_ion``
        projectors per ion over the plane-wave sphere.
        """
        spec, costs = self.spec, self.costs
        pw_sphere = spec.nplwv / 8.0
        flops = (
            2.0
            * self.bands_per_rank
            * costs.projector_flops_per_ion
            * spec.n_ions
            * pw_sphere
            * self.k_seq
        )
        # Projector application streams the local wavefunctions twice.
        bytes_moved = 2.0 * self.bands_per_rank * pw_sphere * 16.0 * self.k_seq
        return flops, bytes_moved

    def _subspace_volume(self, scale: float) -> tuple[float, float]:
        """(flops, bytes) per rank for subspace GEMMs + rotation."""
        spec = self.spec
        pw_sphere = spec.nplwv / 8.0
        # Two B x P_loc x B GEMMs (overlap + rotation); P is split across
        # ranks, B is global.
        flops = scale * 4.0 * spec.nbands**2 * (pw_sphere / self.ranks_per_kgroup) * self.k_seq
        bytes_moved = (
            scale
            * 16.0
            * (2.0 * spec.nbands * pw_sphere / self.ranks_per_kgroup + spec.nbands**2)
            * self.k_seq
        )
        return flops, bytes_moved

    def _exchange_volume(self) -> tuple[float, float]:
        """(flops, bytes) per rank for the exact-exchange phase.

        Exchange pairs every occupied orbital with every *local* band; each
        pair costs an FFT-sized convolution.
        """
        spec, costs = self.spec, self.costs
        per_pair = 5.0 * spec.nplwv * math.log2(max(spec.nplwv, 2)) + 6.0 * spec.nplwv
        flops = (
            costs.exchange_pair_scale
            * spec.n_occupied
            * self.bands_per_rank
            * per_pair
            * self.k_seq
        )
        bytes_moved = flops / 40.0  # exchange is strongly compute-bound
        return flops, bytes_moved

    # -- phase assembly ----------------------------------------------------
    def _gpu_phase(
        self,
        name: str,
        base_profile: GpuKernelProfile,
        batch: float,
        flops: float,
        bytes_moved: float,
        *,
        duty: float | None = None,
        time_efficiency: float = 1.0,
        occupancy_override: float | None = None,
        cpu_utilization: float = 0.06,
        mem_bw_utilization: float = 0.07,
    ) -> MacroPhase:
        if not 0.0 < time_efficiency <= 1.0:
            raise ValueError(f"time_efficiency must be in (0, 1], got {time_efficiency}")
        profile = self._scaled_profile(base_profile, batch, duty, occupancy_override)
        kernel_time = self.roofline.kernel_time_s(flops, bytes_moved, profile)
        wall = kernel_time / time_efficiency / max(profile.duty_cycle, 1e-3)
        return MacroPhase(
            name=name,
            duration_s=float(wall),
            gpu_profile=profile,
            cpu_utilization=cpu_utilization,
            mem_bw_utilization=mem_bw_utilization,
        )

    def _fft_phase(self, passes: float, name: str = "orbital_update_fft") -> MacroPhase:
        """The batched-FFT orbital work of ``passes`` passes per band."""
        fft_flops, fft_bytes = self._fft_volume(passes)
        return self._gpu_phase(
            name,
            KernelCatalogue.FFT_BATCHED,
            self.costs.batch_fft,
            fft_flops,
            fft_bytes,
            time_efficiency=self._fft_time_efficiency(),
        )

    def _comm_time_per_iter(self) -> float:
        """NCCL time per SCF iteration (density + subspace collectives)."""
        spec, costs = self.spec, self.costs
        ranks = self.ranks_per_kgroup
        n_nodes = self.parallel.n_nodes
        density_bytes = spec.nplwv * 16.0
        subspace_bytes = min(spec.nbands**2 * 16.0, 2.0e9)
        t = costs.density_collectives_per_iter * self.comm.allreduce_time_s(
            density_bytes, ranks, n_nodes
        )
        t += self.comm.allreduce_time_s(subspace_bytes, ranks, n_nodes)
        if spec.functional is Functional.HSE:
            # Exchange redistributes occupied orbitals among ranks.
            exx_bytes = spec.n_occupied * spec.nplwv * 16.0 / max(ranks, 1)
            t += self.comm.alltoall_time_s(exx_bytes, ranks, n_nodes)
        if spec.kpar > 1:
            # KPAR groups reduce the density across groups once per iter.
            t += self.comm.allreduce_time_s(
                density_bytes, self.parallel.total_ranks, n_nodes
            )
        return t * self.k_seq if spec.functional is Functional.HSE else t

    def _comm_phase(self, duration_s: float, name: str = "scf_comm") -> MacroPhase:
        return MacroPhase(
            name=name,
            duration_s=duration_s,
            gpu_profile=KernelCatalogue.NCCL_COLLECTIVE,
            cpu_utilization=0.12,
            mem_bw_utilization=0.10,
            nic_utilization=0.6 if self.parallel.n_nodes > 1 else 0.05,
        )

    def _blend_comm(self, phases: list[MacroPhase], comm_s: float) -> list[MacroPhase]:
        """Fold interleaved communication time into compute phases.

        A share of per-iteration communication overlaps the compute phases
        (fine-grained collectives between band blocks).  It extends the
        wall time and dilutes the duty cycle — the mechanism behind the
        power droop at poor parallel efficiency (Figs 5 and 8).
        """
        if comm_s <= 0 or not phases:
            return phases
        total = sum(p.duration_s for p in phases)
        if total <= 0:
            return phases
        blended = []
        for phase in phases:
            share = phase.duration_s / total
            extra = comm_s * share
            new_duration = phase.duration_s + extra
            dilution = phase.duration_s / new_duration
            profile = replace(
                phase.gpu_profile,
                duty_cycle=phase.gpu_profile.duty_cycle * dilution,
            )
            blended.append(
                replace(phase, duration_s=new_duration, gpu_profile=profile)
            )
        return blended

    def _iteration_comm_split(self) -> tuple[float, float]:
        """Per-iteration comm + host overhead: (blended into compute, separate)."""
        costs = self.costs
        comm_s = self._comm_time_per_iter()
        overhead_s = costs.iter_host_overhead_s
        blended = (
            comm_s * costs.interleaved_comm_fraction
            + overhead_s * costs.interleaved_overhead_fraction
        )
        separate = (
            comm_s * (1.0 - costs.interleaved_comm_fraction)
            + overhead_s * (1.0 - costs.interleaved_overhead_fraction)
        )
        return blended, separate

    # -- per-iteration recipes ---------------------------------------------
    def _dft_iteration(self, algo: Algorithm) -> list[MacroPhase]:
        costs = self.costs
        proj_flops, proj_bytes = self._projector_volume()
        sub_flops, sub_bytes = self._subspace_volume(costs.subspace_scale_for(algo))
        phases = [
            self._fft_phase(costs.fft_passes_for(algo)),
            self._gpu_phase(
                "projector",
                KernelCatalogue.PROJECTOR,
                costs.batch_projector,
                proj_flops,
                proj_bytes,
                time_efficiency=costs.time_eff_projector,
                occupancy_override=self._projector_occupancy(),
                mem_bw_utilization=0.10,
            ),
            self._gpu_phase(
                "subspace_diag",
                KernelCatalogue.SUBSPACE
                if algo in (Algorithm.VERYFAST, Algorithm.FAST)
                else KernelCatalogue.GEMM_FP64_TC,
                costs.batch_subspace,
                sub_flops,
                sub_bytes,
                time_efficiency=costs.time_eff_subspace,
                occupancy_override=self._subspace_occupancy(),
            ),
        ]
        blended, separate = self._iteration_comm_split()
        phases = self._blend_comm(phases, blended)
        phases.append(self._comm_phase(separate))
        return phases

    def _hse_iteration(self) -> list[MacroPhase]:
        costs = self.costs
        exx_flops, exx_bytes = self._exchange_volume()
        sub_flops, sub_bytes = self._subspace_volume(
            costs.subspace_scale_for(self.spec.algo)
        )
        phases = [
            self._gpu_phase(
                "exact_exchange",
                GpuKernelProfile(
                    name="exact_exchange",
                    compute_utilization=0.95,
                    memory_utilization=0.55,
                    compute_fraction=0.52,
                ),
                costs.batch_exchange,
                exx_flops,
                exx_bytes,
                duty=costs.duty_exchange,
                time_efficiency=costs.time_eff_exchange
                * self._occupancy(costs.batch_exchange)
                ** costs.exchange_eff_size_power,
            ),
            self._fft_phase(costs.fft_passes_for(self.spec.algo)),
            self._gpu_phase(
                "subspace_diag",
                KernelCatalogue.SUBSPACE,
                costs.batch_subspace,
                sub_flops,
                sub_bytes,
                time_efficiency=costs.time_eff_subspace,
                occupancy_override=self._subspace_occupancy(),
            ),
        ]
        blended, separate = self._iteration_comm_split()
        phases = self._blend_comm(phases, blended)
        phases.append(
            MacroPhase(
                name="density_mixing",
                duration_s=costs.hse_mixing_s / self.parallel.n_nodes + separate,
                gpu_profile=replace(
                    KernelCatalogue.NCCL_COLLECTIVE, duty_cycle=0.3
                ),
                cpu_utilization=0.20,
                mem_bw_utilization=0.18,
            )
        )
        return phases

    def _acfdtr_phases(self) -> list[MacroPhase]:
        """The RPA pipeline: DFT ground state, host diag, chi0 sweeps."""
        spec, costs = self.spec, self.costs
        phases: list[MacroPhase] = []
        # 1. DFT ground state (Davidson), a reduced NELM.
        gs_iters = max(8, spec.nelm // 2)
        phases.extend(self._dft_iteration(Algorithm.NORMAL) * gs_iters)
        # 2. Exact diagonalization on the host (not GPU-ported in 6.4.1).
        n_exact = spec.nbandsexact if spec.nbandsexact is not None else spec.nbands * 8
        diag_flops = costs.host_diag_flops_scale * float(n_exact) ** 3
        host_time = diag_flops / costs.cpu_effective_flops / self.parallel.n_nodes
        phases.append(
            MacroPhase(
                name="exact_diag_host",
                duration_s=host_time,
                gpu_profile=KernelCatalogue.HOST_SECTION,
                cpu_utilization=0.85,
                mem_bw_utilization=0.55,
            )
        )
        # 3. RPA polarizability: frequency-point sweeps of huge GEMMs
        #    alternating with FFT reconstructions.
        chi_profile = GpuKernelProfile(
            name="rpa_chi0_gemm",
            compute_utilization=0.95,
            memory_utilization=0.55,
            compute_fraction=0.60,
        )
        per_pair = 5.0 * spec.nplwv * math.log2(max(spec.nplwv, 2))
        chi_flops = (
            costs.rpa_pair_scale * spec.n_occupied * float(n_exact) * per_pair
            / self.ranks_per_kgroup
        )
        freq_point = [
            self._gpu_phase(
                "rpa_chi0_gemm",
                chi_profile,
                costs.batch_rpa,
                chi_flops,
                chi_flops / 40.0,
                duty=costs.duty_exchange,
                time_efficiency=costs.time_eff_rpa_fft,
                cpu_utilization=0.12,
            ),
            self._fft_phase(2.0, "rpa_fft"),
            self._comm_phase(self._comm_time_per_iter() + 3.0, "rpa_comm"),
        ]
        phases.extend(freq_point * costs.rpa_freq_points)
        return phases

    def _vdw_phase(self) -> MacroPhase:
        """The van der Waals correction: cheap, host-assisted."""
        return MacroPhase(
            name="vdw_correction",
            duration_s=0.04 * self.spec.n_ions / self.parallel.n_nodes + 0.5,
            gpu_profile=replace(
                KernelCatalogue.PROJECTOR.scaled(0.4), duty_cycle=0.5
            ),
            cpu_utilization=0.30,
            mem_bw_utilization=0.15,
        )

    # -- public API ---------------------------------------------------------
    def build(self) -> list[MacroPhase]:
        """The full phase sequence of the run."""
        spec = self.spec
        phases: list[MacroPhase] = [
            MacroPhase(
                name="startup",
                duration_s=self.costs.startup_s,
                gpu_profile=KernelCatalogue.HOST_SECTION,
                cpu_utilization=0.35,
                mem_bw_utilization=0.25,
            )
        ]
        if spec.algo is Algorithm.ACFDTR:
            phases.extend(self._acfdtr_phases())
        elif spec.functional is Functional.HSE:
            phases.extend(self._hse_iteration() * spec.nelm)
        elif spec.algo is Algorithm.FAST:
            # Blocked Davidson for the initial (delay) iterations, then RMM.
            n_davidson = min(max(spec.nelmdl, 5), spec.nelm)
            phases.extend(self._dft_iteration(Algorithm.NORMAL) * n_davidson)
            if spec.nelm > n_davidson:
                rmm = self._dft_iteration(Algorithm.VERYFAST)
                phases.extend(rmm * (spec.nelm - n_davidson))
        else:
            iteration = self._dft_iteration(spec.algo)
            if spec.functional is Functional.VDW:
                iteration.append(self._vdw_phase())
            phases.extend(iteration * spec.nelm)
        phases.append(
            MacroPhase(
                name="finalize",
                duration_s=self.costs.finalize_s,
                gpu_profile=KernelCatalogue.HOST_SECTION,
                cpu_utilization=0.30,
                mem_bw_utilization=0.30,
            )
        )
        return phases


def build_phases(
    spec: WorkloadSpec,
    parallel: ParallelConfig,
    comm: CommunicationModel | None = None,
    costs: CostModel = DEFAULT_COSTS,
) -> list[MacroPhase]:
    """Convenience wrapper around :class:`ScfPhaseBuilder`."""
    return ScfPhaseBuilder(spec, parallel, comm, costs).build()
