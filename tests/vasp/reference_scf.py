"""Per-iteration reference for :meth:`~repro.vasp.scf.ScfPhaseBuilder.build`.

The builder assembles each distinct SCF iteration recipe once and repeats
the list.  This module is the readable specification it must reproduce
exactly: one recipe call per SCF iteration and per RPA frequency point,
appended in execution order.  Tests compare the two with dataclass
equality, so every duration and utilization must match bit for bit.
"""

from __future__ import annotations

import math

from repro.perfmodel.kernels import GpuKernelProfile, KernelCatalogue
from repro.vasp.methods import Algorithm, Functional
from repro.vasp.phases import MacroPhase
from repro.vasp.scf import ScfPhaseBuilder


def _bookend(name: str, duration_s: float, cpu: float, mem: float) -> MacroPhase:
    return MacroPhase(
        name=name,
        duration_s=duration_s,
        gpu_profile=KernelCatalogue.HOST_SECTION,
        cpu_utilization=cpu,
        mem_bw_utilization=mem,
    )


def _acfdtr_phases(builder: ScfPhaseBuilder) -> list[MacroPhase]:
    spec, costs = builder.spec, builder.costs
    phases: list[MacroPhase] = []
    for _ in range(max(8, spec.nelm // 2)):
        phases.extend(builder._dft_iteration(Algorithm.NORMAL))
    n_exact = spec.nbandsexact if spec.nbandsexact is not None else spec.nbands * 8
    diag_flops = costs.host_diag_flops_scale * float(n_exact) ** 3
    phases.append(
        MacroPhase(
            name="exact_diag_host",
            duration_s=diag_flops / costs.cpu_effective_flops / builder.parallel.n_nodes,
            gpu_profile=KernelCatalogue.HOST_SECTION,
            cpu_utilization=0.85,
            mem_bw_utilization=0.55,
        )
    )
    chi_profile = GpuKernelProfile(
        name="rpa_chi0_gemm",
        compute_utilization=0.95,
        memory_utilization=0.55,
        compute_fraction=0.60,
    )
    per_pair = 5.0 * spec.nplwv * math.log2(max(spec.nplwv, 2))
    for _ in range(costs.rpa_freq_points):
        chi_flops = (
            costs.rpa_pair_scale
            * spec.n_occupied
            * float(n_exact)
            * per_pair
            / builder.ranks_per_kgroup
        )
        phases.append(
            builder._gpu_phase(
                "rpa_chi0_gemm",
                chi_profile,
                costs.batch_rpa,
                chi_flops,
                chi_flops / 40.0,
                duty=costs.duty_exchange,
                time_efficiency=costs.time_eff_rpa_fft,
                cpu_utilization=0.12,
            )
        )
        fft_flops, fft_bytes = builder._fft_volume(2.0)
        phases.append(
            builder._gpu_phase(
                "rpa_fft",
                KernelCatalogue.FFT_BATCHED,
                costs.batch_fft,
                fft_flops,
                fft_bytes,
                time_efficiency=builder._fft_time_efficiency(),
            )
        )
        phases.append(
            builder._comm_phase(builder._comm_time_per_iter() + 3.0, "rpa_comm")
        )
    return phases


def reference_build(builder: ScfPhaseBuilder) -> list[MacroPhase]:
    """The full phase sequence, one recipe call per iteration."""
    spec = builder.spec
    phases = [_bookend("startup", builder.costs.startup_s, 0.35, 0.25)]
    if spec.algo is Algorithm.ACFDTR:
        phases.extend(_acfdtr_phases(builder))
    elif spec.functional is Functional.HSE:
        for _ in range(spec.nelm):
            phases.extend(builder._hse_iteration())
    elif spec.algo is Algorithm.FAST:
        n_davidson = max(spec.nelmdl, 5)
        for _ in range(min(n_davidson, spec.nelm)):
            phases.extend(builder._dft_iteration(Algorithm.NORMAL))
        for _ in range(max(spec.nelm - n_davidson, 0)):
            phases.extend(builder._dft_iteration(Algorithm.VERYFAST))
    else:
        for _ in range(spec.nelm):
            iteration = builder._dft_iteration(spec.algo)
            if spec.functional is Functional.VDW:
                iteration.append(builder._vdw_phase())
            phases.extend(iteration)
    phases.append(_bookend("finalize", builder.costs.finalize_s, 0.30, 0.30))
    return phases
