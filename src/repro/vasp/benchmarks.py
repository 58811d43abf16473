"""The paper's benchmark suite (Table I) and the silicon-supercell family.

Seven benchmarks cover NERSC's representative VASP workloads: two HSE
hybrid-functional cases, two PdO-slab DFT cases, a metallic ternary alloy,
a van-der-Waals system and an RPA (ACFDT) case.  Published computational
parameters (electrons, ions, NBANDS, FFT grids/NPLWV, k-meshes, NELM) are
pinned exactly; structures are built with the correct ion counts and cell
shapes, and NELECT is pinned through the INCAR as VASP allows.

The silicon-supercell family (:func:`silicon_workload`) drives Section IV:
same chemistry, one knob at a time (size, NPLWV, NBANDS, method,
concurrency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import RegistryLookupError
from repro.vasp.incar import Incar
from repro.vasp.kpoints import KpointMesh
from repro.vasp.methods import Algorithm, Functional, FIG9_METHODS
from repro.vasp.poscar import Structure, silicon_supercell
from repro.vasp.workload import VaspWorkload


def generic_structure(
    species_counts: dict[str, int],
    lattice_lengths: tuple[float, float, float],
    comment: str = "generic structure",
) -> Structure:
    """A structure with given composition and an orthorhombic cell.

    Atom positions are placed on a deterministic jittered grid — the power
    model depends only on counts and cell shape, but a valid structure
    keeps the POSCAR round-trip honest.
    """
    n_atoms = sum(species_counts.values())
    if n_atoms < 1:
        raise ValueError("structure needs at least one atom")
    side = math.ceil(n_atoms ** (1.0 / 3.0))
    grid = np.array(
        [[i, j, k] for i in range(side) for j in range(side) for k in range(side)],
        dtype=float,
    )[:n_atoms]
    rng = np.random.default_rng(sum(ord(c) for c in comment))
    positions = (grid + 0.5 + rng.uniform(-0.1, 0.1, size=grid.shape)) / side
    species: list[str] = []
    for symbol, count in species_counts.items():
        species.extend([symbol] * count)
    return Structure(
        lattice=np.diag(lattice_lengths),
        species=species,
        frac_positions=positions,
        comment=comment,
    )


@dataclass(frozen=True)
class BenchmarkCase:
    """One Table I benchmark: workload factory plus run protocol."""

    name: str
    description: str
    factory: Callable[[], VaspWorkload]
    #: Node counts used for the concurrency sweeps (Figs 4 and 5).
    node_counts: tuple[int, ...]
    #: "Node count optimizing runtime while remaining above 70 % parallel
    #: efficiency" — the count used in the power-capping figures (10, 12).
    optimal_nodes: int

    def build(self) -> VaspWorkload:
        """Construct the workload (cheap; structures are small)."""
        return self.factory()


# ----------------------------------------------------------------------
# The seven benchmarks
# ----------------------------------------------------------------------


def _si256_hse() -> VaspWorkload:
    return VaspWorkload(
        name="Si256_hse",
        incar=Incar(
            system="Si256 supercell with vacancy, HSE",
            algo=Algorithm.DAMPED,
            encut_ev=245.0,
            nelm=41,
            nbands=640,
            lhfcalc=True,
            hfscreen=0.2,
        ),
        structure=silicon_supercell(4, 4, 2, vacancies=1),  # 255 ions, 1020 e-
        kpoints=KpointMesh(1, 1, 1),
        nplwv_override=512000,  # 80 x 80 x 80
    )


def _bhr105_hse() -> VaspWorkload:
    return VaspWorkload(
        name="B.hR105_hse",
        incar=Incar(
            system="hexa-boron hR105, HSE",
            algo=Algorithm.DAMPED,
            encut_ev=319.0,
            nelm=17,
            nbands=256,
            nelect=315.0,
            lhfcalc=True,
            hfscreen=0.2,
        ),
        structure=generic_structure({"B": 105}, (9.8, 9.8, 9.8), "B.hR105"),
        kpoints=KpointMesh(1, 1, 1),
        nplwv_override=110592,  # 48 x 48 x 48
    )


def _pdo4() -> VaspWorkload:
    return VaspWorkload(
        name="PdO4",
        incar=Incar(
            system="PdO slab, 348 ions",
            algo=Algorithm.VERYFAST,
            encut_ev=250.0,
            nelm=60,
            nbands=2048,
            nelect=3288.0,
            extra={"GGA": "CA"},  # LDA
        ),
        structure=generic_structure(
            {"Pd": 300, "O": 48}, (11.0, 16.5, 30.0), "PdO4 slab"
        ),
        kpoints=KpointMesh(1, 1, 1),
        nplwv_override=518400,  # 80 x 120 x 54
    )


def _pdo2() -> VaspWorkload:
    return VaspWorkload(
        name="PdO2",
        incar=Incar(
            system="PdO slab, 174 ions",
            algo=Algorithm.VERYFAST,
            encut_ev=250.0,
            nelm=60,
            nbands=1024,
            nelect=1644.0,
            extra={"GGA": "CA"},  # LDA
        ),
        structure=generic_structure(
            {"Pd": 150, "O": 24}, (11.0, 8.25, 30.0), "PdO2 slab"
        ),
        kpoints=KpointMesh(1, 1, 1),
        nplwv_override=259200,  # 80 x 60 x 54
    )


def _gaasbi64() -> VaspWorkload:
    return VaspWorkload(
        name="GaAsBi-64",
        incar=Incar(
            system="GaAsBi ternary alloy, 64 ions",
            algo=Algorithm.FAST,
            encut_ev=313.0,
            nelm=60,
            nbands=192,
            nelect=266.0,
            kpar=2,
        ),
        structure=generic_structure(
            {"Ga": 32, "As": 30, "Bi": 2}, (11.4, 11.4, 11.4), "GaAsBi-64"
        ),
        kpoints=KpointMesh(4, 4, 4),
        nplwv_override=343000,  # 70 x 70 x 70
    )


def _cuc_vdw() -> VaspWorkload:
    return VaspWorkload(
        name="CuC_vdw",
        incar=Incar(
            system="Cu slab with adsorbed carbon, vdW",
            algo=Algorithm.VERYFAST,
            encut_ev=400.0,
            nelm=60,
            nbands=640,
            nelect=1064.0,
            ivdw=11,
        ),
        structure=generic_structure(
            {"Cu": 96, "C": 2}, (10.2, 10.2, 30.6), "CuC_vdw slab"
        ),
        kpoints=KpointMesh(3, 3, 1),
        nplwv_override=1029000,  # 70 x 70 x 210
    )


def _si128_acfdtr() -> VaspWorkload:
    return VaspWorkload(
        name="Si128_acfdtr",
        incar=Incar(
            system="Si128 supercell, ACFDT/RPA",
            algo=Algorithm.ACFDTR,
            encut_ev=245.0,
            nelm=30,
            nbandsexact=23506,
        ),
        structure=silicon_supercell(2, 2, 4),  # 128 ions, 512 e-
        kpoints=KpointMesh(1, 1, 1),
        nplwv_override=216000,  # 60 x 60 x 60
    )


#: The Table I suite, in the paper's column order.
BENCHMARKS: dict[str, BenchmarkCase] = {
    "Si256_hse": BenchmarkCase(
        name="Si256_hse",
        description="256-site silicon supercell with a vacancy, HSE hybrid functional",
        factory=_si256_hse,
        node_counts=(1, 2, 4, 8, 16),
        optimal_nodes=4,
    ),
    "B.hR105_hse": BenchmarkCase(
        name="B.hR105_hse",
        description="hexa-boron hR105 structure, HSE hybrid functional",
        factory=_bhr105_hse,
        node_counts=(1, 2, 4, 8),
        optimal_nodes=2,
    ),
    "PdO4": BenchmarkCase(
        name="PdO4",
        description="PdO slab with 348 ions, LDA with RMM-DIIS",
        factory=_pdo4,
        node_counts=(1, 2, 4, 8, 16),
        optimal_nodes=2,
    ),
    "PdO2": BenchmarkCase(
        name="PdO2",
        description="PdO slab with 174 ions, LDA with RMM-DIIS",
        factory=_pdo2,
        node_counts=(1, 2, 4, 8),
        optimal_nodes=2,
    ),
    "GaAsBi-64": BenchmarkCase(
        name="GaAsBi-64",
        description="GaAsBi ternary alloy, 64 ions, metallic, BD+RMM",
        factory=_gaasbi64,
        node_counts=(1, 2, 4, 8),
        optimal_nodes=2,
    ),
    "CuC_vdw": BenchmarkCase(
        name="CuC_vdw",
        description="Cu slab with adsorbed carbon, van der Waals functional",
        factory=_cuc_vdw,
        node_counts=(1, 2, 4, 8),
        optimal_nodes=4,
    ),
    "Si128_acfdtr": BenchmarkCase(
        name="Si128_acfdtr",
        description="128-atom silicon supercell, ACFDT/RPA",
        factory=_si128_acfdtr,
        node_counts=(1, 2, 4, 8, 16),
        optimal_nodes=4,
    ),
}


def benchmark_names() -> list[str]:
    """Benchmark names in Table I order."""
    return list(BENCHMARKS)


def benchmark(name: str) -> BenchmarkCase:
    """Look up a benchmark case by name."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise RegistryLookupError(
            f"unknown benchmark {name!r}; known: {', '.join(BENCHMARKS)}"
        ) from None


# ----------------------------------------------------------------------
# Silicon supercell family (Section IV)
# ----------------------------------------------------------------------

#: Supercell multipliers per atom count used by the Fig 6 size sweep.
SILICON_SIZES: dict[int, tuple[int, int, int]] = {
    32: (2, 2, 1),
    64: (2, 2, 2),
    128: (4, 2, 2),
    256: (4, 4, 2),
    512: (4, 4, 4),
    1024: (8, 4, 4),
    2048: (8, 8, 4),
    3072: (8, 8, 6),
    4096: (8, 8, 8),
}


def silicon_workload(
    n_atoms: int,
    method: str = "dft_normal",
    nelm: int = 20,
) -> VaspWorkload:
    """A silicon-supercell workload of a given size and method.

    ``method`` is a Fig 9 label (``dft_normal``, ``dft_veryfast``,
    ``dft_fast``, ``dft_all``, ``vdw``, ``hse``, ``acfdtr``).  NPLWV and
    NBANDS follow the estimator/default rules — these are the sweep
    workloads, not the pinned Table I cases.
    """
    try:
        multipliers = SILICON_SIZES[n_atoms]
    except KeyError:
        raise ValueError(
            f"unsupported silicon size {n_atoms}; known sizes: {sorted(SILICON_SIZES)}"
        ) from None
    try:
        functional, algo = FIG9_METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; known: {', '.join(FIG9_METHODS)}"
        ) from None
    incar = Incar(
        system=f"Si{n_atoms} supercell, {method}",
        algo=algo,
        encut_ev=245.0,
        nelm=nelm,
        lhfcalc=functional is Functional.HSE,
        hfscreen=0.2 if functional is Functional.HSE else None,
        ivdw=11 if functional is Functional.VDW else 0,
        extra={} if functional is not Functional.LDA else {"GGA": "CA"},
    )
    structure = silicon_supercell(*multipliers)
    return VaspWorkload(
        name=f"Si{n_atoms}_{method}",
        incar=incar,
        structure=structure,
        kpoints=KpointMesh(1, 1, 1),
    )
