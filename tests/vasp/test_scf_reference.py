"""The SCF builder's repeated-recipe lists equal the per-iteration reference.

``ScfPhaseBuilder.build`` builds each distinct iteration recipe once and
repeats it; :mod:`tests.vasp.reference_scf` calls the recipe once per
iteration.  Equality is dataclass equality, so every float must match
exactly.
"""

import pytest

from repro.prediction.corpus import CorpusConfig
from repro.vasp.benchmarks import BENCHMARKS
from repro.vasp.methods import Algorithm, Functional
from repro.vasp.parallel import ParallelConfig
from repro.vasp.scf import ScfPhaseBuilder, build_phases

from tests.vasp.reference_scf import reference_build
from tests.vasp.test_scf import make_spec

WIDTHS = (1, 2, 4)

#: (id, spec overrides) covering every branch of ``build``.
BRANCHES = [
    ("gga-normal", dict(algo=Algorithm.NORMAL)),
    ("gga-veryfast", dict(algo=Algorithm.VERYFAST)),
    ("fast-nelm-below-nelmdl", dict(algo=Algorithm.FAST, nelm=4, nelmdl=7)),
    ("fast-nelm-above-nelmdl", dict(algo=Algorithm.FAST, nelm=12, nelmdl=7)),
    ("fast-default-delay", dict(algo=Algorithm.FAST, nelm=9)),
    ("hse", dict(functional=Functional.HSE, algo=Algorithm.DAMPED)),
    ("acfdtr", dict(functional=Functional.ACFDT_RPA, algo=Algorithm.ACFDTR, nbands=128)),
    ("vdw", dict(functional=Functional.VDW, algo=Algorithm.VERYFAST)),
]


def _assert_matches_reference(spec, parallel, costs=None):
    args = (spec, parallel) if costs is None else (spec, parallel, None, costs)
    fast = build_phases(*args)
    reference = reference_build(ScfPhaseBuilder(*args))
    assert len(fast) == len(reference)
    assert fast == reference


@pytest.mark.parametrize(
    "overrides", [o for _, o in BRANCHES], ids=[name for name, _ in BRANCHES]
)
@pytest.mark.parametrize("width", WIDTHS)
def test_every_branch_matches_reference(overrides, width):
    _assert_matches_reference(make_spec(**overrides), ParallelConfig(width))


@pytest.mark.parametrize("name", list(BENCHMARKS))
@pytest.mark.parametrize("width", WIDTHS)
def test_table1_benchmarks_match_reference(name, width):
    workload = BENCHMARKS[name].build()
    _assert_matches_reference(workload.spec(), ParallelConfig(width), workload.costs)


def test_corpus_grid_matches_reference():
    for workload, _ in CorpusConfig().workload_grid():
        for width in WIDTHS:
            _assert_matches_reference(
                workload.spec(), ParallelConfig(width), workload.costs
            )


@pytest.mark.parametrize(
    "overrides", [o for _, o in BRANCHES], ids=[name for name, _ in BRANCHES]
)
def test_one_build_builds_each_recipe_once(overrides, monkeypatch):
    calls = {"dft": 0, "hse": 0}
    dft, hse = ScfPhaseBuilder._dft_iteration, ScfPhaseBuilder._hse_iteration

    def counted_dft(self, algo):
        calls["dft"] += 1
        return dft(self, algo)

    def counted_hse(self):
        calls["hse"] += 1
        return hse(self)

    monkeypatch.setattr(ScfPhaseBuilder, "_dft_iteration", counted_dft)
    monkeypatch.setattr(ScfPhaseBuilder, "_hse_iteration", counted_hse)
    build_phases(make_spec(**overrides), ParallelConfig(1))
    assert calls["dft"] <= 2
    assert calls["hse"] <= 1
