"""Named, seeded fleet scenarios: arrival processes, mixes, pools, failures.

:func:`repro.capping.fleet.job_stream` generates one synthetic mix with
Poisson arrivals — enough to compare cap policies, but not to exercise a
power optimizer against realistic demand.  A :class:`FleetScenario`
composes the pieces a production trace has:

* an *arrival process* — homogeneous Poisson, diurnally modulated
  Poisson (the day/night load swing every center sees), or trace-driven
  fixed submit times;
* a *workload mix* over registry references (``"PdO4"``,
  ``"milc:large"``...), with node widths sampled from each workload's
  healthy range;
* a *node pool* that may mix hardware platforms (round-robin, the same
  convention as ``repro fleet --platform a,b``);
* *failure events* — node drains injected as near-idle ``outage`` jobs
  that occupy capacity for the outage duration (an approximation: the
  drain queues like a job rather than preempting one, so it models
  scheduled maintenance windows rather than surprise kills).

Scenarios are registered by name (``repro fleet --scenario diurnal``)
and deterministic: the same (scenario, seed) builds the bit-identical
job list, so the serial/sharded/checkpointed fleet paths inherit their
bit-identity contract unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.capping.scheduler import Job
from repro.errors import RegistryLookupError
from repro.workloads import resolve_widths, resolve_workload

#: Arrival process kinds a scenario may declare.
ARRIVAL_KINDS: tuple[str, ...] = ("poisson", "diurnal", "trace")


@dataclass(frozen=True)
class ArrivalProcess:
    """When jobs arrive.

    ``poisson``: exponential interarrivals at ``mean_interarrival_s``.
    ``diurnal``: Poisson with sinusoidally modulated rate — the
    instantaneous mean interarrival swings between
    ``mean_interarrival_s / peak_factor`` (rush) and
    ``mean_interarrival_s * peak_factor`` (lull) over ``period_s``.
    ``trace``: fixed submit times (cycled, shifted by ``period_s`` per
    lap, when a scenario asks for more jobs than the trace holds).
    """

    kind: str = "poisson"
    mean_interarrival_s: float = 120.0
    period_s: float = 7200.0
    peak_factor: float = 3.0
    times_s: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"arrival kind {self.kind!r} not one of {', '.join(ARRIVAL_KINDS)}"
            )
        if self.mean_interarrival_s <= 0:
            raise ValueError("mean_interarrival_s must be positive")
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.peak_factor < 1.0:
            raise ValueError(f"peak_factor must be >= 1, got {self.peak_factor}")
        if self.kind == "trace":
            if not self.times_s:
                raise ValueError("trace arrivals need at least one time")
            if any(t < 0 for t in self.times_s) or list(self.times_s) != sorted(
                self.times_s
            ):
                raise ValueError("trace times must be non-negative and sorted")

    def submit_times(self, n_jobs: int, rng: np.random.Generator) -> list[float]:
        """The first ``n_jobs`` submit times of this process."""
        if self.kind == "trace":
            laps = [
                self.times_s[i % len(self.times_s)]
                + (i // len(self.times_s)) * self.period_s
                for i in range(n_jobs)
            ]
            return laps
        times: list[float] = []
        clock = 0.0
        for _ in range(n_jobs):
            times.append(clock)
            mean = self.mean_interarrival_s
            if self.kind == "diurnal":
                # Rate modulation in log space keeps the swing symmetric
                # around the nominal mean: x peak_factor at the trough of
                # the cosine, / peak_factor at its crest.
                phase = math.cos(2.0 * math.pi * clock / self.period_s)
                mean = self.mean_interarrival_s * self.peak_factor ** (-phase)
            clock += float(rng.exponential(mean))
        return times


@dataclass(frozen=True)
class FailureEvent:
    """One node-drain window: ``n_nodes`` drop out at ``at_s``."""

    at_s: float
    n_nodes: int = 1
    duration_s: float = 600.0

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")


@dataclass(frozen=True)
class FleetScenario:
    """One named, seeded fleet scenario."""

    id: str
    description: str
    n_jobs: int = 24
    n_nodes: int = 16
    #: (workload reference, weight) pairs; resolved via the registry.
    mix: tuple[tuple[str, float], ...] = ()
    arrival: ArrivalProcess = field(default_factory=ArrivalProcess)
    #: Platform ids of the node pool (len > 1 = round-robin mixed pool).
    platforms: tuple[str, ...] = ()
    failures: tuple[FailureEvent, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("scenario id must be non-empty")
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not self.mix:
            raise ValueError(f"scenario {self.id}: mix must be non-empty")
        if any(weight <= 0 for _, weight in self.mix):
            raise ValueError(f"scenario {self.id}: mix weights must be positive")
        for failure in self.failures:
            if failure.n_nodes > self.n_nodes:
                raise ValueError(
                    f"scenario {self.id}: failure drains {failure.n_nodes} of "
                    f"{self.n_nodes} nodes"
                )

    def build_jobs(self, seed: int = 0, n_jobs: int | None = None) -> list[Job]:
        """The deterministic job list for one seed.

        Draw order (fixed; the determinism contract): one rng drives
        arrivals first, then per-job (workload, width) choices — so two
        calls with the same (scenario, seed) are bit-identical, and the
        fleet's serial/sharded paths see the same stream.  Failure
        drains are appended after the regular jobs and merged by submit
        time.
        """
        count = self.n_jobs if n_jobs is None else n_jobs
        if count < 1:
            raise ValueError(f"n_jobs must be >= 1, got {count}")
        rng = np.random.default_rng(seed)
        times = self.arrival.submit_times(count, rng)
        refs = [ref for ref, _ in self.mix]
        probs = np.array([weight for _, weight in self.mix], dtype=float)
        probs = probs / probs.sum()
        # One prototype per ref: instances are stateless descriptions, so
        # jobs of the same ref share the object (and the phase cache).
        prototypes = {ref: resolve_workload(ref) for ref in refs}
        widths = {
            ref: [w for w in resolve_widths(ref) if w <= self.n_nodes] or [1]
            for ref in refs
        }
        jobs: list[Job] = []
        for index, submit_s in enumerate(times):
            ref = refs[int(rng.choice(len(refs), p=probs))]
            n_nodes = int(rng.choice(widths[ref]))
            jobs.append(
                Job(
                    job_id=f"{prototypes[ref].name}@{index}",
                    workload=prototypes[ref],
                    n_nodes=n_nodes,
                    submit_s=float(submit_s),
                )
            )
        for at, failure in enumerate(self.failures):
            outage = resolve_workload("outage")
            jobs.append(
                Job(
                    job_id=f"outage@{at}",
                    workload=type(outage)(
                        name=f"outage_{failure.duration_s:.0f}s",
                        duration_s=failure.duration_s,
                    ),
                    n_nodes=failure.n_nodes,
                    submit_s=failure.at_s,
                )
            )
        jobs.sort(key=lambda job: (job.submit_s, job.job_id))
        return jobs


_SCENARIOS: dict[str, FleetScenario] = {}


def register_scenario(scenario: FleetScenario, replace: bool = False) -> None:
    """Register a scenario under its id."""
    if scenario.id in _SCENARIOS and not replace:
        raise ValueError(
            f"scenario {scenario.id!r} already registered "
            "(pass replace=True to override)"
        )
    _SCENARIOS[scenario.id] = scenario


def get_scenario(scenario: "str | FleetScenario") -> FleetScenario:
    """Resolve a scenario id (or pass a scenario through)."""
    if isinstance(scenario, FleetScenario):
        return scenario
    try:
        return _SCENARIOS[scenario]
    except KeyError:
        raise RegistryLookupError(
            f"unknown scenario {scenario!r}; known: {', '.join(scenario_ids())}"
        ) from None


def scenario_ids() -> list[str]:
    """Registered scenario ids, sorted."""
    return sorted(_SCENARIOS)


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

#: The production-like VASP-dominated mix with a zoo minority share.
_MIXED_PRODUCTION: tuple[tuple[str, float], ...] = (
    ("PdO4", 0.18),
    ("PdO2", 0.16),
    ("GaAsBi-64", 0.12),
    ("CuC_vdw", 0.10),
    ("Si256_hse", 0.10),
    ("Si128_acfdtr", 0.08),
    ("milc:small", 0.14),
    ("cloudsc:small", 0.12),
)

register_scenario(
    FleetScenario(
        id="diurnal",
        description=(
            "day/night demand swing: diurnally modulated Poisson arrivals "
            "over the production VASP+MILC+CLOUDSC mix, uniform pool"
        ),
        n_jobs=24,
        n_nodes=16,
        mix=_MIXED_PRODUCTION,
        arrival=ArrivalProcess(
            kind="diurnal", mean_interarrival_s=120.0, period_s=3600.0,
            peak_factor=3.0,
        ),
    )
)

register_scenario(
    FleetScenario(
        id="steady-mixed",
        description=(
            "steady Poisson arrivals over a heterogeneous zoo mix on a "
            "mixed a100-40g/h100-sxm pool"
        ),
        n_jobs=24,
        n_nodes=16,
        mix=(
            ("PdO4", 0.25),
            ("Si256_hse", 0.15),
            ("milc:small", 0.20),
            ("cloudsc:small", 0.15),
            ("multiphysics:small", 0.15),
            ("entropy:high", 0.10),
        ),
        arrival=ArrivalProcess(kind="poisson", mean_interarrival_s=120.0),
        platforms=("a100-40g", "h100-sxm"),
    )
)

register_scenario(
    FleetScenario(
        id="burst-maintenance",
        description=(
            "trace-driven submission bursts (campaign starts) with two "
            "scheduled node-drain windows mid-campaign"
        ),
        n_jobs=18,
        n_nodes=12,
        mix=(
            ("PdO2", 0.30),
            ("gemm-stream:burst", 0.15),
            ("multiphysics:small", 0.25),
            ("entropy:low", 0.30),
        ),
        arrival=ArrivalProcess(
            kind="trace",
            period_s=5400.0,
            times_s=(0.0, 5.0, 10.0, 20.0, 1800.0, 1805.0, 1815.0, 3600.0, 3610.0),
        ),
        failures=(
            FailureEvent(at_s=900.0, n_nodes=2, duration_s=900.0),
            FailureEvent(at_s=2700.0, n_nodes=1, duration_s=600.0),
        ),
    )
)
