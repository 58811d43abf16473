"""Tests for the fleet simulation and system-power study."""

from collections import Counter

import pytest

from repro import obs
from repro.capping import fleet
from repro.capping.fleet import (
    DEFAULT_MIX,
    compare_fleet_policies,
    compare_fleet_policies_traced,
    job_stream,
    simulate_fleet,
    simulate_fleet_traced,
)
from repro.capping.policy import CapPolicy
from repro.capping.scheduler import estimate_cache
from repro.experiments import system_power
from repro.runner import cache
from repro.runner.engine import EngineConfig
from repro.vasp.workload import VaspWorkload
from tests.capping.reference_fleet import dense_fleet_traced


class TestJobStream:
    def test_deterministic_per_seed(self):
        a = job_stream(n_jobs=10, seed=5)
        b = job_stream(n_jobs=10, seed=5)
        assert [(j.job_id, j.n_nodes, j.submit_s) for j in a] == [
            (j.job_id, j.n_nodes, j.submit_s) for j in b
        ]

    def test_arrivals_monotone(self):
        jobs = job_stream(n_jobs=20, seed=1)
        submits = [j.submit_s for j in jobs]
        assert submits == sorted(submits)
        assert submits[0] == 0.0

    def test_node_counts_within_healthy_range(self):
        from repro.vasp.benchmarks import BENCHMARKS

        for job in job_stream(n_jobs=30, seed=2):
            name = job.job_id.split("@")[0]
            assert job.n_nodes <= BENCHMARKS[name].optimal_nodes

    def test_mix_respected(self):
        jobs = job_stream(n_jobs=200, seed=3)
        names = {j.job_id.split("@")[0] for j in jobs}
        # With 200 draws every mix entry should appear.
        assert names == set(DEFAULT_MIX)

    def test_validation(self):
        with pytest.raises(ValueError):
            job_stream(n_jobs=0)
        with pytest.raises(ValueError):
            job_stream(mean_interarrival_s=0.0)
        with pytest.raises(ValueError):
            job_stream(mix={"NotABenchmark": 1.0})
        with pytest.raises(ValueError):
            job_stream(mix={"PdO2": 0.0})

    def test_mix_weight_normalization_invariance(self):
        """Scaling every weight by the same factor changes nothing."""
        a = job_stream(n_jobs=30, seed=4, mix={"PdO2": 2.0, "PdO4": 2.0})
        b = job_stream(n_jobs=30, seed=4, mix={"PdO2": 0.5, "PdO4": 0.5})
        assert [(j.job_id, j.n_nodes, j.submit_s) for j in a] == [
            (j.job_id, j.n_nodes, j.submit_s) for j in b
        ]

    def test_zero_weight_entries_never_drawn(self):
        jobs = job_stream(
            n_jobs=100, seed=5, mix={"PdO2": 1.0, "Si256_hse": 0.0}
        )
        names = {j.job_id.split("@")[0] for j in jobs}
        assert names == {"PdO2"}

    def test_single_benchmark_mix(self):
        jobs = job_stream(n_jobs=10, seed=6, mix={"CuC_vdw": 3.0})
        assert all(j.job_id.startswith("CuC_vdw@") for j in jobs)
        assert len(jobs) == 10


class TestFleetSimulation:
    @pytest.fixture(scope="class")
    def reports(self):
        return compare_fleet_policies(n_jobs=16, n_nodes=16, seed=3)

    def test_all_jobs_complete_under_both(self, reports):
        capped, uncapped = reports
        assert capped.jobs_completed == uncapped.jobs_completed == 16

    def test_capping_reduces_peak_and_variability(self, reports):
        """The system-level payoff of application capping."""
        capped, uncapped = reports
        assert capped.peak_power_w < uncapped.peak_power_w
        assert capped.power_std_w < uncapped.power_std_w
        assert capped.coefficient_of_variation < uncapped.coefficient_of_variation

    def test_makespan_penalty_small_when_unconstrained(self, reports):
        capped, uncapped = reports
        assert capped.makespan_s < uncapped.makespan_s * 1.10

    def test_simulate_fleet_report_fields(self):
        jobs = job_stream(n_jobs=4, seed=9)
        report = simulate_fleet(jobs, CapPolicy.uncapped(), "baseline", n_nodes=8)
        assert report.policy_name == "baseline"
        assert report.mean_power_w > 0
        assert report.peak_power_w >= report.mean_power_w


class TestTracedFleet:
    #: Coarse 1 s rendering keeps the traced runs fast in CI.
    ENGINE = EngineConfig(base_interval_s=1.0)

    @pytest.fixture(scope="class")
    def jobs(self):
        return job_stream(n_jobs=5, seed=7)

    def test_streaming_matches_dense_bit_identical(self, jobs):
        """The O(chunk) streaming path equals the O(fleet) dense oracle."""
        kwargs = dict(
            n_nodes=8, bin_s=2.0, chunk_samples=23, engine_config=self.ENGINE, seed=7
        )
        stream = simulate_fleet_traced(jobs, CapPolicy.half_tdp(), "capped", **kwargs)
        dense = dense_fleet_traced(jobs, CapPolicy.half_tdp(), "capped", **kwargs)
        assert stream.system == dense.system
        assert stream.node_power_mean_w == dense.node_power_mean_w
        assert stream.node_power_std_w == dense.node_power_std_w
        assert stream.node_power_peak_w == dense.node_power_peak_w
        assert stream.samples_streamed == dense.samples_streamed
        assert stream.chunks_streamed == dense.chunks_streamed

    def test_streaming_resident_gauge_is_the_accumulator(self, jobs, monkeypatch):
        """The streaming run retains no trace: the gauge is the bins alone."""
        accumulators = []

        class SpyAccumulator(fleet.SystemPowerAccumulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                accumulators.append(self)

        monkeypatch.setattr(fleet, "SystemPowerAccumulator", SpyAccumulator)
        obs.enable(metrics=True)
        try:
            simulate_fleet_traced(
                jobs,
                CapPolicy.half_tdp(),
                "capped",
                n_nodes=8,
                engine_config=self.ENGINE,
                seed=7,
            )
            gauge = obs.metrics().get("repro_fleet_resident_bytes").value()
        finally:
            obs.disable()
        (accumulator,) = accumulators
        assert gauge == accumulator.resident_bytes

    def test_capping_reduces_peak_and_variability(self, jobs):
        kwargs = dict(n_nodes=8, engine_config=self.ENGINE, seed=7)
        capped = simulate_fleet_traced(jobs, CapPolicy.half_tdp(), "capped", **kwargs)
        uncapped = simulate_fleet_traced(
            jobs, CapPolicy.uncapped(), "uncapped", **kwargs
        )
        assert capped.peak_power_w < uncapped.peak_power_w
        assert capped.power_std_w < uncapped.power_std_w

    def test_report_accounting(self, jobs):
        report = simulate_fleet_traced(
            jobs,
            CapPolicy.uncapped(),
            "uncapped",
            n_nodes=8,
            engine_config=self.ENGINE,
            seed=7,
        )
        assert report.jobs_completed == len(jobs)
        assert report.samples_streamed > 0
        assert report.chunks_streamed > 0
        assert report.bytes_streamed > 0
        assert report.system.energy_j > 0
        assert report.makespan_s > 0
        assert report.node_power_peak_w >= report.node_power_mean_w

    def test_deterministic_per_seed(self, jobs):
        kwargs = dict(n_nodes=8, engine_config=self.ENGINE)
        a = simulate_fleet_traced(jobs, CapPolicy.uncapped(), "u", seed=7, **kwargs)
        b = simulate_fleet_traced(jobs, CapPolicy.uncapped(), "u", seed=7, **kwargs)
        assert a.system == b.system
        c = simulate_fleet_traced(jobs, CapPolicy.uncapped(), "u", seed=8, **kwargs)
        assert c.system != a.system


class TestFleetPlan:
    """One comparison digests each workload once and builds each phase
    list once, shared by admission, both policies and the render."""

    ENGINE = EngineConfig(base_interval_s=1.0)
    N_JOBS, N_NODES, SEED = 6, 8, 3

    #: (energy_j, mean_power_w, peak_power_w, power_std_w, node_power_mean_w,
    #: node_power_std_w, samples_streamed, makespan_s) per policy, as
    #: produced before the plan existed (two independent simulations).
    BEFORE = {
        "50% TDP policy": (
            9467285.558897771, 4714.783644869408, 6653.025451660156,
            888.8060402523151, 852.2984236273256, 136.05445171709408,
            5295, 2007.1393581828988,
        ),
        "uncapped": (
            9803592.918760434, 4951.309554929512, 6992.8621826171875,
            1033.9587973050884, 939.8669761112238, 193.77422924926287,
            5245, 1979.4830075700615,
        ),
    }

    @staticmethod
    def _summary(report):
        return (
            report.system.energy_j,
            report.system.mean_power_w,
            report.system.peak_power_w,
            report.system.power_std_w,
            report.node_power_mean_w,
            report.node_power_std_w,
            report.samples_streamed,
            report.makespan_s,
        )

    def _compare(self, workers=None):
        return compare_fleet_policies_traced(
            n_jobs=self.N_JOBS,
            n_nodes=self.N_NODES,
            seed=self.SEED,
            engine_config=self.ENGINE,
            workers=workers,
        )

    def _counted_compare(self, monkeypatch, workers):
        """Run one comparison, counting phase builds and workload digests."""
        streams = []
        real_stream = fleet.job_stream

        def recording_stream(*args, **kwargs):
            streams.append(real_stream(*args, **kwargs))
            return streams[-1]

        builds = []
        real_phases = VaspWorkload.phases

        def counting_phases(workload, *args, **kwargs):
            builds.append((id(workload), repr(args), repr(kwargs)))
            return real_phases(workload, *args, **kwargs)

        digested = Counter()
        depth = 0
        real_canonical = cache._canonical

        def counting_canonical(obj):
            nonlocal depth
            if depth == 0 and isinstance(obj, VaspWorkload):
                digested[id(obj)] += 1
            depth += 1
            try:
                return real_canonical(obj)
            finally:
                depth -= 1

        monkeypatch.setattr(fleet, "job_stream", recording_stream)
        monkeypatch.setattr(VaspWorkload, "phases", counting_phases)
        monkeypatch.setattr(cache, "_canonical", counting_canonical)
        # Cold estimates: admission builds each phase list on the first
        # miss, which is the only coordinator-side build when sharded.
        estimate_cache().clear()
        reports = self._compare(workers)
        monkeypatch.undo()
        (jobs,) = streams
        return reports, jobs, builds, digested

    @pytest.mark.parametrize("workers", [None, 2])
    def test_one_build_per_key_and_one_digest_per_instance(self, monkeypatch, workers):
        reports, jobs, builds, digested = self._counted_compare(monkeypatch, workers)
        keys = {(cache.fingerprint(job.workload), job.n_nodes) for job in jobs}
        assert len(builds) == len(keys)
        assert len(set(builds)) == len(builds)
        instances = {id(job.workload) for job in jobs}
        assert set(digested) == instances
        assert set(digested.values()) == {1}
        assert {r.policy_name: self._summary(r) for r in reports} == self.BEFORE

    def test_matches_independent_policy_simulations(self):
        """Sharing one stream and plan equals simulating each policy alone."""
        planned = self._compare()
        for report, policy in zip(planned, (CapPolicy.half_tdp(), CapPolicy.uncapped())):
            alone = simulate_fleet_traced(
                job_stream(n_jobs=self.N_JOBS, seed=self.SEED),
                policy,
                report.policy_name,
                self.N_NODES,
                engine_config=self.ENGINE,
                seed=self.SEED,
            )
            assert report.system == alone.system
            assert self._summary(report) == self._summary(alone)
            assert report.schedule.records == alone.schedule.records


class TestSystemPowerExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return system_power.run(n_jobs=16, seed=3)

    def test_reductions_positive(self, result):
        assert result.peak_reduction() > 0.10
        assert result.variability_reduction() > 0.10

    def test_makespan_penalty_bounded(self, result):
        assert result.makespan_penalty() < 0.10

    def test_render(self, result):
        text = system_power.render(result)
        assert "system power peak" in text
