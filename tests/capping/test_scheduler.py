"""Unit tests for the run estimator and the power-aware scheduler."""

import dataclasses

import pytest

from repro.capping.fleet import FleetPlan
from repro.capping.policy import CapPolicy
from repro.capping.scheduler import (
    Job,
    PowerAwareScheduler,
    SchedulerConfig,
    cached_estimate_run,
    estimate_cache,
    estimate_run,
    half_tdp_cap_w,
    required_cycles,
    scheduling_cycle_s,
)
from repro.hardware.gpu import PowerLimitError
from repro.hardware.platform import get_platform
from repro.vasp.benchmarks import benchmark
from repro.vasp.parallel import layout_for
from repro.workloads import resolve_widths, resolve_workload
from repro.workloads.registry import workload_refs


@pytest.fixture(scope="module")
def pdo2():
    return benchmark("PdO2").build()


@pytest.fixture(scope="module")
def hse():
    return benchmark("Si256_hse").build()


class TestEstimateRun:
    def test_deterministic(self, pdo2):
        a = estimate_run(pdo2, 1)
        b = estimate_run(pdo2, 1)
        assert a == b

    def test_cap_never_speeds_up(self, hse):
        base = estimate_run(hse, 1, 400.0)
        for cap in (300.0, 200.0, 100.0):
            capped = estimate_run(hse, 1, cap)
            assert capped.runtime_s >= base.runtime_s - 1e-9
            assert capped.mean_node_power_w <= base.mean_node_power_w + 1e-9

    def test_more_nodes_shorter(self, pdo2):
        assert estimate_run(pdo2, 4).runtime_s < estimate_run(pdo2, 1).runtime_s

    def test_peak_at_least_mean(self, hse):
        est = estimate_run(hse, 1)
        assert est.peak_node_power_w >= est.mean_node_power_w

    def test_validation(self, pdo2):
        with pytest.raises(ValueError):
            estimate_run(pdo2, 0)


class TestPlannedEstimates:
    """A plan's phase list and digest change nothing about an estimate."""

    CAPS = (None, 250.0, 150.0)
    PLATFORMS = ("a100-40g", "h100-sxm")

    @pytest.mark.parametrize("ref", workload_refs())
    def test_supplied_phases_match_and_share_the_cache_entry(self, ref):
        workload = resolve_workload(ref)
        width = max(resolve_widths(ref))
        phases = workload.phases(layout_for(workload, width))
        for platform in self.PLATFORMS:
            gpu = get_platform(platform).gpu
            for cap in self.CAPS:
                if cap is not None and not gpu.cap_min_w <= cap <= gpu.cap_max_w:
                    for supplied in (None, phases):
                        with pytest.raises(PowerLimitError):
                            estimate_run(workload, width, cap, platform, phases=supplied)
                    continue
                direct = estimate_run(workload, width, cap, platform)
                assert estimate_run(workload, width, cap, platform, phases=phases) == direct
                estimate_cache().clear()
                planned = cached_estimate_run(workload, width, cap, platform, FleetPlan())
                standalone = cached_estimate_run(workload, width, cap, platform)
                assert planned == direct
                assert standalone is planned
                stats = estimate_cache().stats()
                assert (stats.misses, stats.hits) == (1, 1)

    def test_content_equal_instances_share_an_entry(self):
        a = benchmark("PdO2").build()
        b = benchmark("PdO2").build()
        assert a is not b
        plan = FleetPlan()
        assert plan.digest(a) == plan.digest(b)
        estimate_cache().clear()
        first = cached_estimate_run(a, 2, 200.0, plan=plan)
        assert cached_estimate_run(b, 2, 200.0, plan=plan) is first
        assert cached_estimate_run(b, 2, 200.0) is first
        assert estimate_cache().stats().misses == 1

    def test_one_incar_field_changes_the_entry(self):
        a = benchmark("PdO2").build()
        b = dataclasses.replace(a, incar=dataclasses.replace(a.incar, nelm=a.incar.nelm + 1))
        plan = FleetPlan()
        assert plan.digest(a) != plan.digest(b)
        assert plan.phase_key(a, 2) != plan.phase_key(b, 2)
        estimate_cache().clear()
        cached_estimate_run(a, 2, 200.0, plan=plan)
        cached_estimate_run(b, 2, 200.0, plan=plan)
        cached_estimate_run(b, 2, 200.0)
        stats = estimate_cache().stats()
        assert (stats.misses, stats.hits) == (2, 1)


class TestSchedulerBasics:
    def make_jobs(self, pdo2, n=4):
        return [Job(job_id=f"j{i}", workload=pdo2, n_nodes=1) for i in range(n)]

    def test_all_jobs_complete(self, pdo2):
        config = SchedulerConfig(n_nodes=4, power_budget_w=4 * 2000.0)
        result = PowerAwareScheduler(config).schedule(self.make_jobs(pdo2))
        assert len(result.records) == 4
        assert result.makespan_s > 0

    def test_budget_respected(self, pdo2):
        config = SchedulerConfig(n_nodes=4, power_budget_w=4 * 900.0)
        result = PowerAwareScheduler(config).schedule(self.make_jobs(pdo2, 6))
        assert result.budget_respected
        assert result.peak_power_w <= config.power_budget_w + 1e-6

    def test_tight_budget_serializes(self, pdo2):
        loose = SchedulerConfig(n_nodes=4, power_budget_w=4 * 2000.0)
        tight = SchedulerConfig(n_nodes=4, power_budget_w=2600.0)
        jobs = self.make_jobs(pdo2, 4)
        fast = PowerAwareScheduler(loose).schedule(list(jobs))
        slow = PowerAwareScheduler(tight).schedule(list(jobs))
        assert slow.makespan_s > fast.makespan_s

    def test_submit_times_respected(self, pdo2):
        config = SchedulerConfig(n_nodes=4, power_budget_w=4 * 2000.0)
        jobs = [
            Job(job_id="early", workload=pdo2, n_nodes=1, submit_s=0.0),
            Job(job_id="late", workload=pdo2, n_nodes=1, submit_s=500.0),
        ]
        result = PowerAwareScheduler(config).schedule(jobs)
        late = next(r for r in result.records if r.job_id == "late")
        assert late.start_s >= 500.0

    def test_oversized_job_rejected(self, pdo2):
        config = SchedulerConfig(n_nodes=2, power_budget_w=1e6)
        with pytest.raises(ValueError, match="pool has"):
            PowerAwareScheduler(config).schedule(
                [Job(job_id="big", workload=pdo2, n_nodes=4)]
            )

    def test_policy_caps_recorded(self, hse):
        config = SchedulerConfig(
            n_nodes=4, power_budget_w=1e6, policy=CapPolicy.half_tdp()
        )
        result = PowerAwareScheduler(config).schedule(
            [Job(job_id="h", workload=hse, n_nodes=1)]
        )
        assert result.records[0].cap_w == 200.0

    def test_capped_jobs_draw_less(self, hse):
        def run_with(policy):
            config = SchedulerConfig(n_nodes=4, power_budget_w=1e6, policy=policy)
            return PowerAwareScheduler(config).schedule(
                [Job(job_id="h", workload=hse, n_nodes=4)]
            )

        capped = run_with(CapPolicy.half_tdp())
        uncapped = run_with(CapPolicy.uncapped())
        assert capped.records[0].mean_node_power_w < uncapped.records[0].mean_node_power_w
        # and the capping cost stays modest even for the hottest workload
        # (the paper reports ~9 % at its optimal node count).
        assert capped.records[0].runtime_s < uncapped.records[0].runtime_s * 1.18


class TestHelpers:
    def test_half_tdp(self):
        assert half_tdp_cap_w() == 200.0

    def test_cycle_length(self):
        assert scheduling_cycle_s() == 30.0

    def test_required_cycles(self):
        assert required_cycles(0.0) == 0
        assert required_cycles(45.0) == 2
        with pytest.raises(ValueError):
            required_cycles(-1.0)

    def test_job_validation(self, pdo2):
        with pytest.raises(ValueError):
            Job(job_id="x", workload=pdo2, n_nodes=0)
        with pytest.raises(ValueError):
            Job(job_id="x", workload=pdo2, n_nodes=1, submit_s=-1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(n_nodes=0, power_budget_w=100.0)
        with pytest.raises(ValueError):
            SchedulerConfig(n_nodes=1, power_budget_w=0.0)
