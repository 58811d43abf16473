"""Sharded fleet execution and checkpoint/resume.

The contract under test is bit-identity: sharded == serial at any
worker count and chunk size, and a run resumed from *any* checkpoint ==
an uninterrupted run.  All comparisons are exact (``==``), never
approximate — every execution mode folds the same per-job partials in
the same chronological order.
"""

import pickle

import pytest

from repro.capping import shard
from repro.capping.fleet import FleetPlan, _job_seed, job_stream, simulate_fleet_traced
from repro.capping.policy import CapPolicy
from repro.hardware.platform import get_platform
from repro.monitor import FleetMonitor, MonitorConfig
from repro.runner.engine import EngineConfig
from tests.capping.reference_fleet import dense_fleet_traced

#: Coarse sampling keeps a five-job fleet render fast while still
#: producing hundreds of chunks through the accumulator.
ENGINE = EngineConfig(base_interval_s=1.0)


def _jobs():
    return job_stream(n_jobs=5, seed=7)


#: Settings every comparison shares unless a test overrides them.
RUN_KW = dict(bin_s=2.0, chunk_samples=23, engine_config=ENGINE, seed=7)


def _run(jobs=None, **kwargs):
    return simulate_fleet_traced(
        jobs if jobs is not None else _jobs(),
        CapPolicy.half_tdp(),
        "50% TDP policy",
        8,
        **{**RUN_KW, **kwargs},
    )


def _assert_identical(a, b):
    """Every statistic in the two reports must match bit for bit."""
    assert a.system == b.system
    assert a.node_power_mean_w == b.node_power_mean_w
    assert a.node_power_std_w == b.node_power_std_w
    assert a.node_power_peak_w == b.node_power_peak_w
    assert a.jobs_completed == b.jobs_completed
    assert a.samples_streamed == b.samples_streamed
    assert a.chunks_streamed == b.chunks_streamed
    assert a.bytes_streamed == b.bytes_streamed
    assert a.makespan_s == b.makespan_s


class TestShardedBitIdentity:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("chunk_samples", [23, 64])
    def test_sharded_matches_serial(self, workers, chunk_samples):
        serial = _run(chunk_samples=chunk_samples)
        sharded = _run(chunk_samples=chunk_samples, workers=workers)
        _assert_identical(serial, sharded)

    def test_sharded_matches_dense(self):
        dense = dense_fleet_traced(
            _jobs(), CapPolicy.half_tdp(), "50% TDP policy", 8, **RUN_KW
        )
        sharded = _run(workers=2)
        _assert_identical(dense, sharded)

    def test_mixed_platform_pool(self):
        mixed = ["a100-40g", "h100-sxm"]
        serial = _run(node_platforms=mixed)
        sharded = _run(node_platforms=mixed, workers=2)
        _assert_identical(serial, sharded)

    def test_env_override_shards(self, monkeypatch):
        serial = _run()
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        sharded = _run()
        _assert_identical(serial, sharded)

    def test_monitored_sharded_matches_monitored_serial(self):
        live, replayed = FleetMonitor(MonitorConfig()), FleetMonitor(MonitorConfig())
        serial = _run(monitor=live)
        sharded = _run(monitor=replayed, workers=2)
        _assert_identical(serial, sharded)
        assert live.finalize() == replayed.finalize()

    def test_monitored_report_unaffected_by_monitor(self):
        bare = _run(workers=2)
        monitored = _run(monitor=FleetMonitor(MonitorConfig()), workers=2)
        _assert_identical(bare, monitored)


class TestShardPlanning:
    def _tasks(self):
        jobs = _jobs()
        plan = FleetPlan()
        spec = get_platform(None).node
        tasks = [
            shard.ShardJobTask(
                index=i,
                job_id=job.job_id,
                start_s=float(i) * 100.0,
                end_s=float(i) * 100.0 + 500.0 * (i + 1),
                cap_w=400.0,
                n_nodes=job.n_nodes,
                node_names=tuple(f"nid{n:06d}" for n in range(job.n_nodes)),
                spec_indices=(0,) * job.n_nodes,
                workload=job.workload,
                phase_key=plan.phase_key(job.workload, job.n_nodes),
                seed=_job_seed(job.job_id, 7),
            )
            for i, job in enumerate(jobs)
        ]
        return tasks, [spec]

    def test_every_task_lands_on_exactly_one_shard(self):
        tasks, specs = self._tasks()
        for n_shards in (1, 2, 4, 100):
            shards = shard.plan_shards(tasks, specs, n_shards)
            seen = [t.index for s in shards for t in s]
            assert sorted(seen) == [t.index for t in tasks]

    def test_shards_are_chronological_and_deterministic(self):
        jobs = _jobs()
        plan = FleetPlan()
        spec = get_platform(None).node
        tasks = [
            shard.ShardJobTask(
                index=i,
                job_id=job.job_id,
                start_s=i * 50.0,
                end_s=i * 50.0 + 900.0 + 37.0 * i,
                cap_w=400.0,
                n_nodes=job.n_nodes,
                node_names=tuple(f"nid{n:06d}" for n in range(job.n_nodes)),
                spec_indices=(0,) * job.n_nodes,
                workload=job.workload,
                phase_key=plan.phase_key(job.workload, job.n_nodes),
                seed=_job_seed(job.job_id, 7),
            )
            for i, job in enumerate(jobs)
        ]
        first = shard.plan_shards(tasks, [spec], 2)
        second = shard.plan_shards(tasks, [spec], 2)
        assert [[t.index for t in s] for s in first] == [
            [t.index for t in s] for s in second
        ]
        for slice_ in first:
            assert [t.index for t in slice_] == sorted(t.index for t in slice_)
        assert sorted(t.index for s in first for t in s) == list(range(len(tasks)))

    def test_cost_scales_with_duration_and_gpus(self):
        tasks, specs = self._tasks()
        task = tasks[1]
        assert shard.estimate_task_cost(task, specs) == pytest.approx(
            max(task.end_s - task.start_s, 1.0)
            * task.n_nodes
            * (3 + specs[0].gpus_per_node)
        )


class TestWorkerResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert shard.resolve_fleet_workers(100) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "8")
        assert shard.resolve_fleet_workers(100, workers=3) == 3

    def test_env_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
        assert shard.resolve_fleet_workers(100) == 4

    def test_clamped_to_job_count(self):
        assert shard.resolve_fleet_workers(2, workers=16) == 2

    def test_never_below_one(self):
        assert shard.resolve_fleet_workers(5, workers=0) == 1


class TestCheckpointResume:
    #: The real saver, untouched by the stashing monkeypatch below.
    _real_save = staticmethod(shard.save_checkpoint)

    def _stashing_save(self, monkeypatch):
        """Capture every checkpoint the run writes, in write order."""
        stashed = []

        def save(path, checkpoint):
            stashed.append(checkpoint)
            self._real_save(path, checkpoint)

        monkeypatch.setattr(shard, "save_checkpoint", save)
        return stashed

    def test_resume_from_every_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "fleet.ckpt"
        stashed = self._stashing_save(monkeypatch)
        reference = _run(checkpoint=path, checkpoint_every=1)
        snapshots = list(stashed)
        assert len(snapshots) == reference.jobs_completed
        for checkpoint in snapshots:
            self._real_save(path, checkpoint)
            resumed = _run(checkpoint=path, resume=True)
            _assert_identical(reference, resumed)

    def test_resume_from_every_checkpoint_sharded(self, tmp_path, monkeypatch):
        path = tmp_path / "fleet.ckpt"
        stashed = self._stashing_save(monkeypatch)
        reference = _run(checkpoint=path, checkpoint_every=2, workers=2)
        snapshots = list(stashed)
        serial = _run()
        _assert_identical(serial, reference)
        for checkpoint in snapshots:
            self._real_save(path, checkpoint)
            resumed = _run(checkpoint=path, resume=True, workers=2)
            _assert_identical(reference, resumed)

    def test_final_checkpoint_skips_all_rendering(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        reference = _run(checkpoint=path)
        assert shard.load_checkpoint(path).jobs_done == reference.jobs_completed
        resumed = _run(checkpoint=path, resume=True)
        _assert_identical(reference, resumed)

    def test_resume_without_checkpoint_file_runs_fresh(self, tmp_path):
        path = tmp_path / "missing.ckpt"
        fresh = _run(checkpoint=path, resume=True)
        _assert_identical(_run(), fresh)
        assert path.exists()  # the fresh run checkpoints as it goes

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        _run(checkpoint=path)
        with pytest.raises(ValueError, match="different simulation"):
            _run(checkpoint=path, resume=True, seed=8)

    def test_env_checkpoint_path(self, tmp_path, monkeypatch):
        path = tmp_path / "env.ckpt"
        monkeypatch.setenv(shard.CHECKPOINT_ENV, str(path))
        reference = _run()
        assert path.exists()
        monkeypatch.delenv(shard.CHECKPOINT_ENV)
        _assert_identical(reference, _run())

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="checkpoint"):
            shard.load_checkpoint(path)

    def test_wrong_payload_rejected(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        path.write_bytes(pickle.dumps({"version": 1}))
        with pytest.raises(ValueError, match="checkpoint"):
            shard.load_checkpoint(path)

    def test_missing_checkpoint_is_none(self, tmp_path):
        assert shard.load_checkpoint(tmp_path / "nope.ckpt") is None


class TestGuardRails:
    def test_checkpoint_rejects_monitor(self, tmp_path):
        with pytest.raises(ValueError, match="monitor"):
            _run(monitor=FleetMonitor(MonitorConfig()), checkpoint=tmp_path / "c.ckpt")

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError, match="resume"):
            _run(resume=True)

    def test_checkpoint_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            _run(checkpoint=tmp_path / "c.ckpt", checkpoint_every=0)


class TestLazyPool:
    def test_unmonitored_run_builds_only_touched_nodes(self):
        from repro.hardware.system import PerlmutterSystem

        pool = PerlmutterSystem(n_nodes=64)
        assert pool.nodes.built_count == 0
        names = pool.allocate_names("j", 4)
        assert pool.nodes.built_count == 0
        nodes = [pool.nodes[name] for name in names]
        assert pool.nodes.built_count == 4
        assert [node.name for node in nodes] == names

    def test_lazy_nodes_match_eager_nodes(self):
        from repro.hardware.system import PerlmutterSystem

        lazy = PerlmutterSystem(n_nodes=8)
        eager = PerlmutterSystem(n_nodes=8)
        eager.materialize()
        for name in list(lazy.nodes):
            a, b = lazy.nodes[name], eager.nodes[name]
            assert a.name == b.name
            assert a.gpus == b.gpus
