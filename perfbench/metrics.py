"""What each metric of ``BENCHMARK.json`` measures: its kind, and which
end-to-end metric it should move on which workload. Names, units,
directions and bounds are only in ``BENCHMARK.json``.

``kind`` is ``"exact"`` for deterministic quantities that repeat bit for
bit across runs of one seed (simulated seconds, byte and call counts,
model shape), ``"timing"`` for host measurements that vary from run to
run, and ``"ratio"`` for a derived share whose base is printed beside
it.
"""

from __future__ import annotations

__all__ = ["ABOUT", "CRITPATH_CATEGORIES"]

#: critical-path blame categories reported per run. ``fault_retry`` and
#: ``blocked_wait`` (a receive with no matching send) only occur under
#: injected faults, which no workload has, so they would always read 0;
#: they still enter the check that the categories sum to sim_elapsed_s
CRITPATH_CATEGORIES = (
    "compute", "disk_read", "disk_write", "comm_startup", "comm_bandwidth",
)

_P, _W, _F = "paper-ooc", "wide-incore", "forest-serve"
_ALL = "all workloads"

#: metric name -> (kind, what it measures or should move)
ABOUT = {
    # end to end
    "sim_elapsed_s": ("exact", "simulated elapsed, max over ranks: the paper's quantity"),
    "train_records_per_s": ("timing", "training records over host wall seconds of the untraced fit"),
    "setup_s": ("timing",
                "median host seconds before fit: generation, Cluster, DistributedDataset.create"),
    "test_accuracy": ("exact", "accuracy on the held-out stream served after the fit"),
    "peak_rss_mb": ("timing", "process high-water resident memory"),
    "predict_records_per_s": ("timing", "served records over summed batch service seconds"),
    "predict_batch_p50_ms": ("timing", "median service time of one request batch"),
    "predict_batch_p95_ms": ("timing", "95th percentile batch service time (sample count printed)"),
    # data
    "data.generate_s": ("timing", f"setup_s on {_ALL}"),
    "data.distribute_s": ("timing", f"setup_s on {_ALL}"),
    # ooc
    "ooc.bytes_read": ("exact", f"sim_elapsed_s on {_P}; little on {_W} (each node read once)"),
    "ooc.bytes_written": ("exact", f"sim_elapsed_s on {_P}; little on {_W}"),
    "ooc.io_calls": ("exact", f"sim_elapsed_s on {_P}; little on {_W}"),
    "ooc.sim_io_s": ("exact", f"sim_elapsed_s on {_P}; little on {_W}"),
    "ooc.pool_lookups": ("exact", f"base of ooc.pool_hit_rate; 0 on {_W} (pool off)"),
    "ooc.pool_hit_rate": ("exact", f"sim_elapsed_s on {_P}; 0 on {_W} (pool off)"),
    "ooc.prefetch_issued": ("exact", "base of ooc.prefetch_useful_ratio"),
    "ooc.prefetch_useful_ratio": ("exact", f"sim_elapsed_s on {_P}; 0 on {_W}"),
    "ooc.pool_evictions": ("exact", f"sim_elapsed_s on {_P}; 0 on {_W}"),
    "ooc.cross_tree_hit_rate": ("exact", f"sim_elapsed_s on {_F}; 0 on single-tree workloads"),
    "ooc.host_s": ("timing", f"train_records_per_s on {_P}"),
    # cluster
    "cluster.collectives": ("exact", f"sim_elapsed_s on {_W}"),
    "cluster.bytes_sent": ("exact", f"sim_elapsed_s on {_W}"),
    "cluster.sim_comm_s": ("exact", f"sim_elapsed_s on {_W}"),
    "cluster.sim_idle_s": ("exact", f"sim_elapsed_s on {_P}"),
    "cluster.host_s": ("timing", f"train_records_per_s on {_P} and {_W}"),
    "cluster.payload_nbytes_host_s": ("timing", f"train_records_per_s on {_P} and {_W}"),
    # clouds
    "clouds.accumulate_host_s": ("timing", f"train_records_per_s on {_P}"),
    "clouds.exact_split_host_s": ("timing", f"train_records_per_s on {_P}"),
    "clouds.alive_host_s": ("timing", f"train_records_per_s on {_W}"),
    "clouds.intervals_evaluated": ("exact", "base of clouds.survival_ratio"),
    "clouds.survival_ratio": ("exact",
                              f"sim_elapsed_s on {_W} (alive over evaluated SSE intervals)"),
    # core
    "core.phase.preprocess_s": ("exact", "sim_elapsed_s"),
    "core.phase.stats_s": ("exact", f"sim_elapsed_s on {_W}"),
    "core.phase.alive_s": ("exact", "sim_elapsed_s"),
    "core.phase.partition_s": ("exact", f"sim_elapsed_s on {_P}"),
    "core.phase.small_nodes_s": ("exact", f"sim_elapsed_s on {_P}"),
    "core.exchange_bytes": ("exact", f"sim_elapsed_s on {_W}"),
    "core.exchange_host_s": ("timing", "train_records_per_s"),
    "core.small_tasks_host_s": ("timing", "train_records_per_s"),
    "core.fit_program_host_s": ("timing",
                                "train_records_per_s: fit-program time no narrower span covers"),
    "core.large_nodes": ("exact", "shape count"),
    "core.small_tasks": ("exact", "shape count"),
    # forest / dnc
    "forest.n_groups": ("exact", f"sim_elapsed_s on {_F}; 1 elsewhere"),
    "forest.n_waves": ("exact", f"sim_elapsed_s on {_F}; 1 elsewhere"),
    "forest.tree_imbalance": ("exact",
                              f"sim_elapsed_s on {_F} (max over mean tree elapsed); 1 elsewhere"),
    "dnc.regime_model_ratio": ("exact", f"sim_elapsed_s on {_F} "
                               "(modelled cost of chosen G over measured); 0 elsewhere"),
    # serve
    "serve.feature_matrix_host_s": ("timing", "predict_records_per_s and predict_batch_p95_ms"),
    "serve.vote_host_s": ("timing", "predict_records_per_s and predict_batch_p95_ms"),
    # obs
    **{
        f"critpath.{c}_s": ("exact", f"which blocking step moved sim_elapsed_s, on {_ALL}")
        for c in CRITPATH_CATEGORIES
    },
    "obs.metering_host_s": ("timing",
                            f"train_records_per_s on {_F}; 0 where the fit is not metered"),
    "obs.trace_overhead": ("timing",
                           "traced fit wall over untraced fit wall; the traced fit also runs "
                           "under the benchmark's span wrappers, so their cost is included"),
}
