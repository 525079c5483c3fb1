"""Which public functions the traced run wraps, and how each layer's
metrics are read off a fit: simulated counters from ``RankStats`` and
the buffer pools, shape from the fit result, blame from the critical
path, and host self time from the benchmark's own spans."""

from __future__ import annotations

from repro.cluster.comm import Comm, Request, payload_nbytes
from repro.cluster.stats import RankStats
from repro.clouds.gini import best_numeric_split_exact
from repro.clouds.nodestats import accumulate_batch
from repro.clouds.sse import determine_alive_intervals
from repro.core import pclouds as _pclouds
from repro.core.small_tasks import process_small_tasks
from repro.core.stats_exchange import exchange_level_stats
from repro.forest import trainer as _trainer
from repro.obs.instrument import MetricsRecorder
from repro.ooc.backend import chunk_crc
from repro.ooc.bufferpool import BufferPool, PoolStats
from repro.ooc.file import OocArray
from repro.serve.compiler import CompiledTree
from repro.serve.forest import CompiledForest

from metrics import CRITPATH_CATEGORIES
from spans import SpanRecorder

__all__ = [
    "install", "LAYER_SPANS", "snapshot", "fit_counters", "shape_counts",
    "fit_metrics", "host_metrics",
]

_COMM_PRIMITIVES = (
    "barrier", "bcast", "scatter", "gather", "allgather", "vote", "reduce",
    "allreduce", "allreduce_minloc", "allreduce_minloc_many", "scan",
    "alltoall", "split", "isend", "irecv", "send", "recv",
)
_METRICS_HOOKS = tuple(
    name for name, fn in vars(MetricsRecorder).items()
    if callable(fn) and not name.startswith("_")
)

#: host per-layer metric -> span-name prefix whose self time it sums
LAYER_SPANS = {
    "ooc.host_s": "ooc:",
    "cluster.host_s": "cluster:Comm.",
    "cluster.payload_nbytes_host_s": "cluster:payload_nbytes",
    "clouds.accumulate_host_s": "clouds:accumulate_batch",
    "clouds.exact_split_host_s": "clouds:best_numeric_split_exact",
    "clouds.alive_host_s": "clouds:determine_alive_intervals",
    "core.exchange_host_s": "core:exchange_level_stats",
    "core.small_tasks_host_s": "core:process_small_tasks",
    "core.fit_program_host_s": "core:fit_program",
    "serve.feature_matrix_host_s": "serve:feature_matrix",
    "serve.vote_host_s": "serve:vote",
    "obs.metering_host_s": "obs:MetricsRecorder.",
}


def _count_intervals(rec: SpanRecorder, args, kwargs, alive) -> None:
    """SSE waste: alive intervals out of the intervals evaluated."""
    stats, schema = args[0], args[1]
    evaluated = sum(stats.numeric[a.name].hist.shape[0] for a in schema.numeric)
    rec.count("intervals_evaluated", evaluated)
    rec.count("intervals_alive", len(alive))


def install(rec: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    for attr in ("read", "peek", "issue_prefetch", "delay_inflight"):
        rec.wrap_method(BufferPool, attr, f"ooc:BufferPool.{attr}")
    for attr in ("append", "iter_chunks", "read_all"):
        rec.wrap_method(OocArray, attr, f"ooc:OocArray.{attr}")
    rec.wrap_function(chunk_crc, "ooc:chunk_crc")
    for attr in _COMM_PRIMITIVES:
        rec.wrap_method(Comm, attr, f"cluster:Comm.{attr}")
    for attr in ("wait", "test"):
        rec.wrap_method(Request, attr, f"cluster:Comm.Request.{attr}")
    rec.wrap_function(payload_nbytes, "cluster:payload_nbytes", outer_only=True)
    rec.wrap_function(accumulate_batch, "clouds:accumulate_batch")
    rec.wrap_function(best_numeric_split_exact, "clouds:best_numeric_split_exact")
    rec.wrap_function(
        determine_alive_intervals, "clouds:determine_alive_intervals",
        after=_count_intervals,
    )
    rec.wrap_function(exchange_level_stats, "core:exchange_level_stats")
    rec.wrap_function(process_small_tasks, "core:process_small_tasks")
    rec.wrap_function(_pclouds._fit_program, "core:fit_program")
    rec.wrap_function(_trainer._forest_program, "core:fit_program")
    for cls in (CompiledTree, CompiledForest):
        rec.wrap_method(cls, "feature_matrix", f"serve:feature_matrix.{cls.__name__}")
    rec.wrap_method(CompiledTree, "predict_matrix", "serve:vote.CompiledTree")
    rec.wrap_method(CompiledForest, "vote_counts", "serve:vote.CompiledForest")
    for attr in _METRICS_HOOKS:
        rec.wrap_method(MetricsRecorder, attr, f"obs:MetricsRecorder.{attr}")


# -- simulated counters ------------------------------------------------------


def snapshot(contexts) -> list[tuple[dict, dict]]:
    """Per rank: RankStats and pool counters before the fit (both hold
    the initial distribution's traffic, which the fit must not be
    charged for)."""
    return [
        (
            ctx.stats.as_dict(),
            ctx.disk.pool.stats.as_dict() if ctx.disk.pool is not None else {},
        )
        for ctx in contexts
    ]


def fit_counters(contexts, before) -> tuple[RankStats, PoolStats]:
    """RankStats and PoolStats of the fit alone, summed over ranks."""
    rank, pool = RankStats(), PoolStats()
    for ctx, (s0, p0) in zip(contexts, before):
        for k, v in ctx.stats.as_dict().items():
            setattr(rank, k, getattr(rank, k) + v - s0[k])
        if ctx.disk.pool is not None:
            for k, v in ctx.disk.pool.stats.as_dict().items():
                setattr(pool, k, getattr(pool, k) + v - p0[k])
    return rank, pool


def shape_counts(w, result) -> dict[str, int]:
    """Large nodes and small tasks of a fit (summed over a forest's trees)."""
    if w.kind == "forest":
        return {
            "core.large_nodes": sum(int(t["n_large"]) for t in result.tree_stats),
            "core.small_tasks": sum(int(t["n_small"]) for t in result.tree_stats),
        }
    return {
        "core.large_nodes": int(result.n_large_nodes),
        "core.small_tasks": int(result.n_small_tasks),
    }


def _phase(name: str) -> str:
    return name.rsplit("/", 1)[-1]  # forest phases are tree-prefixed: tree3/stats


def fit_metrics(w, result, counters, span_counts: dict, path) -> dict[str, float]:
    """Simulated, shape and blame per-layer metrics of one traced fit."""
    rank, pool = counters
    phases: dict[str, float] = {}  # max over ranks of each rank's phase total
    for per_rank in result.run.phase_times:
        summed: dict[str, float] = {}
        for name, secs in per_rank.items():
            summed[_phase(name)] = summed.get(_phase(name), 0.0) + secs
        for ph, secs in summed.items():
            phases[ph] = max(phases.get(ph, 0.0), secs)
    # stats-exchange traffic, read off the trace directly: TraceReport's
    # exchange roll-up matches only the unprefixed "stats" phase
    exchange_bytes = sum(
        e.sent
        for t in result.tracers
        for e in t.events
        if e.kind == "comm" and e.phase is not None and _phase(e.phase) == "stats"
    )
    if w.kind == "forest":
        tree_s = [t["elapsed"] for t in result.tree_stats]
        forest = {
            "forest.n_groups": result.n_groups,
            "forest.n_waves": result.n_waves,
            "forest.tree_imbalance": max(tree_s) / (sum(tree_s) / len(tree_s)),
            "dnc.regime_model_ratio": (
                result.regime_costs[result.n_groups] / result.elapsed
                if result.regime_costs else 0.0
            ),
            "ooc.cross_tree_hit_rate": result.cross_tree["cross_tree_hit_rate"],
        }
    else:
        forest = {
            "forest.n_groups": 1, "forest.n_waves": 1, "forest.tree_imbalance": 1.0,
            "dnc.regime_model_ratio": 0.0, "ooc.cross_tree_hit_rate": 0.0,
        }
    evaluated = span_counts.get("intervals_evaluated", 0)
    blame = path.by_category()
    return {
        "ooc.bytes_read": rank.bytes_read,
        "ooc.bytes_written": rank.bytes_written,
        "ooc.io_calls": rank.io_calls,
        "ooc.sim_io_s": rank.io_time,
        "ooc.pool_lookups": pool.lookups(),
        "ooc.pool_hit_rate": pool.hit_rate(),
        "ooc.prefetch_issued": pool.prefetch_issued,
        "ooc.prefetch_useful_ratio": (
            pool.prefetch_useful / pool.prefetch_issued if pool.prefetch_issued else 0.0
        ),
        "ooc.pool_evictions": pool.evictions,
        "cluster.collectives": rank.collectives,
        "cluster.bytes_sent": rank.bytes_sent,
        "cluster.sim_comm_s": rank.comm_time,
        "cluster.sim_idle_s": rank.idle_time,
        "clouds.intervals_evaluated": evaluated,
        "clouds.survival_ratio": (
            span_counts.get("intervals_alive", 0) / evaluated if evaluated else 0.0
        ),
        **{f"core.phase.{ph}_s": phases.get(ph, 0.0)
           for ph in ("preprocess", "stats", "alive", "partition", "small_nodes")},
        "core.exchange_bytes": exchange_bytes,
        **shape_counts(w, result),
        **forest,
        **{f"critpath.{c}_s": blame[c] for c in CRITPATH_CATEGORIES},
    }


def host_metrics(table: dict[str, dict]) -> dict[str, float]:
    """Sum span self times into the host per-layer metrics."""
    return {
        metric: sum(row["self_s"] for name, row in table.items() if name.startswith(prefix))
        for metric, prefix in LAYER_SPANS.items()
    }
