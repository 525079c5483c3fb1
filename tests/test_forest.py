"""Out-of-core bagged forests: reproducible seed streams, member
bit-identity across scheduling regimes, crash recovery mid-forest,
cross-tree cache accounting, the regime scheduler, and compiled voting.

The load-bearing contract: a forest member is a pure function of
``(forest seed, tree index, bag multiset)`` — the regime (group count),
rank count, exchange strategy, buffer pool, metering, and recovery path
must all produce the same trees bit for bit, and the base dataset must
survive the fit (bags are derived spools, not consumed fragments).
"""

import json

import numpy as np
import pytest

from repro.cluster import (
    CrashAtCollective,
    CrashAtPhase,
    FaultPlan,
)
from repro.cluster.clock import SimClock
from repro.cluster.diskmodel import DiskModel
from repro.cluster.stats import RankStats
from repro.clouds import CloudsConfig
from repro.clouds.forest import DecisionForest, validate_forest
from repro.core import DistributedDataset, PClouds, PCloudsConfig
from repro.data import generate_quest, quest_schema
from repro.dnc import DncCostModel, TreeShape, choose_forest_regime, forest_regime_cost
from repro.forest import (
    ForestConfig,
    PForest,
    bag_multiplicities,
    candidate_groups,
    resolve_n_groups,
    spawn_tree_seeds,
)
from repro.obs.health import HealthMonitor, HealthThresholds
from repro.ooc import BufferPool, LocalDisk, MemoryBudget, OocArray

from conftest import make_cluster

N = 800
B = 3
SEED = 5


def pconfig(**overrides):
    clouds = CloudsConfig(
        method="sse", q_root=40, sample_size=200, min_node=16, purity=0.999
    )
    return PCloudsConfig(clouds=clouds, q_switch=8, **overrides)


def forest_config(regime="data", **overrides):
    return ForestConfig(
        n_trees=B, pclouds=pconfig(**overrides.pop("pclouds_kw", {})),
        regime=regime, **overrides,
    )


@pytest.fixture(scope="module")
def quest():
    return generate_quest(N, function=2, seed=SEED, noise=0.02)


def make_dataset(quest, p, **cluster_kwargs):
    cols, labels = quest
    cluster = make_cluster(p, **cluster_kwargs)
    return DistributedDataset.create(
        cluster, quest_schema(), cols, labels, seed=1
    )


def tree_roots(forest: DecisionForest) -> list[dict]:
    # structural comparison only: per-tree meta records the schedule
    return [t.to_dict()["root"] for t in forest.trees]


@pytest.fixture(scope="module")
def standalone_roots(quest):
    """Each member fitted alone: host-side bag materialisation, its own
    2-rank cluster, plain PClouds with the spawned fit seed."""
    cols, labels = quest
    roots = []
    for s in spawn_tree_seeds(SEED, B):
        mult = bag_multiplicities(s.mask, N)
        rows = np.repeat(np.arange(N), mult)
        ds = DistributedDataset.create(
            make_cluster(2), quest_schema(),
            {k: v[rows] for k, v in cols.items()}, labels[rows], seed=1,
        )
        res = PClouds(pconfig()).fit(ds, seed=s.fit_seed)
        roots.append(res.tree.to_dict()["root"])
    return roots


# -- satellite 1: reproducible per-tree seed streams ---------------------------


class TestSeedStreams:
    def test_spawned_fit_seeds_are_pinned(self):
        # the exact SeedSequence spawn tree is part of the wire contract:
        # changing it silently re-rolls every bag in every saved run
        seeds = spawn_tree_seeds(0, 3)
        assert [s.fit_seed for s in seeds] == [
            3581274545, 3613627650, 1663335698,
        ]
        assert [s.tree for s in seeds] == [0, 1, 2]

    def test_bag_multiplicities_are_pinned(self):
        seeds = spawn_tree_seeds(0, 2)
        m0 = bag_multiplicities(seeds[0].mask, 10)
        m1 = bag_multiplicities(seeds[1].mask, 10)
        assert m0.tolist() == [2, 0, 0, 0, 1, 1, 0, 2, 1, 3]
        assert m1.tolist() == [0, 1, 1, 0, 3, 0, 2, 1, 0, 2]

    def test_bag_is_a_resample_with_replacement(self):
        m = bag_multiplicities(spawn_tree_seeds(9, 1)[0].mask, 1000)
        assert m.sum() == 1000
        assert m.min() >= 0
        # a bootstrap leaves ~1/e of records out
        assert 0.25 < np.mean(m == 0) < 0.45

    def test_trees_get_independent_streams(self):
        seeds = spawn_tree_seeds(0, 4)
        masks = [bag_multiplicities(s.mask, 500) for s in seeds]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(masks[i], masks[j])
        assert len({s.fit_seed for s in seeds}) == 4


def cost_model(p=4):
    from repro.cluster.compute import ComputeModel
    from repro.cluster.network import NetworkModel

    return DncCostModel(
        network=NetworkModel(), disk=DiskModel(), compute=ComputeModel(),
        n_ranks=p,
    )


# -- the scheduler -------------------------------------------------------------


class TestRegimeScheduler:
    def test_candidate_groups_are_divisors_capped_by_trees(self):
        assert candidate_groups(4, 8) == [1, 2, 4]
        assert candidate_groups(4, 2) == [1, 2]
        assert candidate_groups(6, 8) == [1, 2, 3, 6]
        assert candidate_groups(1, 8) == [1]

    def test_named_regimes_resolve(self):
        assert resolve_n_groups("data", n_ranks=4, n_trees=8) == (1, {})
        assert resolve_n_groups("tree", n_ranks=4, n_trees=8) == (4, {})
        g, _ = resolve_n_groups("hybrid", n_ranks=4, n_trees=8)
        assert g == 2
        g, _ = resolve_n_groups("hybrid", n_ranks=4, n_trees=8, n_groups=4)
        assert g == 4

    def test_infeasible_explicit_groups_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            resolve_n_groups("hybrid", n_ranks=4, n_trees=8, n_groups=3)
        with pytest.raises(ValueError, match="unknown regime"):
            resolve_n_groups("bogus", n_ranks=4, n_trees=8)

    def test_auto_needs_the_cost_model(self):
        with pytest.raises(ValueError, match="cost model"):
            resolve_n_groups("auto", n_ranks=4, n_trees=8)

    def test_auto_pick_is_a_candidate_and_costs_cover_all(self):
        model = cost_model(4)
        shape = TreeShape(n_records=10_000, leaf_records=16, record_nbytes=64)
        g, costs = resolve_n_groups(
            "auto", n_ranks=4, n_trees=8, model=model, shape=shape,
            memory_limit=1 << 16, pool_bytes=1 << 20,
        )
        assert set(costs) == {1, 2, 4}
        assert g in costs
        assert costs[g] == min(costs.values())

    def test_heavier_stats_payload_favours_grouping(self):
        # the per-level statistics exchange is what grouping eliminates:
        # growing it must shift the data-vs-tree balance toward more
        # groups, never away from them
        model = cost_model(4)
        shape = TreeShape(n_records=50_000, leaf_records=16, record_nbytes=64)

        def gap(stats):
            kw = dict(n_trees=4, memory_limit=1 << 16, pool_bytes=1 << 22,
                      stats_nbytes=stats)
            return forest_regime_cost(
                model, shape, n_groups=1, **kw
            ) - forest_regime_cost(model, shape, n_groups=4, **kw)

        assert gap(64_000) > gap(64)

    def test_regime_cost_rejects_bad_grouping(self):
        model = cost_model(4)
        shape = TreeShape(n_records=1000, leaf_records=16, record_nbytes=64)
        with pytest.raises(ValueError):
            forest_regime_cost(model, shape, n_trees=4, n_groups=3)
        with pytest.raises(ValueError):
            forest_regime_cost(model, shape, n_trees=0, n_groups=1)
        best, costs = choose_forest_regime(model, shape, n_trees=1)
        assert best == 1 and set(costs) == {1}


# -- the tentpole: bit-identity across every schedule --------------------------


class TestForestBitIdentity:
    @pytest.mark.parametrize("p,regime", [
        (4, "data"), (4, "tree"), (4, "hybrid"), (2, "tree"),
    ])
    def test_members_match_standalone_fits(
        self, quest, standalone_roots, p, regime
    ):
        ds = make_dataset(quest, p)
        before = ds.local_rows()
        res = PForest(forest_config(regime)).fit(ds, seed=SEED)
        assert tree_roots(res.forest) == standalone_roots
        # the base spool survives: bags are derived, not consumed
        assert ds.local_rows() == before
        assert res.n_groups == resolve_n_groups(
            regime, n_ranks=p, n_trees=B
        )[0]
        validate_forest(res.forest)

    def test_exchange_strategy_does_not_leak_into_members(
        self, quest, standalone_roots
    ):
        ds = make_dataset(quest, 4)
        res = PForest(
            forest_config("tree", pclouds_kw=dict(exchange="voting"))
        ).fit(ds, seed=SEED)
        assert tree_roots(res.forest) == standalone_roots

    def test_buffer_pool_does_not_leak_into_members(
        self, quest, standalone_roots
    ):
        ds = make_dataset(
            quest, 4, buffer_pool="lru+prefetch",
            memory_limit=1 << 14, pool_bytes=1 << 18,
        )
        res = PForest(forest_config("tree")).fit(ds, seed=SEED)
        assert tree_roots(res.forest) == standalone_roots

    def test_auto_regime_fits_and_reports_costs(self, quest, standalone_roots):
        ds = make_dataset(quest, 4)
        res = PForest(forest_config("auto")).fit(ds, seed=SEED)
        assert tree_roots(res.forest) == standalone_roots
        assert set(res.regime_costs) == set(candidate_groups(4, B))
        assert res.n_groups in res.regime_costs

    def test_same_dataset_refits_identically(self, quest):
        ds = make_dataset(quest, 4)
        first = tree_roots(PForest(forest_config("tree")).fit(ds, seed=SEED).forest)
        second = tree_roots(PForest(forest_config("tree")).fit(ds, seed=SEED).forest)
        assert first == second


# -- crash recovery mid-forest -------------------------------------------------


class TestForestRecovery:
    def reference(self, quest, regime="tree"):
        return PForest(forest_config(regime)).fit(
            make_dataset(quest, 4), seed=SEED
        )

    def test_recovers_identical_forest_from_collective_crash(self, quest):
        ref = tree_roots(self.reference(quest).forest)
        plan = FaultPlan.of("mid", CrashAtCollective(rank=1, nth=5))
        res = PForest(forest_config("tree")).fit(
            make_dataset(quest, 4), seed=SEED, faults=plan, recover=True
        )
        assert res.n_restarts == 1
        assert res.fault_events
        assert tree_roots(res.forest) == ref

    def test_recovers_from_crash_inside_a_member_fit(self, quest):
        # phase names are tree-prefixed inside the forest program, so the
        # crash lands mid-member, after earlier trees may have completed
        ref = tree_roots(self.reference(quest, "data").forest)
        plan = FaultPlan.of(
            "member", CrashAtPhase(rank=2, phase=f"tree{B - 1}/stats")
        )
        res = PForest(forest_config("data")).fit(
            make_dataset(quest, 4), seed=SEED, faults=plan, recover=True
        )
        assert res.n_restarts == 1
        assert tree_roots(res.forest) == ref
        # completed waves were restored, not refitted: restored members
        # report a zero-elapsed span
        assert any(t["elapsed"] == 0.0 for t in res.tree_stats)

    def test_unrecovered_crash_propagates(self, quest):
        from repro.cluster import SpmdProgramError

        plan = FaultPlan.of("mid", CrashAtCollective(rank=0, nth=5))
        with pytest.raises(SpmdProgramError):
            PForest(forest_config("tree")).fit(
                make_dataset(quest, 4), seed=SEED, faults=plan, recover=False
            )


# -- cross-tree cache accounting ----------------------------------------------


class TestCrossTreeAccounting:
    def scripted_pool(self):
        disk = LocalDisk(DiskModel(), SimClock(), RankStats(), None)
        pool = BufferPool(MemoryBudget(limit=1 << 20))
        disk.attach_pool(pool)
        arr = OocArray(disk, np.float64, name="x")
        arr.append(np.arange(64.0))
        arr.append(np.arange(64.0) + 1)
        return pool, arr

    def test_hits_across_begin_tree_are_cross_tree_exactly(self):
        pool, arr = self.scripted_pool()
        pool.begin_tree(0)
        list(arr.iter_chunks())  # two cold misses admitted under tree 0
        assert (pool.stats.hits, pool.stats.cross_tree_hits) == (0, 0)
        list(arr.iter_chunks())  # same-tree hits: not cross-tree
        assert (pool.stats.hits, pool.stats.cross_tree_hits) == (2, 0)
        pool.begin_tree(1)
        list(arr.iter_chunks())  # other tree reads tree-0 residents
        assert (pool.stats.hits, pool.stats.cross_tree_hits) == (4, 2)
        assert pool.stats.cross_tree_hit_bytes == arr.nbytes
        pool.begin_tree(None)
        list(arr.iter_chunks())  # outside any forest: never cross-tree
        assert (pool.stats.hits, pool.stats.cross_tree_hits) == (6, 2)

    def test_forest_result_accounting_is_consistent(self, quest):
        ds = make_dataset(
            quest, 4, buffer_pool="lru",
            memory_limit=1 << 14, pool_bytes=1 << 20,
        )
        res = PForest(forest_config("tree")).fit(ds, seed=SEED)
        ct = res.cross_tree
        assert ct["cross_tree_hits"] <= ct["hits"]
        assert sum(r["cross_tree_hits"] for r in ct["per_rank"]) == (
            ct["cross_tree_hits"]
        )
        assert sum(r["hits"] for r in ct["per_rank"]) == ct["hits"]
        if ct["hits"]:
            assert ct["cross_tree_hit_rate"] == pytest.approx(
                ct["cross_tree_hits"] / ct["hits"]
            )
        # concurrent groups over a generous pool must actually share
        assert ct["cross_tree_hits"] > 0
        assert len(res.disk_read_bytes) == 4

    def test_data_parallel_regime_has_no_concurrent_sharing_alert(self):
        monitor = HealthMonitor(4, network=None, thresholds=HealthThresholds())
        assert monitor.evaluate_forest_cache(
            n_groups=1, cross_tree_hits=0, hits=100
        ) == []
        assert monitor.evaluate_forest_cache(
            n_groups=4, cross_tree_hits=0, hits=0
        ) == []

    def test_cold_shared_cache_raises_alert(self):
        monitor = HealthMonitor(4, network=None, thresholds=HealthThresholds())
        alerts = monitor.evaluate_forest_cache(
            n_groups=4, cross_tree_hits=0, hits=1000
        )
        assert len(alerts) == 1
        assert alerts[0].indicator == "forest_cross_tree_hit_rate"
        assert monitor.alerts == alerts
        assert monitor.evaluate_forest_cache(
            n_groups=4, cross_tree_hits=500, hits=1000
        ) == []


# -- observability ------------------------------------------------------------


class TestForestMetrics:
    def test_metered_forest_exports_forest_family(self, quest):
        ds = make_dataset(
            quest, 4, buffer_pool="lru",
            memory_limit=1 << 14, pool_bytes=1 << 20,
        )
        res = PForest(forest_config("tree")).fit(ds, seed=SEED, metrics=True)
        snap = res.metrics_snapshot()
        families = {f["name"]: f for f in snap["metrics"]}
        (trees,) = families["repro_forest_trees"]["samples"]
        assert trees["value"] == B
        (groups,) = families["repro_forest_groups"]["samples"]
        assert groups["value"] == res.n_groups
        per_tree = families["repro_forest_tree_elapsed_seconds"]["samples"]
        assert {s["labels"]["tree"] for s in per_tree} == {
            str(t) for t in range(B)
        }
        xhits = sum(
            s["value"]
            for s in families["repro_forest_cross_tree_hits_total"]["samples"]
        )
        assert xhits == res.cross_tree["cross_tree_hits"]
        assert res.health is not None

    def test_metering_does_not_perturb_members(self, quest, standalone_roots):
        ds = make_dataset(quest, 4)
        res = PForest(forest_config("tree")).fit(ds, seed=SEED, metrics=True)
        assert tree_roots(res.forest) == standalone_roots

    def test_per_tree_phase_blame(self, quest):
        ds = make_dataset(quest, 4)
        res = PForest(forest_config("data")).fit(ds, seed=SEED, trace=True)
        for t in range(B):
            phases = res.tree_phases(t)
            assert phases, f"tree {t} has no phase profile"
            assert all(not k.startswith("tree") for k in phases)
            assert "bag" in phases

    def test_trace_report_counts_tree_prefixed_stats_traffic(self, quest):
        """Forest phases are tree-prefixed (``tree3/stats``); the
        exchange roll-up must still see every stats-phase collective."""
        from repro.cluster.tracereport import TraceReport

        ds = make_dataset(quest, 4)
        res = PForest(forest_config("data")).fit(ds, seed=SEED, trace=True)
        stats_events = [
            e
            for t in res.tracers
            for e in t.events
            if e.kind == "comm" and e.phase and e.phase.endswith("/stats")
        ]
        report = TraceReport(res.tracers)
        assert report.exchange_bytes() > 0
        assert report.exchange_bytes() == sum(e.sent for e in stats_events)
        assert sum(r.count for r in report.exchange_rollup()) == len(stats_events)


# -- compiled voting ----------------------------------------------------------


class TestCompiledForestParity:
    def test_compiled_vote_matches_reference_with_nan(self, quest):
        ds = make_dataset(quest, 4)
        res = PForest(forest_config("tree")).fit(ds, seed=SEED)
        cols, _ = quest
        probe = {k: v[:200].copy() for k, v in cols.items()}
        salary = probe["salary"].astype(float)
        salary[::7] = np.nan
        probe["salary"] = salary
        compiled = res.forest.compile()
        np.testing.assert_array_equal(
            compiled.predict_batch(probe), res.forest.predict(probe)
        )

    def test_forest_round_trips_through_json(self, quest, tmp_path):
        ds = make_dataset(quest, 2)
        res = PForest(forest_config("tree")).fit(ds, seed=SEED)
        path = tmp_path / "forest.json"
        res.forest.save(str(path))
        loaded = DecisionForest.load(str(path), quest_schema())
        assert tree_roots(loaded) == tree_roots(res.forest)
        cols, _ = quest
        probe = {k: v[:100] for k, v in cols.items()}
        np.testing.assert_array_equal(
            loaded.predict(probe), res.forest.predict(probe)
        )


# -- config validation and CLI -------------------------------------------------


class TestConfigAndCli:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ForestConfig(n_trees=0)
        with pytest.raises(ValueError):
            ForestConfig(regime="bogus")

    def test_cli_forest_smoke(self, tmp_path):
        from repro.cli import main

        report = tmp_path / "forest.json"
        out = tmp_path / "forest_model.json"
        rc = main([
            "forest", "--records", "800", "--ranks", "2", "--trees", "2",
            "--regime", "tree", "--seed", "3",
            "--json-out", str(report), "--forest-out", str(out),
        ])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["n_trees"] == 2
        assert payload["n_groups"] == 2
        assert "cross_tree" in payload
        loaded = DecisionForest.load(str(out), quest_schema())
        assert loaded.n_trees == 2
