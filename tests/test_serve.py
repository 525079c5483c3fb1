"""Serving path: the compiled flat-array engine must be bit-identical to
the reference ``DecisionTree.predict`` on every builder's trees (including
trees round-tripped through the JSON wire format), degenerate chain trees
deeper than the interpreter recursion limit must predict / serialise /
compile without error, and the replay driver's latency/throughput
roll-ups and health alerts must be exactly reproducible under a fake
clock."""

from __future__ import annotations

import functools
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clouds import (
    CATEGORICAL_SPLIT,
    NUMERIC_SPLIT,
    CloudsBuilder,
    CloudsConfig,
    SliqBuilder,
    Split,
    SprintBuilder,
    StoppingRule,
    fit_direct,
    validate_tree,
)
from repro.clouds.tree import DecisionTree, TreeNode
from repro.core import DistributedDataset, PClouds, PCloudsConfig
from repro.clouds.forest import DecisionForest
from repro.data import generate_quest, quest_schema
from repro.data.schema import LABEL_DTYPE
from repro.data.synthetic import make_blobs
from repro.obs import HealthThresholds, MetricsRegistry
from repro.obs.health import OUTSIDE_LEVEL
from repro.serve import (
    CompiledTree,
    ReplayConfig,
    ServeEngine,
    compile_tree,
    replay,
    request_batches,
)
from repro.serve.compiler import LEAF

from conftest import make_cluster


# ---------------------------------------------------------------------------
# helpers


def fit_parallel(cols, labels, p, exchange):
    schema = quest_schema()
    cluster = make_cluster(p)
    ds = DistributedDataset.create(cluster, schema, cols, labels, seed=1)
    cfg = PCloudsConfig(
        clouds=CloudsConfig(q_root=60, sample_size=500, min_node=16),
        exchange=exchange,
    )
    return PClouds(cfg).fit(ds, seed=2).tree


#: values beyond any threshold or code: infinities and magnitudes at or
#: past the int64 range (a cast to int64 would be platform-defined)
EXTREMES = np.array([np.inf, -np.inf, 2.0**63, -(2.0**63), 1e300, -1e300])


def adversarial_columns(schema, n, rng):
    """A request batch exercising every routing edge case: NaN, ±inf and
    huge magnitudes in numerics, and categorical queries that are
    negative, fractional, NaN, infinite, at the bitset width (63, 64) or
    far beyond the schema cardinality."""
    cols = {}
    for a in schema.numeric:
        v = rng.normal(0.0, 1e5, n)
        v[rng.random(n) < 0.1] = np.nan
        wild = rng.random(n) < 0.1
        v[wild] = rng.choice(EXTREMES, int(wild.sum()))
        cols[a.name] = v
    for a in schema.categorical:
        v = rng.integers(-2, a.cardinality + 2, n).astype(np.float64)
        frac = rng.random(n) < 0.15
        v[frac] += 0.5
        v[rng.random(n) < 0.05] = np.nan
        wild = rng.random(n) < 0.1
        v[wild] = rng.choice(np.append(EXTREMES, [63.0, 64.0]), int(wild.sum()))
        cols[a.name] = v
    return cols


def assert_compiled_matches(tree, columns):
    ref = tree.predict(columns)
    got = tree.compile().predict_batch(columns)
    np.testing.assert_array_equal(got, ref)
    assert got.dtype == ref.dtype


# ---------------------------------------------------------------------------
# compiled == reference across the builder grid


class TestCompiledIdentity:
    """Every builder's trees — sequential, approximate, parallel — must
    compile to bit-identical batch prediction."""

    def test_direct_tree(self, schema, quest_small):
        cols, labels = quest_small
        tree = fit_direct(schema, cols, labels, StoppingRule(min_node=8))
        assert_compiled_matches(tree, cols)

    @pytest.mark.parametrize("method", ["ss", "sse"])
    def test_clouds_tree(self, schema, quest_small, method):
        cols, labels = quest_small
        tree = CloudsBuilder(
            schema,
            CloudsConfig(method=method, q_root=40, sample_size=400, min_node=16),
        ).fit_arrays(cols, labels, seed=5)
        assert_compiled_matches(tree, cols)

    def test_sliq_and_sprint_trees(self, schema, quest_small):
        cols, labels = quest_small
        stop = StoppingRule(min_node=32)
        for tree in (
            SliqBuilder(schema, stop).fit(cols, labels),
            SprintBuilder(schema, stop).fit(cols, labels),
        ):
            assert_compiled_matches(tree, cols)

    def test_multiclass_tree(self):
        schema, cols, labels = make_blobs(1500, seed=31)
        tree = fit_direct(schema, cols, labels, StoppingRule(min_node=8))
        assert_compiled_matches(tree, cols)

    @pytest.mark.parametrize("exchange", ["attribute", "distributed"])
    def test_parallel_tree(self, quest_small, exchange):
        cols, labels = quest_small
        tree = fit_parallel(cols, labels, 4, exchange)
        validate_tree(tree)
        assert_compiled_matches(tree, cols)

    def test_loaded_from_json_tree(self, schema, quest_small, tmp_path):
        """The wire format is part of the serving contract: a tree saved
        and loaded back must compile to the same labels."""
        cols, labels = quest_small
        tree = fit_direct(schema, cols, labels, StoppingRule(min_node=8))
        path = str(tmp_path / "tree.json")
        tree.save(path)
        loaded = DecisionTree.load(path, schema)
        np.testing.assert_array_equal(
            loaded.compile().predict_batch(cols), tree.predict(cols)
        )

    def test_adversarial_inputs(self, schema, quest_small):
        cols, labels = quest_small
        tree = fit_direct(schema, cols, labels, StoppingRule(min_node=8))
        bad = adversarial_columns(schema, 3000, np.random.default_rng(0))
        assert_compiled_matches(tree, bad)

    def test_single_leaf_tree(self, schema, quest_small):
        cols, labels = quest_small
        tree = fit_direct(schema, cols, labels, StoppingRule(min_node=10**9))
        compiled = tree.compile()
        assert compiled.n_nodes == 1 and compiled.n_leaves == 1
        assert_compiled_matches(tree, cols)

    def test_empty_batch(self, schema, quest_small):
        cols, labels = quest_small
        tree = fit_direct(schema, cols, labels, StoppingRule(min_node=8))
        empty = {k: v[:0] for k, v in cols.items()}
        out = tree.compile().predict_batch(empty)
        assert out.shape == (0,)


class TestCompiledLayout:
    def test_tables_and_shape(self, schema, quest_small):
        cols, labels = quest_small
        tree = fit_direct(schema, cols, labels, StoppingRule(min_node=16))
        compiled = tree.compile()
        assert isinstance(compiled, CompiledTree)
        assert compiled.n_nodes == tree.n_nodes
        assert compiled.n_leaves == tree.n_leaves
        assert compiled.depth == tree.depth
        assert compiled.feature[0] != LEAF  # root is internal here
        internal = compiled.feature != LEAF
        # breadth-first sibling adjacency: the invariant predict_matrix
        # exploits to advance cursors without a second child gather
        np.testing.assert_array_equal(
            compiled.right[internal], compiled.left[internal] + 1
        )
        assert compiled.nbytes > 0
        assert set(compiled.used_features) <= set(range(len(schema.names)))

    def test_out_of_range_code_rejected(self, schema):
        counts = np.array([3, 2])
        bad = TreeNode(
            node_id=0,
            depth=0,
            class_counts=counts,
            split=Split("elevel", CATEGORICAL_SPLIT, 0.1,
                        left_codes=frozenset({999})),
            left=TreeNode(node_id=1, depth=1, class_counts=np.array([3, 0])),
            right=TreeNode(node_id=2, depth=1, class_counts=np.array([0, 2])),
        )
        with pytest.raises(ValueError, match="outside the schema"):
            compile_tree(DecisionTree(root=bad, schema=schema))


# ---------------------------------------------------------------------------
# property: compiled equals reference on arbitrary batches


# The models of the property tests are built once by cached functions,
# not fixtures: Hypothesis prints every argument of a failing example,
# and a tree's repr is huge (a deep chain's recurses past the limit).


@functools.cache
def property_tree():
    schema = quest_schema()
    cols, labels = generate_quest(2000, function=2, seed=7, noise=0.02)
    tree = fit_direct(schema, cols, labels, StoppingRule(min_node=8))
    return schema, tree, tree.compile()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400))
@settings(max_examples=40, deadline=None)
def test_property_compiled_equals_reference(seed, n):
    schema, tree, compiled = property_tree()
    rng = np.random.default_rng(seed)
    cols = adversarial_columns(schema, n, rng)
    got = compiled.predict_batch(cols)
    np.testing.assert_array_equal(got, tree.predict(cols))
    assert got.dtype == LABEL_DTYPE


# ---------------------------------------------------------------------------
# deep chain trees: the recursion-bound paths


def make_chain_tree(depth: int) -> tuple[DecisionTree, str]:
    """A degenerate left-leaning chain: node at depth ``d`` routes
    ``attr <= -d`` left into the next link, everything else to a leaf.
    ``class_counts`` stay consistent (parent = left + right) so the tree
    passes the same structural checks fitted trees do."""
    schema = quest_schema()
    attr = schema.numeric[0].name
    node = TreeNode(
        node_id=2 * depth, depth=depth, class_counts=np.array([0, 1])
    )
    for d in range(depth - 1, -1, -1):
        right = TreeNode(
            node_id=2 * d + 1, depth=d + 1, class_counts=np.array([1, 0])
        )
        node = TreeNode(
            node_id=2 * d,
            depth=d,
            class_counts=node.class_counts + right.class_counts,
            split=Split(attr, NUMERIC_SPLIT, 0.5, threshold=-float(d)),
            left=node,
            right=right,
        )
    return DecisionTree(root=node, schema=schema, meta={"builder": "chain"}), attr


class TestDeepChain:
    """Regression for the recursion-bound inference path: a chain deeper
    than ``sys.getrecursionlimit()`` must predict, serialise, round-trip
    and compile. (Whole-dict equality on such trees is itself recursive,
    so identity is asserted via predictions, node counts and describe.)"""

    @pytest.fixture(scope="class")
    def chain(self):
        depth = sys.getrecursionlimit() + 200
        tree, attr = make_chain_tree(depth)
        return depth, tree, attr

    def test_predict_beyond_recursion_limit(self, chain):
        depth, tree, attr = chain
        assert tree.depth == depth
        assert tree.n_nodes == 2 * depth + 1
        # -1e18 survives every `v <= -d` test down to the bottom leaf
        # (label 1); +1 exits right at the root; NaN routes right too
        out = tree.predict({attr: np.array([-1e18, 1.0, np.nan])})
        np.testing.assert_array_equal(out, [1, 0, 0])

    def test_describe_beyond_recursion_limit(self, chain):
        depth, tree, _ = chain
        text = tree.describe()
        assert len(text.splitlines()) == tree.n_nodes
        # truncation at depth 2: the depth-3 chain link and its sibling
        # leaf both collapse to ellipses
        assert tree.describe(max_depth=2).count("...") == 2

    def test_wire_roundtrip_beyond_recursion_limit(self, chain):
        depth, tree, attr = chain
        clone = DecisionTree.from_dict(tree.to_dict(), tree.schema)
        assert clone.n_nodes == tree.n_nodes
        assert clone.meta == {"builder": "chain"}
        batch = {attr: -np.arange(0, depth + 10, 7, dtype=np.float64)}
        np.testing.assert_array_equal(clone.predict(batch), tree.predict(batch))

    def test_save_load_beyond_recursion_limit(self, chain, tmp_path):
        depth, tree, attr = chain
        limit = sys.getrecursionlimit()
        path = str(tmp_path / "chain.json")
        tree.save(path)
        loaded = DecisionTree.load(path, tree.schema)
        # the headroom the json codec borrowed must have been returned
        assert sys.getrecursionlimit() == limit
        assert loaded.n_nodes == tree.n_nodes
        assert loaded.meta == tree.meta
        batch = {attr: -np.arange(0, depth + 10, 3, dtype=np.float64)}
        np.testing.assert_array_equal(loaded.predict(batch), tree.predict(batch))

    def test_compile_beyond_recursion_limit(self, chain):
        depth, tree, attr = chain
        compiled = tree.compile()
        assert compiled.n_nodes == tree.n_nodes
        assert compiled.depth == depth
        rng = np.random.default_rng(3)
        batch = {attr: rng.uniform(-depth - 5, 5, 5000)}
        np.testing.assert_array_equal(
            compiled.predict_batch(batch), tree.predict(batch)
        )

    def test_json_nesting_depth_helper(self):
        from repro.clouds.tree import _json_nesting_depth

        assert _json_nesting_depth("{}") == 1
        assert _json_nesting_depth('{"a": [{"b": 1}]}') == 3
        # brackets inside string literals (and escaped quotes) don't nest
        assert _json_nesting_depth('{"a": "[[[\\"{"}') == 1


# ---------------------------------------------------------------------------
# compiled forests: one stacked walk == the reference vote


def leaf_tree(schema, label: int) -> DecisionTree:
    """A root-leaf tree voting ``label`` on every record."""
    counts = np.ones(schema.n_classes, dtype=np.int64)
    counts[label] = 2
    return DecisionTree(
        root=TreeNode(node_id=0, depth=0, class_counts=counts), schema=schema
    )


@functools.cache
def member_pool():
    """Forest members of every shape: fitted trees of different sizes
    (their categorical splits included), root leaves voting each class,
    and the deep chain from :class:`TestDeepChain`."""
    schema = quest_schema()
    cols, labels = generate_quest(3000, function=2, seed=13, noise=0.05)
    fitted = [
        fit_direct(
            schema,
            {k: v[i * 500 : i * 500 + 1500] for k, v in cols.items()},
            labels[i * 500 : i * 500 + 1500],
            StoppingRule(min_node=m),
        )
        for i, m in enumerate((4, 16, 64, 8))
    ]
    chain, _ = make_chain_tree(sys.getrecursionlimit() + 200)
    return schema, fitted + [leaf_tree(schema, 0), leaf_tree(schema, 1), chain]


def assert_forest_matches(forest, columns):
    compiled = forest.compile()
    assert compiled.n_trees == forest.n_trees
    np.testing.assert_array_equal(
        compiled.vote_counts(columns), forest.vote_counts(columns)
    )
    got = compiled.predict_batch(columns)
    np.testing.assert_array_equal(got, forest.predict(columns))
    assert got.dtype == LABEL_DTYPE


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    members=st.sampled_from([1, 2, 3, 8]).flatmap(
        lambda b: st.lists(st.integers(0, 6), min_size=b, max_size=b)
    ),
)
@settings(max_examples=40, deadline=None)
def test_property_compiled_forest_equals_reference(seed, n, members):
    schema, pool = member_pool()
    forest = DecisionForest(trees=[pool[i] for i in members], schema=schema)
    assert_forest_matches(forest, adversarial_columns(schema, n, np.random.default_rng(seed)))


class TestCompiledForest:
    def test_tied_votes_go_to_the_lowest_code(self):
        schema, _ = member_pool()
        forest = DecisionForest(
            trees=[leaf_tree(schema, 1), leaf_tree(schema, 0)], schema=schema
        )
        cols = adversarial_columns(schema, 50, np.random.default_rng(1))
        assert_forest_matches(forest, cols)
        np.testing.assert_array_equal(forest.compile().predict_batch(cols), 0)

    def test_every_member_shape_in_one_forest(self):
        """All pool members at once, so the stacked walk carries a root
        leaf, categorical splits and a chain deeper than the recursion
        limit through the same passes."""
        schema, pool = member_pool()
        forest = DecisionForest(trees=list(pool), schema=schema)
        chain_attr = schema.numeric[0].name
        cols = adversarial_columns(schema, 2000, np.random.default_rng(2))
        # a spread of chain exits, down to the bottom leaf
        depth = pool[-1].depth
        cols[chain_attr][:1000] = -np.linspace(0, depth + 5, 1000)
        assert_forest_matches(forest, cols)

    def test_members_keep_their_own_tables(self):
        schema, pool = member_pool()
        compiled = DecisionForest(trees=pool[:3], schema=schema).compile()
        for member, tree in zip(compiled.trees, pool[:3]):
            alone = tree.compile()
            for name in ("feature", "threshold", "left", "right", "label",
                         "is_cat", "catmask", "node_id"):
                np.testing.assert_array_equal(
                    getattr(member, name), getattr(alone, name)
                )


# ---------------------------------------------------------------------------
# wire-format fixes: meta round-trip, n_classes validation


class TestWireFixes:
    def test_meta_survives_save_load(self, schema, quest_small, tmp_path):
        cols, labels = quest_small
        tree = fit_direct(schema, cols, labels, StoppingRule(min_node=256))
        assert tree.meta == {"builder": "direct"}
        path = str(tmp_path / "t.json")
        tree.save(path)
        assert DecisionTree.load(path, schema).meta == {"builder": "direct"}

    def test_meta_in_wire_dict(self, schema, quest_small):
        cols, labels = quest_small
        tree = fit_direct(schema, cols, labels, StoppingRule(min_node=256))
        wire = tree.to_dict()
        assert wire["meta"] == {"builder": "direct"}
        assert DecisionTree.from_dict(wire, schema).meta == tree.meta
        # mutating the wire dict must not alias the tree's meta
        wire["meta"]["x"] = 1
        assert "x" not in tree.meta

    def test_legacy_wire_without_meta_loads(self, schema, quest_small):
        cols, labels = quest_small
        tree = fit_direct(schema, cols, labels, StoppingRule(min_node=256))
        wire = tree.to_dict()
        del wire["meta"], wire["n_classes"]
        clone = DecisionTree.from_dict(wire, schema)
        assert clone.meta == {}
        np.testing.assert_array_equal(clone.predict(cols), tree.predict(cols))

    def test_n_classes_mismatch_rejected(self, quest_small):
        schema = quest_schema()  # 2 classes
        cols, labels = quest_small
        tree = fit_direct(schema, cols, labels, StoppingRule(min_node=256))
        blobs_schema, _, _ = make_blobs(50, seed=1)  # 4 classes
        with pytest.raises(ValueError, match="n_classes=2"):
            DecisionTree.from_dict(tree.to_dict(), blobs_schema)

    def test_n_classes_mismatch_rejected_on_load(
        self, schema, quest_small, tmp_path
    ):
        cols, labels = quest_small
        tree = fit_direct(schema, cols, labels, StoppingRule(min_node=256))
        path = str(tmp_path / "t.json")
        tree.save(path)
        blobs_schema, _, _ = make_blobs(50, seed=1)
        with pytest.raises(ValueError, match="load with the schema"):
            DecisionTree.load(path, blobs_schema)


# ---------------------------------------------------------------------------
# Split.goes_left: precomputed codes, categorical routing, NaN policy


class TestGoesLeft:
    def test_categorical_membership(self):
        s = Split("car", CATEGORICAL_SPLIT, 0.1, left_codes=frozenset({0, 3, 7}))
        np.testing.assert_array_equal(
            s.goes_left(np.array([0, 1, 3, 7, 8])),
            [True, False, True, True, False],
        )

    def test_categorical_float_queries_compare_by_value(self):
        """Serving feeds float64 columns; 3.0 is code 3 but 3.5, -1 and
        NaN are members of nothing."""
        s = Split("car", CATEGORICAL_SPLIT, 0.1, left_codes=frozenset({0, 3}))
        np.testing.assert_array_equal(
            s.goes_left(np.array([0.0, 3.0, 3.5, -1.0, np.nan])),
            [True, True, False, False, False],
        )

    def test_codes_array_precomputed_once(self):
        s = Split("car", CATEGORICAL_SPLIT, 0.1, left_codes=frozenset({5, 1, 9}))
        arr = s.left_codes_array
        np.testing.assert_array_equal(arr, [1, 5, 9])
        assert arr.dtype == np.int64
        assert s.left_codes_array is arr  # cached, not rebuilt per call

    def test_numeric_nan_routes_right(self):
        s = Split("age", NUMERIC_SPLIT, 0.2, threshold=40.0)
        np.testing.assert_array_equal(
            s.goes_left(np.array([39.0, 40.0, 41.0, np.nan])),
            [True, True, False, False],
        )
        assert s.left_codes_array is None

    def test_cache_does_not_break_value_semantics(self):
        a = Split("car", CATEGORICAL_SPLIT, 0.1, left_codes=frozenset({1, 2}))
        b = Split("car", CATEGORICAL_SPLIT, 0.1, left_codes=frozenset({2, 1}))
        assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# engine + replay: deterministic under a fake clock


class FakeClock:
    """Monotonic clock advancing ``step`` per reading; ``sleep`` jumps it
    by the requested amount (what a real sleeping thread observes)."""

    def __init__(self, step: float = 1e-3):
        self.t = 0.0
        self.step = step
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        self.t += self.step
        return self.t

    def sleep(self, dt: float) -> None:
        self.sleeps.append(dt)
        self.t += dt


@pytest.fixture(scope="module")
def small_compiled():
    schema = quest_schema()
    cols, labels = generate_quest(1000, function=2, seed=0, noise=0.0)
    return fit_direct(schema, cols, labels, StoppingRule(min_node=64)).compile()


class TestServeEngine:
    def test_metrics_recorded(self, small_compiled):
        registry = MetricsRegistry()
        clock = FakeClock(step=1e-3)
        engine = ServeEngine(small_compiled, registry, rank=0, clock=clock)
        cols, _ = generate_quest(256, function=2, seed=1)
        for i in range(4):
            batch = {k: v[i * 64 : (i + 1) * 64] for k, v in cols.items()}
            engine.predict_batch(batch)
        merged = registry.merged()
        (req,) = merged["repro_serve_requests_total"]
        (rec,) = merged["repro_serve_records_total"]
        (nodes,) = merged["repro_serve_model_nodes"]
        assert req.labels == ("0",) and req.value == 4
        assert rec.value == 256
        assert nodes.value == small_compiled.n_nodes
        # each call reads the clock twice: latency == one step, exactly
        assert engine.latencies == [1e-3] * 4
        assert engine.percentile(50) == pytest.approx(1e-3)
        (hist,) = merged["repro_serve_latency_seconds"]
        assert hist.value[-1] == 4  # cell tail is the observation count

    def test_percentile_empty(self, small_compiled):
        engine = ServeEngine(small_compiled, MetricsRegistry())
        assert engine.percentile(99) == 0.0

    def test_finalize_publishes_gauges(self, small_compiled):
        registry = MetricsRegistry()
        engine = ServeEngine(
            small_compiled, registry, rank=2, clock=FakeClock(2e-3)
        )
        cols, _ = generate_quest(100, function=2, seed=1)
        engine.predict_batch(cols)
        engine.finalize(elapsed=0.5)
        merged = registry.merged()
        (p99,) = merged["repro_serve_latency_p99_seconds"]
        (rps,) = merged["repro_serve_records_per_sec"]
        assert p99.labels == ("2",)
        assert p99.value == pytest.approx(2e-3)
        assert rps.value == pytest.approx(100 / 0.5)


class TestReplay:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="at least one record"):
            ReplayConfig(n_records=0)
        with pytest.raises(ValueError, match="batch size"):
            ReplayConfig(batch_size=0)

    def test_request_batches_are_views(self):
        config = ReplayConfig(n_records=100, batch_size=30)
        batches, labels = request_batches(config)
        assert [len(next(iter(b.values()))) for b in batches] == [30, 30, 30, 10]
        assert len(labels) == 100
        first = next(iter(batches[0].values()))
        assert first.base is not None  # sliced views, not copies

    def test_unthrottled_replay_deterministic(self, small_compiled):
        clock = FakeClock(step=1e-3)
        engine = ServeEngine(small_compiled, MetricsRegistry(), clock=clock)
        config = ReplayConfig(
            n_records=100, batch_size=30, seed=0, warmup_batches=2
        )
        report = replay(engine, config, HealthThresholds())
        assert report.n_records == 100
        assert report.n_batches == 4
        # every batch costs exactly one clock step
        assert report.p50_ms == pytest.approx(1.0)
        assert report.p99_ms == pytest.approx(1.0)
        assert report.max_ms == pytest.approx(1.0)
        # 4 batches x 2 readings + the elapsed reading
        assert report.elapsed == pytest.approx(9e-3)
        assert report.records_per_sec == pytest.approx(100 / 9e-3)
        assert report.deadline_misses == 0
        assert report.healthy and report.alerts == []
        assert report.to_dict()["latency_ms"]["p50"] == report.p50_ms
        assert "unthrottled" in report.render()

    def test_warmup_excluded_from_rollups(self, small_compiled):
        clock = FakeClock(step=1e-3)
        engine = ServeEngine(small_compiled, MetricsRegistry(), clock=clock)
        config = ReplayConfig(
            n_records=100, batch_size=30, seed=0, warmup_batches=2
        )
        replay(engine, config, HealthThresholds())
        # measurement window counted 4 batches even though 6 were served
        assert engine.n_requests == 4
        assert len(engine.latencies) == 4

    def test_pacing_sleeps_to_deadlines(self, small_compiled):
        clock = FakeClock(step=1e-6)
        engine = ServeEngine(small_compiled, MetricsRegistry(), clock=clock)
        # interval = 30 / 30.0 = 1 s per batch; the fake clock barely
        # moves on its own, so every batch after the first must sleep
        config = ReplayConfig(
            n_records=100, batch_size=30, target_qps=30.0, seed=0,
            warmup_batches=0,
        )
        report = replay(
            engine, config, HealthThresholds(), sleep=clock.sleep
        )
        assert len(clock.sleeps) == 3
        assert all(s == pytest.approx(1.0, abs=1e-4) for s in clock.sleeps)
        assert report.deadline_misses == 0
        # deadlines at 0/1/2/3 s: 100 records in ~3 s of paced wall time
        assert report.records_per_sec == pytest.approx(100 / 3, rel=0.01)

    def test_deadline_misses_counted(self, small_compiled):
        # a clock step of 1 s against 1 ms deadlines: every batch after
        # the first is late, none sleep
        clock = FakeClock(step=1.0)
        registry = MetricsRegistry()
        engine = ServeEngine(small_compiled, registry, clock=clock)
        config = ReplayConfig(
            n_records=100, batch_size=30, target_qps=30_000.0, seed=0,
            warmup_batches=0,
        )
        report = replay(
            engine, config, HealthThresholds(), sleep=clock.sleep
        )
        assert clock.sleeps == []
        assert report.deadline_misses == 3
        (miss,) = registry.merged()["repro_serve_deadline_misses_total"]
        assert miss.value == 3

    def test_latency_alert(self, small_compiled):
        clock = FakeClock(step=1e-3)
        engine = ServeEngine(small_compiled, MetricsRegistry(), clock=clock)
        config = ReplayConfig(n_records=100, batch_size=30, seed=0)
        report = replay(
            engine, config, HealthThresholds(serve_p99_seconds=1e-9)
        )
        assert not report.healthy
        (alert,) = report.alerts
        assert alert.indicator == "serve_latency"
        assert alert.level == OUTSIDE_LEVEL
        assert "exceeds" in alert.message

    def test_throughput_alert(self, small_compiled):
        clock = FakeClock(step=1.0)  # 1 s per batch: nowhere near target
        engine = ServeEngine(small_compiled, MetricsRegistry(), clock=clock)
        config = ReplayConfig(
            n_records=100, batch_size=30, target_qps=30_000.0, seed=0
        )
        report = replay(
            engine, config,
            HealthThresholds(serve_p99_seconds=1e9),
            sleep=clock.sleep,
        )
        indicators = {a.indicator for a in report.alerts}
        assert indicators == {"serve_throughput"}
        assert report.deadline_misses > 0

    def test_replay_serves_correct_labels(self, small_compiled):
        """The replay stream's predictions match predicting the stream
        in one shot — batching is invisible to the model."""
        config = ReplayConfig(n_records=500, batch_size=64, seed=9)
        batches, _ = request_batches(config)
        whole, _ = generate_quest(500, function=2, seed=9)
        got = np.concatenate(
            [small_compiled.predict_batch(b) for b in batches]
        )
        np.testing.assert_array_equal(
            got, small_compiled.predict_batch(whole)
        )


# ---------------------------------------------------------------------------
# CLI


class TestServeCli:
    def test_serve_end_to_end(self, tmp_path):
        from repro.cli import main

        json_out = tmp_path / "serve.json"
        prom_out = tmp_path / "serve.prom"
        rc = main([
            "serve",
            "--records", "20000",
            "--train-records", "2000",
            "--batch-size", "1024",
            "--p99-ms", "10000",
            "--strict",
            "--json-out", str(json_out),
            "--prom-out", str(prom_out),
        ])
        assert rc == 0
        payload = json.loads(json_out.read_text())
        assert payload["reference_parity"] is True
        assert payload["replay"]["n_records"] == 20000
        assert payload["model"]["n_nodes"] >= 1
        prom = prom_out.read_text()
        assert "repro_serve_records_total" in prom
        assert "repro_serve_latency_seconds_bucket" in prom

    def test_serve_loads_saved_tree(self, schema, quest_small, tmp_path):
        from repro.cli import main

        cols, labels = quest_small
        tree = fit_direct(schema, cols, labels, StoppingRule(min_node=64))
        path = tmp_path / "model.json"
        tree.save(str(path))
        json_out = tmp_path / "serve.json"
        rc = main([
            "serve",
            "--tree", str(path),
            "--records", "5000",
            "--p99-ms", "10000",
            "--json-out", str(json_out),
        ])
        assert rc == 0
        payload = json.loads(json_out.read_text())
        assert payload["model"]["n_nodes"] == tree.n_nodes
