"""Serving-path benchmark: compiled batch engine vs reference prediction.

Three read paths over the same fitted tree and the same Quest record
stream:

* **per-record reference** — ``DecisionTree.predict`` called one record
  at a time, the shape a naive serving loop would have (measured on a
  subsample and extrapolated; it is orders of magnitude too slow to run
  over the full stream);
* **vectorized reference** — ``DecisionTree.predict`` on the whole
  batch (the training-side evaluation path);
* **compiled batch engine** — ``CompiledTree.predict_batch`` through
  :class:`repro.serve.ServeEngine` with the replay driver, which also
  yields exact p50/p99 batch latency via the ``repro_serve_*`` metrics.

A second row serves a ``FOREST_TREES``-member bagged forest over the same
stream in ``FOREST_BATCH``-record batches: ``CompiledForest.predict_batch``
(one stacked walk over every member) against the reference vote
``DecisionForest.predict``.

Writes ``BENCH_serve.json``. Exits non-zero if the compiled tree's or
forest's labels differ from the reference anywhere on the stream, or if
the compiled tree engine is not at least ``MIN_SPEEDUP``× the per-record
reference in records/sec.

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.reporting import format_table  # noqa: E402
from repro.clouds import StoppingRule, fit_direct  # noqa: E402
from repro.clouds.forest import DecisionForest  # noqa: E402
from repro.data import generate_quest, quest_schema  # noqa: E402
from repro.obs import HealthThresholds  # noqa: E402
from repro.serve import (  # noqa: E402
    ReplayConfig,
    ServeEngine,
    replay,
    request_batches,
)

#: the acceptance floor: compiled batch engine vs per-record reference
MIN_SPEEDUP = 10.0

#: records the per-record baseline actually walks (extrapolated after)
BASELINE_SAMPLE = 2_000

#: the compiled-forest row: bagged members, records per request batch
FOREST_TREES = 8
FOREST_BATCH = 4096

FULL = {"train": 20_000, "serve": 2_000_000, "batches": [1024, 4096, 16384]}
QUICK = {"train": 6_000, "serve": 300_000, "batches": [4096]}


def per_record_records_per_sec(tree, columns, n_sample: int) -> float:
    """Reference predict driven one record at a time."""
    singles = [
        {k: v[i : i + 1] for k, v in columns.items()} for i in range(n_sample)
    ]
    t0 = time.perf_counter()
    for s in singles:
        tree.predict(s)
    return n_sample / (time.perf_counter() - t0)


def vectorized_records_per_sec(tree, columns, n: int) -> tuple[float, np.ndarray]:
    t0 = time.perf_counter()
    out = tree.predict(columns)
    return n / (time.perf_counter() - t0), out


def bagged_forest(schema, columns, labels, seed: int) -> DecisionForest:
    """``FOREST_TREES`` trees, each fitted on a bootstrap bag."""
    rng = np.random.default_rng(seed)
    n = len(labels)
    trees = []
    for _ in range(FOREST_TREES):
        bag = rng.integers(0, n, n)
        trees.append(
            fit_direct(
                schema, {k: v[bag] for k, v in columns.items()}, labels[bag],
                StoppingRule(min_node=8),
            )
        )
    return DecisionForest(trees=trees, schema=schema)


def forest_point(forest, columns, n: int) -> dict:
    """Compiled forest vs reference vote over the same batch stream."""
    compiled = forest.compile()
    batches = [
        {k: v[i : i + FOREST_BATCH] for k, v in columns.items()}
        for i in range(0, n, FOREST_BATCH)
    ]
    t0 = time.perf_counter()
    got = [compiled.predict_batch(b) for b in batches]
    compiled_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = [forest.predict(b) for b in batches]
    ref_s = time.perf_counter() - t0
    return {
        "n_trees": forest.n_trees,
        "n_nodes": compiled.n_nodes,
        "batch_size": FOREST_BATCH,
        "identical_labels": bool(np.array_equal(np.concatenate(got), np.concatenate(ref))),
        "compiled_rps": n / compiled_s,
        "ref_vote_rps": n / ref_s,
        "speedup_vs_ref_vote": ref_s / compiled_s,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--quick", action="store_true",
        help="small grid for the CI smoke job",
    )
    ap.add_argument("--out", default="BENCH_serve.json", help="output JSON path")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    grid = QUICK if args.quick else FULL
    schema = quest_schema()
    train_cols, train_labels = generate_quest(
        grid["train"], function=2, seed=args.seed, noise=0.02
    )
    tree = fit_direct(schema, train_cols, train_labels, StoppingRule(min_node=8))
    compiled = tree.compile()

    serve_cols, _ = generate_quest(
        grid["serve"], function=2, seed=args.seed + 1, noise=0.02
    )
    n = grid["serve"]

    base_rps = per_record_records_per_sec(
        tree, serve_cols, min(BASELINE_SAMPLE, n)
    )
    vec_rps, ref_labels = vectorized_records_per_sec(tree, serve_cols, n)

    points = []
    failures = []
    for batch_size in grid["batches"]:
        engine = ServeEngine(compiled)
        config = ReplayConfig(
            n_records=n, batch_size=batch_size, seed=args.seed + 1, noise=0.02
        )
        # generous latency ceiling: CI runners are noisy; identity and
        # speedup are the gates, the health alerts are informational
        report = replay(engine, config, HealthThresholds(serve_p99_seconds=1.0))

        batches, _ = request_batches(config)
        got = np.concatenate([compiled.predict_batch(b) for b in batches])
        identical = bool(np.array_equal(got, ref_labels))
        speedup = report.records_per_sec / base_rps
        # the apples-to-apples serving comparison: the reference walker
        # fed the same batch stream
        t0 = time.perf_counter()
        for b in batches:
            tree.predict(b)
        ref_batched_rps = n / (time.perf_counter() - t0)
        point = {
            "batch_size": batch_size,
            "identical_labels": identical,
            "per_record_rps": base_rps,
            "vectorized_rps": vec_rps,
            "ref_batched_rps": ref_batched_rps,
            "compiled_rps": report.records_per_sec,
            "speedup_vs_per_record": speedup,
            "speedup_vs_ref_batched": report.records_per_sec / ref_batched_rps,
            "speedup_vs_vectorized": report.records_per_sec / vec_rps,
            "replay": report.to_dict(),
        }
        points.append(point)
        where = f"batch={batch_size}"
        if not identical:
            failures.append(f"{where}: compiled labels differ from reference")
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"{where}: speedup {speedup:.1f}x below the "
                f"{MIN_SPEEDUP:g}x floor"
            )

    forest = forest_point(
        bagged_forest(schema, train_cols, train_labels, args.seed), serve_cols, n
    )
    if not forest["identical_labels"]:
        failures.append("forest: compiled votes differ from the reference vote")

    print(
        f"Serving path: {tree.n_nodes}-node tree (depth {tree.depth}), "
        f"{n:,} Quest records"
    )
    print(
        f"per-record reference: {base_rps:,.0f} records/sec  |  "
        f"vectorized reference: {vec_rps:,.0f} records/sec"
    )
    rows = [
        [
            str(pt["batch_size"]),
            f"{pt['compiled_rps']:,.0f}",
            f"{pt['speedup_vs_per_record']:.0f}x",
            f"{pt['speedup_vs_ref_batched']:.2f}x",
            f"{pt['replay']['latency_ms']['p50']:.3f}",
            f"{pt['replay']['latency_ms']['p99']:.3f}",
            "yes" if pt["identical_labels"] else "NO",
        ]
        for pt in points
    ]
    print(
        format_table(
            [
                "batch", "records/sec", "vs per-rec", "vs ref@batch",
                "p50 ms", "p99 ms", "identical",
            ],
            rows,
        )
    )

    print(
        f"\n{forest['n_trees']}-tree forest ({forest['n_nodes']} nodes), "
        f"batch {forest['batch_size']}"
    )
    print(
        format_table(
            ["model", "records/sec", "vs ref vote", "identical"],
            [
                ["compiled forest", f"{forest['compiled_rps']:,.0f}",
                 f"{forest['speedup_vs_ref_vote']:.2f}x",
                 "yes" if forest["identical_labels"] else "NO"],
                ["reference vote", f"{forest['ref_vote_rps']:,.0f}", "1.00x", "-"],
            ],
        )
    )

    payload = {
        "benchmark": "serve",
        "quick": bool(args.quick),
        "model": {
            "n_nodes": tree.n_nodes,
            "n_leaves": tree.n_leaves,
            "depth": tree.depth,
            "table_bytes": compiled.nbytes,
            "train_records": grid["train"],
        },
        "serve_records": n,
        "baseline_sample": min(BASELINE_SAMPLE, n),
        "min_speedup": MIN_SPEEDUP,
        "points": points,
        "forest": forest,
        "ok": not failures,
        "failures": failures,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
