"""Repository benchmark: one workload per invocation, end-to-end metrics
from an untraced run, per-layer metrics from a separate traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-ooc --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload forest-serve --seed 3 --seconds 15 --trace 1
    python3 perfbench/run.py --workload wide-incore --seed 0 --seconds 0 --trace 0 --smoke

Workloads: ``paper-ooc``, ``wide-incore``, ``forest-serve`` (defined in
``workloads.py``). Metric names and units come from ``BENCHMARK.json``;
what each metric measures and should move is in ``metrics.py``. The
program under test is imported from ``src/`` of the checkout and is
never modified; the traced run times its layers by wrapping public
functions from outside (``layers.py``, ``spans.py``).

``--trace 0`` sets up several times (``setup_s`` is the median), fits
once, then serves the held-out stream for ``--seconds`` (at least one
whole pass) and prints every end-to-end metric. ``--trace 1`` runs one
untraced and one traced fit and prints every per-layer metric; it also
writes the per-layer self-time table, the spans and, for
``paper-ooc``, a Perfetto trace with the critical path overlaid, under
``.perfbench-out/`` in the checkout.

Every run checks its outputs; each check and served batch is one
attempted operation, and the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``. A fit that raises
ends the run with a traceback and a non-zero exit, without a result
line. Deterministic values (simulated time, counts, model fingerprint,
accuracy) are recorded per program and seed under
``.perfbench-out/fingerprints/`` and must repeat exactly on every later
run of that seed with the same program: the record is keyed by a digest
of ``src/`` and ``perfbench/``, so another commit benchmarked in the
same checkout never compares against it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

#: set-up samples per round. A run takes three rounds (setup_s is the
#: median of all 15): before the fit, between fit and serving, and after
#: serving. A shared host can switch between a fast and a slow speed
#: for tens of seconds at a time; samples spread over the run are less
#: likely than back-to-back samples to all land in one of the two
SETUPS_PER_ROUND = 5


class Checks:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * q // 100))
    return ordered[int(k) - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one fit, checked ----------------------------------------------------------


def _check_fit(w, sizes, result, dataset, checks: Checks) -> None:
    from repro.clouds.forest import validate_forest
    from repro.clouds.tree import validate_tree

    model = w.model(result)
    try:
        (validate_forest if w.kind == "forest" else validate_tree)(model)
        checks.check("validate model", True)
    except AssertionError as exc:
        checks.check("validate model", False, str(exc))
    over = [
        (ctx.rank, kind, b.high_water, b.limit)
        for ctx in dataset.contexts
        for kind, b in (("memory", ctx.memory), ("pool", ctx.pool_budget))
        if b is not None and b.limit is not None and b.high_water > b.limit
    ]
    checks.check("rank memory within budget", not over, repr(over))
    checks.check("no restarts", result.n_restarts == 0, str(result.n_restarts))


def _serve(w, sizes, seed, model, checks: Checks, seconds: float = 0.0) -> dict:
    """Closed-loop client: generate a request batch, send it, wait for
    the predictions, repeat. It replays the held-out stream until
    ``seconds`` of serving have passed (at least one whole pass); only
    the service calls are timed. Accuracy comes from the first pass, and
    every later pass must return the same predictions."""
    from repro.data.schema import LABEL_DTYPE
    from workloads import model_fingerprint

    compiled = model.compile()
    latencies: list[float] = []
    records = 0
    accuracy = first_digest = None
    t_start = time.perf_counter()
    while True:
        digest = hashlib.sha256()
        right = total = 0
        for i, (cols, labels) in enumerate(w.heldout(sizes, seed)):
            t0 = time.perf_counter()
            pred = compiled.predict_batch(cols)
            latencies.append(time.perf_counter() - t0)
            checks.check(
                "batch served",
                pred.shape == labels.shape and pred.dtype == LABEL_DTYPE,
                f"batch {i}: {pred.shape} {pred.dtype}",
            )
            if i == 0 and accuracy is None:  # compiled vs reference tree walk
                ref = model.predict(cols)
                checks.check("compiled == reference predictions", bool((ref == pred).all()))
            digest.update(pred.tobytes())
            right += int((pred == labels).sum())
            total += len(labels)
        records += total
        if accuracy is None:
            accuracy, first_digest = right / total, digest.digest()
        else:
            checks.check("replayed pass gives the same predictions",
                         digest.digest() == first_digest)
        if time.perf_counter() - t_start >= seconds:
            break
    checks.check(
        "test accuracy floor", accuracy >= sizes.accuracy_floor,
        f"{accuracy:.4f} < {sizes.accuracy_floor}",
    )
    return {
        "latencies": latencies,
        "records": records,
        "accuracy": accuracy,
        "fingerprint": model_fingerprint(compiled),
    }


def _exact_values(w, result, counters) -> dict:
    """Fit values that must repeat bit for bit on every run of one seed."""
    from layers import shape_counts

    rank, _ = counters
    return {
        "sim_elapsed_s": float(result.elapsed),
        "ooc.bytes_read": int(rank.bytes_read),
        "ooc.io_calls": int(rank.io_calls),
        "cluster.collectives": int(rank.collectives),
        "cluster.bytes_sent": int(rank.bytes_sent),
        **shape_counts(w, result),
    }


def _served_values(served) -> dict:
    """Serving values that must repeat bit for bit on every run of one seed."""
    return {"test_accuracy": served["accuracy"], "model_fingerprint": served["fingerprint"]}


def program_digest() -> str:
    """SHA-256 over the program under test and the benchmark: every
    ``.py`` file under ``src/`` and ``perfbench/``, by relative path."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for f in sorted(base.rglob("*.py")):
            h.update(str(f.relative_to(ROOT)).encode() + b"\0")
            h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def _check_repeat(key: str, values: dict, checks: Checks) -> None:
    """Compare with the values an earlier run of this seed and this
    program recorded (or record them when this is the first run)."""
    print(f"# exact values: {json.dumps(values, sort_keys=True)}")
    path = OUT / "fingerprints" / f"{key}-{program_digest()[:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        diff = {
            k: (earlier.get(k), v)
            for k, v in values.items()
            if k in earlier and earlier[k] != v
        }
        checks.check("deterministic across runs of one seed", not diff, repr(diff))
        values = {**earlier, **values}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(values, indent=1, sort_keys=True))
    os.replace(tmp, path)


# -- the two run modes ---------------------------------------------------------


def _setup_round(w, sizes, seed: int, setup_s: list[float], keep_last: bool = False):
    """Set up ``SETUPS_PER_ROUND`` times, appending each one's seconds;
    return the last set-up when ``keep_last``, else close them all."""
    for i in range(SETUPS_PER_ROUND):
        st = w.setup(sizes, seed)
        setup_s.append(st.seconds)
        if keep_last and i + 1 == SETUPS_PER_ROUND:
            return st
        st.close()
    return None


def timed_run(w, sizes, seed: int, seconds: float, key: str, checks: Checks) -> dict:
    """End-to-end metrics with tracing off: set-up (repeated, median),
    one fit, then serving for ``seconds``."""
    from layers import fit_counters, snapshot

    setup_s: list[float] = []
    st = _setup_round(w, sizes, seed, setup_s, keep_last=True)  # fitted
    before = snapshot(st.dataset.contexts)
    t0 = time.perf_counter()
    result = w.fit(sizes, st.dataset, trace=False)
    fit_wall = time.perf_counter() - t0
    _check_fit(w, sizes, result, st.dataset, checks)
    exact = _exact_values(w, result, fit_counters(st.dataset.contexts, before))
    model = w.model(result)
    # serve from a settled process: the fit's machine state is garbage now
    st.close()
    del st, result
    _setup_round(w, sizes, seed, setup_s)
    gc.collect()
    served = _serve(w, sizes, seed, model, checks, seconds)
    _setup_round(w, sizes, seed, setup_s)
    _check_repeat(key, {**exact, **_served_values(served)}, checks)
    lat = served["latencies"]
    print(f"# setup samples {len(setup_s)}; fit {fit_wall:.2f} s wall; serving samples "
          f"{len(lat)} batches ({len(lat) - -(-len(lat) * 95 // 100)} beyond p95)")
    return {
        "sim_elapsed_s": exact["sim_elapsed_s"],
        "train_records_per_s": sizes.n_records / fit_wall,
        "setup_s": statistics.median(setup_s),
        "test_accuracy": served["accuracy"],
        "peak_rss_mb": _peak_rss_mb(),
        "predict_records_per_s": served["records"] / sum(lat),
        "predict_batch_p50_ms": 1e3 * _percentile(lat, 50),
        "predict_batch_p95_ms": 1e3 * _percentile(lat, 95),
    }


def traced_run(w, sizes, seed: int, key: str, checks: Checks, out_dir: Path) -> dict:
    """Per-layer metrics: an untraced fit for the overhead base, then
    the traced fit under the benchmark's span wrappers. Its wall time,
    and so ``obs.trace_overhead``, includes the wrappers' own cost."""
    from layers import fit_counters, fit_metrics, host_metrics, install, snapshot
    from spans import SpanRecorder

    from repro.cluster.trace import assert_schedules_match
    from repro.cluster.tracereport import write_chrome_trace
    from repro.obs.critpath import CATEGORIES, build_critical_path

    base = w.setup(sizes, seed)
    before = snapshot(base.dataset.contexts)
    t0 = time.perf_counter()
    plain = w.fit(sizes, base.dataset, trace=False)
    plain_wall = time.perf_counter() - t0
    plain_exact = _exact_values(w, plain, fit_counters(base.dataset.contexts, before))
    base.close()

    st = w.setup(sizes, seed)
    ds = st.dataset
    before = snapshot(ds.contexts)
    rec = SpanRecorder()
    install(rec)
    try:
        t0 = time.perf_counter()
        result = w.fit(sizes, ds, trace=True)
        traced_wall = time.perf_counter() - t0
        served = _serve(w, sizes, seed, w.model(result), checks)
    finally:
        rec.restore()
    _check_fit(w, sizes, result, ds, checks)
    counters = fit_counters(ds.contexts, before)
    exact = _exact_values(w, result, counters)
    diff = {k: (plain_exact[k], exact[k]) for k in plain_exact if plain_exact[k] != exact[k]}
    checks.check("traced fit identical to untraced fit", not diff, repr(diff))
    _check_repeat(key, {**exact, **_served_values(served)}, checks)

    try:
        assert_schedules_match(result.tracers)
        checks.check("SPMD schedules match", True)
    except AssertionError as exc:
        checks.check("SPMD schedules match", False, str(exc))
    path = build_critical_path(result.tracers, ds.cluster.network, elapsed=result.elapsed)
    checks.check(
        "critical-path length == sim_elapsed_s",
        path.length == result.elapsed, f"{path.length!r} vs {result.elapsed!r}",
    )
    blame_sum = sum(path.by_category()[c] for c in CATEGORIES)
    checks.check(
        "critpath categories sum to sim_elapsed_s",
        abs(blame_sum - result.elapsed) <= 1e-9 * result.elapsed,
        f"{blame_sum!r} vs {result.elapsed!r}",
    )
    table = rec.self_times()
    metrics = {
        "data.generate_s": st.generate_s,
        "data.distribute_s": st.distribute_s,
        **fit_metrics(w, result, counters, rec.counters(), path),
        **host_metrics(table),
        "obs.trace_overhead": traced_wall / plain_wall,
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    (out_dir / "selftime.json").write_text(json.dumps({
        "workload": w.name,
        "seed": seed,
        "clock": "per-thread CPU seconds, summed over threads",
        "spans": {name: row for name, row in rows},
        "layers": host_metrics(table),
        "setup_wall_s": {"data.generate_s": st.generate_s,
                         "data.distribute_s": st.distribute_s},
        "counters": rec.counters(),
        "critical_path": path.to_dict(),
    }, indent=1))
    rec.save(str(out_dir / "spans.npz"))
    if w.name == "paper-ooc":
        write_chrome_trace(str(out_dir / "perfetto.json"), result.tracers, critical_path=path)
    st.close()

    print(f"# traced fit {traced_wall:.2f} s wall vs untraced {plain_wall:.2f} s; "
          f"{rec.n_spans()} spans; outputs in {out_dir}")
    print(f"# {'span (self time, thread CPU)':48s} {'calls':>9s} {'self_s':>9s}")
    for name, row in rows[:20]:
        print(f"# {name:48s} {row['calls']:9d} {row['self_s']:9.3f}")
    return metrics


# -- command line --------------------------------------------------------------


def _pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU. The simulated ranks
    are threads that take turns on the interpreter lock, so they never
    compute in parallel; left free to move between the cores of a 2-core
    host, the hand-offs of that lock made a fit's wall time vary by 15%
    and more from run to run, and made it up to twice as long."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="serving time after the fit (always at least one pass "
                    "over the held-out stream)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny input sizes")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    _pin_to_one_cpu()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    sizes = w.smoke if args.smoke else w.full
    key = f"{w.name}{'-smoke' if args.smoke else ''}-seed{args.seed}"
    checks = Checks()
    if args.trace:
        values = traced_run(w, sizes, args.seed, key, checks, OUT / f"{key}-trace")
        metrics = spec["per_layer"]
    else:
        values = timed_run(w, sizes, args.seed, args.seconds, key, checks)
        metrics = spec["end_to_end"]
    for failure in checks.failures:
        print(f"# FAILED {failure}")
    fail_ratio = checks.failed / checks.attempted
    for m in metrics:
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    print(f"fail_ratio = {fail_ratio!r} ratio ({checks.failed} of {checks.attempted})")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
