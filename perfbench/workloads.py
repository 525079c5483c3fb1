"""The benchmark's three workloads: inputs, set-up, fit and serving.
``BENCHMARK.json`` says what each one is for.

The program under test only receives generated records. Each workload
fits one fixed training set with one fixed fit seed (``TRAIN_SEED`` and
``FIT_SEED``, the harness's seed layout at seed 0), as the paper's
experiments do; the run's ``--seed`` draws the placement of records
over the ranks (``seed + 1``), the machine's per-rank generators
(``seed``) and the held-out request stream. A training set or fit seed
drawn per run would change the model, and with it every simulated and
host figure, between runs: by up to 50% for a tree at these sizes
(64-attribute blobs at 4k records) and by about 5% for the forest,
whose bags follow the fit seed. At ``--seed 0`` ``paper-ooc`` is
exactly the harness's Fig. 1 point (625.7 simulated s).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.bench.harness import (
    ExperimentConfig,
    ForestExperimentConfig,
    build_cluster,
    scaled_models,
)
from repro.cluster.machine import Cluster
from repro.clouds import CloudsConfig
from repro.core.config import PCloudsConfig
from repro.core.dataset import DistributedDataset
from repro.core.pclouds import PClouds
from repro.data.generator import generate_quest, quest_schema
from repro.data.synthetic import blob_schema, make_blobs
from repro.forest.trainer import ForestConfig, PForest

__all__ = ["Sizes", "Workload", "WORKLOADS", "SetUp"]

#: generator seed of every workload's training set, and the seed its
#: fit samples (and bags) from
TRAIN_SEED = 0
FIT_SEED = TRAIN_SEED + 2

#: held-out batch ``i`` of a run with seed ``s`` is drawn with seed
#: ``HELDOUT_SEED_BASE + s * 2**20 + i``: another seed of the same
#: generator, never the training seed
HELDOUT_SEED_BASE = 2**40

#: Quest generator settings of the paper's experiments (ExperimentConfig)
QUEST_FUNCTION = 2
QUEST_NOISE = 0.05

#: wide-incore data: two Gaussian blobs over many numeric attributes
BLOB_SEPARATION = 3.0
BLOB_NOISE = 0.05


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload (full benchmark or smoke mode)."""

    n_records: int
    n_ranks: int
    n_serve: int  # held-out records served after the fit
    batch: int  # records per serving request
    n_trees: int = 1
    n_numeric: int = 0  # blobs only: numeric attribute count
    accuracy_floor: float = 0.9  # held-out accuracy a correct fit reaches

    @property
    def n_batches(self) -> int:
        return -(-self.n_serve // self.batch)


@dataclass
class SetUp:
    """A distributed training set, ready to fit, and what it cost."""

    dataset: DistributedDataset
    generate_s: float
    distribute_s: float

    @property
    def seconds(self) -> float:
        return self.generate_s + self.distribute_s

    def close(self) -> None:
        for ctx in self.dataset.contexts:
            ctx.disk.close()


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pclouds" (one tree) | "forest"
    data: str  # "quest" | "blobs"
    full: Sizes
    smoke: Sizes
    metered: bool = False  # fit under the live metrics registry, as the CLI

    # -- inputs ----------------------------------------------------------------
    def config(self, sizes: Sizes, seed: int) -> ExperimentConfig:
        if self.kind == "forest":
            return ForestExperimentConfig(
                n_records=sizes.n_records, n_ranks=sizes.n_ranks, seed=seed,
                n_trees=sizes.n_trees, regime="auto",
            )
        return ExperimentConfig(
            n_records=sizes.n_records, n_ranks=sizes.n_ranks, seed=seed,
            buffer_pool="off" if self.data == "blobs" else "lru+prefetch",
        )

    def schema(self, sizes: Sizes):
        if self.data == "blobs":
            return blob_schema(n_numeric=sizes.n_numeric, n_categorical=0, n_classes=2)
        return quest_schema()

    def generate(self, sizes: Sizes, n: int, seed: int):
        """``n`` labelled records of this workload's generator."""
        if self.data == "blobs":
            _, cols, labels = make_blobs(
                n, self.schema(sizes), separation=BLOB_SEPARATION,
                noise=BLOB_NOISE, seed=seed,
            )
            return cols, labels
        return generate_quest(n, QUEST_FUNCTION, seed=seed, noise=QUEST_NOISE)

    def cluster(self, sizes: Sizes, cfg: ExperimentConfig) -> Cluster:
        if self.data == "blobs":
            # in-core: the Cluster default of no memory limit, pool off
            net, disk, compute = scaled_models(cfg.scale)
            return Cluster(
                cfg.n_ranks, network=net, disk=disk, compute=compute, seed=cfg.seed
            )
        return build_cluster(cfg, self.schema(sizes).row_nbytes())

    def setup(self, sizes: Sizes, seed: int) -> SetUp:
        """Generate the training set and distribute it over a fresh
        cluster: everything a user waits for before ``fit``."""
        t0 = time.perf_counter()
        cols, labels = self.generate(sizes, sizes.n_records, TRAIN_SEED)
        t1 = time.perf_counter()
        cfg = self.config(sizes, seed)
        dataset = DistributedDataset.create(
            self.cluster(sizes, cfg), self.schema(sizes), cols, labels,
            seed=seed + 1,
        )
        t2 = time.perf_counter()
        return SetUp(dataset, generate_s=t1 - t0, distribute_s=t2 - t1)

    def heldout(self, sizes: Sizes, seed: int) -> Iterator[tuple[dict, np.ndarray]]:
        """The held-out request stream, one batch at a time."""
        left = sizes.n_serve
        for i in range(sizes.n_batches):
            n = min(sizes.batch, left)
            left -= n
            yield self.generate(sizes, n, HELDOUT_SEED_BASE + seed * 2**20 + i)

    # -- the program under test ------------------------------------------------
    def fit(self, sizes: Sizes, dataset: DistributedDataset, *, trace: bool):
        cfg = self.config(sizes, TRAIN_SEED)
        pc = _pclouds_config(cfg)
        if self.kind == "forest":
            forest = PForest(
                ForestConfig(
                    n_trees=cfg.n_trees, pclouds=pc, regime=cfg.regime,
                    n_groups=cfg.n_groups,
                )
            )
            return forest.fit(dataset, seed=FIT_SEED, trace=trace, metrics=self.metered)
        return PClouds(pc).fit(dataset, seed=FIT_SEED, trace=trace, metrics=self.metered)

    def model(self, result):
        """The fitted tree or forest of a fit result."""
        return result.forest if self.kind == "forest" else result.tree


def _pclouds_config(cfg: ExperimentConfig) -> PCloudsConfig:
    """The fit configuration ``repro.bench.harness`` builds for ``cfg``."""
    return PCloudsConfig(
        clouds=CloudsConfig(
            method=cfg.method,
            q_root=cfg.resolved_q_root(),
            sample_size=cfg.resolved_sample(),
            min_node=cfg.min_node,
            purity=cfg.purity,
        ),
        q_switch=cfg.q_switch,
        exchange=cfg.exchange,
        frontier_batching=cfg.frontier_batching,
        vote_top_k=cfg.vote_top_k,
    )


def model_fingerprint(compiled) -> str:
    """SHA-256 over a compiled tree's or forest's flat tables."""
    trees = getattr(compiled, "trees", (compiled,))
    h = hashlib.sha256()
    for t in trees:
        for arr in (t.feature, t.threshold, t.left, t.right, t.label, t.is_cat, t.catmask):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


_SERVE = dict(n_serve=1_000_000, batch=4096)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-ooc",
            kind="pclouds",
            data="quest",
            full=Sizes(n_records=36_000, n_ranks=8, **_SERVE, accuracy_floor=0.88),
            smoke=Sizes(n_records=3_000, n_ranks=4, n_serve=20_000, batch=1024,
                        accuracy_floor=0.8),
        ),
        Workload(
            name="wide-incore",
            kind="pclouds",
            data="blobs",
            full=Sizes(n_records=4_000, n_ranks=8, n_numeric=64, **_SERVE,
                       accuracy_floor=0.9),
            smoke=Sizes(n_records=800, n_ranks=4, n_numeric=16, n_serve=20_000,
                        batch=1024, accuracy_floor=0.8),
        ),
        Workload(
            name="forest-serve",
            kind="forest",
            data="quest",
            metered=True,
            full=Sizes(n_records=9_000, n_ranks=4, n_trees=8, **_SERVE,
                       accuracy_floor=0.9),
            smoke=Sizes(n_records=1_500, n_ranks=2, n_trees=4, n_serve=20_000,
                        batch=1024, accuracy_floor=0.8),
        ),
    )
}
