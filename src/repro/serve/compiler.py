"""Compile a fitted :class:`~repro.clouds.DecisionTree` into flat arrays.

The pointer tree the builders produce is the single source of truth, but
chasing Python object pointers per record is the wrong shape for a read
path that has to serve millions of records. :func:`compile_tree` flattens
the tree into **node-major numpy tables** laid out in breadth-first
order — feature index, threshold, left/right child, majority label, and a
per-node **categorical-membership bitset**.

Evaluation runs on private **walk tables** built once from those public
tables (:class:`_Walk`). One walk serves a single tree (B = 1) and a
whole forest (B members stacked into one set of node arrays, see
:mod:`repro.serve.forest`). A request batch becomes one feature-major
``(F + 1, n)`` matrix, and every pass advances *all* unfinished
(member, record) cursors by one level at once with flat ``np.take``
gathers — the vectorized analogue of evaluating many trees and records
in one data-parallel sweep, from "Speculative Parallel Evaluation of
Classification Trees on GPGPU Compute Engines" (PAPERS.md).

Semantics are pinned **bit-identical** to the reference
``DecisionTree.predict``:

* numeric: ``value <= threshold`` routes left, so NaN (which compares
  false) routes right, exactly like the reference;
* categorical: integer-code membership in the split's left set; NaN,
  infinite, non-integral, negative or out-of-range values are members
  of nothing and route right, exactly like ``np.isin`` against the code
  array.

Compilation itself is iterative (breadth-first queue), so degenerate
chain trees deeper than the interpreter recursion limit compile fine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.data.schema import LABEL_DTYPE, Schema

from repro.clouds.splits import NUMERIC_SPLIT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.clouds.tree import DecisionTree

__all__ = ["CompiledTree", "compile_tree"]

#: sentinel child / feature index marking a leaf row
LEAF = -1


@dataclass(frozen=True)
class _Walk:
    """Walk tables of B stacked members, built once at compile time.

    Member ``b``'s nodes occupy rows ``roots[b]`` onwards and its
    children point at absolute rows. The request matrix has one row per
    schema feature plus a last all-zero row. **Leaves self-loop**: they
    read that zero row, compare it with ``+inf`` and step to themselves,
    so a finished cursor stays put without a per-level branch.
    Categorical routing is one lookup in ``member``: row 0 (shared by
    numeric nodes and leaves) is all false, each categorical node owns
    one row, and the last column catches the sentinel code of invalid
    values.
    """

    n_features: int  # F; row F of the request matrix is all zeros
    roots: np.ndarray  # intp[B] root row of each member
    feature: np.ndarray  # intp[N] matrix row each node reads, F at leaves
    threshold: np.ndarray  # float64[N], NaN on categorical rows, +inf at leaves
    left: np.ndarray  # intp[N] left child, the node itself at leaves
    is_leaf: np.ndarray  # bool[N]
    label: np.ndarray  # LABEL_DTYPE[N]
    member_row: np.ndarray  # intp[N] offset of the node's row in ``member``
    member: np.ndarray  # bool[(K + 1) * (n_codes + 1)], flat
    n_codes: int  # bitset width; also the sentinel code of invalid values
    used_features: np.ndarray  # sorted schema indices any member tests
    cat_features: np.ndarray  # the categorical ones among them

    @classmethod
    def stack(cls, schema: Schema, members: Sequence["CompiledTree"]) -> "_Walk":
        n_features = len(schema.names)
        sizes = [len(m.feature) for m in members]
        roots = np.zeros(len(members), dtype=np.intp)
        np.cumsum(sizes[:-1], out=roots[1:])
        rows = np.arange(sum(sizes), dtype=np.intp)

        feature = np.concatenate([m.feature for m in members]).astype(np.intp)
        is_leaf = feature == LEAF
        feature[is_leaf] = n_features
        left = np.concatenate(
            [m.left.astype(np.intp) + r for m, r in zip(members, roots)]
        )
        left[is_leaf] = rows[is_leaf]
        threshold = np.concatenate([m.threshold for m in members])
        threshold[is_leaf] = np.inf

        is_cat = np.concatenate([m.is_cat for m in members])
        cat_rows = np.flatnonzero(is_cat)
        catmask = np.concatenate([m.catmask[m.is_cat] for m in members])
        n_codes = members[0].catmask.shape[1] * 64
        bits = np.unpackbits(
            catmask.astype("<u8").view(np.uint8), axis=1, bitorder="little"
        )
        member = np.zeros((len(cat_rows) + 1, n_codes + 1), dtype=bool)
        member[1:, :n_codes] = bits
        member_row = np.zeros(len(rows), dtype=np.intp)
        member_row[cat_rows] = np.arange(1, len(cat_rows) + 1) * (n_codes + 1)
        used_features = np.unique(feature[~is_leaf])
        used_features.flags.writeable = False  # handed out by used_features

        return cls(
            n_features=n_features,
            roots=roots,
            feature=feature,
            threshold=threshold,
            left=left,
            is_leaf=is_leaf,
            label=np.concatenate([m.label for m in members]),
            member_row=member_row,
            member=member.ravel(),
            n_codes=n_codes,
            used_features=used_features,
            cat_features=np.unique(feature[is_cat]),
        )

    def matrix(self, schema: Schema, columns: dict[str, np.ndarray]) -> np.ndarray:
        """The feature-major ``(F + 1, n)`` float64 request matrix: one
        contiguous row write per used feature (int32 categorical codes
        are exact in float64), the all-zero leaf row last. Rows of
        features no member tests are left unfilled."""
        n = len(next(iter(columns.values()))) if columns else 0
        X = np.empty((self.n_features + 1, n), dtype=np.float64)
        X[self.n_features] = 0.0
        for f in self.used_features:
            X[f] = columns[schema.names[f]]
        return X

    def codes(self, X: np.ndarray) -> np.ndarray:
        """Categorical rows of ``X`` as small integer codes, aligned
        with ``X`` so one flat index reads both. Values that are not an
        integral code below the bitset width (NaN, ±inf, fractions,
        negatives, anything too large) become the sentinel code. The
        range check runs in float, so no value is cast out of range."""
        out = np.zeros(X.shape, dtype=np.min_scalar_type(self.n_codes))
        for f in self.cat_features:
            v = X[f]
            ok = (v >= 0) & (v < self.n_codes) & (np.floor(v) == v)
            out[f] = np.where(ok, v, self.n_codes)
        return out

    def labels(self, X: np.ndarray) -> np.ndarray:
        """Leaf label of every (member, record) pair, member-major:
        pair ``b * n + i`` is member ``b`` on record ``i``.

        The active pairs carry their node, record and output slot. Each
        pass reads the pair's value with one flat gather, resolves the
        branch-free predicate ``(x <= threshold) | member`` and steps to
        ``left + ~go`` (breadth-first layout keeps ``right == left + 1``).
        Once at least a quarter of the active pairs sit on leaves, their
        labels are written out and the rest are compacted.
        """
        n = X.shape[1]
        xs = X.ravel()
        row_start = self.feature * n
        cat = self.cat_features.size > 0
        codes = self.codes(X).ravel() if cat else None

        out = np.empty(len(self.roots) * n, dtype=LABEL_DTYPE)
        node = np.repeat(self.roots, n)
        rec = np.tile(np.arange(n, dtype=np.intp), len(self.roots))
        slot = np.arange(out.size, dtype=np.intp)
        while node.size:
            flat = row_start.take(node)
            flat += rec
            go = xs.take(flat) <= self.threshold.take(node)
            if cat:
                go |= self.member.take(self.member_row.take(node) + codes.take(flat))
            node = self.left.take(node)
            node += ~go
            done = self.is_leaf.take(node)
            n_done = np.count_nonzero(done)
            if 4 * n_done >= node.size:
                fin = np.flatnonzero(done)
                out[slot.take(fin)] = self.label.take(node.take(fin))
                keep = np.flatnonzero(~done)
                node, rec, slot = node.take(keep), rec.take(keep), slot.take(keep)
        return out


@dataclass(frozen=True)
class CompiledTree:
    """A fitted tree flattened into node-major tables (breadth-first
    order, root at row 0).

    Rows are nodes. ``feature[i] == LEAF`` marks a leaf; internal rows
    carry the schema-ordered feature index, the numeric ``threshold``
    (NaN on categorical rows) and the children. ``catmask`` packs each
    categorical split's left-code set into 64-bit words; ``label`` holds
    every node's majority class. Prediction runs on private walk tables
    derived from these once, at construction.
    """

    schema: Schema
    feature: np.ndarray  # int32[n] schema feature index, LEAF at leaves
    threshold: np.ndarray  # float64[n], NaN at leaves / categorical rows
    left: np.ndarray  # int32[n] child row, LEAF at leaves
    right: np.ndarray  # int32[n]
    label: np.ndarray  # LABEL_DTYPE[n] majority class of every node
    is_cat: np.ndarray  # bool[n] categorical-split rows
    catmask: np.ndarray  # uint64[n, n_words] left-code bitsets
    node_id: np.ndarray  # int32[n] original builder node ids
    depth: int  # deepest node
    _walk: _Walk = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_walk", _Walk.stack(self.schema, (self,)))

    # -- shape -------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature == LEAF))

    @property
    def nbytes(self) -> int:
        """Total table bytes (the whole model, cache-resident for any
        realistic tree)."""
        return sum(
            a.nbytes
            for a in (
                self.feature,
                self.threshold,
                self.left,
                self.right,
                self.label,
                self.is_cat,
                self.catmask,
                self.node_id,
            )
        )

    @property
    def used_features(self) -> np.ndarray:
        """Sorted schema indices of features the tree actually tests."""
        return self._walk.used_features

    # -- evaluation --------------------------------------------------------
    def feature_matrix(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """Gather the request columns into one feature-major ``(F + 1, n)``
        float64 matrix; only features the tree tests are filled, and the
        last row is the all-zero row leaves read."""
        return self._walk.matrix(self.schema, columns)

    def predict_batch(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """Vectorised batch prediction, bit-identical to the reference
        ``DecisionTree.predict``."""
        return self.predict_matrix(self.feature_matrix(columns))

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Levelwise evaluation over a prebuilt feature-major matrix (the
        layout :meth:`feature_matrix` returns)."""
        return self._walk.labels(X)


def compile_tree(tree: "DecisionTree") -> CompiledTree:
    """Flatten ``tree`` breadth-first into a :class:`CompiledTree`."""
    schema = tree.schema
    feat_index = {name: i for i, name in enumerate(schema.names)}
    max_card = max((a.cardinality for a in schema.categorical), default=0)

    # breadth-first numbering via an explicit queue (no recursion)
    order = []
    queue = [tree.root]
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        order.append(node)
        if not node.is_leaf:
            queue.append(node.left)
            queue.append(node.right)
    index = {id(node): i for i, node in enumerate(order)}
    n = len(order)

    # left-code sets can only contain codes seen in training data, but
    # size the bitset to the schema cardinality so membership lookups
    # never need a per-node width
    n_words = max(1, (max_card + 63) // 64)
    feature = np.full(n, LEAF, dtype=np.int32)
    threshold = np.full(n, np.nan, dtype=np.float64)
    left = np.full(n, LEAF, dtype=np.int32)
    right = np.full(n, LEAF, dtype=np.int32)
    label = np.empty(n, dtype=LABEL_DTYPE)
    is_cat = np.zeros(n, dtype=bool)
    catmask = np.zeros((n, n_words), dtype=np.uint64)
    node_id = np.empty(n, dtype=np.int32)
    max_depth = 0

    for i, node in enumerate(order):
        label[i] = node.label
        node_id[i] = node.node_id
        if node.depth > max_depth:
            max_depth = node.depth
        if node.is_leaf:
            continue
        s = node.split
        feature[i] = feat_index[s.attribute]
        left[i] = index[id(node.left)]
        right[i] = index[id(node.right)]
        if s.kind == NUMERIC_SPLIT:
            threshold[i] = s.threshold
        else:
            is_cat[i] = True
            for code in s.left_codes:
                if not 0 <= code < n_words * 64:
                    raise ValueError(
                        f"categorical code {code} at node {node.node_id} "
                        f"outside the schema cardinality bitset"
                    )
                catmask[i, code >> 6] |= np.uint64(1) << np.uint64(code & 63)

    # the walk advances cursors as ``left + ~go``: the
    # breadth-first queue appends left then right, so siblings are
    # always adjacent — keep this invariant machine-checked
    internal = feature != LEAF
    if not np.array_equal(right[internal], left[internal] + 1):
        raise AssertionError("BFS layout broke sibling adjacency")

    return CompiledTree(
        schema=schema,
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        label=label,
        is_cat=is_cat,
        catmask=catmask,
        node_id=node_id,
        depth=max_depth,
    )
