"""Compile a fitted :class:`~repro.clouds.DecisionForest` for serving.

Each member tree is flattened by :func:`~repro.serve.compiler.compile_tree`
into its node-major tables; the forest stacks all members' walk tables
into one set, so a request batch is one feature-major matrix (built once,
filled for the union of the members' used features) and **one** levelwise
walk advances every member's cursors together. The ballot box is one
``bincount`` over ``record * n_classes + leaf_label``. The majority vote —
ties to the lowest label code — is pinned **bit-identical** to the reference
``DecisionForest.predict``, which itself composes the per-tree reference
walkers, so the whole chain

    reference trees → reference vote == compiled trees → compiled vote

holds bit for bit (each compiled tree is already pinned against its
reference walker).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.data.schema import LABEL_DTYPE, Schema

from .compiler import CompiledTree, _Walk, compile_tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.clouds.forest import DecisionForest

__all__ = ["CompiledForest", "compile_forest"]


@dataclass(frozen=True)
class CompiledForest:
    """A fitted forest: the per-tree flat tables, plus one stacked set
    of walk tables built from them at construction."""

    schema: Schema
    trees: tuple[CompiledTree, ...]
    _walk: _Walk = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_walk", _Walk.stack(self.schema, self.trees))

    # -- shape -------------------------------------------------------------
    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def n_nodes(self) -> int:
        return sum(t.n_nodes for t in self.trees)

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in self.trees)

    @property
    def depth(self) -> int:
        return max(t.depth for t in self.trees)

    @property
    def used_features(self) -> np.ndarray:
        """Sorted schema indices of features any member tests."""
        return self._walk.used_features

    # -- evaluation --------------------------------------------------------
    def feature_matrix(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """One feature-major ``(F + 1, n)`` float64 matrix shared by every
        member; only the union of used features is filled."""
        return self._walk.matrix(self.schema, columns)

    def vote_counts(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """Per-record ``(n, n_classes)`` int64 ballot box of member votes."""
        X = self.feature_matrix(columns)
        n, k = X.shape[1], self.schema.n_classes
        ballot = np.tile(np.arange(n, dtype=np.intp) * k, self.n_trees)
        ballot += self._walk.labels(X)
        return np.bincount(ballot, minlength=n * k).reshape(n, k).astype(
            np.int64, copy=False
        )

    def predict_batch(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """Vectorised majority vote, bit-identical to the reference
        ``DecisionForest.predict`` (argmax ties to the lowest code)."""
        return np.argmax(self.vote_counts(columns), axis=1).astype(LABEL_DTYPE)


def compile_forest(forest: "DecisionForest") -> CompiledForest:
    """Flatten every member of ``forest`` into a :class:`CompiledForest`."""
    return CompiledForest(
        schema=forest.schema,
        trees=tuple(compile_tree(t) for t in forest.trees),
    )
