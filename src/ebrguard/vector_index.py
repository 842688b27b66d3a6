"""Exhaustive cosine top-k retrieval with physical removal support.

Desk scale (up to ~100k documents) makes an exact scan both fast enough and
exactly reproducible, which golden tests rely on. The index is immutable for
query purposes; remove_many() returns a new value (copy-on-write), so concurrent
top-k calls on one index value are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Document, SourceType
from .errors import DimensionMismatch, InvalidParameter, MissingEmbedding


class CandidateSource(str, Enum):
    EBR = "EBR"
    TEXT = "Text"


@dataclass(frozen=True, slots=True)
class Candidate:
    doc_id: str
    raw_score: float
    source: CandidateSource


class Index:
    """Ordered (doc_id, embedding, source_type) entries."""

    def __init__(
        self,
        doc_ids: Sequence[str],
        matrix: np.ndarray,
        source_types: Sequence[SourceType],
    ) -> None:
        if matrix.ndim != 2:
            raise DimensionMismatch("embedding matrix must be 2-D")
        if not (len(doc_ids) == matrix.shape[0] == len(source_types)):
            raise ValueError("doc_ids, matrix rows, and source_types must align")
        self._doc_ids = list(doc_ids)
        self._matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        self._source_types = list(source_types)
        self._positions = {doc_id: i for i, doc_id in enumerate(self._doc_ids)}

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def doc_ids(self) -> list[str]:
        return list(self._doc_ids)

    def source_types_present(self) -> frozenset[SourceType]:
        return frozenset(self._source_types)

    def __len__(self) -> int:
        return len(self._doc_ids)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._positions

    def remove_many(self, doc_ids: Iterable[str]) -> "Index":
        """Return an index without doc_ids.

        Ids that are absent (never present, or already removed) are ignored,
        so the operation is idempotent; with nothing to remove the same
        index is returned.
        """
        targets = {d for d in doc_ids if d in self._positions}
        if not targets:
            return self
        keep = [i for i, d in enumerate(self._doc_ids) if d not in targets]
        return Index(
            [self._doc_ids[i] for i in keep],
            self._matrix[keep],
            [self._source_types[i] for i in keep],
        )


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity u.v / (|u||v|), clamped to [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch(f"shapes {u.shape} and {v.shape} differ")
    denom = np.linalg.norm(u) * np.linalg.norm(v)
    if denom == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / denom, -1.0, 1.0))


def build_index(docs: Sequence[Document], embeddings: Mapping[str, np.ndarray]) -> Index:
    """Assemble an index over docs in corpus order; every doc needs a vector."""
    rows = []
    for doc in docs:
        if doc.doc_id not in embeddings:
            raise MissingEmbedding(doc.doc_id)
        rows.append(np.asarray(embeddings[doc.doc_id], dtype=np.float64))
    dims = {r.size for r in rows}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed embedding dimensions: {sorted(dims)}")
    dim = dims.pop() if dims else 0
    matrix = np.vstack(rows) if rows else np.zeros((0, dim), dtype=np.float64)
    if matrix.size:
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        matrix = matrix / norms
    return Index([d.doc_id for d in docs], matrix, [d.source_type for d in docs])


def topk(
    index: Index,
    query_vec: np.ndarray,
    k: int,
    source_filter: SourceType | None = None,
) -> list[Candidate]:
    """Exact top-k by cosine, descending score, ties broken by ascending doc_id."""
    if k < 1:
        raise InvalidParameter(f"k must be >= 1, got {k}")
    q = np.asarray(query_vec, dtype=np.float64)
    if q.ndim != 1 or q.size != index.dim:
        raise DimensionMismatch(f"query dim {q.shape} vs index dim {index.dim}")
    if len(index) == 0:
        return []

    if source_filter is None:
        rows = np.arange(len(index))
    else:
        rows = np.array(
            [i for i, st in enumerate(index._source_types) if st is source_filter],
            dtype=np.intp,
        )
        if rows.size == 0:
            return []

    qnorm = np.linalg.norm(q)
    if qnorm == 0.0:
        scores = np.zeros(rows.size, dtype=np.float64)
    else:
        # Entries are stored unit-norm, so the dot product is the cosine.
        scores = np.clip(index._matrix[rows] @ (q / qnorm), -1.0, 1.0)

    ids = np.array([index._doc_ids[i] for i in rows])
    order = np.lexsort((ids, -scores))[: min(k, rows.size)]
    return [
        Candidate(doc_id=str(ids[j]), raw_score=float(scores[j]), source=CandidateSource.EBR)
        for j in order
    ]
