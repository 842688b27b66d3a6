"""Exhaustive cosine top-k retrieval with physical removal support.

Desk scale (up to ~100k documents) makes an exact scan both fast enough and
exactly reproducible, which golden tests rely on. The index is immutable for
query purposes; remove_many() returns a new value (copy-on-write), so concurrent
top-k calls on one index value are safe.

Only build_index and remove_many build an Index. build_index is the one place
rows are checked and scaled to unit norm; it stores them grouped by source
type, each type one contiguous block in corpus order, and gives each doc an
int rank in doc_id string order. Every top-k call names a source type (EBR
retrieves per source type) and scores that block with a single matrix-vector
product, takes every row scoring at least the k-th score (np.partition;
tie-complete, so all rows tied at the boundary reach the final sort), and
orders only that pool by (-score, rank). remove_many() slices the blocks,
ranks and ids with one keep mask; ranks keep their relative order, so nothing
is re-sorted.

Scores are bit-exact with a per-source brute-force scan, and must stay so.
OpenBLAS's gemv sums the last rows of a matrix in a different order, so a
row's score bits depend on the shape of the matrix it is scanned in, not on
the row alone. A call therefore scans exactly its source type's live rows in
corpus order (a view of the block: a view and a copy of the same rows give the
same bits). Scanning a block in another order, or batching queries into one
matrix-matrix product, changes score bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Document, SourceType, first_repeat
from .errors import DimensionMismatch, DuplicateId, InvalidParameter, MissingEmbedding

_SOURCE_TYPES = tuple(SourceType)


class CandidateSource(str, Enum):
    EBR = "EBR"
    TEXT = "Text"


@dataclass(frozen=True, slots=True)
class Candidate:
    doc_id: str
    raw_score: float
    source: CandidateSource


class Index:
    """(doc_id, embedding, source_type) entries, one contiguous block of rows per source type.

    Built only by build_index and remove_many, from checked unit-norm rows
    grouped as counts[i] rows of _SOURCE_TYPES[i], each block in corpus order.
    """

    def __init__(
        self, ids: np.ndarray, matrix: np.ndarray, ranks: np.ndarray, counts: Sequence[int]
    ) -> None:
        self._ids = ids  # object array, doc_id per row
        self._matrix = matrix
        self._ranks = ranks  # position of the doc_id in sorted doc_id order
        self._positions = dict(zip(ids.tolist(), range(len(ids))))
        ends = np.cumsum(counts).tolist()
        self._blocks = {
            st: slice(end - int(n), end)
            for st, n, end in zip(_SOURCE_TYPES, counts, ends)
            if n
        }
        self._present = frozenset(self._blocks)

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    def source_types_present(self) -> frozenset[SourceType]:
        return self._present

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._positions

    def remove_many(self, ids: Iterable[str]) -> "Index":
        """Return an index without the docs whose ids are given.

        Ids that are absent (never present, or already removed) are ignored,
        so the operation is idempotent; with nothing to remove the same
        index is returned.
        """
        rows = [self._positions[d] for d in set(ids) if d in self._positions]
        if not rows:
            return self
        keep = np.ones(len(self), dtype=bool)
        keep[rows] = False
        counts = [
            np.count_nonzero(keep[self._blocks[st]]) if st in self._blocks else 0
            for st in _SOURCE_TYPES
        ]
        return Index(self._ids[keep], self._matrix[keep], self._ranks[keep], counts)


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
    """Assemble an index over docs in corpus order; every doc needs a vector.

    The one place rows are checked (one vector per doc_id, all finite) and
    scaled to unit norm; a zero row stays zero.
    """
    ids = [d.doc_id for d in docs]
    repeated = first_repeat(ids)
    if repeated is not None:
        raise DuplicateId(repeated)
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
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise InvalidParameter(f"non-finite embedding for doc_id {ids[int(np.argmin(finite))]!r}")
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    matrix /= norms
    codes = np.array([_SOURCE_TYPES.index(d.source_type) for d in docs], dtype=np.intp)
    grouped = np.argsort(codes, kind="stable")
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return Index(
        np.array(ids, dtype=object)[grouped],
        matrix[grouped],
        ranks[grouped],
        np.bincount(codes, minlength=len(_SOURCE_TYPES)),
    )


def topk(
    index: Index,
    query_vec: np.ndarray,
    k: int,
    source_filter: SourceType,
) -> list[Candidate]:
    """Exact top-k by cosine among one source type's docs, descending score,
    ties broken by ascending doc_id."""
    if not isinstance(source_filter, SourceType):
        raise TypeError(f"source_filter must be a SourceType, got {source_filter!r}")
    if k < 1:
        raise InvalidParameter(f"k must be >= 1, got {k}")
    q = np.asarray(query_vec, dtype=np.float64)
    if q.ndim != 1 or q.size != index.dim:
        raise DimensionMismatch(f"query dim {q.shape} vs index dim {index.dim}")
    if not np.isfinite(q).all():
        raise InvalidParameter("query vector has a non-finite component")
    if source_filter not in index._blocks:
        return []
    rows = index._blocks[source_filter]  # a slice: views of the block
    block, ranks, ids = index._matrix[rows], index._ranks[rows], index._ids[rows]

    n = len(ids)
    qnorm = np.linalg.norm(q)
    if qnorm == 0.0:
        scores = np.zeros(n, dtype=np.float64)
    else:
        # Entries are stored unit-norm, so the dot product is the cosine.
        scores = np.clip(block @ (q / qnorm), -1.0, 1.0)

    if k < n:
        pool = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    else:
        pool = np.arange(n)
    picked = pool[np.lexsort((ranks[pool], -scores[pool]))[:k]]
    return [
        Candidate(doc_id=doc_id, raw_score=score, source=CandidateSource.EBR)
        for doc_id, score in zip(ids[picked].tolist(), scores[picked].tolist())
    ]
