"""Exhaustive cosine top-k retrieval with physical removal support.

Desk scale (up to ~100k documents) makes an exact scan both fast enough and
exactly reproducible, which golden tests rely on. The index is immutable for
query purposes; remove_many() returns a new value (copy-on-write), so concurrent
top-k calls on one index value are safe.

EBR retrieves per source type, so the index is one block per source type: a
doc_id array and its unit-norm rows, both in corpus order. Only build_index
and remove_many build an Index, and build_index is the one place rows are
checked and scaled. Every top-k call names a source type and scores that
block with a single matrix-vector product and hands the scores to best_k,
which takes every row scoring at least the k-th score (np.partition;
tie-complete, so all rows tied at the boundary reach the final sort) and
sorts only that pool by (-score, doc_id), the order merge_candidates also
uses. search_text selects with the same best_k, keyed by doc ranks that
follow doc_id order, so its order is (-score, doc_id) too. remove_many()
copies only the blocks that lose a doc, drops a block that empties, and
shares the rest.

Scores are bit-exact with a per-source brute-force scan, and must stay so.
OpenBLAS's gemv sums the last rows of a matrix in a different order, so a
row's score bits depend on the shape of the matrix it is scanned in, not on
the row alone. A block is therefore always exactly its source type's live
rows in corpus order: a block that lost no doc is the same array as before,
and a block that did is rebuilt from its remaining rows in the same order.
Scanning a block in another order, or batching queries into one
matrix-matrix product, changes score bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Document, SourceType, first_repeat
from .errors import GuardrailError, InvalidParameter


class CandidateSource(str, Enum):
    EBR = "EBR"
    TEXT = "Text"


@dataclass(frozen=True, slots=True)
class Candidate:
    doc_id: str
    raw_score: float
    source: CandidateSource


class Index:
    """(doc_id, embedding, source_type) entries as one (ids, rows) block per source type.

    Built only by build_index and remove_many. A block holds a doc_id object
    array and the checked unit-norm rows, both in corpus order; only source
    types with a live doc have one. _source_of maps each live doc_id to its type.
    """

    def __init__(
        self, blocks: dict[SourceType, tuple[np.ndarray, np.ndarray]], source_of: dict, dim: int
    ) -> None:
        self._blocks = blocks
        self._source_of = source_of
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    def source_types_present(self) -> frozenset[SourceType]:
        return frozenset(self._blocks)

    def __len__(self) -> int:
        return len(self._source_of)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._source_of

    def remove_many(self, ids: Iterable[str]) -> "Index":
        """Return an index without the docs whose ids are given.

        Ids that are absent (never present, or already removed) are ignored,
        so the operation is idempotent; with nothing to remove the same
        index is returned.
        """
        gone = {d for d in ids if d in self._source_of}
        if not gone:
            return self
        blocks = dict(self._blocks)
        source_of = dict(self._source_of)
        for st in {source_of.pop(d) for d in gone}:
            block_ids, rows = blocks.pop(st)
            keep = np.fromiter((d not in gone for d in block_ids.tolist()), bool, len(block_ids))
            if keep.any():
                blocks[st] = (block_ids[keep], rows[keep])
        return Index(blocks, source_of, self._dim)


def build_index(docs: Sequence[Document], embeddings: Mapping[str, np.ndarray]) -> Index:
    """Assemble an index over docs in corpus order; every doc needs a vector.

    The one place rows are checked (one vector per doc_id, all finite) and
    scaled to unit norm; a zero row stays zero.
    """
    ids = [d.doc_id for d in docs]
    repeated = first_repeat(ids)
    if repeated is not None:
        raise GuardrailError(f"duplicate id: {repeated!r}")
    rows = []
    for doc in docs:
        if doc.doc_id not in embeddings:
            raise GuardrailError(f"no embedding for doc_id {doc.doc_id!r}")
        rows.append(np.asarray(embeddings[doc.doc_id], dtype=np.float64))
    dims = {r.size for r in rows}
    if len(dims) > 1:
        raise GuardrailError(f"mixed embedding dimensions: {sorted(dims)}")
    dim = dims.pop() if dims else 0
    matrix = np.vstack(rows) if rows else np.zeros((0, dim), dtype=np.float64)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise InvalidParameter(f"non-finite embedding for doc_id {ids[int(np.argmin(finite))]!r}")
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    matrix /= norms
    id_array = np.array(ids, dtype=object)
    members = {st: [i for i, d in enumerate(docs) if d.source_type == st] for st in SourceType}
    blocks = {st: (id_array[m], matrix[m]) for st, m in members.items() if m}
    return Index(blocks, {d.doc_id: d.source_type for d in docs}, dim)


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
        raise InvalidParameter(f"query dim {q.shape} vs index dim {index.dim}")
    if not np.isfinite(q).all():
        raise InvalidParameter("query vector has a non-finite component")
    if source_filter not in index._blocks:
        return []
    ids, block = index._blocks[source_filter]

    qnorm = np.linalg.norm(q)
    if qnorm == 0.0:
        scores = np.zeros(len(ids), dtype=np.float64)
    else:
        # Entries are stored unit-norm, so the dot product is the cosine.
        scores = np.clip(block @ (q / qnorm), -1.0, 1.0)

    return [
        Candidate(doc_id=doc_id, raw_score=score, source=CandidateSource.EBR)
        for score, doc_id in best_k(scores, ids, k)
    ]


def best_k(scores: np.ndarray, keys: np.ndarray, k: int) -> list[tuple[float, object]]:
    """The k (score, key) pairs of highest score, ties broken by ascending key.

    Every entry scoring at least the k-th score joins the pool (np.partition;
    tie-complete, so all entries tied at the boundary reach the sort), and
    only that pool is sorted.
    """
    n = len(scores)
    if k < n:
        pool = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
        scores, keys = scores[pool], keys[pool]
    return [(-neg, key) for neg, key in sorted(zip((-scores).tolist(), keys.tolist()))[:k]]
