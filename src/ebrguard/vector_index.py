"""Exact cosine top-k retrieval with removal by live mask.

Desk scale (up to ~100k documents) makes an exact answer both fast enough and
exactly reproducible, which golden tests rely on. The index is immutable for
query purposes; remove_many() returns a new value, so concurrent top-k calls
on one index value are safe.

EBR retrieves per source type, so the index is one block per source type: a
doc_id array and its unit-norm float64 rows (the score of record), in corpus
order, each a view of one array built grouped by source type. The index also
keeps the float32 copy of that whole array, which the screen reads. Only
build_index and remove_many build an Index, and build_index is the one place
rows are checked and scaled. The rows never change after the build:
remove_many shares every array and returns a value with a new live mask.
Dead rows are never compacted; the index never grows, so they never
outnumber the rows built.

Score of record. A doc's raw_score is its row of the live block, in corpus
order, scanned against the unit query with one single-threaded
np.clip(rows @ q_unit, -1, 1), and must stay bit for bit so. OpenBLAS's
gemv gives each row the bits of its 4-row kernel, except the last n % 4 rows
of the matrix, which go through the remainder kernels. So a row's bits
depend on where it sits in the matrix, and on the BLAS thread count:
OpenBLAS threads a gemv only from m * n >= 460,800 (7,200 rows at d=64), and
each thread's share has a tail of its own.

topk_each serves one request: the top k of each of several source types,
with the query checked, scaled and the margin B formed once. topk is its
one-source case. In three steps:

1. Screen. One float32 scan, screen[lo:hi] @ q32, covers the span of every
   requested block with k < n_live; a block with k >= n_live has nothing to
   screen, and its pool is every live row. Each screened block sets its
   dead rows to -inf in its slice of the scan and takes the k-th score
   kth32 (np.partition), and pools every row with s32 >= kth32 - 2B.
   The span is scanned in chunks of _SCREEN_CHUNK_ELEMENTS values (4,096
   rows at d=64), below OpenBLAS's threaded cut-over, so the serving path
   never wakes a BLAS worker thread: a worker spins for a while after a
   threaded call, and on a host whose other core is busy that stalls
   requests. B bounds a float32 score whatever order its sum takes,
   threaded or not (below), so the chunking, like the thread count, could
   change the pool but never a raw_score.
2. Rescore the pool in float64, laid out so that each pooled row gets the
   bits the full scan of the live block gives it: the pooled rows of the
   main region (all live rows but the last n_live % 4), zero-padded to a
   multiple of 4 rows and to at least 4, followed by the last n_live % 4
   live rows in order, pooled or not. A block with fewer than 4 live rows
   is rescored as those rows alone, which is its full scan. The matrix is
   scanned in chunks of a multiple of 4 rows under _CHUNK_ELEMENTS values
   (1,024 rows at d=64), well below the threading cut-over, and the tail
   rides in the last chunk; so k >= n_live takes the same path, and scores
   are those of a single-threaded full scan whatever the thread count.
3. best_k over the pool: every entry scoring at least the k-th score
   (tie-complete) is sorted by (-score, doc_id), the order merge_candidates
   also uses. search_text selects with the same best_k, keyed by doc ranks
   that follow doc_id order, so its order is (-score, doc_id) too.

The margin B (screen_margin). Let r be a float64 unit row, q the float64
unit query and qn = max(1, |q|); qn is 1 up to rounding unless |q|**2
underflowed when q was scaled. s32 sums the d products of r and q, each
rounded to float32, in any order. Each term carries at most d + 2 roundings
(row, query, product, and at most d - 1 additions on its path), so
|s32 - r.q| <= gamma(d + 2) * sum|r_i q_i| <= gamma(d + 2) * qn, with
gamma(n) = n u / (1 - n u), u = 2**-24 (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., sec. 3.1), whatever order the float32 sum
takes, threaded or not. The score of record s64 is r.q rounded in float64,
then clipped, which moves it by at most qn - 1 and rounding. So
B = gamma(d + 2) * (1 + 2**-10) * qn + (qn - 1): the slack of at least
(d + 2) * 2**-34 covers the float64 side with room to spare (the rounding
of |r| and |q| away from 1, of s64 and of the cut kth32 - 2B, each under
(d + 2) * 2**-52) and float32 underflow (under 3 d * 2**-150). B is about
3.9e-6 at d=64, 66 float32 ulps just below 1.

Why 2B suffices. At least k live rows have s32 >= kth32, so at least k have
s64 >= kth32 - B; the k-th float64 score S_k is therefore >= kth32 - B. A
row best_k would take over the whole block has s64 >= S_k, so its
s32 >= S_k - B >= kth32 - 2B: it is in the pool. The cut kth32 - 2B is
formed in float64 and rounded down to float32 before the float32
comparison, so rounding cannot tighten it.

The screen may scan rows in any layout, since the margin holds for any
float32 summation order. Rescoring in another layout, or batching queries
into one float64 matrix-matrix product, changes the float64 score bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Document, SourceType, first_repeat
from .errors import GuardrailError, InvalidParameter

# Values per rescore chunk: a multiple of 4 rows this size stays far below
# OpenBLAS's threaded-gemv cut-over of m * n >= 460,800.
_CHUNK_ELEMENTS = 1 << 16
# Values per screen chunk: below the cut-over too, but large, since each
# BLAS call costs a few microseconds of its own.
_SCREEN_CHUNK_ELEMENTS = 1 << 18


class CandidateSource(str, Enum):
    EBR = "EBR"
    TEXT = "Text"


@dataclass(frozen=True, slots=True)
class Candidate:
    doc_id: str
    raw_score: float
    source: CandidateSource


def screen_margin(dim: int) -> float:
    """B at |q_unit| <= 1: the most a float32 screen score can differ from
    the float64 score of record (module docstring)."""
    n = (dim + 2) * 2.0**-24
    return n / (1.0 - n) * (1.0 + 2.0**-10)


class _Block:
    """One source type's rows, and which of them are live in one index value.

    ids and rows (float64 unit rows) are views of the build's arrays at span;
    live_pos and dead are the positions in the block that the index's live
    mask, at span, marks live and dead.
    """

    __slots__ = ("span", "ids", "rows", "live_pos", "dead")

    def __init__(self, span: slice, ids, rows, live: np.ndarray) -> None:
        self.span, self.ids, self.rows = span, ids, rows
        self.live_pos = np.flatnonzero(live)
        self.dead = np.flatnonzero(~live)

    def with_live(self, live: np.ndarray) -> "_Block":
        """This block under the index-wide live mask `live`."""
        return _Block(self.span, self.ids, self.rows, live[self.span])

    def pool(self, scores: np.ndarray, k: int, margin: float) -> np.ndarray:
        """Positions of the live rows whose float32 score is within 2 * margin
        of the k-th: a superset of best_k's pool over the float64 scores.

        scores is this block's slice of the screen, k < n_live; dead rows are
        set to -inf in it.
        """
        scores[self.dead] = -np.inf
        n = len(scores)
        cut = float(np.partition(scores, n - k)[n - k]) - 2.0 * margin
        cut32 = np.float32(cut)
        if cut32 > cut:
            cut32 = np.nextafter(cut32, np.float32(-np.inf))
        return np.flatnonzero(scores >= cut32)

    def rescore(self, pool: np.ndarray, q_unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(positions, float64 scores) of the pool plus the tail rows, each
        score bit-equal to the row's in a full scan of the live rows."""
        live_pos = self.live_pos
        n_live = len(live_pos)
        if n_live < 4:
            return live_pos, np.clip(self.rows[live_pos] @ q_unit, -1.0, 1.0)
        split = n_live - n_live % 4
        tail = live_pos[split:]
        main = pool[: np.searchsorted(pool, tail[0])] if len(tail) else pool
        padded = max(4, -(-len(main) // 4) * 4)
        matrix = np.zeros((padded + len(tail), self.rows.shape[1]))
        matrix[: len(main)] = self.rows[main]
        matrix[padded:] = self.rows[tail]
        step = max(4, _CHUNK_ELEMENTS // self.rows.shape[1] // 4 * 4)
        last = (padded - 1) // step * step
        scores = np.empty(len(matrix))
        for start in range(0, last, step):
            scores[start : start + step] = matrix[start : start + step] @ q_unit
        scores[last:] = matrix[last:] @ q_unit
        np.clip(scores, -1.0, 1.0, out=scores)
        return (
            np.concatenate((main, tail)),
            np.concatenate((scores[: len(main)], scores[padded:])),
        )


class Index:
    """(doc_id, embedding, source_type) entries as one _Block per source type.

    Built only by build_index and remove_many. The build lays rows out
    grouped by source type, in corpus order within a type; _where maps each
    doc_id built to its row in that layout and, like _screen (the float32
    copy of every row), is shared by every value derived from the build.
    _live marks this value's live rows.
    """

    def __init__(
        self,
        blocks: dict[SourceType, _Block],
        where: dict[str, int],
        live: np.ndarray,
        screen: np.ndarray,
        dim: int,
    ) -> None:
        self._blocks = blocks
        self._where = where
        self._live = live
        self._screen = screen
        self._dim = dim
        self._present = frozenset(st for st, b in blocks.items() if len(b.live_pos))
        self._len = sum(len(b.live_pos) for b in blocks.values())

    @property
    def dim(self) -> int:
        return self._dim

    def source_types_present(self) -> frozenset[SourceType]:
        return self._present

    def __len__(self) -> int:
        return self._len

    def __contains__(self, doc_id: str) -> bool:
        row = self._where.get(doc_id)
        return row is not None and bool(self._live[row])

    def remove_many(self, ids: Iterable[str]) -> "Index":
        """Return an index without the docs whose ids are given.

        Ids that are absent (never present, or already removed) are ignored,
        so the operation is idempotent; with nothing to remove the same
        index is returned. Rows are shared, never copied; the new value has
        its own live mask.
        """
        rows = np.fromiter(map(self._where.get, ids, repeat(-1)), dtype=np.intp)
        rows = rows[rows >= 0]
        gone = rows[self._live[rows]]
        if not len(gone):
            return self
        live = self._live.copy()
        live[gone] = False
        blocks = {st: b.with_live(live) for st, b in self._blocks.items()}
        return Index(blocks, self._where, live, self._screen, self._dim)


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
    members = {st: [i for i, d in enumerate(docs) if d.source_type == st] for st in SourceType}
    order = np.array([i for m in members.values() for i in m], dtype=np.intp)
    matrix = np.vstack([rows[i] for i in order]) if rows else np.zeros((0, dim), dtype=np.float64)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise InvalidParameter(f"non-finite embedding for doc_id {ids[order[~finite].min()]!r}")
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    matrix /= norms
    id_array = np.array(ids, dtype=object)[order]
    screen = matrix.astype(np.float32)
    live = np.ones(len(order), dtype=bool)
    blocks, start = {}, 0
    for st, m in members.items():
        if m:
            span = slice(start, start + len(m))
            blocks[st] = _Block(span, id_array[span], matrix[span], live[span])
            start = span.stop
    return Index(blocks, dict(zip(id_array.tolist(), range(len(order)))), live, screen, dim)


def topk(
    index: Index,
    query_vec: np.ndarray,
    k: int,
    source_filter: SourceType,
) -> list[Candidate]:
    """Exact top-k by cosine among one source type's docs, descending score,
    ties broken by ascending doc_id."""
    (pairs,) = topk_each(index, query_vec, k, (source_filter,))
    return [
        Candidate(doc_id=doc_id, raw_score=score, source=CandidateSource.EBR)
        for score, doc_id in pairs
    ]


def topk_each(
    index: Index,
    query_vec: np.ndarray,
    k: int,
    source_types: Sequence[SourceType],
) -> list[list[tuple[float, str]]]:
    """For each source type in source_types, in that order, its exact top-k
    by cosine as best_k's (score, doc_id) pairs: descending score, ties
    broken by ascending doc_id. One float32 scan screens every requested
    block (module docstring); a source type with no live doc gets []."""
    if k < 1:
        raise InvalidParameter(f"k must be >= 1, got {k}")
    q = np.asarray(query_vec, dtype=np.float64)
    if q.ndim != 1 or q.size != index.dim:
        raise InvalidParameter(f"query dim {q.shape} vs index dim {index.dim}")
    if not np.isfinite(q).all():
        raise InvalidParameter("query vector has a non-finite component")
    for st in source_types:
        if not isinstance(st, SourceType):
            raise TypeError(f"source types must be SourceType values, got {st!r}")
    blocks = [index._blocks[st] if st in index._present else None for st in source_types]

    qnorm = np.linalg.norm(q)
    if qnorm == 0.0:
        return [
            [] if b is None else best_k(np.zeros(len(b.live_pos)), b.ids[b.live_pos], k)
            for b in blocks
        ]
    # Entries are stored unit-norm, so the dot product is the cosine.
    q_unit = q / qnorm
    screened = [b for b in blocks if b is not None and k < len(b.live_pos)]
    if screened:
        lo = min(b.span.start for b in screened)
        hi = max(b.span.stop for b in screened)
        q32 = q_unit.astype(np.float32)
        step = max(1, _SCREEN_CHUNK_ELEMENTS // index.dim)
        scores = np.empty(hi - lo, dtype=np.float32)
        for start in range(lo, hi, step):
            stop = min(hi, start + step)
            np.matmul(index._screen[start:stop], q32, out=scores[start - lo : stop - lo])
        qn = max(1.0, float(np.sqrt(q_unit @ q_unit)))
        margin = screen_margin(index.dim) * qn + (qn - 1.0)
    out = []
    for b in blocks:
        if b is None:
            out.append([])
            continue
        if k < len(b.live_pos):
            pool = b.pool(scores[b.span.start - lo : b.span.stop - lo], k, margin)
        else:
            pool = b.live_pos
        positions, rescored = b.rescore(pool, q_unit)
        out.append(best_k(rescored, b.ids[positions], k))
    return out


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
