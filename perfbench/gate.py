"""Correctness gate: a brute-force reference top-k, page invariants, and a
walk over the event stream that compares every served page with the page
the reference top-k gives.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ebrguard.corpus import Document, SourceType
from ebrguard.integrity import LabelStore, Severity
from ebrguard.pipeline import ResultPage
from ebrguard.vector_index import Candidate, CandidateSource

from spans import NullTracer
from replay import replay_page
from workloads import LABEL, Prepared


class RefIndex:
    """Exact cosine over each source type's live rows, kept by the benchmark.

    Rows are normalised as `build_index` normalises them and scored against
    the unit query, so scores match the index bit for bit; selection and
    ordering by (-score, doc_id) are done here independently of `topk`.
    """

    def __init__(self, corpus: list[Document], embeddings: dict) -> None:
        ids = [d.doc_id for d in corpus]
        matrix = np.vstack([np.asarray(embeddings[i], dtype=np.float64) for i in ids])
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        matrix = matrix / norms
        self.dim = matrix.shape[1]
        self._all: dict[SourceType, tuple[list[str], np.ndarray]] = {}
        for st in SourceType:
            rows = [i for i, d in enumerate(corpus) if d.source_type is st]
            if rows:
                self._all[st] = ([ids[i] for i in rows], matrix[rows])
        self._removed: set[str] = set()
        self._live: dict[SourceType, tuple[list[str], np.ndarray]] = {}
        for st in self._all:
            self._refresh(st)
        self._source_of = {d.doc_id: d.source_type for d in corpus}

    def _refresh(self, st: SourceType) -> None:
        ids, matrix = self._all[st]
        keep = [j for j, d in enumerate(ids) if d not in self._removed]
        self._live[st] = ([ids[j] for j in keep], np.ascontiguousarray(matrix[keep]))

    def remove(self, doc_ids) -> None:
        touched = {self._source_of[d] for d in doc_ids if d in self._source_of}
        self._removed.update(doc_ids)
        for st in touched:
            self._refresh(st)

    def source_types_present(self) -> frozenset[SourceType]:
        return frozenset(st for st, (ids, _) in self._live.items() if ids)

    def size(self, st: SourceType) -> int:
        return len(self._live[st][0]) if st in self._live else 0

    def topk(self, query_vec, k: int, st: SourceType) -> list[Candidate]:
        ids, matrix = self._live.get(st, ([], None))
        if not ids:
            return []
        q = np.asarray(query_vec, dtype=np.float64)
        scores = np.clip(matrix @ (q / np.linalg.norm(q)), -1.0, 1.0)
        n = len(ids)
        if n > k:
            kth = np.partition(scores, n - k)[n - k]
            pool = np.flatnonzero(scores >= kth).tolist()
        else:
            pool = range(n)
        ranked = sorted(pool, key=lambda j: (-scores[j], ids[j]))[:k]
        return [Candidate(ids[j], float(scores[j]), CandidateSource.EBR) for j in ranked]


def reference_topk(st, query_vec, k, source_type):
    return st.index.topk(query_vec, k, source_type)


def page_problems(page: ResultPage, k: int, removable: frozenset[str]) -> list[str]:
    """Invariants every served page must hold."""
    rows = page.results
    ids = [r.doc_id for r in rows]
    problems = []
    if len(rows) > k:
        problems.append(f"{len(rows)} rows > k={k}")
    if len(set(ids)) != len(ids):
        problems.append("duplicate doc on page")
    served = sorted(set(ids) & removable)
    if served:
        problems.append(f"Removable doc served after its label: {served}")
    flags = [r.demoted for r in rows]
    if flags != sorted(flags):
        problems.append("demoted row above an undemoted row")
    scores = [r.transformed_score for r in rows if not r.demoted]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("undemoted scores increase down the page")
    return problems


@dataclass
class GateResult:
    failures: dict[int, list[str]] = field(default_factory=dict)  # query position -> problems
    topk_checked: int = 0
    rows_scanned: int = 0

    def fail(self, position: int, problem: str) -> None:
        self.failures.setdefault(position, []).append(problem)


def check_stream(prep: Prepared, pages: list[ResultPage | None], topk_logs=None) -> GateResult:
    """Walk prep.events with reference state and check the served pages.

    pages[i] is the page served for the i-th query event (None when the call
    raised). topk_logs[i], when given, holds the traced pass's top-k calls
    for that query, each compared with the reference.
    """
    ref = RefIndex(prep.corpus, prep.embeddings)
    store = LabelStore(prep.base.store.audit)
    ref.remove(store.removable_ids())
    oracle = dataclasses.replace(prep.base, index=ref, store=store)
    result = GateResult()
    k = prep.base.config.k
    position = 0
    for kind, item in prep.events:
        if kind == LABEL:
            store.add(item)
            if item.severity is Severity.REMOVABLE:
                ref.remove([item.doc_id])
            continue
        page = pages[position]
        if page is None:
            result.fail(position, "request raised")
        else:
            for problem in page_problems(page, k, store.removable_ids()):
                result.fail(position, problem)
            expected = replay_page(item, oracle, reference_topk, NullTracer())
            if page != expected:
                result.fail(position, f"page for {item.query_id} differs from the reference page")
        for source_type, query_vec, candidates in (topk_logs[position] if topk_logs else ()):
            result.topk_checked += 1
            result.rows_scanned += ref.size(source_type)
            if candidates != ref.topk(query_vec, k, source_type):
                result.fail(position, f"top-k for {item.query_id}/{source_type.value} differs from brute force")
        position += 1
    return result
