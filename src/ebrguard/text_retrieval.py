"""Token-overlap fallback retriever used when trigger rules disable EBR.

Scoring is deliberately simple: |query tokens ∩ doc tokens| / sqrt(doc token
count). The fallback's job is exact-term matching, not ranking finesse, so
there is no stemming and no BM25 weighting.

build_text_index gives each doc an int rank in doc_id string order; a
posting list is the ascending ranks of the docs holding its token, and
doc_lengths is indexed by rank. search_text concatenates the query tokens'
posting lists and counts each rank's occurrences with one np.unique call,
which is the number of distinct query tokens the doc shares. A score is
counts / np.sqrt(doc_lengths[ranks]), the same bits as count /
math.sqrt(length) on Python numbers: converting these small ints to float64
is exact, and sqrt and division are each correctly rounded. The top k come
from the tie-complete pool of vector_index.best_k, ordered by (-score, rank),
which is (-score, doc_id) because ranks follow doc_id order.

search_text_pairs returns them as (score, doc_id) pairs, which retrieve
turns into page rows; search_text wraps the same pairs in Candidates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Document, Query, first_repeat
from .errors import GuardrailError, InvalidParameter
from .vector_index import Candidate, CandidateSource, best_k

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop empty tokens."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


@dataclass
class InvertedIndex:
    """Postings over doc ranks: rank r is doc_ids[r], and ranks follow doc_id order.

    postings maps a token to the ascending ranks of the docs holding it;
    doc_lengths[r] is doc r's token count.
    """

    doc_ids: np.ndarray
    postings: dict[str, np.ndarray]
    doc_lengths: np.ndarray


def build_text_index(docs: Sequence[Document]) -> InvertedIndex:
    """Index title + description tokens; each doc_id may appear once."""
    repeated = first_repeat(d.doc_id for d in docs)
    if repeated is not None:
        raise GuardrailError(f"duplicate id: {repeated!r}")
    ranked = sorted(docs, key=lambda d: d.doc_id)
    lengths = []
    postings: dict = {}
    for rank, doc in enumerate(ranked):
        tokens = tokenize(doc.title + " " + doc.description)
        lengths.append(len(tokens))
        for token in set(tokens):
            postings.setdefault(token, []).append(rank)
    # Each list is dropped as its array is made, so not all of both are alive at once.
    for token, ranks in postings.items():
        postings[token] = np.array(ranks, dtype=np.intp)
    return InvertedIndex(
        doc_ids=np.array([d.doc_id for d in ranked], dtype=object),
        postings=postings,
        doc_lengths=np.array(lengths, dtype=np.int64),
    )


def search_text(index: InvertedIndex, query: Query, k: int) -> list[Candidate]:
    """Top-k docs by token overlap; zero-overlap docs never appear."""
    return [
        Candidate(doc_id=doc_id, raw_score=score, source=CandidateSource.TEXT)
        for score, doc_id in search_text_pairs(index, query, k)
    ]


def search_text_pairs(index: InvertedIndex, query: Query, k: int) -> list[tuple[float, str]]:
    """search_text's top k as (score, doc_id) pairs, in the same order."""
    if k < 1:
        raise InvalidParameter(f"k must be >= 1, got {k}")
    hits = [index.postings[t] for t in set(tokenize(query.text)) if t in index.postings]
    if not hits:
        return []
    ranks, counts = np.unique(np.concatenate(hits), return_counts=True)
    # Only docs with at least one token are on a posting list, so no length is 0.
    scores = counts / np.sqrt(index.doc_lengths[ranks])
    return [(score, index.doc_ids[rank]) for score, rank in best_k(scores, ranks, k)]
