"""Token-overlap fallback retriever used when trigger rules disable EBR.

Scoring is deliberately simple: |query tokens ∩ doc tokens| / sqrt(doc token
count). The fallback's job is exact-term matching, not ranking finesse, so
there is no stemming and no BM25 weighting.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import Document, Query
from .errors import InvalidParameter
from .vector_index import Candidate, CandidateSource

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop empty tokens."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


@dataclass
class InvertedIndex:
    postings: dict[str, list[str]] = field(default_factory=dict)
    doc_lengths: dict[str, int] = field(default_factory=dict)


def build_text_index(docs: Sequence[Document]) -> InvertedIndex:
    """Index title + description tokens; postings lists stay sorted by doc_id."""
    index = InvertedIndex()
    for doc in docs:
        tokens = tokenize(doc.title + " " + doc.description)
        index.doc_lengths[doc.doc_id] = len(tokens)
        for token in set(tokens):
            index.postings.setdefault(token, []).append(doc.doc_id)
    for token in index.postings:
        index.postings[token].sort()
    return index


def search_text(index: InvertedIndex, query: Query, k: int) -> list[Candidate]:
    """Top-k docs by token overlap; zero-overlap docs never appear."""
    if k < 1:
        raise InvalidParameter(f"k must be >= 1, got {k}")
    overlap: dict[str, int] = {}
    for token in set(tokenize(query.text)):
        for doc_id in index.postings.get(token, ()):
            overlap[doc_id] = overlap.get(doc_id, 0) + 1
    # Only docs with at least one token are on a posting list, so no length is 0.
    scored = (
        (doc_id, count / math.sqrt(index.doc_lengths[doc_id]))
        for doc_id, count in overlap.items()
    )
    return [
        Candidate(doc_id=doc_id, raw_score=score, source=CandidateSource.TEXT)
        for doc_id, score in heapq.nsmallest(k, scored, key=lambda item: (-item[1], item[0]))
    ]
