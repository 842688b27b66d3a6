"""Corpus, query, judgment, and engagement-log records plus JSONL serialization.

Every on-disk format is line-delimited JSON, one record per line, UTF-8,
with field names matching the dataclass fields. Records are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Hashable, Iterable

from .errors import MalformedRecord
from .jsonl import Record, read_jsonl, write_jsonl


class SourceType(str, Enum):
    """Document source: connected navigation (CN) or unconnected navigation (UN)."""

    CN = "CN"
    UN = "UN"


class Intent(str, Enum):
    """Closed query-intent taxonomy."""

    PERSON_NAME = "PersonName"
    GROUP_TOPIC = "GroupTopic"
    CELEBRITY_CONNECTED = "CelebrityConnected"
    FRIEND_PHOTO = "FriendPhoto"
    OTHER = "Other"


class FailureCategory(str, Enum):
    """Why a judged result was rated a failure (grade 0)."""

    FUZZY_TEXT_MATCH = "FuzzyTextMatch"
    LOCATION_MISMATCH = "LocationMismatch"
    LANGUAGE_MISMATCH = "LanguageMismatch"
    MISINFORMATION = "Misinformation"
    UNTRUSTWORTHY = "Untrustworthy"
    OFFENSIVE = "Offensive"


INTEGRITY_CATEGORIES = frozenset(
    {
        FailureCategory.MISINFORMATION,
        FailureCategory.UNTRUSTWORTHY,
        FailureCategory.OFFENSIVE,
    }
)


@dataclass(frozen=True, slots=True)
class SegmentKey(Record):
    """One customization bucket: user country, language, query intent, doc source."""

    user_country: str
    language: str
    query_intent: Intent
    doc_source_type: SourceType

    def sort_key(self) -> tuple:
        return (
            self.user_country,
            self.language,
            self.query_intent.value,
            self.doc_source_type.value,
        )


@dataclass(frozen=True, slots=True)
class Document(Record):
    doc_id: str
    title: str
    description: str
    language: str
    country: str
    region: str
    topic: str
    source_type: SourceType

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("doc_id must be nonempty")


@dataclass(frozen=True, slots=True)
class Query(Record):
    query_id: str
    text: str
    language: str
    country: str
    region: str
    intent: Intent

    def __post_init__(self) -> None:
        if not self.query_id:
            raise ValueError("query_id must be nonempty")


@dataclass(frozen=True, slots=True)
class EngagementRecord(Record):
    """One logged impression: the raw similarity score and whether it converted."""

    query_id: str
    doc_id: str
    raw_score: float
    engaged: bool
    segment: SegmentKey

    def __post_init__(self) -> None:
        if not -1.0 <= self.raw_score <= 1.0:
            raise ValueError(f"raw_score {self.raw_score} outside [-1, 1]")


@dataclass(frozen=True, slots=True)
class RelevanceJudgment(Record):
    """Rater grade on a 0..3 scale; grade 0 may carry a failure category."""

    query_id: str
    doc_id: str
    grade: int
    failure_category: FailureCategory | None = None

    def __post_init__(self) -> None:
        if self.grade not in (0, 1, 2, 3):
            raise ValueError(f"grade {self.grade} outside 0..3")
        if self.grade > 0 and self.failure_category is not None:
            raise ValueError("failure_category only allowed on grade-0 judgments")


# ---------------------------------------------------------------------------
# JSONL I/O


def first_repeat(keys: Iterable[Hashable]) -> Hashable | None:
    """The first key seen a second time, or None if every key is distinct."""
    seen: set[Hashable] = set()
    return next((k for k in keys if k in seen or seen.add(k)), None)


def reject_repeats(path: str | Path, keys: Iterable[Hashable], what: str) -> None:
    """MalformedRecord for the file at path naming the first key on a second
    line, as in "doc_id 'g1' is on more than one line"; what names the key."""
    repeated = first_repeat(keys)
    if repeated is not None:
        raise MalformedRecord(str(path), None, f"{what} {repeated!r} is on more than one line")


def load_corpus(path: str | Path) -> list[Document]:
    """Read corpus.jsonl in file order; duplicate doc_id is an error."""
    docs = read_jsonl(path, Document.from_dict)
    reject_repeats(path, (d.doc_id for d in docs), "doc_id")
    return docs


def save_corpus(docs: Iterable[Document], path: str | Path) -> None:
    write_jsonl(path, (d.to_dict() for d in docs))


def load_queries(path: str | Path) -> list[Query]:
    queries = read_jsonl(path, Query.from_dict)
    reject_repeats(path, (q.query_id for q in queries), "query_id")
    return queries


def save_queries(queries: Iterable[Query], path: str | Path) -> None:
    write_jsonl(path, (q.to_dict() for q in queries))


def load_judgments(path: str | Path) -> list[RelevanceJudgment]:
    """Read judgments.jsonl; a (query_id, doc_id) pair graded twice is an error."""
    judgments = read_jsonl(path, RelevanceJudgment.from_dict)
    reject_repeats(path, ((j.query_id, j.doc_id) for j in judgments), "(query_id, doc_id)")
    return judgments


def save_judgments(judgments: Iterable[RelevanceJudgment], path: str | Path) -> None:
    write_jsonl(path, (j.to_dict() for j in judgments))


def load_engagement_log(path: str | Path) -> list[EngagementRecord]:
    return read_jsonl(path, EngagementRecord.from_dict)


def save_engagement_log(records: Iterable[EngagementRecord], path: str | Path) -> None:
    write_jsonl(path, (r.to_dict() for r in records))
