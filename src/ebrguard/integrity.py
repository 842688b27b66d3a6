"""Ground-truth integrity labels, index removal, and rule-based rank demotion.

Labels are the enforcement signal: Removable documents are deleted from the
vector index (and dropped outright if one slips into a ranked list through
another source), Demotable documents keep their entry but sink below every
clean result. The store keeps an append-only audit trail; the latest write
for a doc_id wins.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence, TypeVar

from .corpus import INTEGRITY_CATEGORIES, RelevanceJudgment
from .jsonl import Record, read_jsonl, write_jsonl
from .vector_index import Index


class Severity(str, Enum):
    REMOVABLE = "Removable"
    DEMOTABLE = "Demotable"


class LabelReason(str, Enum):
    MISINFORMATION = "Misinformation"
    UNTRUSTWORTHY = "Untrustworthy"
    OFFENSIVE = "Offensive"
    OTHER = "Other"


# Default severity per failure/label reason. Misinformation and offensive
# content are never shown; untrustworthy results are demoted, not hidden.
DEFAULT_SEVERITY_FOR_REASON = {
    LabelReason.MISINFORMATION: Severity.REMOVABLE,
    LabelReason.OFFENSIVE: Severity.REMOVABLE,
    LabelReason.UNTRUSTWORTHY: Severity.DEMOTABLE,
    LabelReason.OTHER: Severity.DEMOTABLE,
}


@dataclass(frozen=True, slots=True)
class IntegrityLabel(Record):
    doc_id: str
    severity: Severity
    reason: LabelReason
    ts: str | None = None


class LabelStore:
    """Single-writer label map with an append-only audit list.

    add keeps the set of doc_ids whose current label is Removable, so a
    write costs the same however many labels there are.
    """

    def __init__(self, labels: Iterable[IntegrityLabel] = ()) -> None:
        self._current: dict[str, IntegrityLabel] = {}
        self._removable: set[str] = set()
        self.audit: list[IntegrityLabel] = []
        for lab in labels:
            self.add(lab)

    def add(self, lab: IntegrityLabel) -> IntegrityLabel:
        self.audit.append(lab)
        self._current[lab.doc_id] = lab
        if lab.severity is Severity.REMOVABLE:
            self._removable.add(lab.doc_id)
        else:
            self._removable.discard(lab.doc_id)
        return lab

    def lookup(self, doc_id: str) -> IntegrityLabel | None:
        return self._current.get(doc_id)

    def removable_ids(self) -> frozenset[str]:
        return frozenset(self._removable)


def apply_index_removal(index: Index, store: LabelStore) -> tuple[Index, int]:
    """Delete every Removable-labeled entry from the index.

    Returns the new index and the count of entries newly removed, so a
    second application reports 0. Idempotent.
    """
    after = index.remove_many(store.removable_ids())
    return after, len(index) - len(after)


_R = TypeVar("_R")


def apply_demotion(results: Sequence[_R], store: LabelStore) -> list[_R]:
    """Stable-partition ranked results: Demotable sink to the bottom, Removable vanish.

    Items must be dataclasses with doc_id and demoted fields (search results).
    Relative order inside the kept block and inside the demoted block is
    preserved. Removable entries are deleted outright as defense in depth for
    results that arrived through a path that bypassed index removal.
    """
    kept: list[_R] = []
    demoted: list[_R] = []
    for item in results:
        lab = store.lookup(item.doc_id)  # type: ignore[attr-defined]
        if lab is None:
            kept.append(item)
        elif lab.severity is Severity.REMOVABLE:
            continue
        else:
            demoted.append(dataclasses.replace(item, demoted=True))  # type: ignore[type-var]
    return kept + demoted


def labels_from_judgments(judgments: Iterable[RelevanceJudgment]) -> LabelStore:
    """Label every judged integrity failure, in judgment order, with its
    reason's DEFAULT_SEVERITY_FOR_REASON."""
    store = LabelStore()
    for j in judgments:
        if j.failure_category in INTEGRITY_CATEGORIES:
            reason = LabelReason(j.failure_category.value)
            store.add(IntegrityLabel(j.doc_id, DEFAULT_SEVERITY_FOR_REASON[reason], reason))
    return store


def load_labels(path: str | Path) -> LabelStore:
    return LabelStore(read_jsonl(path, IntegrityLabel.from_dict))


def save_labels(store: LabelStore, path: str | Path) -> None:
    write_jsonl(path, (lab.to_dict() for lab in store.audit))
