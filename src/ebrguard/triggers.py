"""Static rules deciding whether EBR fires for an (intent, source type) pair,
plus the per-segment diagnostic that justifies disabling decisions.

Rules are analyst-written configuration (a rules.jsonl file), not learned.
An optional country field narrows a rule to one user country; the most
specific matching rule wins, and the default with no match is Enable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import EngagementRecord, Intent, SegmentKey, SourceType, reject_repeats
from .errors import GuardrailError
from .jsonl import json_opt_str, json_str, read_jsonl, write_jsonl
from .thresholds import percentile_threshold


class TriggerAction(str, Enum):
    ENABLE = "Enable"
    DISABLE = "Disable"


@dataclass(frozen=True, slots=True)
class TriggerRule:
    intent: Intent
    source_type: SourceType
    action: TriggerAction
    note: str = ""
    country: str | None = None

    def to_dict(self) -> dict:
        d = {
            "intent": self.intent.value,
            "source_type": self.source_type.value,
            "action": self.action.value,
            "note": self.note,
        }
        if self.country is not None:
            d["country"] = self.country
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TriggerRule":
        return cls(
            intent=Intent(d["intent"]),
            source_type=SourceType(d["source_type"]),
            action=TriggerAction(d["action"]),
            note=json_str(d.get("note", ""), "note"),
            country=json_opt_str(d.get("country"), "country"),
        )


class RuleSet:
    """At most one rule per (intent, source_type, country) slot."""

    def __init__(self, rules: Iterable[TriggerRule] = ()) -> None:
        self._rules: dict[tuple[Intent, SourceType, str | None], TriggerRule] = {}
        for rule in rules:
            key = (rule.intent, rule.source_type, rule.country)
            if key in self._rules:
                raise GuardrailError(
                    f"second rule for intent={rule.intent.value}, "
                    f"source_type={rule.source_type.value}, country={rule.country}"
                )
            self._rules[key] = rule

    def rules(self) -> list[TriggerRule]:
        return list(self._rules.values())

    def evaluate(
        self, intent: Intent, source_type: SourceType, country: str | None = None
    ) -> TriggerAction:
        """Action of the most specific matching rule; Enable when nothing matches."""
        if country is not None:
            rule = self._rules.get((intent, source_type, country))
            if rule is not None:
                return rule.action
        rule = self._rules.get((intent, source_type, None))
        return rule.action if rule is not None else TriggerAction.ENABLE


# Intents where semantic retrieval demonstrably misfires: person-name lookups
# against the join-a-group source, directly-connected celebrity lookups, and
# photo-seeking queries in a group vertical (disabled for both sources).
DEFAULT_RULES = RuleSet(
    [
        TriggerRule(
            Intent.PERSON_NAME,
            SourceType.UN,
            TriggerAction.DISABLE,
            note="person-name queries against unconnected groups return strangers",
        ),
        TriggerRule(
            Intent.CELEBRITY_CONNECTED,
            SourceType.CN,
            TriggerAction.DISABLE,
            note="connected celebrity lookups are exact-match territory",
        ),
        TriggerRule(
            Intent.FRIEND_PHOTO,
            SourceType.CN,
            TriggerAction.DISABLE,
            note="photo-seeking queries do not want group results",
        ),
        TriggerRule(
            Intent.FRIEND_PHOTO,
            SourceType.UN,
            TriggerAction.DISABLE,
            note="photo-seeking queries do not want group results",
        ),
    ]
)


@dataclass(frozen=True)
class DiagnosticReport:
    """Evidence summary for one segment: is its engaged-score mass worth keeping?"""

    segment: SegmentKey
    engaged_count: int
    engaged_rate: float
    score_quantiles: dict[str, float] = field(default_factory=dict)
    thresholds: dict[float, float] = field(default_factory=dict)


def diagnose_segment(
    log: Sequence[EngagementRecord],
    segment: SegmentKey,
    p_grid: Sequence[float],
    *,
    transform: Callable[[float], float] | None = None,
) -> DiagnosticReport:
    """Deterministic engaged-score summary for one segment.

    thresholds[p] uses the same percentile rule as segment_targets, so the
    diagnostic agrees exactly with what threshold fitting would produce.
    Segments with zero engaged records report empty quantiles.
    """
    total = 0
    engaged_scores: list[float] = []
    for rec in log:
        if rec.segment != segment:
            continue
        total += 1
        if rec.engaged:
            score = rec.raw_score if transform is None else transform(rec.raw_score)
            engaged_scores.append(score)
    if not engaged_scores:
        return DiagnosticReport(
            segment=segment,
            engaged_count=0,
            engaged_rate=0.0,
        )
    arr = np.asarray(engaged_scores, dtype=np.float64)
    quantiles = {
        "min": float(arr.min()),
        "p25": float(np.quantile(arr, 0.25)),
        "p50": float(np.quantile(arr, 0.50)),
        "p75": float(np.quantile(arr, 0.75)),
        "max": float(arr.max()),
    }
    return DiagnosticReport(
        segment=segment,
        engaged_count=len(engaged_scores),
        engaged_rate=len(engaged_scores) / total,
        score_quantiles=quantiles,
        thresholds={float(p): percentile_threshold(engaged_scores, p) for p in p_grid},
    )


def load_rules(path: str | Path) -> RuleSet:
    """Read rules.jsonl; a second rule for one slot is an error naming the file."""
    rules = read_jsonl(path, TriggerRule.from_dict)
    slots = ((r.intent.value, r.source_type.value, r.country) for r in rules)
    reject_repeats(path, slots, "rule for (intent, source_type, country)")
    return RuleSet(rules)


def save_rules(rules: RuleSet, path: str | Path) -> None:
    write_jsonl(path, (rule.to_dict() for rule in rules.rules()))
