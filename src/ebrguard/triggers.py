"""Static rules deciding whether EBR fires for an (intent, source type) pair.

Rules are analyst-written configuration (a rules.jsonl file), not learned.
An optional country field narrows a rule to one user country; the most
specific matching rule wins, and the default with no match is Enable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from .corpus import Intent, SourceType, reject_repeats
from .errors import GuardrailError
from .jsonl import Record, read_jsonl, write_jsonl


class TriggerAction(str, Enum):
    ENABLE = "Enable"
    DISABLE = "Disable"


@dataclass(frozen=True, slots=True)
class TriggerRule(Record):
    intent: Intent
    source_type: SourceType
    action: TriggerAction
    note: str | None = None
    country: str | None = None


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


def load_rules(path: str | Path) -> RuleSet:
    """Read rules.jsonl; a second rule for one slot is an error naming the file."""
    rules = read_jsonl(path, TriggerRule.from_dict)
    slots = ((r.intent.value, r.source_type.value, r.country) for r in rules)
    reject_repeats(path, slots, "rule for (intent, source_type, country)")
    return RuleSet(rules)


def save_rules(rules: RuleSet, path: str | Path) -> None:
    write_jsonl(path, (rule.to_dict() for rule in rules.rules()))
