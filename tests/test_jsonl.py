"""The typed field readers shared by every file format, and Record's one read rule."""

import math

import pytest

from ebrguard.corpus import FailureCategory, Intent, Query, RelevanceJudgment, SourceType
from ebrguard.integrity import IntegrityLabel, LabelReason, Severity
from ebrguard.jsonl import json_number
from ebrguard.pipeline import SearchResult
from ebrguard.triggers import TriggerAction, TriggerRule
from ebrguard.vector_index import CandidateSource
from tests.test_corpus import SEGMENT, make_doc


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_number_rejects_non_finite_values(value):
    with pytest.raises(TypeError, match="is not a finite number"):
        json_number(value, "x")


RULE = TriggerRule(Intent.PERSON_NAME, SourceType.UN, TriggerAction.DISABLE, note="n")
# Every enum field of every record, with a record that has it.
ENUM_FIELDS = [
    (make_doc(), "source_type"),
    (Query("q1", "hiking", "en", "US", "south", Intent.OTHER), "intent"),
    (SEGMENT, "query_intent"),
    (SEGMENT, "doc_source_type"),
    (RelevanceJudgment("q1", "d1", 0, FailureCategory.OFFENSIVE), "failure_category"),
    (IntegrityLabel("d1", Severity.REMOVABLE, LabelReason.OTHER), "severity"),
    (IntegrityLabel("d1", Severity.REMOVABLE, LabelReason.OTHER), "reason"),
    (RULE, "intent"),
    (RULE, "source_type"),
    (RULE, "action"),
    (SearchResult("d1", 0.5, CandidateSource.EBR), "source"),
]


@pytest.mark.parametrize(("record", "field"), ENUM_FIELDS)
def test_every_enum_field_reads_only_a_string_naming_a_value(record, field):
    d = record.to_dict()
    assert type(record).from_dict(d) == record
    for bad in (5, ["x"], True):
        with pytest.raises(TypeError, match=f"{field} .* is not a string"):
            type(record).from_dict({**d, field: bad})
    with pytest.raises(ValueError, match="'Nope' is not a valid"):
        type(record).from_dict({**d, field: "Nope"})


def test_optional_fields_may_be_null_or_absent_and_required_ones_may_not():
    d = RULE.to_dict()
    plain = TriggerRule(RULE.intent, RULE.source_type, RULE.action)
    for note in ({"note": None}, {}):
        rest = {k: v for k, v in d.items() if k != "note"}
        assert TriggerRule.from_dict({**rest, **note}) == plain
    assert "note" not in plain.to_dict()
    with pytest.raises(TypeError, match="action None is not a string"):
        TriggerRule.from_dict({**d, "action": None})
    with pytest.raises(KeyError, match="action"):
        TriggerRule.from_dict({k: v for k, v in d.items() if k != "action"})
    assert TriggerRule.from_dict({**d, "extra": [1]}) == RULE
