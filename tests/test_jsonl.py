"""The typed field readers shared by every file format, and Record's one read rule."""

import math
import re
from dataclasses import dataclass

import pytest

from ebrguard.corpus import FailureCategory, Intent, Query, RelevanceJudgment, SourceType
from ebrguard.integrity import IntegrityLabel, LabelReason, Severity
from ebrguard.jsonl import Record, json_number
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


@dataclass(frozen=True)
class Keyed(Record):
    by_count: dict[int, float]
    by_source: dict[SourceType, float]
    nested: dict[str, dict[str, float]]


KEYED = {"by_count": {"1": 0.5, "10": 2}, "by_source": {"CN": 0.25}, "nested": {"a": {"b": 1.0}}}


def test_dict_fields_convert_their_keys_and_read_every_entry():
    assert Keyed.from_dict(KEYED) == Keyed(
        {1: 0.5, 10: 2.0}, {SourceType.CN: 0.25}, {"a": {"b": 1.0}}
    )
    assert Keyed.from_dict({**KEYED, "nested": {}}).nested == {}


def test_dict_fields_reject_a_bad_key_or_value_naming_the_entry():
    with pytest.raises(ValueError, match="'XN' is not a valid SourceType"):
        Keyed.from_dict({**KEYED, "by_source": {"CN": 0.25, "XN": 0.5}})
    with pytest.raises(ValueError, match="invalid literal for int"):
        Keyed.from_dict({**KEYED, "by_count": {"one": 0.5}})
    with pytest.raises(TypeError, match=re.escape("by_count [0.5] is not an object")):
        Keyed.from_dict({**KEYED, "by_count": [0.5]})
    with pytest.raises(TypeError, match=re.escape("nested['a'] [1.0] is not an object")):
        Keyed.from_dict({**KEYED, "nested": {"a": [1.0]}})
    with pytest.raises(TypeError, match=re.escape("by_source['CN'] '0.25' is not a number")):
        Keyed.from_dict({**KEYED, "by_source": {"CN": "0.25"}})
    for value in (math.nan, math.inf):
        message = f"nested['a']['b'] {value!r} is not a finite number"
        with pytest.raises(TypeError, match=re.escape(message)):
            Keyed.from_dict({**KEYED, "nested": {"a": {"b": value}}})
