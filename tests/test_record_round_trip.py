"""Every Record in ebrguard writes to JSON and reads back as itself.

The sample table must name every Record subclass the package defines, so a
new record type without a sample fails here rather than going unchecked.
"""

import importlib
import json
import pkgutil

import pytest

import ebrguard
from ebrguard.corpus import (
    Document,
    EngagementRecord,
    FailureCategory,
    Intent,
    Query,
    RelevanceJudgment,
    SegmentKey,
    SourceType,
)
from ebrguard.evaluation import DeltaReport, EvalReport
from ebrguard.integrity import IntegrityLabel, LabelReason, Severity
from ebrguard.jsonl import Record
from ebrguard.pipeline import ResultPage, SearchResult
from ebrguard.thresholds import FitReport, ThresholdModel
from ebrguard.triggers import TriggerAction, TriggerRule
from ebrguard.vector_index import CandidateSource

SEGMENT = SegmentKey("BR", "pt", Intent.PERSON_NAME, SourceType.CN)
FIT_REPORT = FitReport(mse=1.8e-30, max_residual=2.4e-15, n_segments=6)
RESULT = SearchResult("d00002", 0.25, CandidateSource.TEXT, demoted=True)

SAMPLES = [
    SEGMENT,
    Document("d00001", "título", "a gathering", "pt", "BR", "nordeste", "robotics", SourceType.UN),
    Query("q0001", "robotics turma", "pt", "BR", "nordeste", Intent.GROUP_TOPIC),
    EngagementRecord("q0001", "d00001", -0.4315, False, SEGMENT),
    RelevanceJudgment("q0001", "d00001", 0, FailureCategory.MISINFORMATION),
    RelevanceJudgment("q0001", "d00002", 3),
    IntegrityLabel("d00001", Severity.REMOVABLE, LabelReason.OFFENSIVE, "2024-01-01T00:00:00+00:00"),
    IntegrityLabel("d00002", Severity.DEMOTABLE, LabelReason.OTHER),
    TriggerRule(Intent.FRIEND_PHOTO, SourceType.UN, TriggerAction.DISABLE, note="n", country="US"),
    TriggerRule(Intent.OTHER, SourceType.CN, TriggerAction.ENABLE),
    RESULT,
    ResultPage("q0001", True, (SearchResult("d00001", 0.93, CandidateSource.EBR), RESULT)),
    ResultPage("q0002", False, ()),
    FIT_REPORT,
    ThresholdModel(
        p=0.9,
        intercept=0.2286,
        coefficients={
            "user_country": {"BR": -0.0396},
            "language": {"pt": -0.0396, "en": 0.1582},
            "query_intent": {"PersonName": 0.1424},
            "doc_source_type": {"CN": 0.0807, "UN": 0.1479},
        },
        fit_report=FIT_REPORT,
    ),
    EvalReport(
        ndcg_at={1: 0.9, 10: 0.7, 3: 0.71},
        nonrec_rate=0.03,
        failure_breakdown={FailureCategory.FUZZY_TEXT_MATCH: 0.25, FailureCategory.OFFENSIVE: 0.75},
        n_sessions=60,
    ),
    EvalReport(ndcg_at={}, nonrec_rate=0.0, failure_breakdown={}, n_sessions=1),
    DeltaReport(
        deltas={"ndcg_at_1": 0.0215, "ndcg_at_3": -0.0043, "nonrec_rate": None},
        control_sessions=30,
        test_sessions=29,
    ),
]


def record_classes():
    """Every Record subclass an ebrguard module defines, found recursively.

    A slots dataclass replaces the class its decorator was given, which may
    linger as a subclass; only the class its module names counts.
    """
    names = [m.name for m in pkgutil.iter_modules(ebrguard.__path__)]
    modules = [importlib.import_module(f"ebrguard.{name}") for name in names]
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return {cls for cls in found for m in modules if vars(m).get(cls.__name__) is cls}


def test_every_record_class_has_a_sample():
    assert {type(x) for x in SAMPLES} == record_classes()


@pytest.mark.parametrize("record", SAMPLES, ids=lambda x: type(x).__name__)
def test_record_reads_back_its_written_json(record):
    cls = type(record)
    assert cls.from_dict(json.loads(json.dumps(record.to_dict()))) == record
