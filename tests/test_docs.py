"""Every JSON example in docs/formats.md loads through its file's reader.

An example also writes back as itself, so it holds no field the reader
ignores and lacks none the writer emits.
"""

import json
import re
from pathlib import Path

import pytest

from ebrguard.corpus import Document, EngagementRecord, Query, RelevanceJudgment
from ebrguard.evaluation import DeltaReport, EvalReport
from ebrguard.integrity import IntegrityLabel
from ebrguard.pipeline import ResultPage
from ebrguard.thresholds import ThresholdModel
from ebrguard.triggers import TriggerRule

FORMATS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"

# The record parser each file's reader applies to one line (or one document).
READERS = {
    "corpus.jsonl": Document.from_dict,
    "queries.jsonl": Query.from_dict,
    "judgments.jsonl": RelevanceJudgment.from_dict,
    "engagement.jsonl": EngagementRecord.from_dict,
    "rules.jsonl": TriggerRule.from_dict,
    "labels.jsonl": IntegrityLabel.from_dict,
    "model.json": ThresholdModel.from_dict,
    "results.jsonl": ResultPage.from_dict,
    "report.json": EvalReport.from_dict,
    "delta.json": DeltaReport.from_dict,
}


def json_examples(text):
    """(heading, block text) for every ```json block, under its nearest `## ` heading."""
    heading = None
    examples = []
    for part in re.split(r"^(## .*|```json\n(?:.*\n)*?```)$", text, flags=re.MULTILINE):
        if part.startswith("## "):
            heading = part[3:].strip()
        elif part.startswith("```json"):
            examples.append((heading, part[len("```json\n"):-len("```")]))
    return examples


EXAMPLES = json_examples(FORMATS.read_text(encoding="utf-8"))


def test_every_reader_has_an_example():
    assert sorted({heading for heading, _ in EXAMPLES}) == sorted(READERS)


@pytest.mark.parametrize(
    ("heading", "block"), EXAMPLES, ids=[heading for heading, _ in EXAMPLES]
)
def test_example_loads_through_its_reader(heading, block):
    example = json.loads(block)
    assert READERS[heading](example).to_dict() == example
