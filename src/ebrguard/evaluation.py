"""Session-level offline metrics: NDCG@k, NONREC@10, failure-category
breakdown, run comparison, and a paired bootstrap for significance.

NDCG uses the exponential-gain variant, gain(g) = 2**g - 1 with a
log2(rank + 1) discount. The ideal ranking draws from every judged document
for the query, not just the retrieved ones, so dropping a relevant document
costs NDCG; over-aggressive discarding is measurable. Sessions with an
all-zero ideal (no positively graded judgment) score 0 by convention.

NONREC@10 flags a session when any of its top ten results carries an
integrity failure category.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import INTEGRITY_CATEGORIES, FailureCategory, RelevanceJudgment
from .errors import GuardrailError
from .jsonl import Record, read_json, write_json
from .pipeline import ResultPage

NDCG_KS = (1, 3, 5)
NONREC_DEPTH = 10
BOOTSTRAP_RESAMPLES = 10_000


@dataclass(frozen=True)
class EvalSession:
    """One query's system ranking joined with its judgments."""

    query_id: str
    ranked: tuple[str, ...]
    grades: Mapping[str, int]
    failure_categories: Mapping[str, FailureCategory] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.ranked)) != len(self.ranked):
            raise ValueError(f"session {self.query_id} ranks a doc twice")

    def grade(self, doc_id: str) -> int:
        return self.grades.get(doc_id, 0)


def _dcg(grades: Sequence[int], k: int) -> float:
    return sum(
        (2.0**g - 1.0) / math.log2(i + 2) for i, g in enumerate(grades[:k])
    )


def ndcg_at_k(session: EvalSession, k: int) -> float:
    """DCG of the system ranking over the ideal DCG of all judged docs; 0 if
    the ideal is 0."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    system = [session.grade(doc_id) for doc_id in session.ranked]
    ideal = sorted(session.grades.values(), reverse=True)
    idcg = _dcg(ideal, k)
    if idcg == 0.0:
        return 0.0
    return _dcg(system, k) / idcg


def nonrec_at_10(session: EvalSession) -> bool:
    """True when any of the top 10 ranked docs is integrity-violating."""
    return any(
        session.failure_categories.get(doc_id) in INTEGRITY_CATEGORIES
        for doc_id in session.ranked[:NONREC_DEPTH]
    )


@dataclass(frozen=True)
class EvalReport(Record):
    ndcg_at: dict[int, float]
    nonrec_rate: float
    failure_breakdown: dict[FailureCategory, float]
    n_sessions: int


def evaluate_run(sessions: Sequence[EvalSession]) -> EvalReport:
    """Mean NDCG@k over NDCG_KS, NONREC rate, and the failure mix among returned grade-0 docs."""
    if not sessions:
        raise GuardrailError("cannot evaluate zero sessions")
    ndcg_at = {
        k: float(np.mean([ndcg_at_k(s, k) for s in sessions])) for k in NDCG_KS
    }
    nonrec_rate = float(np.mean([nonrec_at_10(s) for s in sessions]))
    counts: dict[FailureCategory, int] = {}
    for s in sessions:
        for doc_id in s.ranked:
            cat = s.failure_categories.get(doc_id)
            if cat is not None and s.grade(doc_id) == 0:
                counts[cat] = counts.get(cat, 0) + 1
    total = sum(counts.values())
    breakdown = (
        {cat: n / total for cat, n in sorted(counts.items(), key=lambda kv: kv[0].value)}
        if total
        else {}
    )
    return EvalReport(
        ndcg_at=ndcg_at,
        nonrec_rate=nonrec_rate,
        failure_breakdown=breakdown,
        n_sessions=len(sessions),
    )


@dataclass(frozen=True)
class DeltaReport(Record):
    """Relative change per metric, (test - control) / control; None marks a
    delta with a zero control. compare --out writes it as delta.json."""

    deltas: dict[str, float | None]
    control_sessions: int
    test_sessions: int


def _pct_delta(control: float, test: float) -> float | None:
    if control == 0.0:
        return None
    return (test - control) / control


def compare_runs(control: EvalReport, test: EvalReport) -> DeltaReport:
    """Relative deltas per metric, (test - control) / control; comparisons
    assume both reports cover the same session basis."""
    deltas: dict[str, float | None] = {}
    for k in sorted(set(control.ndcg_at) & set(test.ndcg_at)):
        deltas[f"ndcg_at_{k}"] = _pct_delta(control.ndcg_at[k], test.ndcg_at[k])
    deltas["nonrec_rate"] = _pct_delta(control.nonrec_rate, test.nonrec_rate)
    return DeltaReport(
        deltas=deltas,
        control_sessions=control.n_sessions,
        test_sessions=test.n_sessions,
    )


@dataclass(frozen=True)
class BootstrapResult:
    mean_diff: float
    p_value: float


def paired_bootstrap(
    control: Sequence[float],
    test: Sequence[float],
    seed: int = 0,
) -> BootstrapResult:
    """One-sided paired bootstrap over per-session metric values.

    Resamples sessions with replacement BOOTSTRAP_RESAMPLES times and looks
    at the mean of the paired differences (test - control). The p-value, for
    "test is greater", is the fraction of resampled means <= 0.
    """
    c = np.asarray(control, dtype=np.float64)
    t = np.asarray(test, dtype=np.float64)
    if c.shape != t.shape or c.ndim != 1 or c.size == 0:
        raise ValueError("control and test must be equal-length nonempty 1-D arrays")
    diffs = t - c
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, diffs.size, size=(BOOTSTRAP_RESAMPLES, diffs.size))
    means = diffs[idx].mean(axis=1)
    return BootstrapResult(
        mean_diff=float(diffs.mean()), p_value=float(np.mean(means <= 0.0))
    )


def sessions_from_result_pages(
    pages: Iterable[ResultPage], judgments: Iterable[RelevanceJudgment]
) -> list[EvalSession]:
    """Join ranked pages with judgments into evaluable sessions."""
    grades: dict[str, dict[str, int]] = {}
    categories: dict[str, dict[str, FailureCategory]] = {}
    for j in judgments:
        grades.setdefault(j.query_id, {})[j.doc_id] = j.grade
        if j.failure_category is not None:
            categories.setdefault(j.query_id, {})[j.doc_id] = j.failure_category
    return [
        EvalSession(
            query_id=page.query_id,
            ranked=tuple(r.doc_id for r in page.results),
            grades=grades.get(page.query_id, {}),
            failure_categories=categories.get(page.query_id, {}),
        )
        for page in pages
    ]


def save_report(report: EvalReport, path: str | Path) -> None:
    write_json(path, report.to_dict())


def load_report(path: str | Path) -> EvalReport:
    """Read report.json; broken JSON or a missing field is a MalformedRecord."""
    return read_json(path, EvalReport.from_dict)


def render_report(report: EvalReport) -> str:
    lines = [
        f"{'metric':<18}{'value':>10}",
        f"{'-' * 28}",
    ]
    for k in sorted(report.ndcg_at):
        lines.append(f"{f'NDCG@{k}':<18}{report.ndcg_at[k]:>10.5f}")
    lines.append(f"{'NONREC':<18}{report.nonrec_rate:>10.5f}")
    lines.append(f"{'sessions':<18}{report.n_sessions:>10d}")
    if report.failure_breakdown:
        lines.append("")
        lines.append(f"{'failure category':<22}{'share of failures':>18}")
        lines.append("-" * 40)
        for cat, share in report.failure_breakdown.items():
            lines.append(f"{cat.value:<22}{share:>17.1%}")
    return "\n".join(lines)


def _fmt_delta(value: float | None) -> str:
    return "undefined" if value is None else f"{value:+.3%}"


def render_delta_table(rows: Sequence[tuple[str, DeltaReport]]) -> str:
    """Control-vs-test table, one row per treatment."""
    metrics = ["ndcg_at_1", "ndcg_at_3", "ndcg_at_5", "nonrec_rate"]
    headers = ["Method", "d NDCG@1", "d NDCG@3", "d NDCG@5", "d NONREC"]
    width = max([len(headers[0])] + [len(label) for label, _ in rows]) + 2
    out = [
        f"{headers[0]:<{width}}" + "".join(f"{h:>12}" for h in headers[1:]),
        "-" * (width + 12 * 4),
    ]
    for label, delta in rows:
        cells = "".join(f"{_fmt_delta(delta.deltas.get(m)):>12}" for m in metrics)
        out.append(f"{label:<{width}}" + cells)
    return "\n".join(out)
