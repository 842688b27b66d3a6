"""In-memory span recorder used by the traced pass.

Spans are recorded from the benchmark's own code around calls into each
layer's public functions; nothing inside the program is instrumented.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Sequence


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the parent span, -1 for a root
    op_id: str  # query id or label id shared by every span of one operation


class Tracer:
    """Nested spans for one thread plus named counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = ""

    def start(self, name: str, op_id: str | None = None) -> int:
        if op_id is not None:
            self._op_id = op_id
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter_ns(), 0, parent, self._op_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end_ns = perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                         "parent": s.parent, "op_id": s.op_id}
                    )
                    + "\n"
                )


class NullTracer:
    """Tracer with the same interface that records nothing."""

    def start(self, name: str, op_id: str | None = None) -> int:
        return 0

    def end(self, idx: int) -> None:
        pass

    def add(self, name: str, n: int = 1) -> None:
        pass


def self_times(spans: Sequence[Span]) -> list[int]:
    """Per span: duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start_ns), min(b, s.end_ns)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.end_ns - s.start_ns - covered)
    return out
