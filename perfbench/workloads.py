"""Workload definitions and set-up.

Every input is a function of the workload name and the seed: the corpus,
queries, judgments and engagement log come from `generate_synthetic`, and
the query order and label arrival order from a generator seeded with the
same seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from ebrguard.corpus import (
    Document,
    EngagementRecord,
    Intent,
    Query,
    RelevanceJudgment,
    SegmentKey,
    SourceType,
    load_corpus,
    load_engagement_log,
    load_judgments,
    load_queries,
)
from ebrguard.embedder import embed_corpus, load_embeddings
from ebrguard.integrity import (
    IntegrityLabel,
    LabelStore,
    apply_index_removal,
    labels_from_judgments,
    load_labels,
)
from ebrguard.pipeline import RetrievalConfig, SigmoidParams, sigmoid_transform
from ebrguard.synth import DEFAULT_SEGMENT_MIX, SyntheticSpec, generate_synthetic
from ebrguard.text_retrieval import InvertedIndex, build_text_index
from ebrguard.thresholds import ThresholdModel, fit, load_model, segment_targets
from ebrguard.triggers import DEFAULT_RULES, RuleSet
from ebrguard.vector_index import Index, build_index

from stats import canonical, digest_lines

K = 10
P = 0.9
SIGMOID = SigmoidParams(a=6.0, b=-3.0)
N_DOCS = 10_000
N_QUERIES = 1_000

# About 80% FriendPhoto queries, for which DEFAULT_RULES disable EBR on both
# source types, so most requests take the text-only path.
FALLBACK_MIX = {
    SegmentKey("US", "en", Intent.FRIEND_PHOTO, SourceType.UN): 0.45,
    SegmentKey("GB", "en", Intent.FRIEND_PHOTO, SourceType.CN): 0.35,
    SegmentKey("US", "en", Intent.GROUP_TOPIC, SourceType.UN): 0.10,
    SegmentKey("MX", "es", Intent.GROUP_TOPIC, SourceType.CN): 0.10,
}

QUERY = "query"
LABEL = "label"


@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool  # runs the CLI chain instead of calling `retrieve`
    segment_mix: dict
    labels_in_setup: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve-10k", False, DEFAULT_SEGMENT_MIX, True,
            "default segment mix with all labels applied in set-up; EBR top-k dominates",
        ),
        Workload(
            "fallback-10k", False, FALLBACK_MIX, True,
            "80% FriendPhoto queries with EBR disabled by trigger rules; text retrieval dominates",
        ),
        Workload(
            "churn-10k", False, DEFAULT_SEGMENT_MIX, False,
            "serve traffic with 750 label writes (copy-on-write index rebuilds) spread through it",
        ),
        Workload(
            "batch-10k", True, DEFAULT_SEGMENT_MIX, True,
            "CLI chain build-index, fit-thresholds, search, evaluate; the only artifact I/O",
        ),
    )
}


def spec_dict(w: Workload, seed: int) -> dict:
    return {
        "workload": w.name,
        "seed": seed,
        "n_docs": N_DOCS,
        "n_queries": N_QUERIES,
        "k": K,
        "p": P,
        "sigmoid": {"a": SIGMOID.a, "b": SIGMOID.b},
        "rules": "DEFAULT_RULES",
        "labels_in_setup": w.labels_in_setup,
        "segment_mix": [
            [*(v.value if hasattr(v, "value") else v for v in dataclasses.astuple(seg)), frac]
            for seg, frac in sorted(w.segment_mix.items(), key=lambda kv: kv[0].sort_key())
        ],
    }


def synthetic_spec(w: Workload, seed: int) -> SyntheticSpec:
    return SyntheticSpec(
        seed=seed, n_docs=N_DOCS, n_queries=N_QUERIES, segment_mix=dict(w.segment_mix)
    )


@dataclass
class ServeState:
    """Everything `retrieve` reads; `index` and `store` change on label writes."""

    index: Index
    text_index: InvertedIndex
    model: ThresholdModel
    rules: RuleSet
    store: LabelStore
    config: RetrievalConfig


@dataclass
class Prepared:
    """Set-up output: the event stream and the state before its first event."""

    corpus: list[Document]
    judgments: list[RelevanceJudgment]
    engagement_log: list[EngagementRecord]
    embeddings: dict[str, np.ndarray]
    events: list[tuple[str, Query | IntegrityLabel]]
    base: ServeState
    layer_s: dict[str, float]

    def fresh_state(self) -> ServeState:
        """A state equal to `base` whose label store can be written."""
        return dataclasses.replace(self.base, store=LabelStore(self.base.store.audit))

    def queries(self) -> list[Query]:
        return [item for kind, item in self.events if kind == QUERY]


def interleave(queries: list[Query], labels: list[IntegrityLabel]) -> list[tuple[str, object]]:
    """Labels spread evenly through the query stream, each before a query."""
    slots: dict[int, list[IntegrityLabel]] = {}
    for j, lab in enumerate(labels):
        slots.setdefault(j * len(queries) // len(labels), []).append(lab)
    events: list[tuple[str, object]] = []
    for i, q in enumerate(queries):
        events.extend((LABEL, lab) for lab in slots.get(i, ()))
        events.append((QUERY, q))
    return events


def timed(layer_s: dict, name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), adding its wall time to layer_s[name]."""
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    layer_s[name] = layer_s.get(name, 0.0) + perf_counter() - t0
    return out


def fit_model(log: list[EngagementRecord]) -> ThresholdModel:
    transform = partial(sigmoid_transform, params=SIGMOID)
    return fit(segment_targets(log, P, transform=transform), p=P)


def prepare_library(w: Workload, seed: int) -> Prepared:
    """Generate, embed, index and fit in memory; order the events by seed."""
    layer_s: dict[str, float] = {}
    data = timed(layer_s, "synth.generate_s", generate_synthetic, synthetic_spec(w, seed))
    embeddings = timed(layer_s, "embedder.corpus_s", embed_corpus, data.corpus)
    index = timed(layer_s, "vector_index.build_s", build_index, data.corpus, embeddings)
    text_index = timed(layer_s, "text_retrieval.build_s", build_text_index, data.corpus)
    model = timed(layer_s, "thresholds.fit_s", fit_model, data.engagement_log)
    labels = labels_from_judgments(data.judgments).audit

    rng = np.random.default_rng([seed, 1])
    queries = [data.queries[i] for i in rng.permutation(len(data.queries))]
    if w.labels_in_setup:
        store = LabelStore(labels)
        index, _ = apply_index_removal(index, store)
        events = [(QUERY, q) for q in queries]
    else:
        store = LabelStore()
        events = interleave(queries, [labels[i] for i in rng.permutation(len(labels))])
    config = RetrievalConfig(k=K, sigmoid=SIGMOID)
    base = ServeState(index, text_index, model, DEFAULT_RULES, store, config)
    return Prepared(
        data.corpus, data.judgments, data.engagement_log, embeddings, events, base, layer_s
    )


class BatchFiles:
    """Paths of one CLI chain: gen-data output plus each later step's output."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.data_dir = root / "data"
        self.corpus = self.data_dir / "corpus.jsonl"
        self.queries = self.data_dir / "queries.jsonl"
        self.judgments = self.data_dir / "judgments.jsonl"
        self.log = self.data_dir / "engagement.jsonl"
        self.labels = self.data_dir / "labels.jsonl"
        self.index_dir = root / "index"
        self.embeddings = self.index_dir / "embeddings.tsv"
        self.model = root / "model.json"
        self.results = root / "results.jsonl"
        self.report = root / "report.json"

    def inputs(self) -> list[Path]:
        return [self.corpus, self.queries, self.judgments, self.log, self.labels]


def prepare_from_files(files: BatchFiles, layer_s: dict[str, float]) -> Prepared:
    """Load the state `ebrguard search` builds from the chain's files."""
    corpus = timed(layer_s, "corpus.load_s", load_corpus, files.corpus)
    queries = timed(layer_s, "corpus.load_s", load_queries, files.queries)
    judgments = timed(layer_s, "corpus.load_s", load_judgments, files.judgments)
    log = timed(layer_s, "corpus.load_s", load_engagement_log, files.log)
    embeddings = timed(layer_s, "embedder.load_s", load_embeddings, files.embeddings)
    index = timed(layer_s, "vector_index.build_s", build_index, corpus, embeddings)
    store = load_labels(files.labels)
    index, _ = apply_index_removal(index, store)
    text_index = timed(layer_s, "text_retrieval.build_s", build_text_index, corpus)
    model = load_model(files.model)
    config = RetrievalConfig(k=K, sigmoid=SIGMOID)
    base = ServeState(index, text_index, model, DEFAULT_RULES, store, config)
    events = [(QUERY, q) for q in queries]
    return Prepared(corpus, judgments, log, embeddings, events, base, layer_s)


def inputs_digest(prep: Prepared) -> str:
    """Digest of the generated inputs, the query order and the label arrivals."""
    lines = [canonical(d.to_dict()) for d in prep.corpus]
    lines += [canonical(j.to_dict()) for j in prep.judgments]
    lines += [canonical(r.to_dict()) for r in prep.engagement_log]
    lines += [canonical(lab.to_dict()) for lab in prep.base.store.audit]
    lines += [canonical([kind, item.to_dict()]) for kind, item in prep.events]
    return digest_lines(lines)


def files_digest(paths: list[Path]) -> str:
    return digest_lines(p.read_text(encoding="utf-8") for p in paths)
