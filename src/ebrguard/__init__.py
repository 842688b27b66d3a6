"""Guardrails for embedding-based retrieval.

Post-training failure handling for a two-tower retrieval stack: sigmoid
score calibration, per-segment discard thresholds fit from engagement logs,
intent-based trigger control with a text-retrieval fallback, integrity index
removal and rank demotion, and session-level NDCG / NONREC evaluation.

The package root exports the quickstart's working set, the file loaders and
savers, and GuardrailError; everything else is imported from its module.
"""

from .corpus import (
    EngagementRecord,
    Intent,
    SegmentKey,
    SourceType,
    load_corpus,
    load_engagement_log,
    load_judgments,
    load_queries,
    save_corpus,
    save_engagement_log,
    save_judgments,
    save_queries,
)
from .embedder import embed_corpus, load_embeddings, save_embeddings
from .errors import GuardrailError
from .evaluation import (
    compare_runs,
    evaluate_run,
    ndcg_at_k,
    paired_bootstrap,
    sessions_from_result_pages,
)
from .integrity import (
    LabelStore,
    apply_index_removal,
    labels_from_judgments,
    load_labels,
    save_labels,
)
from .pipeline import RetrievalConfig, SigmoidParams, retrieve, sigmoid_transform
from .synth import SyntheticSpec, generate_synthetic
from .text_retrieval import build_text_index
from .thresholds import fit, load_model, predict_threshold, save_model, segment_targets
from .triggers import (
    DEFAULT_RULES,
    RuleSet,
    TriggerAction,
    TriggerRule,
    load_rules,
    save_rules,
)
from .vector_index import CandidateSource, build_index

__version__ = "0.1.0"
