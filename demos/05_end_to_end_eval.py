"""End-to-end evaluation: control (no guardrails) vs each treatment.

Mirrors a control/test comparison on the offline metrics: mean session
NDCG@{1,3,5} and the NONREC rate, with relative deltas per treatment and a
paired bootstrap on NDCG@5 for the threshold treatment.
"""

from functools import partial

import numpy as np

from ebrguard import (
    DEFAULT_RULES,
    LabelStore,
    RuleSet,
    SigmoidParams,
    SyntheticSpec,
    RetrievalConfig,
    apply_index_removal,
    build_index,
    build_text_index,
    compare_runs,
    embed_corpus,
    evaluate_run,
    fit,
    generate_synthetic,
    labels_from_judgments,
    ndcg_at_k,
    paired_bootstrap,
    retrieve,
    segment_targets,
    sessions_from_result_pages,
    sigmoid_transform,
)
from ebrguard.evaluation import render_delta_table, render_report

data = generate_synthetic(SyntheticSpec(seed=7, n_docs=420, n_queries=60))
params = SigmoidParams(a=6.0, b=-3.0)
config = RetrievalConfig(k=10, sigmoid=params)

index = build_index(data.corpus, embed_corpus(data.corpus, d=32))
text_index = build_text_index(data.corpus)

transform = partial(sigmoid_transform, params=params)
targets = segment_targets(data.engagement_log, p=0.9, transform=transform)
model = fit(targets, p=0.9)
store = labels_from_judgments(data.judgments)
cleaned, _ = apply_index_removal(index, store)


def run(idx, thresholds, rules, labels):
    pages = [retrieve(q, idx, text_index, thresholds, rules, labels, config) for q in data.queries]
    return sessions_from_result_pages(pages, data.judgments)


control_sessions = run(index, None, RuleSet(), LabelStore())
control = evaluate_run(control_sessions)

treatments = {
    "threshold customization": run(index, model, RuleSet(), LabelStore()),
    "trigger control": run(index, None, DEFAULT_RULES, LabelStore()),
    "index removal + demotion": run(cleaned, None, RuleSet(), store),
    "all guardrails": run(cleaned, model, DEFAULT_RULES, store),
}

print("control run (no guardrails):")
print(render_report(control))
print()

rows = [
    (name, compare_runs(control, evaluate_run(sessions)))
    for name, sessions in treatments.items()
]
print(render_delta_table(rows))

control_ndcg5 = np.array([ndcg_at_k(s, 5) for s in control_sessions])
treated_ndcg5 = np.array([ndcg_at_k(s, 5) for s in treatments["threshold customization"]])
boot = paired_bootstrap(control_ndcg5, treated_ndcg5, seed=0)
print(f"\nthreshold customization vs control, NDCG@5: "
      f"mean diff {boot.mean_diff:+.4f}, one-sided bootstrap p = {boot.p_value:.4f}")

print("\nnote: trigger control mutes an entire intent, so its sign depends on")
print("whether that intent's EBR was genuinely junky on the corpus at hand.")
print("Decide from demo 03's per-intent pages served with and without the rule,")
print("not from hope.")
