"""Integrity enforcement: index removal for the unacceptable, demotion for
the borderline.

Documents with severe labels (misinformation, offensive content) are
physically deleted from the vector index so they cannot be retrieved at
all; untrustworthy-but-borderline documents stay retrievable yet sink below
every clean result. Both operations are idempotent, and the label store
keeps an audit trail of every label written.
"""

from ebrguard import (
    LabelStore,
    RuleSet,
    SyntheticSpec,
    build_index,
    build_text_index,
    embed_corpus,
    evaluate_run,
    generate_synthetic,
    labels_from_judgments,
    apply_index_removal,
    retrieve,
    sessions_from_result_pages,
)

data = generate_synthetic(SyntheticSpec(seed=7, n_docs=420, n_queries=60))

# Ground-truth labels derived from judged integrity failures:
# misinformation and offensive content become Removable, untrustworthy
# results become Demotable.
store = labels_from_judgments(data.judgments)
print(f"label store: {len(store.removable_ids())} removable, "
      f"{len(store.audit)} labels written\n")

index = build_index(data.corpus, embed_corpus(data.corpus, d=32))
text_index = build_text_index(data.corpus)
rules = RuleSet()


def run(idx, labels):
    pages = [retrieve(q, idx, text_index, None, rules, labels) for q in data.queries]
    return evaluate_run(sessions_from_result_pages(pages, data.judgments))


before = run(index, LabelStore())

cleaned, removed = apply_index_removal(index, store)
print(f"apply_index_removal: {removed} embeddings deleted")
cleaned, removed_again = apply_index_removal(cleaned, store)
print(f"second application: {removed_again} removed (idempotent)\n")

after = run(cleaned, store)

print(f"{'metric':<12}{'no guardrails':>15}{'removal+demotion':>18}")
print(f"{'NONREC':<12}{before.nonrec_rate:>15.3f}{after.nonrec_rate:>18.3f}")
for k in (1, 3, 5):
    print(f"{f'NDCG@{k}':<12}{before.ndcg_at[k]:>15.3f}{after.ndcg_at[k]:>18.3f}")

print("\nNONREC counts sessions whose top 10 contains an integrity-violating")
print("result; removal plus demotion drives the removable share of it to zero.")
