"""Trigger control: turn EBR off where it demonstrably misfires.

Some query intents never benefit from semantic retrieval: a person-name
lookup against a join-a-group source mostly returns strangers. The evidence
is on the served pages: each query is served twice, once with no trigger
rules and once with a rule disabling EBR for (PersonName, UN), and each run
is scored per intent with session NDCG@5 next to the number of EBR rows per
page. With the rule, person-name pages come from text retrieval alone and
score higher; group-topic pages are served exactly as before.
"""

from ebrguard import (
    Intent,
    RuleSet,
    SegmentKey,
    SourceType,
    SyntheticSpec,
    TriggerAction,
    TriggerRule,
    CandidateSource,
    LabelStore,
    build_index,
    build_text_index,
    embed_corpus,
    evaluate_run,
    generate_synthetic,
    retrieve,
    sessions_from_result_pages,
)

mix = {
    SegmentKey("US", "en", Intent.PERSON_NAME, SourceType.UN): 0.4,
    SegmentKey("US", "en", Intent.GROUP_TOPIC, SourceType.UN): 0.6,
}
data = generate_synthetic(SyntheticSpec(seed=9, n_docs=560, n_queries=80, segment_mix=mix))

index = build_index(data.corpus, embed_corpus(data.corpus, d=32))
text_index = build_text_index(data.corpus)
store = LabelStore()

runs = {
    "no rules": RuleSet(),
    "PersonName/UN disabled": RuleSet([
        TriggerRule(Intent.PERSON_NAME, SourceType.UN, TriggerAction.DISABLE,
                    note="person-name queries against unconnected groups return strangers"),
    ]),
}

print("served pages by query intent (thresholds off, no integrity labels):")
print(f"  {'rules':<24}{'intent':<12}{'queries':>8}{'NDCG@5':>9}{'EBR rows/page':>15}")
for name, rules in runs.items():
    for intent in (Intent.PERSON_NAME, Intent.GROUP_TOPIC):
        queries = [q for q in data.queries if q.intent is intent]
        pages = [retrieve(q, index, text_index, None, rules, store) for q in queries]
        report = evaluate_run(sessions_from_result_pages(pages, data.judgments))
        ebr_rows = sum(r.source is CandidateSource.EBR for page in pages for r in page.results)
        print(f"  {name:<24}{intent.value:<12}{len(queries):>8}"
              f"{report.ndcg_at[5]:>9.4f}{ebr_rows / len(pages):>15.2f}")

print("\nthe rule removes every EBR row from person-name pages and raises their")
print("NDCG@5; group-topic pages keep their semantic candidates and their score.")
