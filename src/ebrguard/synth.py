"""Seeded synthetic corpus generator that plants the known failure categories.

The generator is a pure function of its spec (seed included): same spec,
byte-identical files. Each query gets seven judged documents, four relevant
(grades 3, 2, 1, 1) and three failures (grade 0 with a category drawn from
the failure mix, exact to within rounding via largest-remainder allocation).

Planted structure the rest of the pipeline leans on:

- The grade-3 document shares the query's tokens, so text retrieval finds
  it easily; the grade-2 document is written as a synonym match (token-poor,
  trigram-adjacent); the grade-1 documents are partial lexical matches, and
  the second of them never shows up in the engagement log, so only the text
  route reaches it. The stand-in embedder sees only trigram overlap, so the
  grade-2 document reaches EBR's top 10 for about 1% of queries (seed 5,
  10k docs / 1k queries).
- Failure documents are written after their category: location mismatches
  carry the right words and the wrong country, language mismatches switch
  language, fuzzy matches share tokens in the wrong sense, and integrity
  failures are ordinary-looking documents that only the judgment file flags.
- Filler documents pad the corpus to n_docs from one title and one
  description template over each country's regions and cities, so they
  repeat: at 10k docs / 1k queries, seed 5, the 3,000 fillers share 83
  distinct texts.
- Engagement scores are not served scores: the embedder and the index
  never touch them. Each logged raw_score is drawn from a Beta distribution
  around a per-segment centre planted here, the segment centres spread over
  a fixed range, engaged impressions above non-engaged ones within every
  segment and grades 3 and 2 lifted a little further. Per-segment discard
  thresholds fitted on the log therefore differ because the centres were
  planted apart, not because served scores differ by segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from .corpus import (
    Document,
    EngagementRecord,
    FailureCategory,
    Intent,
    Query,
    RelevanceJudgment,
    SegmentKey,
    SourceType,
)
from .errors import InvalidParameter

# Share of each failure category among the grade-0 judgments: the paper's fixed mix.
DEFAULT_FAILURE_MIX: dict[FailureCategory, float] = {
    FailureCategory.FUZZY_TEXT_MATCH: 0.53,
    FailureCategory.LOCATION_MISMATCH: 0.18,
    FailureCategory.LANGUAGE_MISMATCH: 0.04,
    FailureCategory.MISINFORMATION: 0.10,
    FailureCategory.UNTRUSTWORTHY: 0.10,
    FailureCategory.OFFENSIVE: 0.05,
}

DEFAULT_SEGMENT_MIX: dict[SegmentKey, float] = {
    SegmentKey("US", "en", Intent.GROUP_TOPIC, SourceType.UN): 0.25,
    SegmentKey("US", "en", Intent.PERSON_NAME, SourceType.UN): 0.15,
    SegmentKey("GB", "en", Intent.GROUP_TOPIC, SourceType.CN): 0.20,
    SegmentKey("BR", "pt", Intent.GROUP_TOPIC, SourceType.UN): 0.15,
    SegmentKey("MX", "es", Intent.GROUP_TOPIC, SourceType.CN): 0.15,
    SegmentKey("US", "en", Intent.CELEBRITY_CONNECTED, SourceType.CN): 0.10,
}

RELEVANT_GRADES = (3, 2, 1, 1)
FAILURES_PER_QUERY = 3
JUDGED_PER_QUERY = len(RELEVANT_GRADES) + FAILURES_PER_QUERY
DISTRACTOR_IMPRESSIONS = 8

_MIX_TOL = 1e-9

_TOPICS = (
    ("hiking", ("trail", "trekkers")),
    ("baking", ("sourdough", "ovens")),
    ("chess", ("gambit", "checkmates")),
    ("cycling", ("pedal", "riders")),
    ("jazz", ("bebop", "quartets")),
    ("gardening", ("compost", "growers")),
    ("astronomy", ("telescope", "stargazers")),
    ("pottery", ("ceramics", "kilns")),
    ("yoga", ("asana", "stretchers")),
    ("fishing", ("angling", "casters")),
    ("robotics", ("automation", "tinkerers")),
    ("salsa", ("merengue", "bailes")),
    ("surfing", ("waves", "boarders")),
    ("poetry", ("verse", "rhymers")),
    ("birding", ("warblers", "spotters")),
    ("climbing", ("bouldering", "crag")),
    ("woodworking", ("joinery", "lathes")),
    ("calligraphy", ("lettering", "nibs")),
    ("kayaking", ("paddlers", "rapids")),
    ("beekeeping", ("apiary", "hives")),
    ("quilting", ("patchwork", "stitchers")),
    ("foraging", ("mushrooms", "wildcraft")),
    ("origami", ("paperfolds", "creases")),
    ("homebrewing", ("fermenters", "mashing")),
    ("genealogy", ("ancestry", "archives")),
    ("aquariums", ("reefkeeping", "cichlids")),
    ("stargazing", ("nebulae", "scopes")),
    ("marathons", ("pacers", "striders")),
    ("ceramics", ("glazes", "wheelwork")),
    ("sketching", ("charcoal", "gestures")),
    ("volleyball", ("setters", "spikers")),
    ("mycology", ("spores", "lichens")),
)

_SUFFIXES = {
    "en": ("club", "group", "friends", "community", "society", "circle", "network", "collective"),
    "es": ("grupo", "amigos", "comunidad", "circulo", "pena", "tertulia"),
    "pt": ("grupo", "amigos", "comunidade", "turma", "roda", "nucleo"),
}

_FOREIGN_TOPICS = {
    "en": ("hiking", "baking", "chess", "cycling", "gardening"),
    "es": ("senderismo", "reposteria", "ajedrez", "ciclismo", "huerto"),
    "pt": ("trilhas", "culinaria", "xadrez", "ciclismo", "jardinagem"),
}

_CITIES = {
    "US": ("austin", "denver", "seattle", "boston", "portland", "tucson", "omaha"),
    "GB": ("london", "leeds", "bristol", "york", "glasgow", "cardiff"),
    "BR": ("recife", "curitiba", "salvador", "manaus", "fortaleza"),
    "MX": ("puebla", "merida", "oaxaca", "leon", "toluca"),
    "CA": ("calgary", "ottawa", "halifax", "winnipeg"),
}

_REGIONS = {
    "US": ("pacific", "mountain", "midwest", "south", "northeast"),
    "GB": ("england", "scotland", "wales"),
    "BR": ("norte", "sul", "nordeste"),
    "MX": ("norte", "centro", "sur"),
    "CA": ("prairies", "atlantic", "pacific"),
}

_FIRST_NAMES = (
    "maria", "james", "wei", "fatima", "lucas", "amara",
    "yuki", "diego", "nora", "ivan", "priya", "omar",
    "ingrid", "kwame", "sofia", "henrik", "leila", "marco",
    "anya", "tariq", "beatriz", "oskar", "naomi", "ravi",
)
_LAST_NAMES = (
    "alvarez", "johnson", "chen", "okafor", "silva",
    "novak", "tanaka", "haddad", "kim", "rossi",
    "petrov", "duarte", "lindqvist", "adeyemi", "castillo",
    "moreau", "iwata", "kowalski", "mbeki", "fernsby",
)

# Engaged-score centers spread across this range so no single global discard
# threshold can fit every segment.
_CENTER_LOW = 0.42
_CENTER_HIGH = 0.85
_JUNK_OFFSET = 0.12
_BETA_CONCENTRATION = 160.0

_ENGAGE_PROB_BY_GRADE = {3: 0.95, 2: 0.90, 1: 0.45, 0: 0.08}
_ENGAGE_PROB_UNJUDGED = 0.05
# Strong engagement (grades 3 and 2) scores above the segment center, weak or
# accidental engagement at the center; junk sits a further offset below, so a
# per-segment 90%-retention cut separates junk from engaged results while any
# single global cut fails in segments whose center is elsewhere.
_ENGAGED_LIFT = {3: 0.08, 2: 0.08, 1: 0.0, 0: 0.0, None: 0.0}


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int = 7
    n_docs: int = 1000
    n_queries: int = 100
    segment_mix: Mapping[SegmentKey, float] = field(
        default_factory=lambda: dict(DEFAULT_SEGMENT_MIX)
    )

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise InvalidParameter(f"seed must be >= 0, got {self.seed}")
        if self.n_docs < 10:
            raise InvalidParameter(f"n_docs must be >= 10, got {self.n_docs}")
        if self.n_queries < 1:
            raise InvalidParameter(f"n_queries must be >= 1, got {self.n_queries}")
        if self.n_docs < JUDGED_PER_QUERY * self.n_queries:
            raise InvalidParameter(
                f"n_docs={self.n_docs} cannot hold {JUDGED_PER_QUERY} judged docs "
                f"for each of {self.n_queries} queries"
            )
        if not self.segment_mix:
            raise InvalidParameter("segment_mix is empty")
        if any(f < 0 for f in self.segment_mix.values()):
            raise InvalidParameter("segment_mix has a negative fraction")
        total = sum(self.segment_mix.values())
        if abs(total - 1.0) > _MIX_TOL:
            raise InvalidParameter(f"segment_mix sums to {total}, expected 1.0")


class SyntheticData(NamedTuple):
    corpus: list[Document]
    queries: list[Query]
    judgments: list[RelevanceJudgment]
    engagement_log: list[EngagementRecord]


def largest_remainder(fractions: list[float], total: int) -> list[int]:
    """Integer allocation of total proportional to fractions, off by at most
    one per cell, summing exactly to total."""
    raw = [f * total for f in fractions]
    counts = [int(x) for x in raw]
    shortfall = total - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:shortfall]:
        counts[i] += 1
    return counts


def _segment_profiles(segments: list[SegmentKey]) -> dict[SegmentKey, tuple[float, float]]:
    """(engaged_center, junk_center) per segment, spread over a fixed range."""
    if len(segments) == 1:
        centers = [0.5 * (_CENTER_LOW + _CENTER_HIGH)]
    else:
        centers = list(np.linspace(_CENTER_LOW, _CENTER_HIGH, len(segments)))
    return {
        seg: (center, max(0.03, center - _JUNK_OFFSET))
        for seg, center in zip(segments, centers)
    }


_T = TypeVar("_T")


def _pick(rng: np.random.Generator, seq: Sequence[_T]) -> _T:
    """One uniformly drawn element of seq.

    This draws exactly what str(rng.choice(seq)) drew: for a 1-D sequence
    with no size and no p, Generator.choice takes one rng.integers(len(seq))
    draw and indexes with it, so both consume the same generator state and
    give the same element. Indexing directly skips building a numpy array
    of the sequence on every call.
    """
    return seq[int(rng.integers(len(seq)))]


def _beta_score(rng: np.random.Generator, mean: float) -> float:
    a = mean * _BETA_CONCENTRATION
    b = (1.0 - mean) * _BETA_CONCENTRATION
    return min(max(rng.beta(a, b), 0.0), 1.0)


def _query_text(rng: np.random.Generator, intent: Intent, language: str, country: str) -> dict:
    """Pick the lexical ingredients for one query; reused by its planted docs."""
    topic, synonyms = _pick(rng, _TOPICS)
    suffix = _pick(rng, _SUFFIXES[language])
    city = _pick(rng, _CITIES[country])
    first = _pick(rng, _FIRST_NAMES)
    last = _pick(rng, _LAST_NAMES)
    if intent is Intent.GROUP_TOPIC:
        text = f"{topic} {suffix} {city}"
    elif intent is Intent.PERSON_NAME:
        text = f"{first} {last}"
    elif intent is Intent.CELEBRITY_CONNECTED:
        text = f"{first} {last} official"
    elif intent is Intent.FRIEND_PHOTO:
        text = f"{first} photos"
    else:
        text = topic
    return {
        "text": text,
        "topic": topic,
        "synonyms": synonyms,
        "suffix": suffix,
        "city": city,
        "first": first,
        "last": last,
    }


def _relevant_docs(intent: Intent, ing: dict, region: str) -> list[tuple[str, str, int]]:
    """(title, description, grade) for grades 3, 2, 1, 1.

    Token budgets are chosen deliberately: the grade-3 doc is a strong
    lexical match, the grade-2 doc shares no query token (semantic evidence
    only), and the grade-1 docs are partial matches whose overlap-to-length
    ratio lands in a text-score tier below strong matches but above long
    junky documents.
    """
    syn1, syn2 = ing["synonyms"]
    partial_desc_a = "weekly open meetups welcoming newcomers and casual visitors alike"
    partial_desc_b = "introductory sessions and gentle onboarding for absolute beginners weekly"
    if intent in (Intent.PERSON_NAME, Intent.CELEBRITY_CONNECTED):
        return [
            (f"{ing['first']} {ing['last']} fan {ing['suffix']}",
             f"a community gathering in {region}", 3),
            (f"{ing['last']}ites hub", "where admirers meet", 2),
            (f"{ing['first']} {ing['last']} supporters", partial_desc_a, 1),
            (f"{ing['first']} {ing['last']} updates", partial_desc_b, 1),
        ]
    if intent is Intent.FRIEND_PHOTO:
        return [
            (f"{ing['first']} photos archive",
             f"a community gathering in {region}", 3),
            ("snapshots keepsakes hub", "where collectors meet", 2),
            (f"{ing['first']} photos memories", partial_desc_a, 1),
            (f"{ing['first']} photos album", partial_desc_b, 1),
        ]
    return [
        (f"{ing['city']} {ing['topic']} {ing['suffix']}",
         f"a {ing['topic']} gathering in {region}", 3),
        (f"{syn1} {syn2} hub", f"where {syn1} people meet", 2),
        (f"{ing['topic']} {ing['suffix']} beginners", partial_desc_a, 1),
        (f"{ing['topic']} {ing['suffix']} starters", partial_desc_b, 1),
    ]


def _failure_doc(
    rng: np.random.Generator,
    category: FailureCategory,
    ing: dict,
    query: Query,
    doc_id: str,
    source_type: SourceType,
) -> Document:
    language, country = query.language, query.country
    region = _pick(rng, _REGIONS[country])
    # long descriptions keep junky lexical matches in a low text-score tier
    description = "posts and chatter and hot takes from all over lately"
    title = f"{ing['topic']} oddments"
    if category is FailureCategory.FUZZY_TEXT_MATCH:
        if query.intent in (Intent.PERSON_NAME, Intent.CELEBRITY_CONNECTED, Intent.FRIEND_PHOTO):
            other_last = _pick(rng, [n for n in _LAST_NAMES if n != ing["last"]])
            title = f"{ing['first']} {other_last} pages"
        else:
            tail = _pick(rng, ["memes daily", "jokes feed", "rumor mill", "gossip wire"])
            title = f"{ing['topic']} {tail}"
    elif category is FailureCategory.LOCATION_MISMATCH:
        country = _pick(rng, [c for c in _CITIES if c != query.country])
        region = _pick(rng, _REGIONS[country])
        foreign_city = _pick(rng, _CITIES[country])
        title = f"{ing['topic']} {ing['suffix']} {foreign_city}"
        description = f"a {ing['topic']} gathering in {region}"
    elif category is FailureCategory.LANGUAGE_MISMATCH:
        language = _pick(rng, [l for l in _SUFFIXES if l != query.language])
        foreign_topic = _pick(rng, _FOREIGN_TOPICS[language])
        foreign_suffix = _pick(rng, _SUFFIXES[language])
        title = f"{foreign_topic} {foreign_suffix}"
        description = "conversa e novidades da semana"
    elif category is FailureCategory.MISINFORMATION:
        title = f"{ing['topic']} miracle facts exposed"
    elif category is FailureCategory.UNTRUSTWORTHY:
        title = f"{ing['topic']} free giveaway deals"
    elif category is FailureCategory.OFFENSIVE:
        title = f"{ing['topic']} rage rants"
    return Document(
        doc_id=doc_id,
        title=title,
        description=description,
        language=language,
        country=country,
        region=region,
        topic=ing["topic"],
        source_type=source_type,
    )


def generate_synthetic(spec: SyntheticSpec) -> SyntheticData:
    """Build (corpus, queries, judgments, engagement_log), deterministic in
    every field of `spec`, seed included."""
    rng = np.random.default_rng(spec.seed)

    segments = sorted(spec.segment_mix, key=SegmentKey.sort_key)
    per_segment = largest_remainder(
        [spec.segment_mix[s] for s in segments], spec.n_queries
    )
    profiles = _segment_profiles(segments)

    categories = sorted(DEFAULT_FAILURE_MIX, key=lambda c: c.value)
    failure_total = spec.n_queries * FAILURES_PER_QUERY
    failure_counts = largest_remainder(
        [DEFAULT_FAILURE_MIX[c] for c in categories], failure_total
    )
    flat_categories = [
        cat for cat, count in zip(categories, failure_counts) for _ in range(count)
    ]
    assignment = rng.permutation(len(flat_categories))

    corpus: list[Document] = []
    queries: list[Query] = []
    judgments: list[RelevanceJudgment] = []
    # (query, segment, judged impressions) in query order
    planned: list[tuple[Query, SegmentKey, list[tuple[str, int | None]]]] = []

    fail_cursor = 0
    for segment, count in zip(segments, per_segment):
        for _ in range(count):
            qid = f"q{len(queries):04d}"
            region = _pick(rng, _REGIONS[segment.user_country])
            ing = _query_text(
                rng, segment.query_intent, segment.language, segment.user_country
            )
            query = Query(
                query_id=qid,
                text=ing["text"],
                language=segment.language,
                country=segment.user_country,
                region=region,
                intent=segment.query_intent,
            )
            queries.append(query)

            # Two draws no doc uses; dropping them would change every seed's files.
            others = [c for c in _CITIES[segment.user_country] if c != ing["city"]]
            _pick(rng, others)
            _pick(rng, others)
            impressions: list[tuple[str, int | None]] = []
            relevant = _relevant_docs(segment.query_intent, ing, region)
            for slot, (title, description, grade) in enumerate(relevant):
                doc = Document(
                    doc_id=f"d{len(corpus):05d}",
                    title=title,
                    description=description,
                    language=segment.language,
                    country=segment.user_country,
                    region=region,
                    topic=ing["topic"],
                    source_type=segment.doc_source_type,
                )
                corpus.append(doc)
                judgments.append(
                    RelevanceJudgment(query_id=qid, doc_id=doc.doc_id, grade=grade)
                )
                # the last relevant doc is text-reachable only: EBR never
                # surfaced it, so it gets no logged impressions
                if slot < len(relevant) - 1:
                    impressions.append((doc.doc_id, grade))
            for _ in range(FAILURES_PER_QUERY):
                category = flat_categories[assignment[fail_cursor]]
                fail_cursor += 1
                doc = _failure_doc(
                    rng, category, ing, query, f"d{len(corpus):05d}", segment.doc_source_type
                )
                corpus.append(doc)
                judgments.append(
                    RelevanceJudgment(
                        query_id=qid,
                        doc_id=doc.doc_id,
                        grade=0,
                        failure_category=category,
                    )
                )
                impressions.append((doc.doc_id, 0))
            planned.append((query, segment, impressions))

    # Filler documents pad the corpus to n_docs and serve as distractor
    # impressions; their source types follow the segment mix marginals.
    source_fractions: dict[SourceType, float] = {}
    for seg in segments:
        source_fractions[seg.doc_source_type] = (
            source_fractions.get(seg.doc_source_type, 0.0) + spec.segment_mix[seg]
        )
    filler_sources = sorted(source_fractions, key=lambda s: s.value)
    n_fillers = spec.n_docs - len(corpus)
    filler_counts = largest_remainder(
        [source_fractions[s] for s in filler_sources], n_fillers
    )
    fillers_by_source: dict[SourceType, list[str]] = {s: [] for s in SourceType}
    for source_type, count in zip(filler_sources, filler_counts):
        for _ in range(count):
            seg = _pick(rng, segments)
            topic, _ = _pick(rng, _TOPICS)
            region = _pick(rng, _REGIONS[seg.user_country])
            city = _pick(rng, _CITIES[seg.user_country])
            doc = Document(
                doc_id=f"d{len(corpus):05d}",
                title=f"{region} weekly bulletin",
                description=f"updates and announcements for {city}",
                language=seg.language,
                country=seg.user_country,
                region=region,
                topic=topic,
                source_type=source_type,
            )
            corpus.append(doc)
            fillers_by_source[source_type].append(doc.doc_id)

    log: list[EngagementRecord] = []
    for query, segment, impressions in planned:
        engaged_center, junk_center = profiles[segment]
        pool = fillers_by_source[segment.doc_source_type]
        if pool:
            take = min(DISTRACTOR_IMPRESSIONS, len(pool))
            picks = rng.choice(len(pool), size=take, replace=False)
            impressions.extend((pool[int(i)], None) for i in sorted(picks))
        for doc_id, grade in impressions:
            p_engage = (
                _ENGAGE_PROB_UNJUDGED
                if grade is None
                else _ENGAGE_PROB_BY_GRADE[grade]
            )
            engaged = bool(rng.random() < p_engage)
            mean = (
                min(0.96, engaged_center + _ENGAGED_LIFT[grade])
                if engaged
                else junk_center
            )
            score = _beta_score(rng, mean)
            log.append(
                EngagementRecord(
                    query_id=query.query_id,
                    doc_id=doc_id,
                    raw_score=score,
                    engaged=engaged,
                    segment=segment,
                )
            )

    return SyntheticData(corpus, queries, judgments, log)
