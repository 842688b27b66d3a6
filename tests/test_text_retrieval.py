"""Tokenizer and overlap-scoring fallback retriever vs. brute-force scoring."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebrguard import (
    CandidateSource,
    Intent,
    build_text_index,
)
from ebrguard.corpus import Query
from ebrguard.errors import GuardrailError
from ebrguard.text_retrieval import search_text, tokenize
from tests.test_corpus import make_doc


def make_query(text, query_id="q1"):
    return Query(query_id, text, "en", "US", "south", Intent.GROUP_TOPIC)


class TestTokenize:
    def test_basic(self):
        assert tokenize("Hiking Club!") == ["hiking", "club"]

    def test_empty(self):
        assert tokenize("") == []

    def test_separator_runs(self):
        assert tokenize("a-b  c") == ["a", "b", "c"]

    def test_digits_kept(self):
        assert tokenize("chess 2024 meetup") == ["chess", "2024", "meetup"]

    @given(st.text(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_tokens_are_lowercase_alphanumeric(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()
            assert all(ch.isascii() and (ch.isdigit() or ch.isalpha()) for ch in token) or all(
                not ch.isspace() for ch in token
            )


class TestBuildTextIndex:
    def test_empty_corpus(self):
        index = build_text_index([])
        assert index.postings == {}
        assert len(index.doc_ids) == 0 and len(index.doc_lengths) == 0

    def test_single_doc_posting(self):
        index = build_text_index([make_doc("d1", title="x", description="")])
        assert index.doc_ids.tolist() == ["d1"]
        assert index.postings["x"].tolist() == [0]
        assert index.doc_lengths.tolist() == [1]

    def test_shared_token_posting_length(self):
        docs = [
            make_doc("d1", title="jazz circle", description=""),
            make_doc("d2", title="jazz quartet", description=""),
        ]
        index = build_text_index(docs)
        assert index.postings["jazz"].tolist() == [0, 1]

    def test_ranks_follow_doc_id_string_order(self):
        docs = [
            make_doc("d9", title="jazz", description=""),
            make_doc("d10", title="jazz chess club", description=""),
            make_doc("d1", title="", description=""),
        ]
        index = build_text_index(docs)
        assert index.doc_ids.tolist() == ["d1", "d10", "d9"]
        assert index.doc_lengths.tolist() == [0, 3, 1]
        assert index.postings["jazz"].tolist() == [1, 2]

    def test_every_posting_doc_has_a_length(self):
        docs = [make_doc(f"d{i}") for i in range(5)] + [make_doc("e", title="", description="")]
        index = build_text_index(docs)
        for ranks in index.postings.values():
            assert (np.diff(ranks) > 0).all()
            assert (index.doc_lengths[ranks] > 0).all()

    def test_duplicate_doc_id_is_rejected(self):
        docs = [make_doc("d1"), make_doc("d2"), make_doc("d1", title="other")]
        with pytest.raises(GuardrailError, match="duplicate id: 'd1'"):
            build_text_index(docs)


def brute_force_text(docs, query, k):
    scored = []
    q_tokens = set(tokenize(query.text))
    for doc in docs:
        d_tokens = tokenize(doc.title + " " + doc.description)
        overlap = len(q_tokens & set(d_tokens))
        if overlap and d_tokens:
            scored.append((doc.doc_id, overlap / math.sqrt(len(d_tokens))))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


class TestSearchText:
    def test_no_match_gives_empty_list(self):
        docs = [make_doc("d1", title="jazz circle", description="weekly sessions")]
        index = build_text_index(docs)
        assert search_text(index, make_query("pottery kiln"), 5) == []

    def test_exact_title_beats_partial(self):
        docs = [
            make_doc("d1", title="hiking club austin", description=""),
            make_doc("d2", title="hiking daily news", description=""),
        ]
        index = build_text_index(docs)
        query = make_query("hiking club austin")
        out = search_text(index, query, 5)
        # full overlap: 3/sqrt(3); partial: 1/sqrt(3)
        assert [c.doc_id for c in out] == ["d1", "d2"]
        assert out[0].raw_score == pytest.approx(3 / math.sqrt(3))
        assert out[1].raw_score == pytest.approx(1 / math.sqrt(3))

    def test_k_one_keeps_only_best(self):
        docs = [
            make_doc("d1", title="chess club", description=""),
            make_doc("d2", title="chess gambit talk", description=""),
            make_doc("d3", title="chess", description=""),
        ]
        index = build_text_index(docs)
        query = make_query("chess")
        out = search_text(index, query, 1)
        oracle = brute_force_text(docs, query, 1)
        assert [(c.doc_id, c.raw_score) for c in out] == oracle

    def test_matches_brute_force_on_random_fixtures(self):
        rng = np.random.default_rng(0)
        vocab = ["jazz", "chess", "hiking", "club", "group", "austin", "leeds", "daily"]
        docs = [
            make_doc(
                f"d{i:03d}",
                title=" ".join(rng.choice(vocab, size=rng.integers(1, 5))),
                description=" ".join(rng.choice(vocab, size=rng.integers(0, 4))),
            )
            for i in range(60)
        ]
        index = build_text_index(docs)
        for i in range(20):
            query = make_query(" ".join(rng.choice(vocab, size=rng.integers(1, 4))), f"q{i}")
            mine = [(c.doc_id, c.raw_score) for c in search_text(index, query, 7)]
            assert mine == brute_force_text(docs, query, 7)

    def test_every_result_shares_a_token(self):
        rng = np.random.default_rng(1)
        vocab = ["pedal", "verse", "kiln", "crag", "club"]
        docs = [
            make_doc(f"d{i}", title=" ".join(rng.choice(vocab, size=2)), description="")
            for i in range(20)
        ]
        index = build_text_index(docs)
        query = make_query("kiln crag")
        for c in search_text(index, query, 20):
            doc = next(d for d in docs if d.doc_id == c.doc_id)
            assert set(tokenize(query.text)) & set(tokenize(doc.title))
            assert c.source is CandidateSource.TEXT

    def test_k_validation(self):
        index = build_text_index([make_doc("d1")])
        with pytest.raises(ValueError):
            search_text(index, make_query("hiking"), 0)


def reference_search_text(docs, query, k):
    """The dict-of-doc_ids scorer search_text replaced, kept as its oracle:
    string postings, a per-query overlap dict and a heapq selection."""
    postings, doc_lengths = {}, {}
    for doc in docs:
        tokens = tokenize(doc.title + " " + doc.description)
        doc_lengths[doc.doc_id] = len(tokens)
        for token in set(tokens):
            postings.setdefault(token, []).append(doc.doc_id)
    overlap = {}
    for token in set(tokenize(query.text)):
        for doc_id in postings.get(token, ()):
            overlap[doc_id] = overlap.get(doc_id, 0) + 1
    scored = (
        (doc_id, count / math.sqrt(doc_lengths[doc_id])) for doc_id, count in overlap.items()
    )
    return heapq.nsmallest(k, scored, key=lambda item: (-item[1], item[0]))


_TINY_VOCAB = ["jazz", "chess", "club", "kiln"]


@st.composite
def text_corpora(draw):
    """Up to 25 docs over a four-word vocabulary, in a shuffled id order (so
    corpus order, numeric order and string order of d9/d10 all differ), some
    with no tokens at all, and optionally one token present in every doc."""
    n = draw(st.integers(0, 25))
    order = draw(st.permutations(range(n)))
    everywhere = draw(st.booleans())
    words = st.lists(st.sampled_from(_TINY_VOCAB), max_size=4)
    docs = []
    for i in order:
        title = draw(words) + (["every"] if everywhere else [])
        docs.append(make_doc(f"d{i}", title=" ".join(title), description=" - ".join(draw(words))))
    return docs


class TestSearchTextOracle:
    @given(
        docs=text_corpora(),
        query_words=st.lists(st.sampled_from(_TINY_VOCAB + ["every", "absent"]), max_size=6),
        k=st.integers(1, 30),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_rows_and_score_bits_as_reference(self, docs, query_words, k):
        query = make_query(" ".join(query_words))
        mine = [(c.doc_id, c.raw_score) for c in search_text(build_text_index(docs), query, k)]
        assert mine == reference_search_text(docs, query, k)
