"""Exact top-k retrieval against brute-force oracles, plus removal semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebrguard import (
    CandidateSource,
    SourceType,
    build_index,
)
from ebrguard.errors import DimensionMismatch, MissingEmbedding
from ebrguard.vector_index import Candidate, cosine, topk
from tests.test_corpus import make_doc


def random_unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def make_fixture(rng, n, d=16, dup_every=0):
    """Corpus + embeddings; dup_every > 0 plants identical vectors to force ties."""
    docs = [
        make_doc(
            f"d{i:04d}",
            source_type=SourceType.UN if i % 2 else SourceType.CN,
        )
        for i in range(n)
    ]
    embeddings = {}
    for i, doc in enumerate(docs):
        if dup_every and i % dup_every == 0 and i > 0:
            embeddings[doc.doc_id] = embeddings[docs[i - 1].doc_id].copy()
        else:
            embeddings[doc.doc_id] = random_unit(rng, d)
    return docs, embeddings


def brute_force_topk(docs, embeddings, qvec, k, source_filter=None):
    """Independent oracle: cosine every doc one at a time, python-sort, take k."""
    q = qvec / np.linalg.norm(qvec)
    scored = []
    for doc in docs:
        if source_filter is not None and doc.source_type is not source_filter:
            continue
        v = embeddings[doc.doc_id]
        score = float(np.clip(np.dot(v / np.linalg.norm(v), q), -1.0, 1.0))
        scored.append((doc.doc_id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def assert_matches_oracle(mine, oracle):
    """Doc order must match exactly (tie order included); scores agree to float
    precision across the two evaluation orders (matrix product vs per-doc dot)."""
    assert [c.doc_id for c in mine] == [doc_id for doc_id, _ in oracle]
    np.testing.assert_allclose(
        [c.raw_score for c in mine], [s for _, s in oracle], rtol=0, atol=1e-12
    )


class TestCosine:
    def test_self_similarity_is_one(self):
        v = random_unit(np.random.default_rng(0), 8)
        assert cosine(v, v) == 1.0

    def test_orthogonal_basis_vectors(self):
        e0 = np.eye(8)[0]
        e1 = np.eye(8)[1]
        assert cosine(e0, e1) == 0.0

    def test_hand_computed_value(self):
        assert cosine(np.array([0.6, 0.8]), np.array([0.8, 0.6])) == pytest.approx(
            0.96, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(np.ones(3), np.ones(4))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_bounds(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=12)
        v = rng.normal(size=12)
        assert abs(cosine(u, v) - cosine(v, u)) <= 1e-12
        assert -1.0 <= cosine(u, v) <= 1.0

    def test_preclamp_deviation_tiny_on_unit_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            u = random_unit(rng, 32)
            assert abs(np.dot(u, u)) <= 1.0 + 1e-9


class TestBuildIndex:
    def test_empty_corpus(self):
        index = build_index([], {})
        assert len(index) == 0

    def test_entries_in_doc_order(self):
        rng = np.random.default_rng(1)
        docs, embeddings = make_fixture(rng, 3)
        index = build_index(docs, embeddings)
        assert index.doc_ids == [d.doc_id for d in docs]

    def test_scales_rows_to_unit_norm_and_keeps_zero_rows_zero(self):
        docs = [make_doc("d1"), make_doc("d2")]
        index = build_index(docs, {"d1": np.array([0.0, 0.0, 3.0, 4.0]), "d2": np.zeros(4)})
        scores = [{c.doc_id: c.raw_score for c in topk(index, e, 2)} for e in np.eye(4)]
        assert [s["d1"] for s in scores] == [0.0, 0.0, 0.6, 0.8]
        assert [s["d2"] for s in scores] == [0.0] * 4

    def test_missing_embedding(self):
        rng = np.random.default_rng(1)
        docs, embeddings = make_fixture(rng, 3)
        del embeddings[docs[-1].doc_id]
        with pytest.raises(MissingEmbedding):
            build_index(docs, embeddings)


class TestTopk:
    def test_k_larger_than_corpus_returns_everything_sorted(self):
        rng = np.random.default_rng(2)
        docs, embeddings = make_fixture(rng, 5)
        index = build_index(docs, embeddings)
        q = random_unit(rng, 16)
        out = topk(index, q, 50)
        assert len(out) == 5
        assert_matches_oracle(out, brute_force_topk(docs, embeddings, q, 50))

    def test_identical_scores_tie_break_by_doc_id(self):
        docs = [make_doc("zz"), make_doc("aa")]
        v = np.eye(8)[3]
        index = build_index(docs, {"zz": v, "aa": v.copy()})
        out = topk(index, v, 2)
        assert [c.doc_id for c in out] == ["aa", "zz"]

    def test_matches_brute_force_oracle_on_200_docs(self):
        rng = np.random.default_rng(3)
        docs, embeddings = make_fixture(rng, 200, dup_every=7)
        index = build_index(docs, embeddings)
        for trial in range(20):
            q = random_unit(rng, 16)
            mine = topk(index, q, 10)
            assert_matches_oracle(mine, brute_force_topk(docs, embeddings, q, 10))

    def test_source_filter(self):
        rng = np.random.default_rng(4)
        docs, embeddings = make_fixture(rng, 40)
        index = build_index(docs, embeddings)
        q = random_unit(rng, 16)
        for st_filter in SourceType:
            mine = topk(index, q, 10, source_filter=st_filter)
            assert_matches_oracle(
                mine, brute_force_topk(docs, embeddings, q, 10, source_filter=st_filter)
            )

    def test_candidates_carry_ebr_source(self):
        rng = np.random.default_rng(5)
        docs, embeddings = make_fixture(rng, 4)
        index = build_index(docs, embeddings)
        out = topk(index, random_unit(rng, 16), 2)
        assert all(isinstance(c, Candidate) for c in out)
        assert all(c.source is CandidateSource.EBR for c in out)

    def test_k_and_dimension_validation(self):
        rng = np.random.default_rng(6)
        docs, embeddings = make_fixture(rng, 4)
        index = build_index(docs, embeddings)
        with pytest.raises(ValueError):
            topk(index, random_unit(rng, 16), 0)
        with pytest.raises(DimensionMismatch):
            topk(index, random_unit(rng, 8), 3)


class TestRemove:
    def test_removed_doc_never_returned(self):
        rng = np.random.default_rng(7)
        docs, embeddings = make_fixture(rng, 30)
        index = build_index(docs, embeddings).remove_many(["d0003"])
        assert "d0003" not in index
        for _ in range(10):
            q = random_unit(rng, 16)
            assert all(c.doc_id != "d0003" for c in topk(index, q, 30))

    def test_remove_is_idempotent(self):
        rng = np.random.default_rng(8)
        docs, embeddings = make_fixture(rng, 10)
        index = build_index(docs, embeddings)
        once = index.remove_many(["d0001"])
        twice = once.remove_many(["d0001"])
        assert twice.doc_ids == once.doc_ids

    def test_removing_absent_id_is_noop(self):
        rng = np.random.default_rng(9)
        docs, embeddings = make_fixture(rng, 5)
        index = build_index(docs, embeddings)
        same = index.remove_many(["never-there"])
        assert same.doc_ids == index.doc_ids

    def test_remove_all_docs_empties_topk(self):
        rng = np.random.default_rng(10)
        docs, embeddings = make_fixture(rng, 5)
        index = build_index(docs, embeddings)
        for doc in docs:
            index = index.remove_many([doc.doc_id])
        assert topk(index, random_unit(rng, 16), 3) == []

    def test_original_index_unchanged(self):
        rng = np.random.default_rng(11)
        docs, embeddings = make_fixture(rng, 5)
        index = build_index(docs, embeddings)
        index.remove_many(["d0000"])
        assert "d0000" in index
