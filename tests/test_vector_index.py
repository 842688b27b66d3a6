"""Exact top-k retrieval against brute-force oracles, plus removal semantics."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ebrguard
from ebrguard import (
    CandidateSource,
    SourceType,
    build_index,
)
from ebrguard.errors import GuardrailError, InvalidParameter
from ebrguard.vector_index import Candidate, best_k, screen_margin, topk, topk_each
from tests.test_corpus import make_doc


def cosine(u, v):
    """Cosine similarity u.v / (|u||v|), clamped to [-1, 1]; 0 when either is zero."""
    denom = np.linalg.norm(u) * np.linalg.norm(v)
    if denom == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / denom, -1.0, 1.0))


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


def brute_force_topk(docs, embeddings, qvec, k, source_filter):
    """Independent oracle: cosine every doc of one source type one at a time,
    python-sort, take k.

    A zero vector (doc or query) scores 0.0 against everything, as in the index.
    """
    qnorm = np.linalg.norm(qvec)
    q = qvec / qnorm if qnorm else qvec
    scored = []
    for doc in docs:
        if doc.source_type is not source_filter:
            continue
        v = embeddings[doc.doc_id]
        vnorm = np.linalg.norm(v)
        score = float(np.clip(np.dot(v / vnorm if vnorm else v, q), -1.0, 1.0))
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

    def test_scales_rows_to_unit_norm_and_keeps_zero_rows_zero(self):
        docs = [make_doc("d1"), make_doc("d2")]
        index = build_index(docs, {"d1": np.array([0.0, 0.0, 3.0, 4.0]), "d2": np.zeros(4)})
        scores = [
            {c.doc_id: c.raw_score for c in topk(index, e, 2, source_filter=SourceType.UN)}
            for e in np.eye(4)
        ]
        assert [s["d1"] for s in scores] == [0.0, 0.0, 0.6, 0.8]
        assert [s["d2"] for s in scores] == [0.0] * 4

    def test_missing_embedding(self):
        rng = np.random.default_rng(1)
        docs, embeddings = make_fixture(rng, 3)
        del embeddings[docs[-1].doc_id]
        with pytest.raises(GuardrailError, match=repr(docs[-1].doc_id)):
            build_index(docs, embeddings)


class TestTopk:
    def test_k_larger_than_corpus_returns_everything_sorted(self):
        rng = np.random.default_rng(2)
        docs, embeddings = make_fixture(rng, 5)
        index = build_index(docs, embeddings)
        q = random_unit(rng, 16)
        for st_filter, size in ((SourceType.CN, 3), (SourceType.UN, 2)):
            out = topk(index, q, 50, source_filter=st_filter)
            assert len(out) == size
            assert_matches_oracle(out, brute_force_topk(docs, embeddings, q, 50, st_filter))

    def test_identical_scores_tie_break_by_doc_id(self):
        docs = [make_doc("zz"), make_doc("aa")]
        v = np.eye(8)[3]
        index = build_index(docs, {"zz": v, "aa": v.copy()})
        out = topk(index, v, 2, source_filter=SourceType.UN)
        assert [c.doc_id for c in out] == ["aa", "zz"]

    def test_matches_brute_force_oracle_on_200_docs(self):
        rng = np.random.default_rng(3)
        docs, embeddings = make_fixture(rng, 200, dup_every=7)
        index = build_index(docs, embeddings)
        for trial in range(20):
            q = random_unit(rng, 16)
            for st_filter in SourceType:
                mine = topk(index, q, 10, source_filter=st_filter)
                assert_matches_oracle(
                    mine, brute_force_topk(docs, embeddings, q, 10, st_filter)
                )

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
        q = random_unit(rng, 16)
        out = [c for st_filter in SourceType for c in topk(index, q, 2, source_filter=st_filter)]
        assert len(out) == 4
        assert all(isinstance(c, Candidate) for c in out)
        assert all(c.source is CandidateSource.EBR for c in out)

    def test_k_and_dimension_validation(self):
        rng = np.random.default_rng(6)
        docs, embeddings = make_fixture(rng, 4)
        index = build_index(docs, embeddings)
        with pytest.raises(ValueError):
            topk(index, random_unit(rng, 16), 0, source_filter=SourceType.UN)
        with pytest.raises(InvalidParameter, match="index dim 16"):
            topk(index, random_unit(rng, 8), 3, source_filter=SourceType.UN)

    def test_source_type_is_required(self):
        rng = np.random.default_rng(6)
        docs, embeddings = make_fixture(rng, 4)
        index = build_index(docs, embeddings)
        q = random_unit(rng, 16)
        with pytest.raises(TypeError):
            topk(index, q, 3)
        with pytest.raises(TypeError, match="SourceType"):
            topk(index, q, 3, source_filter=None)


class TestRemove:
    def test_removed_doc_never_returned(self):
        rng = np.random.default_rng(7)
        docs, embeddings = make_fixture(rng, 30)
        index = build_index(docs, embeddings).remove_many(["d0003"])
        assert "d0003" not in index
        for _ in range(10):
            q = random_unit(rng, 16)
            for st_filter in SourceType:
                assert all(
                    c.doc_id != "d0003" for c in topk(index, q, 30, source_filter=st_filter)
                )

    def test_remove_is_idempotent(self):
        rng = np.random.default_rng(8)
        docs, embeddings = make_fixture(rng, 10)
        index = build_index(docs, embeddings)
        once = index.remove_many(["d0001"])
        twice = once.remove_many(["d0001"])
        assert twice is once

    def test_removing_absent_id_is_noop(self):
        rng = np.random.default_rng(9)
        docs, embeddings = make_fixture(rng, 5)
        index = build_index(docs, embeddings)
        same = index.remove_many(["never-there"])
        assert same is index

    def test_remove_all_docs_empties_topk(self):
        rng = np.random.default_rng(10)
        docs, embeddings = make_fixture(rng, 5)
        index = build_index(docs, embeddings)
        for removed, doc in enumerate(docs, start=1):
            index = index.remove_many([doc.doc_id])
            live = docs[removed:]
            assert len(index) == len(live)
            assert index.source_types_present() == {d.source_type for d in live}
        q = random_unit(rng, 16)
        for st_filter in SourceType:
            assert topk(index, q, 3, source_filter=st_filter) == []

    def test_original_index_unchanged(self):
        rng = np.random.default_rng(11)
        docs, embeddings = make_fixture(rng, 5)
        index = build_index(docs, embeddings)
        index.remove_many(["d0000"])
        assert "d0000" in index


class TestValidation:
    def test_duplicate_doc_id_rejected(self):
        docs = [make_doc("a"), make_doc("a"), make_doc("b")]
        with pytest.raises(GuardrailError, match="'a'"):
            build_index(docs, {"a": np.eye(3)[0], "b": np.eye(3)[1]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        matrix = np.eye(3)
        matrix[1, 2] = bad
        docs = [make_doc(doc_id) for doc_id in ("a", "b", "c")]
        with pytest.raises(InvalidParameter, match="'b'"):
            build_index(docs, dict(zip(("a", "b", "c"), matrix)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        rng = np.random.default_rng(12)
        docs, embeddings = make_fixture(rng, 6)
        index = build_index(docs, embeddings)
        q = random_unit(rng, 16)
        q[3] = bad
        with pytest.raises(InvalidParameter):
            topk(index, q, 3, source_filter=SourceType.UN)


def dyadic(rng, d, nnz):
    """A {-1, 0, 1} vector with nnz nonzeros. With nnz in {1, 4, 16} its norm
    is 1, 2 or 4, so unit vectors and their dot products are exact in any
    summation order, and equal vectors always score equal."""
    v = np.zeros(d)
    v[rng.choice(d, size=nnz, replace=False)] = rng.choice([-1.0, 1.0], size=nnz)
    return v


@st.composite
def select_cases(draw):
    """A corpus, a query and a removal set for the top-k select.

    Doc ids are d<label> for a shuffled label, so doc_id string order differs
    from corpus order (d10 sorts before d9). Vectors are dyadic, so ties are
    common, and copies of one doc's vector are planted on others to straddle
    whatever score ends up k-th.
    """
    n = draw(st.integers(1, 30))
    labels = draw(st.permutations(range(n)))
    types = draw(st.lists(st.sampled_from(list(SourceType)), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = 16
    docs = [make_doc(f"d{label}", source_type=t) for label, t in zip(labels, types)]
    vectors = [dyadic(rng, d, int(rng.choice([0, 1, 4, 4, 16]))) for _ in range(n)]
    source = draw(st.integers(0, n - 1))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=6)):
        vectors[i] = vectors[source].copy()
    embeddings = {doc.doc_id: v for doc, v in zip(docs, vectors)}
    query = dyadic(rng, d, draw(st.sampled_from([0, 1, 4, 16])))
    removed = [docs[i].doc_id for i in draw(st.sets(st.integers(0, n - 1), max_size=n))]
    return docs, embeddings, query, removed


class TestSelectOracle:
    """The partition select against brute_force_topk, for every k from 1 to past the block."""

    @staticmethod
    def check(index, docs, embeddings, query):
        for source_filter in SourceType:
            oracle = brute_force_topk(docs, embeddings, query, len(docs), source_filter)
            for k in range(1, len(oracle) + 3):
                mine = topk(index, query, k, source_filter=source_filter)
                assert [(c.doc_id, c.raw_score) for c in mine] == oracle[:k]

    @given(select_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_before_and_after_removal(self, case):
        docs, embeddings, query, removed = case
        index = build_index(docs, embeddings)
        self.check(index, docs, embeddings, query)
        gone = set(removed)
        self.check(
            index.remove_many(removed),
            [doc for doc in docs if doc.doc_id not in gone],
            embeddings,
            query,
        )


class TestBitExactScan:
    """Filtered scores are the product of that source's rows in corpus order.

    OpenBLAS gemv sums the tail rows of a matrix in another order, so scanning
    a block in a different order, a sub-range of a larger matrix, or a batch
    of queries at once changes score bits; this pins the scan itself.
    """

    def test_filtered_scores_equal_per_source_gemv_bits(self):
        rng = np.random.default_rng(14)
        n, d = 3000, 64
        types = [list(SourceType)[i] for i in rng.integers(0, 2, size=n)]
        docs = [make_doc(f"d{i}", source_type=t) for i, t in enumerate(types)]
        embeddings = {doc.doc_id: rng.normal(size=d) for doc in docs}
        index = build_index(docs, embeddings)
        later = index.remove_many([f"d{i}" for i in rng.choice(n, size=300, replace=False)])
        cn_only = index.remove_many(
            [doc.doc_id for doc in docs if doc.source_type is SourceType.CN][::7]
        )
        for idx in (index, later, cn_only):
            live = [doc for doc in docs if doc.doc_id in idx]
            matrix = np.vstack([embeddings[doc.doc_id] for doc in live])
            matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
            for _ in range(5):
                q = rng.normal(size=d)
                q_unit = q / np.linalg.norm(q)
                for source_type in SourceType:
                    rows = [i for i, doc in enumerate(live) if doc.source_type is source_type]
                    expected = np.clip(matrix[rows] @ q_unit, -1.0, 1.0)
                    got = {
                        c.doc_id: c.raw_score
                        for c in topk(idx, q, len(rows), source_filter=source_type)
                    }
                    assert [got[live[i].doc_id] for i in rows] == expected.tolist()
                    ranked = sorted(zip((-expected).tolist(), (live[i].doc_id for i in rows)))
                    for k in (1, 10):
                        top = topk(idx, q, k, source_filter=source_type)
                        assert [(-c.raw_score, c.doc_id) for c in top] == ranked[:k]


def hex_pairs(pairs):
    """(doc_id, score bits) for (score, doc_id) pairs; float.hex tells -0.0 from 0.0."""
    return [(doc_id, float(score).hex()) for score, doc_id in pairs]


@st.composite
def screen_cases(draw):
    """A corpus of one source type, a removal set and a query for the float32 screen.

    Rows are random 64-dim vectors, with planted duplicates, zero rows, and a
    cluster of rows whose scores against the query sit a step apart just
    above every other score. The step is 1 ulp, 2**-30 or 2**-26, below
    float32's rounding error, so the screen reorders the cluster; or B/2, B,
    2B or 3B (B = screen_margin), so that pairs straddle the margin.
    Removals hit random rows, the last 1-7 rows (the block's tail), the
    cluster (the top-k rows) or every row. Doc ids are d<label> for a
    shuffled label, so doc_id order differs from corpus order.
    """
    d = 64
    n = draw(st.one_of(st.integers(1, 40), st.sampled_from([4_001, 5_003, 6_998])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.normal(size=(n, d))
    q = np.zeros(d) if draw(st.booleans()) else rng.normal(size=d)
    q_unit = q / (np.linalg.norm(q) or 1.0)
    margins = [m * screen_margin(d) for m in (0.5, 1, 2, 3)]
    step = draw(st.sampled_from([2.0**-53, 2.0**-30, 2.0**-26, *margins]))
    cluster = rng.choice(n, size=min(n, draw(st.integers(0, 12))), replace=False)
    for j, i in enumerate(cluster):
        other = rng.normal(size=d)
        other -= (other @ q_unit) * q_unit
        other /= np.linalg.norm(other)
        score = 0.9 + j * step
        matrix[i] = score * q_unit + np.sqrt(1.0 - score * score) * other
    for i in rng.choice(n, size=min(n, draw(st.integers(0, 4))), replace=True):
        matrix[i] = matrix[rng.integers(n)]
    matrix[rng.choice(n, size=min(n, draw(st.integers(0, 2))), replace=False)] = 0.0
    mode = draw(st.sampled_from(["none", "random", "tail", "top", "all"]))
    removed = {
        "none": [],
        "random": rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False),
        "tail": range(max(0, n - draw(st.integers(1, 7))), n),
        "top": cluster,
        "all": range(n),
    }[mode]
    labels = rng.permutation(n)
    docs = [make_doc(f"d{label}", source_type=SourceType.CN) for label in labels]
    return docs, matrix, q, sorted(int(i) for i in removed)


class TestScreenOracle:
    """The float32 screen and pooled float64 rescore against a single-threaded
    full scan of the live rows, compacted in corpus order: same order, equal
    raw_score bits, for k in {1, 10, n_live - 1, n_live, n_live + 3}."""

    @given(screen_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_full_scan_of_live_rows(self, case):
        docs, matrix, q, removed = case
        index = build_index(docs, {doc.doc_id: row for doc, row in zip(docs, matrix)})
        index = index.remove_many(docs[i].doc_id for i in removed)
        live = np.setdiff1d(np.arange(len(docs)), removed)
        assert len(index) == len(live)
        if not len(live):
            assert topk(index, q, 1, source_filter=SourceType.CN) == []
            return
        norms = np.linalg.norm(matrix[live], axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        rows = matrix[live] / norms
        qnorm = np.linalg.norm(q)
        scores = np.clip(rows @ (q / qnorm), -1.0, 1.0) if qnorm else np.zeros(len(live))
        ids = np.array([docs[i].doc_id for i in live], dtype=object)
        n_live = len(live)
        for k in sorted({1, 10, max(1, n_live - 1), n_live, n_live + 3}):
            got = [(c.raw_score, c.doc_id) for c in topk(index, q, k, SourceType.CN)]
            assert hex_pairs(got) == hex_pairs(best_k(scores, ids, k))


    @pytest.mark.parametrize("n", [30, 5_003])
    def test_near_ties_below_float32_resolution(self, n):
        """Ten rows 2**-30 apart at 0.9, where float32 steps by 6e-8: their
        float32 scores tie or reorder, and the screen must keep every row
        the float64 scores need (a screen with no margin fails this)."""
        rng = np.random.default_rng(n)
        d = 64
        docs = [make_doc(f"d{i}", source_type=SourceType.CN) for i in range(n)]
        ids = np.array([doc.doc_id for doc in docs], dtype=object)
        for _ in range(20):
            matrix = rng.normal(size=(n, d))
            q = rng.normal(size=d)
            q_unit = q / np.linalg.norm(q)
            for j, i in enumerate(rng.choice(n, size=10, replace=False)):
                other = rng.normal(size=d)
                other -= (other @ q_unit) * q_unit
                other /= np.linalg.norm(other)
                score = 0.9 + j * 2.0**-30
                matrix[i] = score * q_unit + np.sqrt(1 - score * score) * other
            index = build_index(docs, dict(zip(ids, matrix)))
            rows = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
            scores = np.clip(rows @ q_unit, -1.0, 1.0)
            for k in (1, 5, 10):
                got = [(c.raw_score, c.doc_id) for c in topk(index, q, k, SourceType.CN)]
                assert hex_pairs(got) == hex_pairs(best_k(scores, ids, k))


# Every order of every subset of SourceType, and one request naming a type twice.
REQUESTS = [
    order
    for size in range(len(SourceType) + 1)
    for order in itertools.permutations(SourceType, size)
] + [(SourceType.UN, SourceType.CN, SourceType.UN)]


@st.composite
def each_cases(draw):
    """An index over both source types, a removal set and a query for topk_each.

    Block sizes run from 0 (a source type absent from the index) to a few
    thousand rows; rows of the two types are interleaved in a random corpus
    order. Rows are random 64-dim vectors with planted duplicates (within
    and across types) and zero rows. Removals hit each block at its own
    rate, from none to every row, and the query is zero or random.
    """
    d = 64
    small = st.integers(0, 30)
    n_cn, n_un = draw(
        st.one_of(
            st.tuples(small, small),
            st.tuples(st.sampled_from([0, 9, 2_003, 4_001]), st.sampled_from([0, 6, 3_002])),
        ).filter(lambda sizes: sum(sizes) > 0)
    )
    n = n_cn + n_un
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    types = [SourceType.CN] * n_cn + [SourceType.UN] * n_un
    types = [types[i] for i in rng.permutation(n)]
    matrix = rng.normal(size=(n, d))
    for i in rng.choice(n, size=draw(st.integers(0, 6)), replace=True):
        matrix[i] = matrix[rng.integers(n)]
    matrix[rng.choice(n, size=min(n, draw(st.integers(0, 2))), replace=False)] = 0.0
    q = np.zeros(d) if draw(st.integers(0, 5)) == 0 else rng.normal(size=d)
    rates = {t: draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])) for t in SourceType}
    removed = [i for i in range(n) if rng.random() < rates[types[i]]]
    labels = rng.permutation(n)
    docs = [make_doc(f"d{label}", source_type=t) for label, t in zip(labels, types)]
    return docs, matrix, q, removed


class TestTopkEach:
    """topk_each against one topk call per source type: the same pairs, with
    the same raw_score bits, in request order."""

    @given(each_cases())
    @settings(max_examples=80, deadline=None)
    def test_equals_one_topk_per_source_type(self, case):
        docs, matrix, q, removed = case
        index = build_index(docs, {doc.doc_id: row for doc, row in zip(docs, matrix)})
        index = index.remove_many(docs[i].doc_id for i in removed)
        n_live = {
            t: sum(doc.source_type is t and doc.doc_id in index for doc in docs)
            for t in SourceType
        }
        # k >= n_live in no block, in the smaller block only, and in both.
        ks = {1, 10, *(max(1, m) for m in n_live.values()), max(n_live.values()) + 1}
        for k in sorted(ks):
            for request in REQUESTS:
                expected = [
                    [(c.raw_score, c.doc_id) for c in topk(index, q, k, source_filter=t)]
                    for t in request
                ]
                got = topk_each(index, q, k, request)
                assert [hex_pairs(pairs) for pairs in got] == [
                    hex_pairs(pairs) for pairs in expected
                ]

    def test_validates_k_query_and_source_types(self):
        rng = np.random.default_rng(13)
        docs, embeddings = make_fixture(rng, 6)
        index = build_index(docs, embeddings)
        q = random_unit(rng, 16)
        assert topk_each(index, q, 3, ()) == []
        with pytest.raises(InvalidParameter, match="k must be"):
            topk_each(index, q, 0, ())
        with pytest.raises(InvalidParameter, match="index dim 16"):
            topk_each(index, random_unit(rng, 8), 3, list(SourceType))
        with pytest.raises(TypeError, match="SourceType"):
            topk_each(index, q, 3, [SourceType.CN, None])


class TestThreadCount:
    """Scores do not depend on the BLAS thread count.

    OpenBLAS threads a gemv from m * n >= 460,800 values (7,200 rows at
    d=64), and each thread's share of rows has its own tail, so one scan of
    a larger block gives other score bits with 2 threads than with 1.
    """

    SCRIPT = """
import sys
import numpy as np
from ebrguard import SourceType, build_index
from ebrguard.corpus import Document
from ebrguard.vector_index import topk
n, d = 8_002, 64
rng = np.random.default_rng(0)
docs = [
    Document(f"d{i}", "t", "", "en", "US", "south", "hiking", SourceType.UN) for i in range(n)
]
index = build_index(docs, {doc.doc_id: rng.normal(size=d) for doc in docs})
out = topk(index, rng.normal(size=d), n, source_filter=SourceType.UN)
sys.stdout.write("\\n".join(f"{c.doc_id} {c.raw_score.hex()}" for c in out))
"""

    # 8,002 rows split between the two source types, some removed from each:
    # the span one request screens is past the threaded cut-over, so one
    # scan of it would be threaded; the screen's chunks stay below it.
    EACH_SCRIPT = """
import sys
import numpy as np
from ebrguard import SourceType, build_index
from ebrguard.corpus import Document
from ebrguard.vector_index import topk_each
n, d = 8_002, 64
rng = np.random.default_rng(1)
types = [(SourceType.CN, SourceType.UN)[i % 2] for i in rng.permutation(n)]
docs = [Document(f"d{i}", "t", "", "en", "US", "south", "hiking", t) for i, t in enumerate(types)]
index = build_index(docs, {doc.doc_id: rng.normal(size=d) for doc in docs})
index = index.remove_many(f"d{i}" for i in rng.choice(n, size=500, replace=False))
for _ in range(20):
    q = rng.normal(size=d)
    for k in (1, 10, 100):
        for request in ([SourceType.CN, SourceType.UN], [SourceType.UN, SourceType.CN]):
            for pairs in topk_each(index, q, k, request):
                print(" ".join(f"{doc_id}:{score.hex()}" for score, doc_id in pairs))
"""

    def run(self, script, threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        src = str(Path(ebrguard.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True,
        )
        return done.stdout.splitlines()

    def test_one_8002_row_block_scores_alike_with_1_and_2_blas_threads(self):
        one = self.run(self.SCRIPT, 1)
        assert len(one) == 8_002
        assert one == self.run(self.SCRIPT, 2)

    def test_topk_each_over_an_8002_row_span_gives_the_same_pairs_with_1_and_2_threads(self):
        one = self.run(self.EACH_SCRIPT, 1)
        assert len(one) == 20 * 3 * 2 * 2
        assert one == self.run(self.EACH_SCRIPT, 2)
