"""The trigram-hash embedder: determinism, norms, and cosine structure."""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebrguard import (
    SyntheticSpec,
    embed_corpus,
    generate_synthetic,
    load_embeddings,
    save_embeddings,
)
from ebrguard.embedder import Side, embed_text
from ebrguard.errors import InvalidParameter, MalformedRecord
from tests.test_corpus import make_doc
from tests.test_vector_index import cosine


class TestEmbedText:
    def test_deterministic(self):
        a = embed_text("community gardening tips", Side.QUERY, 64)
        b = embed_text("community gardening tips", Side.QUERY, 64)
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self):
        for text in ("austin hiking club", "xyz", "a b c d e f"):
            for side in Side:
                v = embed_text(text, side, 64)
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-6

    def test_empty_and_whitespace_map_to_e0(self):
        for text in ("", "   ", "\t\n"):
            v = embed_text(text, Side.DOC, 64)
            assert v[0] == 1.0 and np.count_nonzero(v) == 1

    def test_too_short_for_a_trigram_maps_to_e0(self):
        v = embed_text("ab", Side.QUERY, 64)
        assert v[0] == 1.0 and np.count_nonzero(v) == 1

    def test_case_insensitive(self):
        np.testing.assert_array_equal(
            embed_text("Hiking Club", Side.QUERY, 64),
            embed_text("hiking club", Side.QUERY, 64),
        )

    def test_sides_are_distinct_functions(self):
        q = embed_text("hiking club", Side.QUERY, 64)
        d = embed_text("hiking club", Side.DOC, 64)
        assert not np.array_equal(q, d)

    def test_shared_trigrams_force_cosine_ordering(self):
        q = embed_text("hiking club", Side.QUERY, 64)
        near = embed_text("hiking clubs", Side.DOC, 64)
        far = embed_text("quantum chess", Side.DOC, 64)
        assert cosine(q, near) > cosine(q, far)

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            embed_text("hello there", Side.QUERY, 4)

    def test_small_dimension_allowed(self):
        assert embed_text("hello there", Side.QUERY, 8).shape == (8,)


class TestEmbedDocument:
    def test_matches_concatenation_rule(self):
        doc = make_doc("d1", title="a", description="")
        np.testing.assert_array_equal(embed_corpus([doc], 64)["d1"], embed_text("a ", Side.DOC, 64))
        doc2 = make_doc("d2", title="hiking club", description="weekly walks")
        np.testing.assert_array_equal(
            embed_corpus([doc2], 64)["d2"],
            embed_text("hiking club weekly walks", Side.DOC, 64),
        )

    def test_deterministic(self):
        doc = make_doc("d1")
        np.testing.assert_array_equal(embed_corpus([doc], 64)["d1"], embed_corpus([doc], 64)["d1"])

    def test_disjoint_trigrams_near_orthogonal(self):
        a, b = embed_corpus(
            [
                make_doc("d1", title="maple syrup", description=""),
                make_doc("d2", title="quartz dwell", description=""),
            ],
            64,
        ).values()
        assert abs(cosine(a, b)) <= 0.2


# sha256 of the float64 bytes, in doc or query order, for the seed-7
# 240-doc / 30-query data set. Recorded from the one-hash-per-occurrence
# embedder that the memoized one replaced, so they pin today's bits.
CORPUS_SHA256 = {
    64: "89fa8ed7f5091829d1b0eb393e2783824099549f7f44b769058fd62814c88787",
    100: "76bf3559e59a6114a4d541d03c954af5ee0b224fba7c990fbe96719c4325e673",
}
QUERY_SHA256_D64 = "7c3aedd8cddbc593492aaa4aee847423b8413e73f3ef459f9e9dfe14cb2f7100"


def _sha256(vectors) -> str:
    h = hashlib.sha256()
    for v in vectors:
        h.update(v.tobytes())
    return h.hexdigest()


class TestPinnedBits:
    @pytest.fixture(scope="class")
    def data(self):
        return generate_synthetic(SyntheticSpec(seed=7, n_docs=240, n_queries=30))

    def corpus_sha256(self, data, d):
        vectors = embed_corpus(data.corpus, d)
        assert list(vectors) == [doc.doc_id for doc in data.corpus]
        return _sha256(vectors.values())

    def test_digests_hold_across_dimensions_and_sides(self, data):
        """Corpus calls at d = 64, 100, 64, 100 in one process, with query
        embeds between them, each reproduce the recorded bits, so no memo
        crosses a call, a dimension or a side."""
        for d in (64, 100, 64, 100):
            assert self.corpus_sha256(data, d) == CORPUS_SHA256[d]
            vectors = [embed_text(q.text, Side.QUERY, 64) for q in data.queries]
            assert _sha256(vectors) == QUERY_SHA256_D64

    @pytest.mark.parametrize(
        ("title", "description", "d"),
        [
            ("", "", 64),
            ("  ", "\t\n", 64),
            ("a", "", 64),
            ("Straße ☃", "漢字テキスト é", 64),
            ("abcabcabcabc", "abcabc", 64),
            ("austin hiking club", "a hiking gathering", 8),
        ],
        ids=["empty", "whitespace", "a-space", "unicode", "repeated-trigram", "d8"],
    )
    def test_corpus_matches_embed_text(self, title, description, d):
        doc = make_doc("d1", title=title, description=description)
        got = embed_corpus([doc], d)["d1"]
        want = embed_text(title + " " + description, Side.DOC, d)
        assert got.tobytes() == want.tobytes()

    def test_same_text_gets_equal_bits_in_separate_arrays(self):
        vectors = embed_corpus(
            [
                make_doc("d1", title="hiking club", description="weekly walks"),
                make_doc("d2", title="Hiking Club", description="weekly walks"),
                make_doc("d3", title="hiking club", description="weekly walks"),
            ],
            64,
        )
        a, b, c = vectors.values()
        assert a.tobytes() == b.tobytes() == c.tobytes()
        before = b.copy()
        a[:] = 0.0
        assert b.tobytes() == before.tobytes()
        assert c.tobytes() == before.tobytes()

    def test_dimension_checked_up_front(self):
        with pytest.raises(InvalidParameter):
            embed_corpus([], 4)
        with pytest.raises(InvalidParameter):
            embed_corpus([make_doc("d1")], 7)


class TestEmbeddingFiles:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("")
        assert load_embeddings(path) == {}

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("d1\t1,0,0\nd2\t1,0\n")
        with pytest.raises(MalformedRecord, match="dimension 2 != 3") as exc:
            load_embeddings(path)
        assert exc.value.line_no == 2

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("d1 1,0,0\n")
        with pytest.raises(MalformedRecord):
            load_embeddings(path)
        path.write_text("d1\t1,zero,0\n")
        with pytest.raises(MalformedRecord):
            load_embeddings(path)

    def test_duplicate_doc_id_names_second_line(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("a\t1,0\nb\t0,1\na\t0,1\n")
        with pytest.raises(MalformedRecord) as exc:
            load_embeddings(path)
        assert exc.value.line_no == 3
        assert "duplicate doc_id 'a'" in str(exc.value)

    def test_read_exactly_as_written(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("d1\t0,0,3,4\nd2\t0,0,0,0\n")
        loaded = load_embeddings(path)
        assert loaded["d1"].tolist() == [0.0, 0.0, 3.0, 4.0]
        assert loaded["d2"].tolist() == [0.0] * 4

    def test_round_trip(self, tmp_path):
        """save_embeddings then load_embeddings gives back every vector bit for bit."""
        corpus = generate_synthetic(SyntheticSpec(seed=7, n_docs=240, n_queries=30)).corpus
        vectors = embed_corpus(corpus)
        path = tmp_path / "emb.tsv"
        save_embeddings(vectors, path)
        loaded = load_embeddings(path)
        assert list(loaded) == list(vectors)
        for doc_id, v in vectors.items():
            assert loaded[doc_id].dtype == v.dtype
            assert loaded[doc_id].tobytes() == v.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda d: st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d),
                min_size=1,
                max_size=6,
            )
        )
    )
    @example([[5e-324, -5e-324, -0.0, 0.0, sys.float_info.max, -sys.float_info.max]])
    @example([[2.225073858507201e-308, sys.float_info.min, 0.1, 1 / 3, -1e-310]])
    def test_round_trip_is_bit_exact_for_any_finite_vector(self, tmp_path_factory, rows):
        """Subnormals, -0.0 and +-max survive the repr write and the numpy parse."""
        vectors = {f"d{i}": np.array(row, dtype=np.float64) for i, row in enumerate(rows)}
        path = tmp_path_factory.mktemp("emb") / "emb.tsv"
        save_embeddings(vectors, path)
        loaded = load_embeddings(path)
        assert list(loaded) == list(vectors)
        for doc_id, v in vectors.items():
            assert loaded[doc_id].tobytes() == v.tobytes()
