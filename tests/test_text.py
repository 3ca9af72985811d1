import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossmodal.corpus import Caption
from crossmodal.errors import VocabularyError
from crossmodal.text import (
    MODES,
    SparseVector,
    TokenSequence,
    Vocabulary,
    build_vocabulary,
    encode_caption,
    encode_sequence,
    extract_terms,
    featurize,
    load_vocabulary,
    normalize_tokenize,
    save_vocabulary,
    vocabulary_text,
)

from oracles import oracle_load_vocabulary, oracle_vocab_digest, oracle_vocabulary_text


class TestNormalizeTokenize:
    def test_lowercase_punctuation_articles(self):
        assert normalize_tokenize("A man, riding THE bike!") == ["man", "riding", "bike"]

    def test_empty(self):
        assert normalize_tokenize("") == []

    def test_alphanumeric_joined_token_survives(self):
        assert normalize_tokenize("An0ther a an the") == ["an0ther"]

    def test_underscore_splits(self):
        assert normalize_tokenize("man_riding") == ["man", "riding"]

    @given(st.text(max_size=80))
    def test_idempotent_on_rejoined_output(self, text):
        tokens = normalize_tokenize(text)
        assert normalize_tokenize(" ".join(tokens)) == tokens


class TestExtractTerms:
    def test_unigram_passthrough(self):
        assert extract_terms(["man", "riding", "bike"], "unigram") == ["man", "riding", "bike"]

    def test_bigram(self):
        assert extract_terms(["man", "riding", "bike"], "bigram") == ["man_riding", "riding_bike"]

    def test_trigram(self):
        assert extract_terms(["man", "riding", "bike"], "trigram") == ["man_riding_bike"]

    def test_trigram_skip_four_tokens(self):
        terms = extract_terms(["a1", "a2", "a3", "a4"], "trigram_skip")
        assert sorted(terms) == sorted(["a1_a2_a3", "a2_a3_a4", "a1_a3_a4*", "a1_a2_a4*"])

    def test_short_sequence_fallback(self):
        assert extract_terms(["only", "two"], "trigram") == ["only_two"]
        assert extract_terms(["one"], "bigram") == ["one"]
        assert extract_terms([], "trigram_skip") == []

    def test_trigram_skip_three_tokens_has_no_skips(self):
        assert extract_terms(["x", "y", "z"], "trigram_skip") == ["x_y_z"]

    @given(st.lists(st.sampled_from("abcde"), min_size=2, max_size=30))
    def test_bigram_count(self, tokens):
        assert len(extract_terms(tokens, "bigram")) == len(tokens) - 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            extract_terms(["a"], "fourgram")


def caps(texts):
    return [Caption(f"img{i}", i % 5, t) for i, t in enumerate(texts)]


class TestBuildVocabulary:
    def test_single_survivor(self):
        vocab = build_vocabulary(caps(["dog runs", "dog sits", "dog"]), "unigram", max_size=1)
        assert vocab.term_to_index == {"dog": 0}
        assert vocab.doc_freq == {"dog": 3}
        assert vocab.n_docs == 3

    def test_tie_at_boundary_prefers_lexicographic(self):
        vocab = build_vocabulary(caps(["zebra apple", "zebra apple", "zebra"]), "unigram", 2)
        # zebra count 3 beats apple count 2; at size 2 both fit; order by count then term
        assert vocab.term_to_index == {"zebra": 0, "apple": 1}
        vocab = build_vocabulary(caps(["beta alpha"]), "unigram", 1)
        assert vocab.term_to_index == {"alpha": 0}

    def test_max_size_saturates(self):
        vocab = build_vocabulary(caps(["x y z"]), "unigram", 100)
        assert vocab.size == 3

    def test_deterministic(self):
        texts = ["dog runs fast", "cat naps", "dog naps", "bird sings loud"]
        a = build_vocabulary(caps(texts), "bigram", 5)
        b = build_vocabulary(caps(texts), "bigram", 5)
        assert a.term_to_index == b.term_to_index

    def test_zero_terms_rejected(self):
        with pytest.raises(VocabularyError):
            build_vocabulary(caps(["...", "!!"]), "unigram", 10)


def toy_vocab():
    return Vocabulary(
        mode="unigram",
        term_to_index={"dog": 0, "runs": 1},
        doc_freq={"dog": 10, "runs": 2},
        n_docs=10,
    )


class TestFeaturize:
    def test_tfidf_matches_formula(self):
        vec = featurize(["dog", "dog", "runs"], toy_vocab(), "tfidf")
        np.testing.assert_array_equal(vec.indices, [0, 1])
        assert vec.values[0] == 0.0  # df == n_docs gives idf ln(1) = 0
        assert vec.values[1] == pytest.approx((1 / 3) * math.log(10 / 2), abs=1e-15)

    def test_binary_presence_collapse(self):
        vec = featurize(["dog", "dog", "runs"], toy_vocab(), "binary")
        np.testing.assert_array_equal(vec.indices, [0, 1])
        np.testing.assert_array_equal(vec.values, [1.0, 1.0])

    def test_all_oov_empty(self):
        vec = featurize(["zzz", "qqq"], toy_vocab(), "binary")
        assert len(vec) == 0

    def test_ubiquitous_term_tfidf_zero(self):
        vocab = build_vocabulary(caps(["dog runs", "dog sits", "dog naps"]), "unigram", 10)
        for text in ("dog runs", "dog sits", "dog naps"):
            vec = featurize(text.split(), vocab, "tfidf")
            dog_pos = list(vec.indices).index(vocab.term_to_index["dog"])
            assert vec.values[dog_pos] == 0.0

    @given(st.lists(st.sampled_from(["dog", "runs", "oov1", "oov2"]), max_size=20))
    def test_binary_values_and_sorted_indices(self, tokens):
        vec = featurize(tokens, toy_vocab(), "binary")
        assert all(v == 1.0 for v in vec.values)
        assert all(a < b for a, b in zip(vec.indices, vec.indices[1:]))

    def test_unknown_weighting(self):
        with pytest.raises(ValueError):
            featurize(["dog"], toy_vocab(), "counts")


class TestEncodeSequence:
    def test_in_order_mapping(self):
        vocab = Vocabulary("unigram", {"man": 5, "riding": 9, "bike": 2}, {}, 1)
        seq = encode_sequence(["man", "riding", "bike"], vocab)
        assert list(seq.indices) == [5, 9, 2]

    def test_oov_dropped(self):
        vocab = Vocabulary("unigram", {"man": 5, "bike": 2}, {}, 1)
        assert list(encode_sequence(["man", "zzz", "bike"], vocab).indices) == [5, 2]

    def test_all_oov_is_empty(self):
        vocab = Vocabulary("unigram", {"man": 0}, {}, 1)
        seq = encode_sequence(["zzz"], vocab)
        assert isinstance(seq, TokenSequence) and len(seq) == 0

    def test_requires_unigram(self):
        vocab = Vocabulary("bigram", {"a_b": 0}, {}, 1)
        with pytest.raises(ValueError):
            encode_sequence(["a", "b"], vocab)


class TestEncodeCaption:
    @pytest.mark.parametrize("kind, cls", [("bag", SparseVector), ("sequence", TokenSequence)])
    def test_kinds(self, kind, cls):
        enc = encode_caption("The dog, zzz RUNS", toy_vocab(), kind, "binary")
        assert isinstance(enc, cls) and list(enc.indices) == [0, 1]

    @pytest.mark.parametrize("kind", ["bag", "sequence"])
    @pytest.mark.parametrize("tokens", [["zzz", "qqq"], []])
    def test_no_known_term_is_none(self, kind, tokens):
        assert encode_caption(" ".join(tokens), toy_vocab(), kind, "tfidf") is None

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="unknown textual kind 'sse'"):
            encode_caption("dog", toy_vocab(), "sse", "binary")


class TestVocabularySerialization:
    def test_round_trip(self, tmp_path):
        texts = ["dog runs fast", "cat naps", "dog naps here", "bird sings"]
        vocab = build_vocabulary(caps(texts), "bigram", 6)
        path = str(tmp_path / "vocab.tsv")
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.mode == vocab.mode
        assert loaded.term_to_index == vocab.term_to_index
        assert loaded.doc_freq == vocab.doc_freq
        assert loaded.n_docs == vocab.n_docs

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_loader_matches_row_by_row_oracle(self, tmp_path_factory, data):
        """Edited vocab.tsv files load to equal vocabularies, with equal text and
        digests, or fail with the same message. One exception: a header whose
        mode is unknown and whose counts are not integers now names the counts."""
        vocab = build_vocabulary(caps(["dog runs fast", "cat naps", "dog naps here"]), "unigram", 6)
        rows = [vocabulary_text(vocab).split("\n")[0].split(" ")] + [
            line.split("\t") for line in vocabulary_text(vocab).splitlines()[1:]]
        tokens = ["0", "1", "2", "3", "5", "-1", "99", "x", "1.5", "", "dog", "cat", "unigram",
                  "bigram", "pentagram", "\t", " "]
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(rows) - 1)) if rows else 0
            kind = data.draw(st.sampled_from(["field", "delete", "repeat", "blank"]))
            if kind == "field" and rows:
                rows[i][data.draw(st.integers(0, len(rows[i]) - 1))] = data.draw(st.sampled_from(tokens))
            elif kind == "delete" and rows:
                del rows[i]
            elif kind == "repeat" and rows:
                rows.insert(i, list(rows[i]))
            else:
                rows.insert(i, [""])
        text = "".join((" " if i == 0 else "\t").join(r) + "\n" for i, r in enumerate(rows))
        path = tmp_path_factory.mktemp("vocab") / "vocab.tsv"
        path.write_text(text)
        try:
            expected = oracle_load_vocabulary(str(path))
        except VocabularyError as exc:
            with pytest.raises(VocabularyError) as got:
                load_vocabulary(str(path))
            header = text.split("\n")[0].split()
            unknown_mode_and_bad_counts = (len(header) == 3 and header[0] not in MODES
                                           and not all(re.fullmatch(r"-?\d+", f) for f in header[1:]))
            if unknown_mode_and_bad_counts:
                assert "expected integers" in str(got.value)
            else:
                assert str(got.value) == str(exc)
            return
        loaded = load_vocabulary(str(path))
        assert loaded == expected
        assert vocabulary_text(loaded) == oracle_vocabulary_text(expected)
        assert loaded.digest == oracle_vocab_digest(expected)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("pentagram 3 5\n")
        with pytest.raises(VocabularyError):
            load_vocabulary(str(path))


def test_featurize_deterministic_fuzz():
    rng = random.Random(0)
    words = [f"w{i}" for i in range(30)]
    vocab = build_vocabulary(
        caps([" ".join(rng.choices(words, k=rng.randint(3, 9))) for _ in range(40)]),
        "unigram",
        20,
    )
    for _ in range(50):
        tokens = rng.choices(words, k=rng.randint(1, 12))
        a = featurize(tokens, vocab, "tfidf")
        b = featurize(tokens, vocab, "tfidf")
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)
