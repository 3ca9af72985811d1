import re

import numpy as np
import pytest

from crossmodal.corpus import (
    Caption,
    FeatureStore,
    ImageRecord,
    generate_synthetic_corpus,
    load_captions,
    load_image_features,
    load_word_embeddings,
    split_dataset,
    write_captions,
    write_features,
)
from crossmodal.errors import CorpusFormatError
from crossmodal.ranker import cosine_score


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


def caption_lines(image_ids, n=5):
    lines = []
    for img in image_ids:
        for j in range(n):
            lines.append(f"{img}\t{j}\tsome caption {j} for {img}")
    return "\n".join(lines) + "\n"


class TestLoadCaptions:
    def test_two_images_five_each(self, tmp_path):
        path = write(tmp_path, "c.tsv", caption_lines(["a", "b"]))
        caps = load_captions(path)
        assert len(caps) == 10
        assert len({c.image_id for c in caps}) == 2

    def test_strict_rejects_four_captions(self, tmp_path):
        content = caption_lines(["a"]) + "b\t0\tx\nb\t1\tx\nb\t2\tx\nb\t3\tx\n"
        path = write(tmp_path, "c.tsv", content)
        with pytest.raises(CorpusFormatError, match="'b'"):
            load_captions(path, strict=True)
        assert len(load_captions(path, strict=False)) == 9

    def test_empty_file(self, tmp_path):
        assert load_captions(write(tmp_path, "c.tsv", "")) == []

    def test_malformed_line_reports_number(self, tmp_path):
        path = write(tmp_path, "c.tsv", "a\t0\tx\nbroken line\n")
        with pytest.raises(CorpusFormatError, match=":2"):
            load_captions(path, strict=False)

    def test_duplicate_index_rejected(self, tmp_path):
        path = write(tmp_path, "c.tsv", "a\t0\tx\na\t0\ty\n")
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_captions(path, strict=False)

    def test_out_of_range_index_rejected(self, tmp_path):
        path = write(tmp_path, "c.tsv", "a\t5\tx\n")
        with pytest.raises(CorpusFormatError, match="outside"):
            load_captions(path, strict=False)


class TestLoadImageFeatures:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path, "f.txt", "2 4\nimg1 1 2 3 4\nimg2 0.5 -1 2.25 0\n")
        store = load_image_features(path)
        assert len(store) == 2
        assert store.feature_dim == 4
        np.testing.assert_array_equal(store.get("img1"), [1, 2, 3, 4])

    def test_short_row_names_image(self, tmp_path):
        path = write(tmp_path, "f.txt", "1 4\nimg1 1 2 3\n")
        with pytest.raises(CorpusFormatError, match="img1"):
            load_image_features(path)

    def test_nan_rejected(self, tmp_path):
        path = write(tmp_path, "f.txt", "1 4\nimg1 1 NaN 3 4\n")
        with pytest.raises(CorpusFormatError, match="non-finite"):
            load_image_features(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = write(tmp_path, "f.txt", "2 2\nimg1 1 2\nimg1 3 4\n")
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_image_features(path)

    def test_count_mismatch_rejected(self, tmp_path):
        path = write(tmp_path, "f.txt", "3 2\nimg1 1 2\n")
        with pytest.raises(CorpusFormatError, match="declares 3"):
            load_image_features(path)


def make_images(n, dim=4):
    return [ImageRecord(f"img{i:03d}", np.zeros(dim)) for i in range(n)]


class TestSplitDataset:
    def test_counts_round_half_up(self):
        images = make_images(100)
        split = split_dataset(images, [], n_test=10, val_frac=0.05, seed=7)
        # round-half-up on 0.05 * 90 = 4.5 gives 5
        assert (len(split.test), len(split.val), len(split.train)) == (10, 5, 85)

    def test_deterministic(self):
        images = make_images(30)
        a = split_dataset(images, [], 5, 0.1, seed=11)
        b = split_dataset(images, [], 5, 0.1, seed=11)
        assert (a.train, a.val, a.test) == (b.train, b.val, b.test)

    def test_n_test_too_large(self):
        with pytest.raises(ValueError):
            split_dataset(make_images(10), [], 10, 0.05, seed=0)

    def test_partition_property_over_seeds(self):
        images = make_images(50)
        all_ids = {r.image_id for r in images}
        for seed in range(100):
            split = split_dataset(images, [], 7, 0.1, seed=seed)
            assert split.train | split.val | split.test == all_ids
            assert not (split.train & split.val)
            assert not (split.train & split.test)
            assert not (split.val & split.test)

    def test_caption_with_unknown_image_rejected(self):
        with pytest.raises(CorpusFormatError, match="ghost"):
            split_dataset(make_images(5), [Caption("ghost", 0, "x")], 2, 0.2, seed=0)


class TestLoadWordEmbeddings:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "e.txt", "dog 1 2 3\ncat 4 5 6\nrun 0 0 1\n")
        emb = load_word_embeddings(path)
        assert emb.dim == 3
        assert len(emb.vectors) == 3
        np.testing.assert_array_equal(emb.vectors["cat"], [4, 5, 6])

    def test_inconsistent_length_names_word(self, tmp_path):
        path = write(tmp_path, "e.txt", "dog 1 2 3\ncat 4 5\n")
        with pytest.raises(CorpusFormatError, match="cat"):
            load_word_embeddings(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "two"])
    def test_bad_value_names_line(self, tmp_path, value):
        path = write(tmp_path, "e.txt", f"dog 1 2\ncat 3 {value}\n")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(path)}:2: 'cat'"):
            load_word_embeddings(path)

    def test_duplicate_keeps_first_and_warns(self, tmp_path):
        path = write(tmp_path, "e.txt", "dog 1 2\ndog 3 4\n")
        with pytest.warns(UserWarning, match="dog") as rec:
            emb = load_word_embeddings(path)
        assert len(rec) == 1
        np.testing.assert_array_equal(emb.vectors["dog"], [1, 2])


class TestSyntheticCorpus:
    def test_counts_and_zero_noise_identity(self):
        images, captions = generate_synthetic_corpus(4, 5, 8, 6, noise_sigma=0.0, seed=1)
        assert len(images) == 20
        assert len(captions) == 100
        by_cluster = {}
        for rec in images:
            by_cluster.setdefault(rec.image_id[:2], []).append(rec.features)
        for vecs in by_cluster.values():
            base = vecs[0]
            for v in vecs[1:]:
                assert cosine_score(base, v) == 1.0

    def test_deterministic(self):
        a = generate_synthetic_corpus(3, 4, 8, 5, 0.2, seed=9)
        b = generate_synthetic_corpus(3, 4, 8, 5, 0.2, seed=9)
        for ra, rb in zip(a[0], b[0]):
            assert ra.image_id == rb.image_id
            np.testing.assert_array_equal(ra.features, rb.features)
        assert [(c.image_id, c.caption_index, c.text) for c in a[1]] == [
            (c.image_id, c.caption_index, c.text) for c in b[1]
        ]

    def test_cluster_token_disjointness(self):
        _, captions = generate_synthetic_corpus(4, 3, 8, 6, 0.1, seed=2)
        tokens_by_cluster = {}
        for cap in captions:
            cluster = cap.image_id[:2]
            tokens_by_cluster.setdefault(cluster, set()).update(cap.text.split())
        clusters = sorted(tokens_by_cluster)
        for i, a in enumerate(clusters):
            for b in clusters[i + 1 :]:
                assert not (tokens_by_cluster[a] & tokens_by_cluster[b])

    def test_caption_lengths(self):
        _, captions = generate_synthetic_corpus(2, 10, 4, 8, 0.0, seed=5)
        assert all(4 <= len(c.text.split()) <= 8 for c in captions)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(0, 5, 8, 6, 0.0, seed=1)
        with pytest.raises(ValueError):
            generate_synthetic_corpus(2, 5, 8, 6, -0.1, seed=1)


class TestRoundTrips:
    def test_corpus_files_round_trip(self, tmp_path):
        images, captions = generate_synthetic_corpus(3, 4, 6, 5, 0.3, seed=4)
        cpath = str(tmp_path / "captions.tsv")
        fpath = str(tmp_path / "features.txt")
        write_captions(captions, cpath)
        write_features(images, 6, fpath)
        caps2 = load_captions(cpath)
        store = load_image_features(fpath)
        assert [(c.image_id, c.caption_index, c.text) for c in caps2] == [
            (c.image_id, c.caption_index, c.text) for c in captions
        ]
        for rec in images:
            np.testing.assert_array_equal(store.get(rec.image_id), rec.features)

    def test_feature_store_rejects_wrong_dim(self):
        with pytest.raises(CorpusFormatError):
            FeatureStore([ImageRecord("a", np.zeros(3))], feature_dim=4)
