import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossmodal import corpus
from crossmodal.corpus import (
    Caption,
    FeatureStore,
    ImageRecord,
    atomic_write,
    generate_synthetic_corpus,
    load_captions,
    load_image_features,
    load_word_embeddings,
    split_dataset,
    write_captions,
    write_features,
)
from crossmodal.errors import CorpusFormatError
from crossmodal.ranker import EpochStats, TrainHistory, cosine_score, write_history

from oracles import oracle_load_word_embeddings, oracle_vector_rows


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

    def test_blank_lines_skipped(self, tmp_path):
        lines = caption_lines(["a"]).splitlines(keepends=True)
        path = write(tmp_path, "c.tsv", "\n" + "".join(lines[:2]) + "\n\n" + "".join(lines[2:]) + "\n")
        assert load_captions(path) == load_captions(write(tmp_path, "plain.tsv", "".join(lines)))


class TestTextLines:
    def test_bad_byte_past_the_first_read_names_its_line(self, tmp_path):
        # about 30 KB: the bad byte sits past the first chunk a text file reads
        lines = caption_lines([f"img{i:03d}" for i in range(150)]).encode().splitlines(keepends=True)
        lines[400] = lines[400].replace(b"some", b"so\xffme")
        path = tmp_path / "c.tsv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}:401: not valid UTF-8")):
            load_captions(str(path))

    def test_utf8_and_crlf_read_as_text_mode_reads_them(self, tmp_path):
        content = caption_lines(["café", "b"])
        want = load_captions(write(tmp_path, "lf.tsv", content))
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(content.replace("\n", "\r\n").encode("utf-8"))
        got = load_captions(str(crlf))
        assert [(c.image_id, c.caption_index, c.text) for c in got] == [
            (c.image_id, c.caption_index, c.text) for c in want
        ]
        assert got[0].image_id == "café"


class TestAtomicWrite:
    def boom(self):
        raise OSError("disk full")

    @pytest.mark.parametrize("writer", ["atomic_write", "write_history"])
    def test_failed_write_keeps_previous_file(self, tmp_path, writer):
        path = tmp_path / "out.tsv"
        write_history(TrainHistory([EpochStats(1, 0.1, 50.0, 40.0)], 1), str(path))
        before = path.read_bytes()
        with pytest.raises(OSError, match="disk full"):
            if writer == "atomic_write":
                with atomic_write(str(path)) as fh:
                    fh.write("half a file")
                    self.boom()
            else:
                # the second row's lr fails to format after the first row is written
                bad_lr = type("BadFloat", (), {"__repr__": lambda _: self.boom()})()
                rows = [EpochStats(1, 0.2, 30.0, 20.0), EpochStats(2, bad_lr, 10.0, 5.0)]
                write_history(TrainHistory(rows, 2), str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.tsv"]

    @pytest.mark.parametrize("writer", ["write_captions", "write_features"])
    def test_failed_corpus_write_leaves_nothing(self, tmp_path, writer):
        path = tmp_path / "out.txt"
        # the second row fails to format after the first row is written
        bad_text = type("BadText", (), {"__format__": lambda _, spec: self.boom()})()
        bad_value = type("BadValue", (), {"__float__": lambda _: self.boom()})()
        if writer == "write_captions":
            write = lambda second: write_captions([Caption("a", 0, "x y"), Caption("b", 0, second)], str(path))
            good, bad, expected = "z", bad_text, "a\t0\tx y\nb\t0\tz\n"
        else:
            write = lambda second: write_features(
                [ImageRecord("a", [0.1, -0.0]), ImageRecord("b", [5e-324, second])], 2, str(path)
            )
            good, bad, expected = 1.0, bad_value, "2 2\na 0.1 -0.0\nb 5e-324 1.0\n"
        with pytest.raises(OSError, match="disk full"):
            write(bad)
        assert list(tmp_path.iterdir()) == []
        write(good)
        assert path.read_bytes() == expected.encode("utf-8")


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

    @pytest.mark.parametrize("values", ["1e300 0", "1e200 1e200", "-1.7976931348623157e308 1"])
    def test_overflowing_squared_norm_rejected(self, tmp_path, values):
        """Finite values whose squared norm is not; refused with no RuntimeWarning
        (pytest turns warnings into errors)."""
        path = write(tmp_path, "f.txt", f"2 2\nimg1 1 2\nimg2 {values}\n")
        message = f"{path}: image 'img2': non-finite feature value or squared norm"
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(message)}$"):
            load_image_features(path)
        with pytest.raises(CorpusFormatError, match="^image 'img2': non-finite feature value or squared norm$"):
            FeatureStore([ImageRecord("img2", np.array([float(v) for v in values.split()]))], 2)

    def test_large_finite_squared_norm_accepted(self, tmp_path):
        path = write(tmp_path, "f.txt", "1 2\nimg1 1e153 1e153\n")
        assert load_image_features(path).get("img1")[0] == 1e153

    def test_duplicate_id_rejected(self, tmp_path):
        path = write(tmp_path, "f.txt", "2 2\nimg1 1 2\nimg1 3 4\n")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(path)}: duplicate image_id 'img1'$"):
            load_image_features(path)

    @pytest.mark.parametrize("header", ["-1 2", "1 0", "1 -2"])
    def test_header_values_out_of_range_rejected(self, tmp_path, header):
        path = write(tmp_path, "f.txt", f"{header}\nimg1 1 2\n")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(path)}:1: invalid header values "):
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

    def test_strict_refuses_an_uncaptioned_image(self):
        images = make_images(3)
        captions = [Caption(image_id, j, "x") for image_id in ("img000", "img002") for j in range(5)]
        with pytest.raises(CorpusFormatError, match="^image 'img001' has 0 captions, expected 5$"):
            split_dataset(images, captions, 1, 0.5, 0, strict=True)
        assert split_dataset(images, captions, 1, 0.5, 0).test == split_dataset(images, [], 1, 0.5, 0).test

    def test_unknown_subset_refused(self):
        split = split_dataset(make_images(10), [], 2, 0.2, seed=0)
        assert [split.subset(name) for name in ("train", "val", "test")] == [split.train, split.val, split.test]
        with pytest.raises(ValueError, match="unknown split 'seed'"):
            split.subset("seed")


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

    def test_duplicate_word_refused(self, tmp_path):
        path = write(tmp_path, "e.txt", "dog 1 2\ncat 3 4\ndog 3 4\n")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(path)}: duplicate word 'dog'$"):
            load_word_embeddings(path)


# finite values float() reads, some of which np.loadtxt refuses (1_0, Arabic-Indic one)
GOOD_VALUES = ["-0.0", "5e-324", "1.7976931348623157e308", "1_0", "\u0661"]
BAD_VALUES = ["nan", "inf", "1e400", "x"]
DEFECTS = ["bad_value", "short", "long", "bare_name", "not_utf8"]


@st.composite
def vector_files(draw):
    """(kind, file bytes): rows of one width, a few defects, mixed whitespace.
    Every row after the first can be one value too long, a whole block of them."""
    kind = draw(st.sampled_from(["features", "embeddings"]))
    dim = draw(st.integers(1, 5))
    extra = draw(st.sampled_from([0, 0, 0, 1]))
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(GOOD_VALUES))
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    ending = st.sampled_from(["\n", "\r\n"])

    def row(values):
        parts = [draw(st.sampled_from(["a", "b", "img1", "w", "7"]))] + values
        text = draw(st.sampled_from(["", " ", "\t"])) + "".join(p + draw(sep) for p in parts[:-1]) + parts[-1]
        return (text + draw(st.sampled_from(["", " "])) + draw(ending)).encode("utf-8")

    lines = []
    for i in range(draw(st.integers(0, 12))):
        lines.append(row([draw(value) for _ in range(dim + (extra if i else 0))]))
        if draw(st.integers(0, 4)) == 0:
            lines.append((draw(st.sampled_from(["", " ", "\t", " \t "])) + draw(ending)).encode("utf-8"))
    for _ in range(draw(st.integers(0, 2))):
        defect = draw(st.sampled_from(DEFECTS))
        values = [draw(value) for _ in range(dim)]
        if defect == "bad_value":
            values[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(BAD_VALUES))
        elif defect == "short":
            values = values[:-1] or values + values
        elif defect == "long":
            values.append(draw(value))
        elif defect == "bare_name":
            values = []
        line = b"\xff 1\n" if defect == "not_utf8" else row(values)
        lines.insert(draw(st.integers(0, len(lines))), line)
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip(b"\r\n")
    body = b"".join(lines)
    if kind == "features":
        rows = sum(1 for line in lines if line.strip())
        body = f"{rows} {dim}\n".encode("ascii") + body
    return kind, body


def load_outcome(kind, path, load_embeddings=load_word_embeddings):
    """What a loader returns, as its dim, names and float64 bytes, or its
    error message, with the warnings it gave either way."""
    load = load_image_features if kind == "features" else load_embeddings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = load(path)
        except CorpusFormatError as exc:
            result = ("error", str(exc))
        else:
            if kind == "features":
                dim, items = got.feature_dim, [(i, got.get(i)) for i in got.ids()]
            else:
                dim, items = got.dim, list(got.vectors.items())
            for _, vec in items:
                assert vec.dtype == np.float64 and vec.flags.c_contiguous and vec.flags.aligned
            result = ("ok", dim, [(name, vec.shape, vec.tobytes()) for name, vec in items])
    return result, [str(w.message) for w in caught]


def oracle_outcome(kind, path):
    """``load_outcome`` through the row-by-row parser, and for embeddings
    the loader whose first row set ``dim`` inside that parser."""
    with mock.patch.object(corpus, "_vector_rows", oracle_vector_rows):
        return load_outcome(kind, path, oracle_load_word_embeddings)


class TestVectorRows:
    @settings(max_examples=300, deadline=None)
    @given(vector_files(), st.integers(1, 12))
    def test_loaders_match_row_by_row_oracle(self, tmp_path_factory, case, block_values):
        kind, body = case
        path = tmp_path_factory.mktemp("rows") / "vectors.txt"
        path.write_bytes(body)
        with mock.patch.object(corpus, "ROW_BLOCK_VALUES", block_values):
            got = load_outcome(kind, str(path))
        assert got == oracle_outcome(kind, str(path))

    @pytest.mark.parametrize(
        "body, error",
        [
            (b"", ": no embeddings found"),
            (b"\n \n\t\r\n", ": no embeddings found"),
            (b"\n dog\ncat 1 2\n", ":2: 'dog' has 0 values, expected at least 1"),
            (b"\n\xff 1\ndog 1 2\n", ":2: not valid UTF-8"),
        ],
        ids=["empty", "blank_lines", "bare_first_word", "not_utf8_before_first_row"],
    )
    def test_embeddings_before_the_first_row_match_oracle(self, tmp_path, body, error):
        path = tmp_path / "e.txt"
        path.write_bytes(body)
        got = load_outcome("embeddings", str(path))
        assert got == (("error", f"{path}{error}"), [])
        assert got == oracle_outcome("embeddings", str(path))

    @pytest.mark.parametrize("late", ["0.25", "1_0", "nan", "0.25 0.5"])
    def test_paper_width_rows_across_blocks_match_oracle(self, tmp_path, late):
        # 40 rows of 4096 values span three blocks; row 37 is in the last one
        rng = np.random.default_rng(3)
        rows = [f"img{i} " + " ".join(map(repr, rng.normal(size=4096).tolist())) for i in range(40)]
        rows[36] = rows[36].rsplit(" ", 1)[0] + " " + late
        path = write(tmp_path, "f.txt", "40 4096\n" + "\n".join(rows) + "\n")
        assert load_outcome("features", path) == oracle_outcome("features", path)

    def test_rows_before_an_unreadable_line_come_first(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_bytes(b"dog 1 2\ncat 3 x\n\xff 4\n")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:2: 'cat' has a non-numeric"):
            load_word_embeddings(str(path))

    @pytest.mark.parametrize("dim", [4096, 300])
    def test_reads_at_most_one_block_ahead(self, dim):
        block_rows = corpus.ROW_BLOCK_VALUES // dim
        consumed = 0

        def lines(first=None):
            nonlocal consumed
            consumed = 0
            for i in range(3 * block_rows + 5):
                consumed += 1
                yield i + 1, first if i == 0 and first else f"r{i} " + " ".join(["0.5"] * dim) + "\n"

        for n, (name, vec) in enumerate(corpus._vector_rows("v.txt", lines(), dim), start=1):
            assert consumed <= n - 1 + block_rows
            assert vec.shape == (dim,)
        assert n == consumed == 3 * block_rows + 5
        # a bare first word gives embeddings dim 0, and fails before the next line is read
        with mock.patch.object(corpus, "text_lines", lambda path: lines(first="bare\n")):
            with pytest.raises(CorpusFormatError, match="^v.txt:1: 'bare' has 0 values, expected at least 1$"):
                load_word_embeddings("v.txt")
        assert consumed == 1


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
