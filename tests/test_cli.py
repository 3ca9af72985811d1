import json
import os
import re
import shlex
from pathlib import Path

import pytest

from crossmodal.checkpoint import load_checkpoint, save_checkpoint
from crossmodal.cli import build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def corpus(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc, _, _ = run(
        capsys,
        "synth", "--out", str(out),
        "--clusters", "3", "--images-per-cluster", "4",
        "--feature-dim", "8", "--vocab-per-cluster", "6", "--seed", "3",
    )
    assert rc == 0
    return out


@pytest.fixture
def prepped(tmp_path, corpus, capsys):
    out = tmp_path / "prep"
    rc, _, _ = run(
        capsys,
        "preprocess", "--captions", str(corpus / "captions.tsv"),
        "--mode", "unigram", "--max-size", "5000", "--out", str(out),
    )
    assert rc == 0
    return out


def train_args(corpus, prepped, out, *extra):
    return [
        "train",
        "--captions", str(corpus / "captions.tsv"),
        "--features", str(corpus / "features.txt"),
        "--vocab", str(prepped / "vocab.tsv"),
        "--out", str(out),
        "--epochs", "2", "--n-test", "3", "--val-frac", "0.25",
        "--n-emb", "8", "--val-pairs", "100",
        *extra,
    ]


@pytest.fixture
def trained(tmp_path, corpus, prepped, capsys):
    out = tmp_path / "run"
    rc, _, err = run(capsys, *train_args(corpus, prepped, out))
    assert rc == 0, err
    return out


class TestSynthAndPreprocess:
    def test_synth_outputs_load(self, corpus):
        assert (corpus / "captions.tsv").exists()
        assert (corpus / "features.txt").exists()

    def test_synth_deterministic_bytes(self, tmp_path, capsys):
        args = ["synth", "--clusters", "2", "--images-per-cluster", "3",
                "--feature-dim", "6", "--vocab-per-cluster", "5", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        for name in ("captions.tsv", "features.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_preprocess_idempotent(self, tmp_path, corpus, capsys):
        args = ["preprocess", "--captions", str(corpus / "captions.tsv"),
                "--mode", "2g", "--max-size", "50"]
        a, b = tmp_path / "p1", tmp_path / "p2"
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert (a / "vocab.tsv").read_bytes() == (b / "vocab.tsv").read_bytes()

    def test_non_utf8_captions_fail_before_writing(self, tmp_path, corpus, capsys):
        text = (corpus / "captions.tsv").read_bytes()
        bad = tmp_path / "captions.tsv"
        bad.write_bytes(text + b"\xff\xfe")
        out = tmp_path / "prep"
        rc, _, err = run(capsys, "preprocess", "--captions", str(bad), "--out", str(out))
        assert rc != 0
        line = text.count(b"\n") + 1
        assert err == f"error CorpusFormatError: {bad}:{line}: not valid UTF-8\n"
        assert not (out / "vocab.tsv").exists()

    def test_vocab_respects_max_size(self, tmp_path, corpus, capsys):
        out = tmp_path / "prep5"
        rc, _, _ = run(capsys, "preprocess", "--captions", str(corpus / "captions.tsv"),
                       "--max-size", "5", "--out", str(out))
        assert rc == 0
        lines = (out / "vocab.tsv").read_text().splitlines()
        assert lines[0].split()[1] == "5"
        assert len(lines) == 6

    def test_single_cluster_corpus_is_valid(self, tmp_path, capsys):
        out = tmp_path / "flat"
        rc, _, _ = run(capsys, "synth", "--clusters", "1", "--images-per-cluster", "4",
                       "--feature-dim", "6", "--vocab-per-cluster", "5", "--out", str(out))
        assert rc == 0
        rc, _, _ = run(capsys, "preprocess", "--captions", str(out / "captions.tsv"),
                       "--out", str(tmp_path / "flatprep"))
        assert rc == 0

    def test_missing_captions_file(self, tmp_path, capsys):
        rc, _, err = run(capsys, "preprocess", "--captions", str(tmp_path / "nope.tsv"),
                         "--out", str(tmp_path / "p"))
        assert rc != 0
        assert "error" in err and "nope.tsv" in err


class TestTrain:
    def test_writes_artifacts(self, trained):
        for name in ("manifest.json", "checkpoint.bin", "history.tsv"):
            assert (trained / name).exists()

    def test_manifest_defaults_match_contract(self, trained):
        manifest = json.loads((trained / "manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["margin"] == 0.15
        assert cfg["lr"] == 0.001
        assert cfg["nonlinearity"] == "relu"
        assert cfg["lr_decay"] == "linear to 0.01 factor over 100 epochs"
        assert cfg["methodology"] == "I2T"
        assert cfg["weighting"] == "binary"
        assert manifest["inputs"]["captions"]["sha256"]

    def test_methodology_flag_recorded(self, tmp_path, corpus, prepped, capsys):
        out = tmp_path / "t2i_run"
        rc, _, _ = run(capsys, *train_args(corpus, prepped, out, "--methodology", "t2i"))
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["methodology"] == "T2I"

    def test_invalid_margin_fails_before_training(self, tmp_path, corpus, prepped, capsys):
        self.assert_fails_before_writing(tmp_path, corpus, prepped, capsys, "--margin", "0")

    @pytest.mark.parametrize(
        "bad",
        [
            ("--n-emb", "0"),
            ("--val-pairs", "0"),
            ("--epochs", "-2"),
            ("--n-test", "50"),  # the corpus has 12 images
            ("--n-test", "-1"),
            ("--val-frac", "0.01"),  # rounds to no validation image
            ("--textual", "sse", "--window", "0"),
            # 9 images after the test split: one validation image, then one training image
            ("--val-frac", "0.1"),
            ("--val-frac", "0.1", "--methodology", "t2i"),
            ("--val-frac", "0.9"),
            ("--val-frac", "0.9", "--methodology", "t2i"),
        ],
        ids=" ".join,
    )
    def test_invalid_value_fails_before_writing(self, tmp_path, corpus, prepped, capsys, bad):
        self.assert_fails_before_writing(tmp_path, corpus, prepped, capsys, *bad)

    @staticmethod
    def assert_fails_before_writing(tmp_path, corpus, prepped, capsys, *bad):
        out = tmp_path / "bad"
        rc, _, err = run(capsys, *train_args(corpus, prepped, out, *bad))
        assert rc != 0
        assert err.startswith("error ConfigError: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: rows[2].__setitem__(1, "0"),  # the first term's index
            lambda rows: rows[2].__setitem__(1, "99999"),
            lambda rows: rows[2].__setitem__(1, "-1"),
            lambda rows: rows[2].__setitem__(0, rows[1][0]),
            lambda rows: rows[0].__setitem__(1, "many"),
            lambda rows: rows[2].__setitem__(2, "1.5"),
            lambda rows: rows[2].__setitem__(2, "0"),
            lambda rows: rows[2].__setitem__(2, "-5"),
            lambda rows: rows[2].__setitem__(2, str(int(rows[0][2]) + 1)),  # n_docs + 1
        ],
        ids=["duplicate_index", "index_past_size", "negative_index", "duplicate_term",
             "non_integer_header", "non_integer_doc_freq", "zero_doc_freq", "negative_doc_freq",
             "doc_freq_past_n_docs"],
    )
    def test_bad_vocabulary_fails_before_writing(self, tmp_path, corpus, prepped, capsys, edit):
        lines = (prepped / "vocab.tsv").read_text().splitlines()
        rows = [lines[0].split(" ")] + [line.split("\t") for line in lines[1:]]
        edit(rows)
        vocab = tmp_path / "vocab.tsv"
        vocab.write_text("\n".join([" ".join(rows[0])] + ["\t".join(r) for r in rows[1:]]) + "\n")
        out = tmp_path / "bad"
        args = train_args(corpus, prepped, out)
        args[args.index("--vocab") + 1] = str(vocab)
        rc, _, err = run(capsys, *args)
        assert rc != 0
        assert err.startswith(f"error VocabularyError: {vocab}:") and err.count("\n") == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "flag, error",
        [("--captions", "CorpusFormatError"), ("--features", "CorpusFormatError"),
         ("--vocab", "VocabularyError"), ("--embeddings", "CorpusFormatError"),
         ("--config", "ConfigError")],
    )
    def test_non_utf8_input_fails_before_writing(self, tmp_path, corpus, prepped, capsys, flag, error):
        args = train_args(corpus, prepped, tmp_path / "bad")
        if flag in args:
            text = Path(args[args.index(flag) + 1]).read_bytes()
        else:
            text = b"c0w1 0.5 0.25\n" if flag == "--embeddings" else b"margin = 0.3\n"
            args += [flag, ""]
        bad = tmp_path / "input"
        bad.write_bytes(text + b"\xff\xfe")
        args[args.index(flag) + 1] = str(bad)
        rc, _, err = run(capsys, *args)
        assert rc != 0
        line = text.count(b"\n") + 1
        assert err == f"error {error}: {bad}:{line}: not valid UTF-8\n"
        assert not (tmp_path / "bad" / "manifest.json").exists()

    def test_config_file_and_flag_priority(self, tmp_path, corpus, prepped, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("margin = 0.3\nepochs = 2\nmethodology = t2i\n# comment\n")
        out = tmp_path / "cfgrun"
        rc, _, _ = run(capsys, *train_args(corpus, prepped, out, "--config", str(cfg),
                                           "--margin", "0.25"))
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["margin"] == 0.25  # flag beats config file
        assert manifest["config"]["methodology"] == "T2I"  # typed like the flag

    def test_unknown_config_key(self, tmp_path, corpus, prepped, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("momentum = 0.9\n")
        rc, _, err = run(capsys, *train_args(corpus, prepped, tmp_path / "x", "--config", str(cfg)))
        assert rc != 0 and "ConfigError" in err

    @pytest.mark.parametrize("line", ["epochs = many", "methodology = x2y", "textual = lstm"])
    def test_bad_config_value(self, tmp_path, corpus, prepped, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc, _, err = run(capsys, *train_args(corpus, prepped, tmp_path / "x", "--config", str(cfg)))
        assert rc != 0 and err.startswith("error ConfigError: ") and "run.cfg:1" in err

    def test_history_format(self, trained):
        lines = (trained / "history.tsv").read_text().splitlines()
        assert len(lines) == 2
        first = lines[0].split("\t")
        assert first[0] == "1" and float(first[1]) == 0.001

    def test_deterministic_reruns_bit_identical(self, tmp_path, corpus, prepped, capsys):
        a, b = tmp_path / "runA", tmp_path / "runB"
        assert run(capsys, *train_args(corpus, prepped, a))[0] == 0
        assert run(capsys, *train_args(corpus, prepped, b))[0] == 0
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        assert (a / "history.tsv").read_bytes() == (b / "history.tsv").read_bytes()
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()

    def test_pretrained_embeddings_seed_first_layer(self, tmp_path, corpus, prepped, capsys):
        emb_path = tmp_path / "emb.txt"
        emb_path.write_text("c0w1 " + " ".join(str(float(i)) for i in range(8)) + "\n")
        out = tmp_path / "emb_run"
        # zero epochs: the checkpoint holds the initialization untouched
        rc, _, err = run(capsys, *train_args(
            corpus, prepped, out, "--embeddings", str(emb_path), "--epochs", "0",
        ))
        assert rc == 0, err
        from crossmodal.checkpoint import load_checkpoint

        ckpt = load_checkpoint(str(out / "checkpoint.bin"))
        row = ckpt.vocabulary.term_to_index["c0w1"]
        assert list(ckpt.model.textual_net.params["w0"][row]) == [float(i) for i in range(8)]

    def test_pretrained_embeddings_dim_mismatch(self, tmp_path, corpus, prepped, capsys):
        emb_path = tmp_path / "emb.txt"
        emb_path.write_text("c0w1 1.0 2.0 3.0\n")
        rc, _, err = run(capsys, *train_args(
            corpus, prepped, tmp_path / "bad_emb", "--embeddings", str(emb_path),
        ))
        assert rc != 0 and "dim 3" in err

    def test_non_finite_embedding_fails_before_writing(self, tmp_path, corpus, prepped, capsys):
        emb_path = tmp_path / "emb.txt"
        emb_path.write_text("c0w1 nan" + " 1.0" * 7 + "\n")
        out = tmp_path / "nan_emb"
        rc, _, err = run(capsys, *train_args(corpus, prepped, out, "--embeddings", str(emb_path)))
        assert rc != 0
        assert err.startswith(f"error CorpusFormatError: {emb_path}:1:") and err.count("\n") == 1
        assert not (out / "manifest.json").exists()

    def test_sse_textual_model_trains(self, tmp_path, corpus, prepped, capsys):
        out = tmp_path / "sse_run"
        rc, _, err = run(capsys, *train_args(
            corpus, prepped, out, "--textual", "sse",
            "--word-dim", "6", "--kernels", "6", "--window", "3",
        ))
        assert rc == 0, err
        assert (out / "checkpoint.bin").exists()


class TestEvaluate:
    def test_reports_both_directions(self, tmp_path, corpus, trained, capsys):
        out = tmp_path / "eval"
        rc, stdout, _ = run(
            capsys, "evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
            "--captions", str(corpus / "captions.tsv"),
            "--features", str(corpus / "features.txt"),
            "--out", str(out),
        )
        assert rc == 0
        ann = (out / "report_annotation.txt").read_text()
        srch = (out / "report_search.txt").read_text()
        assert "any_txt" in ann and "rPrecision(5)" in ann
        assert "any_txt" not in srch and "rPrecision" not in srch
        for text in (ann, srch):
            assert "med r:" in text
            for k in (1, 2, 5, 10):
                assert f"k={k}" in text
        kv = (out / "report_annotation.kv").read_text()
        assert "recall.avg_txt.10=" in kv

    def test_matching_vocab_accepted(self, tmp_path, corpus, prepped, trained, capsys):
        out = tmp_path / "eval_ok"
        rc, _, _ = run(
            capsys, "evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
            "--captions", str(corpus / "captions.tsv"),
            "--features", str(corpus / "features.txt"),
            "--vocab", str(prepped / "vocab.tsv"),
            "--out", str(out),
        )
        assert rc == 0

    def test_mismatched_vocab_refused(self, tmp_path, corpus, trained, capsys):
        other = tmp_path / "othervocab"
        rc, _, _ = run(capsys, "preprocess", "--captions", str(corpus / "captions.tsv"),
                       "--mode", "2g", "--max-size", "10", "--out", str(other))
        assert rc == 0
        rc, _, err = run(
            capsys, "evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
            "--captions", str(corpus / "captions.tsv"),
            "--features", str(corpus / "features.txt"),
            "--vocab", str(other / "vocab.tsv"),
            "--out", str(tmp_path / "eval_bad"),
        )
        assert rc != 0 and "digest mismatch" in err


    def test_checkpoint_without_test_split_refused(self, tmp_path, corpus, trained, capsys):
        ckpt = load_checkpoint(str(trained / "checkpoint.bin"))
        bare = tmp_path / "bare.bin"
        save_checkpoint(str(bare), ckpt.model, ckpt.vocabulary, ckpt.train_config, ckpt.history)
        out = tmp_path / "eval_bare"
        rc, _, err = run(
            capsys, "evaluate", "--checkpoint", str(bare),
            # missing corpus files show that nothing is loaded after the checkpoint
            "--captions", str(tmp_path / "missing.tsv"),
            "--features", str(tmp_path / "missing.txt"),
            "--out", str(out),
        )
        assert rc != 0
        assert err.startswith("error ConfigError: ") and err.count("\n") == 1
        assert "n_test" in err
        assert not out.exists()

    def test_n_test_past_the_image_count_refused(self, tmp_path, corpus, trained, capsys):
        # the checkpoint holds out 3 test images; these features hold 2
        rows = (corpus / "features.txt").read_text().splitlines()
        features = tmp_path / "features.txt"
        features.write_text("\n".join([f"2 {rows[0].split()[1]}"] + rows[1:3]) + "\n")
        out = tmp_path / "eval_small"
        rc, stdout, err = run(
            capsys, "evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
            "--captions", str(corpus / "captions.tsv"),
            "--features", str(features), "--out", str(out),
        )
        assert rc != 0 and stdout == ""
        assert err == "error ConfigError: n_test=3 must be in [0, 2), the image count\n"
        assert not out.exists()

    @pytest.mark.parametrize("ks", ["0,1", "", "1,,5", "1,x", "-3"])
    def test_bad_ks_fail_before_loading(self, tmp_path, ks, capsys):
        out = tmp_path / "eval_ks"
        rc, stdout, err = run(
            capsys, "evaluate", "--checkpoint", str(tmp_path / "missing.bin"),
            "--captions", str(tmp_path / "missing.tsv"),
            "--features", str(tmp_path / "missing.txt"),
            "--ks", ks, "--out", str(out),
        )
        assert rc != 0 and stdout == ""
        assert err.startswith("error ConfigError: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unencodable_captions_reported(self, tmp_path, corpus, prepped, capsys):
        lines = (corpus / "captions.tsv").read_text().splitlines(keepends=True)
        image_id, index, _ = lines[0].split("\t")
        lines[0] = f"{image_id}\t{index}\tentirely unknown words\n"
        oov = tmp_path / "oov_captions.tsv"
        oov.write_text("".join(lines))
        out = tmp_path / "oov_run"
        args = train_args(corpus, prepped, out)
        args[args.index("--captions") + 1] = str(oov)
        rc, stdout, err = run(capsys, *args)
        assert rc == 0 and stdout == ""
        notice = "captions with no in-vocabulary term, not scored: 1\n"
        assert err.count(notice) == 1
        eval_args = [
            "evaluate", "--checkpoint", str(out / "checkpoint.bin"),
            "--features", str(corpus / "features.txt"),
        ]
        rc, stdout, err = run(capsys, *eval_args, "--captions", str(oov), "--out", str(tmp_path / "e1"))
        assert rc == 0 and err.count(notice) == 1
        assert notice not in stdout
        rc, _, err = run(
            capsys, *eval_args, "--captions", str(corpus / "captions.tsv"), "--out", str(tmp_path / "e2")
        )
        assert rc == 0 and "in-vocabulary" not in err

    def test_unscoreable_designated_captions(self, tmp_path, corpus, prepped, capsys):
        lines = []
        for line in (corpus / "captions.tsv").read_text().splitlines(keepends=True):
            image_id, index, _ = line.split("\t")
            lines.append(f"{image_id}\t{index}\tzzz qqq\n" if index == "2" else line)
        oov = tmp_path / "oov_captions.tsv"
        oov.write_text("".join(lines))
        out = tmp_path / "oov_run"
        args = train_args(corpus, prepped, out)
        args[args.index("--captions") + 1] = str(oov)
        args[args.index("--n-test") + 1] = "4"
        args[args.index("--val-frac") + 1] = "0.5"
        rc, _, err = run(capsys, *args)
        assert rc == 0, err
        rc, stdout, err = run(
            capsys, "evaluate", "--checkpoint", str(out / "checkpoint.bin"),
            "--captions", str(oov), "--features", str(corpus / "features.txt"),
            "--out", str(tmp_path / "eval"),
        )
        assert rc == 0, err
        assert "captions with no in-vocabulary term, not scored: 12\n" in err
        reports = {
            direction: dict(
                line.split("=", 1)
                for line in (tmp_path / "eval" / f"report_{direction}.kv").read_text().splitlines()
            )
            for direction in ("annotation", "search")
        }
        for kv in reports.values():
            # 4 test images: every scoreable designated caption is within
            # k=10, and caption #2 misses at every k
            assert float(kv["recall.first_txt.10"]) == 100.0
            assert float(kv["recall.avg_txt.10"]) == 80.0
            assert float(kv["recall.avg_txt.1"]) <= 80.0
            assert 1 <= int(kv["med_r"]) <= 4
        assert float(reports["annotation"]["r_precision_5"]) <= 80.0


class TestQuery:
    def test_sentence_query_finds_its_cluster(self, tmp_path, corpus, prepped, capsys):
        # T2I training optimizes exactly the image-ranking direction a
        # sentence query exercises
        out = tmp_path / "t2i_query_run"
        rc, _, err = run(capsys, *train_args(
            corpus, prepped, out,
            "--methodology", "t2i", "--epochs", "25", "--lr", "0.02",
        ))
        assert rc == 0, err
        for cluster in ("c0", "c1", "c2"):
            sentence = " ".join(f"{cluster}w{t}" for t in range(4))
            rc, stdout, _ = run(
                capsys, "query", "--checkpoint", str(out / "checkpoint.bin"),
                "--features", str(corpus / "features.txt"),
                "--sentence", sentence, "--top-k", "1",
            )
            assert rc == 0
            assert stdout.split("\t")[2].startswith(cluster)

    def test_sentence_query_ranks_images(self, corpus, trained, capsys):
        rc, out, _ = run(
            capsys, "query", "--checkpoint", str(trained / "checkpoint.bin"),
            "--features", str(corpus / "features.txt"),
            "--sentence", "c0w1 c0w2 c0w3", "--top-k", "4",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        scores = [float(line.split("\t")[1]) for line in lines]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_beyond_pool_returns_pool(self, corpus, trained, capsys):
        rc, out, _ = run(
            capsys, "query", "--checkpoint", str(trained / "checkpoint.bin"),
            "--features", str(corpus / "features.txt"),
            "--sentence", "c1w0 c1w4", "--top-k", "500",
        )
        assert rc == 0
        assert len(out.strip().splitlines()) == 12

    def test_all_oov_sentence_fails(self, corpus, trained, capsys):
        rc, _, err = run(
            capsys, "query", "--checkpoint", str(trained / "checkpoint.bin"),
            "--features", str(corpus / "features.txt"),
            "--sentence", "entirely unknown words",
        )
        assert rc != 0 and "error" in err

    def test_image_query_ranks_captions(self, corpus, trained, capsys):
        rc, out, _ = run(
            capsys, "query", "--checkpoint", str(trained / "checkpoint.bin"),
            "--features", str(corpus / "features.txt"),
            "--captions", str(corpus / "captions.tsv"),
            "--image-id", "c2img001", "--top-k", "5",
        )
        assert rc == 0
        assert len(out.strip().splitlines()) == 5

    def test_unknown_image_id_fails(self, corpus, trained, capsys):
        rc, stdout, err = run(
            capsys, "query", "--checkpoint", str(trained / "checkpoint.bin"),
            "--features", str(corpus / "features.txt"),
            "--captions", str(corpus / "captions.tsv"),
            "--image-id", "ghost",
        )
        assert rc != 0 and stdout == ""
        assert err == "error ConfigError: unknown image id 'ghost'\n"

    @pytest.mark.parametrize("top_k", ["0", "-1", "", "x", "2.5"])
    def test_bad_top_k_fails_before_loading(self, tmp_path, top_k, capsys):
        rc, stdout, err = run(
            capsys, "query", "--checkpoint", str(tmp_path / "missing.bin"),
            "--features", str(tmp_path / "missing.txt"),
            "--sentence", "c0w1", "--top-k", top_k,
        )
        assert rc != 0 and stdout == ""
        assert err.startswith("error ConfigError: ") and err.count("\n") == 1

    @pytest.fixture
    def zero_norm_image(self, tmp_path, corpus, trained):
        """A bias-free copy of the trained checkpoint and a feature file in
        which image c0img000 is the zero vector, so it embeds to zero."""
        ckpt = load_checkpoint(str(trained / "checkpoint.bin"))
        ckpt.model.visual_net.params["b0"][:] = 0.0
        path = tmp_path / "nobias.bin"
        save_checkpoint(str(path), ckpt.model, ckpt.vocabulary, ckpt.train_config, ckpt.history)
        lines = (corpus / "features.txt").read_text().splitlines(keepends=True)
        for i, line in enumerate(lines[1:], start=1):
            fields = line.split()
            if fields[0] == "c0img000":
                lines[i] = " ".join(["c0img000"] + ["0.0"] * (len(fields) - 1)) + "\n"
        features = tmp_path / "zero_features.txt"
        features.write_text("".join(lines))
        return path, features

    def test_zero_norm_image_left_out_of_sentence_results(self, zero_norm_image, capsys):
        ckpt, features = zero_norm_image
        rc, out, err = run(
            capsys, "query", "--checkpoint", str(ckpt), "--features", str(features),
            "--sentence", "c0w1 c0w2", "--top-k", "500",
        )
        assert rc == 0, err
        ids = [line.split("\t")[2] for line in out.splitlines()]
        assert len(ids) == 11 and "c0img000" not in ids

    def test_zero_norm_image_query_fails(self, corpus, zero_norm_image, capsys):
        ckpt, features = zero_norm_image
        rc, out, err = run(
            capsys, "query", "--checkpoint", str(ckpt), "--features", str(features),
            "--captions", str(corpus / "captions.tsv"), "--image-id", "c0img000",
        )
        assert rc != 0 and out == ""
        assert err.startswith("error ZeroNormError: ") and err.count("\n") == 1

    def test_requires_exactly_one_query_kind(self, corpus, trained, capsys):
        rc, _, err = run(
            capsys, "query", "--checkpoint", str(trained / "checkpoint.bin"),
            "--features", str(corpus / "features.txt"),
        )
        assert rc != 0 and "ConfigError" in err


class TestReadme:
    def test_walkthrough_commands_parse(self):
        """Every command in README's walkthrough is accepted by the parser."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        walkthrough = readme.split("## Command-line walkthrough", 1)[1].split("\n## ", 1)[0]
        block = re.search(r"```bash\n(.*?)```", walkthrough, re.S).group(1)
        lines = [line for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("crossmodal ")]
        commands = set()
        for line in lines:
            argv = shlex.split(line)[1:]
            args = build_parser().parse_args(argv)  # exits on an unknown flag or bad value
            commands.add(args.command)
        assert commands == {"synth", "preprocess", "train", "evaluate", "query"}
