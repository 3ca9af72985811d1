import builtins
import errno
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import crossmodal.checkpoint as checkpoint_mod
import crossmodal.nets as nets_mod
import crossmodal.ranker as ranker_mod
from crossmodal import cli
from crossmodal.checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from crossmodal.cli import main
from crossmodal.corpus import load_captions, load_image_features, split_dataset
from crossmodal.nets import FIELDS_ONLY_READ_BY, WEIGHTING_READ_BY
from crossmodal.text import TEXTUAL_KINDS

from test_checkpoint import VISUAL_NETS_TRAIN_NEVER_WRITES, read_header, resign, write_with_visual_net


def src_env(**extra) -> dict:
    """The environment, with ``extra``, for a new process that imports this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def cli_process(*argv, **popen) -> subprocess.Popen:
    """``python -m crossmodal.cli argv`` in a new process that imports this checkout's src."""
    return subprocess.Popen([sys.executable, "-m", "crossmodal.cli", *argv], env=src_env(), **popen)


def run(capsys, *argv):
    """(exit code, stdout, stderr) of ``main(argv)``, or with ``capsys`` None of
    ``argv`` in a new ``python -m crossmodal.cli`` process."""
    if capsys is None:
        with cli_process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            stdout, err = proc.communicate(timeout=120)
        return proc.returncode, stdout, err
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def leftovers(out):
    """The staging directories (``staging-*.tmp``) and ``*.tmp`` files under the nearest
    existing ancestor of ``out``."""
    return list(next(path for path in out.parents if path.exists()).rglob("*.tmp"))


def assert_one_error_line(capsys, error, out, *argv):
    """The one check of a refused command: ``main(argv)`` (a new process with
    ``capsys`` None) exits 1 with one ``error <error>:`` line on stderr, prints
    nothing on stdout and leaves no ``out``, and no staging directory or temporary
    file beside it."""
    rc, stdout, err = run(capsys, *argv)
    assert rc == 1 and stdout == ""
    assert err.startswith(f"error {error}: ") and err.count("\n") == 1, err
    assert not out.exists()
    assert leftovers(out) == []
    return err


def write_narrow_features(corpus, path, dim):
    """The corpus's features cut to their first ``dim`` values."""
    rows = (corpus / "features.txt").read_text().splitlines()
    count = rows[0].split()[0]
    path.write_text("\n".join([f"{count} {dim}"] + [" ".join(r.split()[: dim + 1]) for r in rows[1:]]) + "\n")
    return path


def write_oov_captions(corpus, path, keys=None):
    """The corpus's captions with the text of each (image id, index) in ``keys``,
    or of every caption, replaced by out-of-vocabulary words."""
    lines = []
    for line in (corpus / "captions.tsv").read_text().splitlines():
        image_id, index, text = line.split("\t")
        oov = keys is None or (image_id, int(index)) in keys
        lines.append(f"{image_id}\t{index}\t{'zzz qqq' if oov else text}\n")
    path.write_text("".join(lines))
    return path


def write_seeded_embeddings(prepped, path, dim):
    """A word2vec text file with one seeded ``dim``-d row per vocabulary term."""
    rng = random.Random(7)
    terms = [row.split("\t")[0] for row in (prepped / "vocab.tsv").read_text().splitlines()[1:]]
    path.write_text("".join(f"{term} {' '.join(repr(rng.uniform(-0.5, 0.5)) for _ in range(dim))}\n"
                            for term in terms))
    return path


def train_split(corpus):
    """The corpus's captions and the split that ``train_args`` trains on."""
    captions = load_captions(str(corpus / "captions.tsv"))
    records = load_image_features(str(corpus / "features.txt")).records()
    return captions, split_dataset(records, captions, n_test=3, val_frac=0.25, seed=0)


NOTICE = "captions with no in-vocabulary term, not scored: {}\n"


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


# a value other than the default of each option that only one textual net reads, as the suite
# trains with it; an option missing here is tried at its next choice or its default plus one
OTHER_NET_VALUES = {"n_hu": "6", "weighting": "tfidf", "word_dim": "8", "kernels": "12", "window": "3"}


def options_of_another_textual_net():
    """(--textual value, option, a value other than its default) for each option that only
    a kind of textual net other than the --textual value's reads: by NetSpec's table for the
    option's spec_field, and by the weighting rule for the weighting."""
    for textual in cli.OPTION_BY_NAME["textual"].choices:
        kind = cli.TEXTUAL_NETS[textual][0]
        for opt in cli.OPTIONS:
            readers = {k for k, names in FIELDS_ONLY_READ_BY.items() if opt.spec_field in names}
            readers |= {WEIGHTING_READ_BY} if opt.field == "weighting" else set()
            if readers and kind not in readers:
                yield textual, opt.name, OTHER_NET_VALUES.get(opt.name) or next(
                    (c for c in opt.choices if c != opt.default), str(opt.default + 1))


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
        err = assert_one_error_line(capsys, "CorpusFormatError", out,
                                    "preprocess", "--captions", str(bad), "--out", str(out))
        line = text.count(b"\n") + 1
        assert err == f"error CorpusFormatError: {bad}:{line}: not valid UTF-8\n"

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

    def test_zero_max_size_refused(self, tmp_path, corpus, capsys):
        out = tmp_path / "prep0"
        assert_one_error_line(capsys, "ConfigError", out, "preprocess", "--captions",
                              str(corpus / "captions.tsv"), "--max-size", "0", "--out", str(out))

    def test_empty_captions_file_refused(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        out = tmp_path / "prep_empty"
        assert_one_error_line(capsys, "VocabularyError", out, "preprocess", "--captions", str(empty),
                              "--out", str(out))

    def test_zero_clusters_refused(self, tmp_path, capsys):
        out = tmp_path / "none"
        assert_one_error_line(capsys, "ConfigError", out, "synth", "--clusters", "0", "--out", str(out))

    @pytest.mark.parametrize(
        "bad, message",
        [(("--seed", "-1"), "seed must be nonnegative"),
         (("--noise-sigma", "nan"), "noise_sigma must be finite"),
         (("--noise-sigma", "inf"), "noise_sigma must be finite"),
         (("--noise-sigma", "-1"), "noise_sigma must be nonnegative"),
         (("--feature-dim", "100000000000000000000"),
          "feature_dim must be at most 1152921504606846975, the float64 values numpy can address"),
         (("--vocab-per-cluster", "100000000000000000000"),
          "vocab_per_cluster must be at most 9223372036854775807, the token indices numpy draws")],
        ids=["--seed -1", "--noise-sigma nan", "--noise-sigma inf", "--noise-sigma -1", "--feature-dim 1e20",
             "--vocab-per-cluster 1e20"],
    )
    def test_bad_seed_or_noise_refused(self, tmp_path, capsys, bad, message):
        """Refused before anything is written: numpy seeds no negative integer,
        non-finite noise would write a features.txt that every loader refuses, and
        numpy can neither hold a wider feature vector nor draw a larger token index."""
        out = tmp_path / "none"
        err = assert_one_error_line(capsys, "ConfigError", out, "synth", *bad, "--out", str(out))
        assert err == f"error ConfigError: {message}\n"

    def test_python_m_runs_the_cli(self, tmp_path):
        out = tmp_path / "corpus"
        rc, _, err = run(None, "synth", "--clusters", "1", "--images-per-cluster", "2", "--out", str(out))
        assert rc == 0, err
        assert (out / "captions.tsv").exists()

    def test_missing_captions_file(self, tmp_path, capsys):
        out = tmp_path / "p"
        err = assert_one_error_line(capsys, "FileNotFoundError", out, "preprocess",
                                    "--captions", str(tmp_path / "nope.tsv"), "--out", str(out))
        assert "nope.tsv" in err


class TestHelp:
    @pytest.mark.parametrize("command", [None, *cli.build_parser()._subparsers._group_actions[0].choices])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        assert out.startswith(f"usage: crossmodal {command or ''}".rstrip())

    def test_train_help_lists_every_option_with_its_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        text = " ".join(capsys.readouterr().out.split())  # as argparse wraps it, on one line
        for opt in cli.OPTIONS:
            assert f"{opt.flag} " in text
            assert f"{opt.help} (default {opt.default})" in text


class TestCommandLineRefusals:
    """A command line argparse refuses ends as every other refusal: exit 1 with one
    ``error ConfigError:`` line carrying argparse's message, no usage block and no ``--out``.
    Only the prefix is pinned, as argparse words its messages differently across versions."""

    @pytest.mark.parametrize("argv", [
        ("synth", "--clusters", "x", "--out", "OUT"),
        ("preprocess", "--captions", "c.tsv", "--mode", "4g", "--out", "OUT"),
        ("train", "--captions", "c.tsv", "--features", "f.txt", "--out", "OUT"),
        ("train", "--captions", "c.tsv", "--features", "f.txt", "--vocab", "v.tsv", "--out", "OUT", "--epochs"),
        ("evaluate", "--checkpoint", "m.bin", "--captions", "c.tsv", "--features", "f.txt", "--seed", "1.5",
         "--out", "OUT"),
        ("query", "--checkpoint", "m.bin", "--features", "f.txt", "--sentence", "s", "--out", "OUT"),
        (),
    ], ids=["synth_bad_number", "preprocess_bad_choice", "train_missing_flag", "train_flag_without_value",
            "evaluate_bad_number", "query_unknown_flag", "no_command"])
    def test_one_error_line(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert_one_error_line(capsys, "ConfigError", out, *(str(out) if arg == "OUT" else arg for arg in argv))


class TestTextualKinds:
    def test_one_list_of_textual_kinds(self):
        """The --textual values map one to one onto the kinds of net that NetSpec's table
        knows and that ``encode_caption`` encodes for; the option offers those values."""
        kinds = list(cli.TEXTUAL_KIND_BY_VALUE.values())
        assert sorted(kinds) == sorted(set(kinds)) == sorted(TEXTUAL_KINDS) == sorted(FIELDS_ONLY_READ_BY)
        assert cli.OPTION_BY_NAME["textual"].choices == tuple(cli.TEXTUAL_NETS) == tuple(cli.TEXTUAL_KIND_BY_VALUE)
        assert [kind for kind, _ in cli.TEXTUAL_NETS.values()] == kinds


# T2I with a sequence net of 8-d word vectors and a visual net with a hidden layer
T2I_SEQUENCE = ("--methodology", "t2i", "--textual", "sse", "--word-dim", "8", "--kernels", "12",
                "--window", "3", "--visual-n-hu", "6")


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
        out = tmp_path / "bad"
        assert_one_error_line(capsys, "ConfigError", out, *train_args(corpus, prepped, out, "--margin", "0"))

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
            ("--margin", "nan"),
            ("--margin", "inf"),
            ("--lr", "nan"),
            ("--lr", "inf"),
            ("--seed", "-1"),
            # typed like a config-file value, so no argparse usage message
            ("--epochs", "abc"),
            ("--methodology", "xyz"),
            ("--textual", "lstm"),
            # a parameter of more float64 values than numpy can address
            ("--n-emb", "1000000000000000000"),
            ("--n-emb", "100000000000000000000"),
            ("--n-hu", "100000000000000000000"),
        ],
        ids=" ".join,
    )
    def test_invalid_value_fails_before_writing(self, tmp_path, corpus, prepped, capsys, bad):
        out = tmp_path / "bad"
        assert_one_error_line(capsys, "ConfigError", out, *train_args(corpus, prepped, out, *bad))

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
        err = assert_one_error_line(capsys, "VocabularyError", out, *args)
        assert err.startswith(f"error VocabularyError: {vocab}:")

    @pytest.mark.parametrize(
        "flag, error",
        [("--captions", "CorpusFormatError"), ("--features", "CorpusFormatError"),
         ("--vocab", "VocabularyError"), ("--embeddings", "CorpusFormatError"),
         ("--config", "ConfigError")],
    )
    def test_non_utf8_input_fails_before_writing(self, tmp_path, corpus, prepped, capsys, flag, error):
        out = tmp_path / "bad"
        args = train_args(corpus, prepped, out)
        if flag in args:
            text = Path(args[args.index(flag) + 1]).read_bytes()
        else:
            text = b"c0w1 0.5 0.25\n" if flag == "--embeddings" else b"margin = 0.3\n"
            args += [flag, ""]
        bad = tmp_path / "input"
        bad.write_bytes(text + b"\xff\xfe")
        args[args.index(flag) + 1] = str(bad)
        err = assert_one_error_line(capsys, error, out, *args)
        line = text.count(b"\n") + 1
        assert err == f"error {error}: {bad}:{line}: not valid UTF-8\n"

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
        out = tmp_path / "x"
        err = assert_one_error_line(capsys, "ConfigError", out,
                                    *train_args(corpus, prepped, out, "--config", str(cfg)))
        assert err == f"error ConfigError: {cfg}:1: unknown config key 'momentum'\n"

    def test_config_key_set_twice_refused(self, tmp_path, corpus, prepped, capsys):
        """The second line is refused, naming the first, before any input is
        read, as a repeated --ks cutoff is; the file once trained with its last value."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_emb = 16\n# narrower\nn_emb = 8\n")
        out = tmp_path / "x"
        args = train_args(corpus, prepped, out, "--config", str(cfg))
        args[args.index("--features") + 1] = str(tmp_path / "missing.txt")
        err = assert_one_error_line(capsys, "ConfigError", out, *args)
        assert err == f"error ConfigError: {cfg}:3: n_emb is already set on line 1\n"

    @pytest.mark.parametrize("line", ["epochs = many", "methodology = x2y", "textual = lstm",
                                      "epochs = -2", "lr = 0", "val_pairs = 0",
                                      "n_emb = 0", "visual_n_hu = -2", "kernels = 0",
                                      "val_frac = 1.5", "val_frac = nan", "n_test = -1"])
    def test_bad_config_value(self, tmp_path, corpus, prepped, capsys, line):
        """The same value fails with the same text from the file and as a flag,
        naming ``path:line`` or ``--flag``."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "x"
        err = assert_one_error_line(capsys, "ConfigError", out,
                                    *train_args(corpus, prepped, out, "--config", str(cfg)))
        assert err.startswith(f"error ConfigError: {cfg}:1: ")
        key, _, value = line.partition(" = ")
        flag = "--" + key.replace("_", "-")
        flag_err = assert_one_error_line(capsys, "ConfigError", out,
                                         *train_args(corpus, prepped, out, flag, value))
        assert flag_err == err.replace(f"{cfg}:1", flag, 1)

    @pytest.mark.parametrize("lr, extra", [
        ("1e300", ()),
        ("1e300", ("--textual", "sse", "--word-dim", "6", "--kernels", "6", "--window", "3",
                   "--methodology", "t2i")),
        ("1e200", ("--n-hu", "6", "--visual-n-hu", "6")),
        ("1e200", ("--textual", "sse", "--word-dim", "8", "--kernels", "12", "--window", "3")),
    ], ids=["bag", "sequence", "hidden", "sequence_1e200"])
    def test_overflow_in_training_is_one_error_line(self, tmp_path, corpus, prepped, capsys, lr, extra):
        """Finite inputs whose embeddings overflow once the weights have grown
        huge, in the linear nets, behind hidden layers or in the sequence net:
        one typed line, no warning (the suite makes one an error) and no ``--out``."""
        out = tmp_path / "overflow"
        err = assert_one_error_line(capsys, "NonFiniteGradientError", out,
                                    *train_args(corpus, prepped, out, "--lr", lr, *extra))
        assert "embedding" in err

    def test_impossible_allocation_is_one_error_line(self, tmp_path, corpus, prepped, capsys, monkeypatch):
        """A weight matrix too large to allocate ends as one line naming the public MemoryError,
        not numpy's private subclass, and leaves no ``--out``. The allocation is patched to
        raise: where memory is overcommitted a real one could succeed and be killed later."""
        class _ArrayMemoryError(MemoryError):  # what numpy raises
            pass

        real = nets_mod._glorot

        def glorot(rng, fan_in, fan_out):
            if fan_in * fan_out > 10**8:
                raise _ArrayMemoryError(f"Unable to allocate an array with shape ({fan_in}, {fan_out})")
            return real(rng, fan_in, fan_out)

        monkeypatch.setattr(nets_mod, "_glorot", glorot)
        out = tmp_path / "huge"
        err = assert_one_error_line(capsys, "MemoryError", out,
                                    *train_args(corpus, prepped, out, "--n-hu", "1000000000"))
        assert err.startswith("error MemoryError: Unable to allocate an array with shape (")

    def test_size_numpy_cannot_address_refused_once_the_input_width_is_known(self, tmp_path, capsys):
        """A visual net whose hidden layer passes the flag's check, where one input row is
        assumed, holds too many values for 400-d features: one line, nothing written."""
        corpus, prep, out = tmp_path / "corpus", tmp_path / "prep", tmp_path / "huge"
        assert run(capsys, "synth", "--feature-dim", "400", "--out", str(corpus))[0] == 0
        assert run(capsys, "preprocess", "--captions", str(corpus / "captions.tsv"), "--out", str(prep))[0] == 0
        err = assert_one_error_line(capsys, "ConfigError", out,
                                    *train_args(corpus, prep, out, "--visual-n-hu", "3000000000000000"))
        assert err == ("error ConfigError: parameter w0 of shape (400, 3000000000000000) holds more than the "
                       "1152921504606846975 float64 values numpy can address\n")

    def test_history_format(self, trained):
        lines = (trained / "history.tsv").read_text().splitlines()
        assert len(lines) == 2
        first = lines[0].split("\t")
        assert first[0] == "1" and float(first[1]) == 0.001

    def test_deterministic_reruns_bit_identical(self, tmp_path, corpus, prepped, capsys):
        """Each run, made twice, writes the same bytes twice: I2T with the bag net,
        and T2I with the sequence net, without and with seeded word vectors."""
        embeddings = write_seeded_embeddings(prepped, tmp_path / "emb.txt", dim=8)
        for case, extra in enumerate([(), T2I_SEQUENCE, (*T2I_SEQUENCE, "--embeddings", str(embeddings))]):
            a, b = tmp_path / f"run{case}A", tmp_path / f"run{case}B"
            for out in (a, b):
                rc, _, err = run(capsys, *train_args(corpus, prepped, out, *extra))
                assert rc == 0, err
            for name in ("manifest.json", "history.tsv", "checkpoint.bin"):
                assert (a / name).read_bytes() == (b / name).read_bytes(), (extra, name)

    def test_failed_checkpoint_save_leaves_the_earlier_run(self, tmp_path, corpus, prepped, capsys,
                                                            monkeypatch):
        """A second run into the same --out whose checkpoint save runs out of space exits 1
        with one error line and leaves every file of the first run byte for byte: the
        checkpoint is written first and the manifest last."""
        out = tmp_path / "runx"
        assert run(capsys, *train_args(corpus, prepped, out, "--seed", "1"))[0] == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def no_space(fd, size):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(checkpoint_mod, "_preallocate", no_space)
        rc, stdout, err = run(capsys, *train_args(corpus, prepped, out, "--seed", "2"))
        assert (rc, stdout) == (1, "")
        assert [line for line in err.splitlines() if line.startswith("error ")] == [
            f"error OSError: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
        assert err.endswith("\n") and not err.splitlines()[-1].startswith("epoch ")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_pretrained_embeddings_seed_first_layer(self, tmp_path, corpus, prepped, capsys):
        """The bag net's ``w0`` row and the sequence net's ``lookup`` row of a term
        hold its vector exactly."""
        emb_path = tmp_path / "emb.txt"
        emb_path.write_text("c0w1 " + " ".join(str(float(i)) for i in range(8)) + "\n")
        for first_layer, extra in (("w0", ()), ("lookup", T2I_SEQUENCE)):
            out = tmp_path / first_layer
            # zero epochs: the checkpoint holds the initialization untouched
            rc, _, err = run(capsys, *train_args(
                corpus, prepped, out, *extra, "--embeddings", str(emb_path), "--epochs", "0",
            ))
            assert rc == 0, err
            ckpt = load_checkpoint(str(out / "checkpoint.bin"))
            row = ckpt.vocabulary.term_to_index["c0w1"]
            assert list(ckpt.model.textual_net.params[first_layer][row]) == [float(i) for i in range(8)]

    def test_pretrained_embeddings_dim_mismatch(self, tmp_path, corpus, prepped, capsys):
        emb_path = tmp_path / "emb.txt"
        emb_path.write_text("c0w1 1.0 2.0 3.0\n")
        out = tmp_path / "bad_emb"
        err = assert_one_error_line(capsys, "ConfigError", out, *train_args(
            corpus, prepped, out, "--embeddings", str(emb_path),
        ))
        assert err == "error ConfigError: pretrained embeddings have dim 3, first layer rows are 8\n"

    def test_sequence_net_on_a_bigram_vocabulary_refused(self, tmp_path, corpus, capsys):
        prep = tmp_path / "prep2g"
        rc, _, _ = run(capsys, "preprocess", "--captions", str(corpus / "captions.tsv"),
                       "--mode", "2g", "--out", str(prep))
        assert rc == 0
        out = tmp_path / "sse_2g"
        assert_one_error_line(capsys, "ConfigError", out, *train_args(
            corpus, prep, out, "--textual", "sse", "--word-dim", "6", "--kernels", "6",
            "--window", "3",
        ))

    def test_non_finite_embedding_fails_before_writing(self, tmp_path, corpus, prepped, capsys):
        emb_path = tmp_path / "emb.txt"
        emb_path.write_text("c0w1 nan" + " 1.0" * 7 + "\n")
        out = tmp_path / "nan_emb"
        err = assert_one_error_line(capsys, "CorpusFormatError", out,
                                    *train_args(corpus, prepped, out, "--embeddings", str(emb_path)))
        assert err.startswith(f"error CorpusFormatError: {emb_path}:1:")

    def test_word2vec_count_dim_line_refused(self, tmp_path, corpus, prepped, capsys):
        """word2vec's own text files open with a ``count dim`` line; read as a row
        of one value, it makes the first word row fail, so it must be removed."""
        emb_path = tmp_path / "w2v.txt"
        emb_path.write_text("2 3\nc0w1 0.1 0.2 0.3\n")
        out = tmp_path / "w2v_emb"
        err = assert_one_error_line(capsys, "CorpusFormatError", out,
                                    *train_args(corpus, prepped, out, "--embeddings", str(emb_path)))
        assert err == f"error CorpusFormatError: {emb_path}:2: 'c0w1' has 3 values, expected 1\n"

    def test_repeated_embedding_word_fails_before_writing(self, tmp_path, corpus, prepped, capsys):
        emb_path = tmp_path / "emb.txt"
        emb_path.write_text(("c0w1" + " 1.0" * 8 + "\n") * 2)
        out = tmp_path / "dup_emb"
        err = assert_one_error_line(capsys, "CorpusFormatError", out, *train_args(
            corpus, prepped, out, "--embeddings", str(emb_path),
        ))
        assert err == f"error CorpusFormatError: {emb_path}: duplicate word 'c0w1'\n"

    def test_overflowing_features_fail_before_writing(self, tmp_path, corpus, prepped, capsys):
        """Finite values whose squared norm overflows; before this was refused,
        training exited 0 with a RuntimeWarning and 100% error."""
        rows = (corpus / "features.txt").read_text().splitlines()
        features = tmp_path / "features.txt"
        features.write_text("\n".join(rows[:1] + [re.sub(r" \S+", " 1e300", r, count=1) for r in rows[1:]]) + "\n")
        args = train_args(corpus, prepped, tmp_path / "overflow")
        args[args.index("--features") + 1] = str(features)
        first = rows[1].split()[0]
        err = assert_one_error_line(capsys, "CorpusFormatError", tmp_path / "overflow", *args)
        assert err == (f"error CorpusFormatError: {features}: image {first!r}: "
                       "non-finite feature value or squared norm\n")

    def test_every_train_pair_skipped_fails_before_writing(self, tmp_path, corpus, prepped, capsys):
        """Zero features embed to zero through the freshly initialized visual
        net, so no pair can be scored: the run stops instead of training on nothing."""
        rows = (corpus / "features.txt").read_text().splitlines()
        features = tmp_path / "zero.txt"
        features.write_text("\n".join(rows[:1] + [re.sub(r" \S+", " 0", r) for r in rows[1:]]) + "\n")
        args = train_args(corpus, prepped, tmp_path / "zero")
        args[args.index("--features") + 1] = str(features)
        err = assert_one_error_line(capsys, "ZeroNormError", tmp_path / "zero", *args)
        assert err == "error ZeroNormError: every train pair was skipped\n"

    def test_sse_textual_model_trains(self, tmp_path, corpus, prepped, capsys):
        out = tmp_path / "sse_run"
        rc, _, err = run(capsys, *train_args(
            corpus, prepped, out, "--textual", "sse",
            "--word-dim", "6", "--kernels", "6", "--window", "3",
        ))
        assert rc == 0, err
        assert (out / "checkpoint.bin").exists()

    @pytest.mark.parametrize("source", ["flag", "config", "missing_features"])
    @pytest.mark.parametrize("textual, option, value", options_of_another_textual_net())
    def test_option_of_the_other_textual_net_refused(self, tmp_path, corpus, prepped, capsys,
                                                     textual, option, value, source):
        """An option the chosen textual net does not use would change nothing
        while the manifest recorded it: one ConfigError that names its flag,
        whether the value came from the flag or from a config line, and before
        any input file is read."""
        flag = "--" + option.replace("_", "-")
        extra = (flag, value)
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{option} = {value}\n")
            extra = ("--config", str(cfg))
        out = tmp_path / "x"
        args = train_args(corpus, prepped, out, "--textual", textual, *extra)
        if source == "missing_features":
            args[args.index("--features") + 1] = str(tmp_path / "missing.txt")
        err = assert_one_error_line(capsys, "ConfigError", out, *args)
        assert err.startswith(f"error ConfigError: {flag} applies to --textual ")
        assert err.endswith(f", not to --textual {textual}\n")

    def test_default_of_the_other_textual_net_accepted(self, tmp_path, corpus, prepped, capsys):
        for textual, extra in (("sse", ("--word-dim", "6", "--kernels", "6", "--window", "3",
                                         "--n-hu", "0", "--weighting", "binary")),
                               ("bag", ("--word-dim", "300", "--kernels", "300", "--window", "5"))):
            out = tmp_path / textual
            rc, _, err = run(capsys, *train_args(corpus, prepped, out, "--textual", textual, *extra))
            assert rc == 0, err


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
        out = tmp_path / "eval_bad"
        err = assert_one_error_line(
            capsys, "ConfigError", out, "evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
            "--captions", str(corpus / "captions.tsv"),
            "--features", str(corpus / "features.txt"),
            "--vocab", str(other / "vocab.tsv"),
            "--out", str(out),
        )
        assert "digest mismatch" in err

    def test_checkpoint_without_test_split_refused(self, tmp_path, corpus, trained, capsys):
        """Every run record holds its test split: a header re-signed with an empty data_config
        is as corrupt as any other bad header, to ``evaluate`` and to ``query``, and wins over
        missing corpus files, whose features are parsed meanwhile."""
        blob = (trained / "checkpoint.bin").read_bytes()
        header = read_header(blob)
        header["data_config"] = {}
        bare = tmp_path / "bare.bin"
        resign(bare, blob, header=header)
        out = tmp_path / "eval_bare"
        for command in ("evaluate", "query"):
            err = assert_one_error_line(capsys, "CheckpointCorruptError", out, *command_argv(
                command, corpus, out, bare, tmp_path / "missing.txt", tmp_path / "missing.tsv"))
            assert err == (f"error CheckpointCorruptError: {bare}: invalid header "
                           "(ValueError: data_config must be an int n_test and a float val_frac)\n")

    def test_n_test_past_the_image_count_refused(self, tmp_path, corpus, trained, capsys):
        # the checkpoint holds out 3 test images; these features hold 2
        rows = (corpus / "features.txt").read_text().splitlines()
        features = tmp_path / "features.txt"
        features.write_text("\n".join([f"2 {rows[0].split()[1]}"] + rows[1:3]) + "\n")
        out = tmp_path / "eval_small"
        err = assert_one_error_line(
            capsys, "ConfigError", out, "evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
            "--captions", str(corpus / "captions.tsv"),
            "--features", str(features), "--out", str(out),
        )
        assert err == "error ConfigError: n_test=3 must be in [0, 2), the image count\n"

    def test_checkpoint_without_test_images_refused(self, tmp_path, corpus, prepped, capsys):
        run_dir = tmp_path / "no_test"
        args = train_args(corpus, prepped, run_dir)
        args[args.index("--n-test") + 1] = "0"
        assert run(capsys, *args)[0] == 0
        out = tmp_path / "eval"
        err = assert_one_error_line(
            capsys, "ConfigError", out, "evaluate", "--checkpoint", str(run_dir / "checkpoint.bin"),
            "--captions", str(corpus / "captions.tsv"), "--features", str(corpus / "features.txt"),
            "--out", str(out),
        )
        assert err == "error ConfigError: the test split has no scoreable pairs; check n_test and val_frac\n"

    def test_no_encodable_test_caption_refused(self, tmp_path, corpus, trained, capsys):
        out = tmp_path / "eval"
        assert_one_error_line(
            capsys, "ConfigError", out, "evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
            "--captions", str(write_oov_captions(corpus, tmp_path / "oov.tsv")),
            "--features", str(corpus / "features.txt"), "--out", str(out),
        )

    def test_features_narrower_than_the_checkpoint_refused(self, tmp_path, corpus, trained, capsys):
        features = write_narrow_features(corpus, tmp_path / "features4.txt", 4)
        out = tmp_path / "eval"
        err = assert_one_error_line(
            capsys, "ConfigError", out, "evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
            "--captions", str(corpus / "captions.tsv"), "--features", str(features), "--out", str(out),
        )
        assert err == f"error ConfigError: {features} has 4-d features, the checkpoint takes 8\n"

    def test_header_with_an_extra_vocabulary_term_refused(self, tmp_path, corpus, trained, capsys):
        """A re-signed header that lists one term more than the textual net has
        rows; ``query`` on that term used to end in an IndexError traceback."""
        blob = (trained / "checkpoint.bin").read_bytes()
        header = read_header(blob)
        header["vocabulary"]["terms"].append(["zzz", 1])
        ckpt = tmp_path / "extra.bin"
        resign(ckpt, blob, header=header)
        out = tmp_path / "eval"
        for argv in (
            ["evaluate", "--captions", str(corpus / "captions.tsv"), "--out", str(out)],
            ["query", "--sentence", "zzz c0w1"],
        ):
            err = assert_one_error_line(capsys, "CheckpointCorruptError", out, *argv,
                                        "--checkpoint", str(ckpt), "--features", str(corpus / "features.txt"))
            assert err.startswith(f"error CheckpointCorruptError: {ckpt}: invalid header (VocabularyError: ")

    def test_header_with_an_out_of_range_split_refused(self, tmp_path, corpus, trained, capsys):
        blob = (trained / "checkpoint.bin").read_bytes()
        header = read_header(blob)
        header["data_config"]["n_test"] = -1
        ckpt = tmp_path / "negative.bin"
        resign(ckpt, blob, header=header)
        out = tmp_path / "eval"
        err = assert_one_error_line(
            capsys, "CheckpointCorruptError", out, "evaluate", "--checkpoint", str(ckpt),
            "--captions", str(corpus / "captions.tsv"), "--features", str(corpus / "features.txt"),
            "--out", str(out),
        )
        assert err == (f"error CheckpointCorruptError: {ckpt}: invalid header "
                       "(ConfigError: n_test=-1 must be at least 0)\n")

    def test_header_with_a_best_epoch_past_its_epochs_refused(self, tmp_path, corpus, trained, capsys):
        blob = (trained / "checkpoint.bin").read_bytes()
        header = read_header(blob)
        header["history"]["best_epoch"] = 99
        ckpt = tmp_path / "best99.bin"
        resign(ckpt, blob, header=header)
        out = tmp_path / "eval"
        err = assert_one_error_line(
            capsys, "CheckpointCorruptError", out, "evaluate", "--checkpoint", str(ckpt),
            "--captions", str(corpus / "captions.tsv"), "--features", str(corpus / "features.txt"),
            "--out", str(out),
        )
        assert err == (f"error CheckpointCorruptError: {ckpt}: invalid header "
                       "(ValueError: best_epoch 99 is not one of the 2 epochs)\n")

    def test_header_with_a_field_its_textual_net_does_not_read_refused(self, tmp_path, corpus, trained,
                                                                      capsys):
        """A re-signed header whose bag textual net records a sequence net's word_dim,
        a value that ``train`` refuses and no command reads."""
        blob = (trained / "checkpoint.bin").read_bytes()
        header = read_header(blob)
        header["textual_spec"]["word_dim"] = 300
        ckpt = tmp_path / "word_dim.bin"
        resign(ckpt, blob, header=header)
        out = tmp_path / "eval"
        err = assert_one_error_line(
            capsys, "CheckpointCorruptError", out, "evaluate", "--checkpoint", str(ckpt),
            "--captions", str(corpus / "captions.tsv"), "--features", str(corpus / "features.txt"),
            "--out", str(out),
        )
        assert err == (f"error CheckpointCorruptError: {ckpt}: invalid header "
                       "(ConfigError: a bag net does not read word_dim, so it must be 0, not 300)\n")

    @VISUAL_NETS_TRAIN_NEVER_WRITES
    def test_visual_net_that_train_never_writes_refused(self, tmp_path, corpus, trained, capsys, fields,
                                                        message):
        """The trained checkpoint rewritten around a visual net that ``train`` never
        writes. A sequence visual net used to load and end ``evaluate`` and ``query`` in
        a TypeError traceback."""
        path = tmp_path / "visual.bin"
        write_with_visual_net(str(path), str(trained / "checkpoint.bin"), fields)
        out = tmp_path / "eval"
        for argv in (
            ["evaluate", "--captions", str(corpus / "captions.tsv"), "--out", str(out)],
            ["query", "--sentence", "c0w1 c0w2"],
        ):
            err = assert_one_error_line(capsys, "CheckpointCorruptError", out, *argv, "--checkpoint", str(path),
                                        "--features", str(corpus / "features.txt"))
            assert err == f"error CheckpointCorruptError: {path}: invalid header ({message})\n"

    def test_header_with_swapped_vocabulary_terms_refused(self, tmp_path, corpus, prepped, trained,
                                                          capsys):
        """A re-signed header whose first two terms trade places still follows the
        vocab.tsv rule, but its stored vocab_digest is no longer its vocabulary's;
        ``evaluate --vocab`` used to vouch for it and print other R@K rows."""
        blob = (trained / "checkpoint.bin").read_bytes()
        header = read_header(blob)
        terms = header["vocabulary"]["terms"]
        terms[0], terms[1] = terms[1], terms[0]
        ckpt = tmp_path / "swapped.bin"
        resign(ckpt, blob, header=header)
        out = tmp_path / "eval"
        for argv in (
            ["evaluate", "--captions", str(corpus / "captions.tsv"),
             "--vocab", str(prepped / "vocab.tsv"), "--out", str(out)],
            ["query", "--sentence", "c0w1"],
        ):
            err = assert_one_error_line(capsys, "CheckpointCorruptError", out, *argv,
                                        "--checkpoint", str(ckpt), "--features", str(corpus / "features.txt"))
            assert err == (f"error CheckpointCorruptError: {ckpt}: invalid header "
                           "(ValueError: vocab_digest is not the digest of the vocabulary)\n")

    def test_a_bug_in_a_command_is_a_traceback(self, tmp_path, corpus, trained, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a user error")

        monkeypatch.setattr(cli, "build_rankings", broken)
        with pytest.raises(ValueError, match="not a user error"):
            main(["evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
                  "--captions", str(corpus / "captions.tsv"),
                  "--features", str(corpus / "features.txt"), "--out", str(tmp_path / "eval")])

    @pytest.mark.parametrize("ks", ["0,1", "", "1,,5", "1,x", "-3", "5,5"])
    def test_bad_ks_fail_before_loading(self, tmp_path, ks, capsys):
        out = tmp_path / "eval_ks"
        err = assert_one_error_line(
            capsys, "ConfigError", out, "evaluate", "--checkpoint", str(tmp_path / "missing.bin"),
            "--captions", str(tmp_path / "missing.tsv"),
            "--features", str(tmp_path / "missing.txt"),
            "--ks", ks, "--out", str(out),
        )
        assert err.startswith("error ConfigError: --ks ")

    def test_a_closed_stdout_leaves_every_report(self, tmp_path, corpus, trained, monkeypatch, capsys):
        """A reader that closes stdout after the first report still finds all four
        files, and the run ends as an unpiped one does: exit 0, its usual stderr."""
        class ClosingStdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 2:
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        closing = ClosingStdout()
        monkeypatch.setattr(sys, "stdout", closing)
        out = tmp_path / "eval"
        rc = main(["evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
                   "--captions", str(corpus / "captions.tsv"),
                   "--features", str(corpus / "features.txt"), "--out", str(out)])
        # the rest of the run's stdout, and the exit-time flush, go to os.devnull
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
        assert rc == 0 and capsys.readouterr().err == f"reports written to {out}\n"
        assert closing.getvalue() == (out / "report_annotation.txt").read_text()
        assert sorted(p.name for p in out.iterdir()) == [
            "report_annotation.kv", "report_annotation.txt", "report_search.kv", "report_search.txt"]

    def test_unencodable_captions_reported(self, tmp_path, corpus, prepped, capsys):
        """One caption with no known term on a train image, one on a val image
        and one on a test image: ``train`` counts the first two and ``evaluate``
        the third, so the two counts sum to the three replaced."""
        _, split = train_split(corpus)
        keys = {(min(split.subset(name)), 0) for name in ("train", "val", "test")}
        oov = write_oov_captions(corpus, tmp_path / "oov_captions.tsv", keys=keys)
        out = tmp_path / "oov_run"
        args = train_args(corpus, prepped, out)
        args[args.index("--captions") + 1] = str(oov)
        rc, stdout, err = run(capsys, *args)
        assert rc == 0 and stdout == ""
        assert err.count(NOTICE.format(2)) == 1 and err.count("in-vocabulary") == 1
        eval_args = [
            "evaluate", "--checkpoint", str(out / "checkpoint.bin"),
            "--features", str(corpus / "features.txt"),
        ]
        rc, stdout, err = run(capsys, *eval_args, "--captions", str(oov), "--out", str(tmp_path / "e1"))
        assert rc == 0 and err.count(NOTICE.format(1)) == 1 and err.count("in-vocabulary") == 1
        assert "in-vocabulary" not in stdout
        rc, _, err = run(
            capsys, *eval_args, "--captions", str(corpus / "captions.tsv"), "--out", str(tmp_path / "e2")
        )
        assert rc == 0 and "in-vocabulary" not in err

    def test_each_command_encodes_only_the_splits_it_scores(self, tmp_path, corpus, prepped, capsys,
                                                            monkeypatch):
        """``train`` encodes each train and val caption once and no test caption,
        ``evaluate`` each test caption once and nothing else; each also encodes
        one empty caption, the check of its kind and weighting."""
        captions, split = train_split(corpus)
        encoded = Counter()
        original = ranker_mod.encode_caption
        monkeypatch.setattr(ranker_mod, "encode_caption",
                            lambda text, *rest: encoded.update([text]) or original(text, *rest))

        def texts_of(*names):
            images = set().union(*map(split.subset, names))
            return Counter([""] + [cap.text for cap in captions if cap.image_id in images])

        out = tmp_path / "run"
        rc, _, err = run(capsys, *train_args(corpus, prepped, out))
        assert rc == 0, err
        assert encoded == texts_of("train", "val")
        encoded.clear()
        rc, _, err = run(capsys, "evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                         "--captions", str(corpus / "captions.tsv"),
                         "--features", str(corpus / "features.txt"), "--out", str(tmp_path / "eval"))
        assert rc == 0, err
        assert encoded == texts_of("test")
        encoded.clear()
        rc, _, err = run(capsys, *train_args(corpus, prepped, tmp_path / "run0", "--epochs", "0"))
        assert rc == 0, err
        assert encoded == Counter([""])

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
        assert err.count(NOTICE.format(4)) == 1  # caption #2 of each of the 4 test images
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


class TestLenient:
    def test_short_image_fails_without_lenient_and_misses_with_it(self, tmp_path, corpus, capsys):
        """A test image that keeps 3 of its 5 captions: ``preprocess``, ``train``
        and ``evaluate`` each refuse it in one typed line unless ``--lenient``;
        with it, its missing designated captions miss at every k."""
        features = load_image_features(str(corpus / "features.txt"))
        captions = load_captions(str(corpus / "captions.tsv"))
        short = sorted(split_dataset(features.records(), captions, 3, 0.25, 0).test)[0]
        kept = tmp_path / "captions.tsv"
        kept.write_text("".join(f"{c.image_id}\t{c.caption_index}\t{c.text}\n" for c in captions
                                if c.image_id != short or c.caption_index < 3))
        prep, run_dir, eval_dir = tmp_path / "prep", tmp_path / "run", tmp_path / "eval"
        train = train_args(corpus, prep, run_dir)  # its --n-test 3, --val-frac 0.25 and seed 0
        train[train.index("--captions") + 1] = str(kept)
        commands = [
            (prep, ["preprocess", "--captions", str(kept), "--out", str(prep)]),
            (run_dir, train),
            (eval_dir, ["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin"), "--captions", str(kept),
                        "--features", str(corpus / "features.txt"), "--out", str(eval_dir)]),
        ]
        for out, args in commands:
            err = assert_one_error_line(capsys, "CorpusFormatError", out, *args)
            assert err == f"error CorpusFormatError: image '{short}' has 3 captions, expected 5\n"
            rc, _, err = run(capsys, *args, "--lenient")
            assert rc == 0, err
        for direction in ("annotation", "search"):
            kv = dict(line.split("=", 1)
                      for line in (eval_dir / f"report_{direction}.kv").read_text().splitlines())
            # 3 test images, each scoreable designated caption within k=10;
            # the short image's captions #3 and #4 miss in two of avg_txt's five runs
            assert float(kv["recall.first_txt.10"]) == 100.0
            assert float(kv["recall.avg_txt.10"]) == (3 * 100.0 + 2 * (100.0 * 2 / 3)) / 5


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

    def test_all_oov_sentence_fails(self, tmp_path, corpus, trained, capsys):
        err = assert_one_error_line(
            capsys, "EmptySequenceError", tmp_path / "none", "query", "--checkpoint",
            str(trained / "checkpoint.bin"), "--features", str(corpus / "features.txt"),
            "--sentence", "entirely unknown words",
        )
        assert err == "error EmptySequenceError: sentence has no in-vocabulary terms\n"

    def test_image_query_ranks_captions(self, corpus, trained, capsys):
        rc, out, _ = run(
            capsys, "query", "--checkpoint", str(trained / "checkpoint.bin"),
            "--features", str(corpus / "features.txt"),
            "--captions", str(corpus / "captions.tsv"),
            "--image-id", "c2img001", "--top-k", "5",
        )
        assert rc == 0
        assert len(out.strip().splitlines()) == 5

    def test_image_query_reports_unencodable_captions(self, tmp_path, corpus, trained, capsys):
        """Captions with no known term are counted on stderr and left out of
        the results, which are those of a file without them."""
        keys = {("c0img000", 1), ("c2img001", 4)}
        oov = write_oov_captions(corpus, tmp_path / "oov.tsv", keys)
        dropped = tmp_path / "dropped.tsv"
        dropped.write_text("".join(line for line in oov.read_text().splitlines(keepends=True)
                                   if "zzz qqq" not in line))
        outputs = []
        for captions in (oov, dropped):
            rc, out, err = run(
                capsys, "query", "--checkpoint", str(trained / "checkpoint.bin"),
                "--features", str(corpus / "features.txt"), "--captions", str(captions),
                "--image-id", "c2img001", "--top-k", "100",
            )
            assert rc == 0, err
            outputs.append((out, err))
        assert outputs[0][1] == NOTICE.format(2) and outputs[1][1] == ""
        assert outputs[0][0] == outputs[1][0] and len(outputs[0][0].splitlines()) == 58

    def test_unknown_image_id_fails(self, tmp_path, corpus, trained, capsys):
        err = assert_one_error_line(
            capsys, "ConfigError", tmp_path / "none", "query", "--checkpoint", str(trained / "checkpoint.bin"),
            "--features", str(corpus / "features.txt"),
            "--captions", str(corpus / "captions.tsv"),
            "--image-id", "ghost",
        )
        assert err == "error ConfigError: unknown image id 'ghost'\n"

    def test_features_narrower_than_the_checkpoint_refused(self, tmp_path, corpus, trained, capsys):
        features = write_narrow_features(corpus, tmp_path / "features4.txt", 4)
        err = assert_one_error_line(
            capsys, "ConfigError", tmp_path / "none", "query", "--checkpoint",
            str(trained / "checkpoint.bin"), "--features", str(features), "--sentence", "c0w1",
        )
        assert err == f"error ConfigError: {features} has 4-d features, the checkpoint takes 8\n"

    def test_nothing_to_rank_refused(self, tmp_path, corpus, trained, capsys):
        ckpt = str(trained / "checkpoint.bin")
        oov = str(write_oov_captions(corpus, tmp_path / "oov.tsv"))
        no_images = tmp_path / "features0.txt"
        no_images.write_text("0 8\n")
        for query in (["--features", str(corpus / "features.txt"), "--captions", oov,
                       "--image-id", "c0img000"],
                      ["--features", str(no_images), "--sentence", "c0w1"]):
            err = assert_one_error_line(capsys, "ConfigError", tmp_path / "none", "query",
                                        "--checkpoint", ckpt, *query)
            assert err.startswith("error ConfigError: nothing to rank: ")

    @pytest.mark.parametrize("top_k", ["0", "-1", "", "x", "2.5"])
    def test_bad_top_k_fails_before_loading(self, tmp_path, top_k, capsys):
        err = assert_one_error_line(
            capsys, "ConfigError", tmp_path / "none", "query", "--checkpoint", str(tmp_path / "missing.bin"),
            "--features", str(tmp_path / "missing.txt"),
            "--sentence", "c0w1", "--top-k", top_k,
        )
        assert err.startswith("error ConfigError: --top-k ")

    @pytest.fixture
    def zero_norm_image(self, tmp_path, corpus, trained):
        """A bias-free copy of the trained checkpoint and a feature file in
        which image c0img000 is the zero vector, so it embeds to zero."""
        ckpt = load_checkpoint(str(trained / "checkpoint.bin"))
        ckpt.model.visual_net.params["b0"][:] = 0.0
        path = tmp_path / "nobias.bin"
        save_checkpoint(str(path), ckpt.model, ckpt.vocabulary, ckpt.train_config, ckpt.history,
                        ckpt.data_config)
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

    def test_zero_norm_image_query_fails(self, tmp_path, corpus, zero_norm_image, capsys):
        ckpt, features = zero_norm_image
        assert_one_error_line(
            capsys, "ZeroNormError", tmp_path / "none", "query", "--checkpoint", str(ckpt),
            "--features", str(features), "--captions", str(corpus / "captions.tsv"), "--image-id", "c0img000",
        )

    def test_image_query_without_captions_fails_before_loading(self, tmp_path, capsys):
        err = assert_one_error_line(
            capsys, "ConfigError", tmp_path / "none", "query",
            "--checkpoint", str(tmp_path / "missing.bin"), "--features", str(tmp_path / "missing.txt"),
            "--image-id", "c1img003",
        )
        assert err == "error ConfigError: --captions is required for image queries\n"

    def test_sentence_query_with_captions_fails_before_loading(self, tmp_path, capsys):
        """A sentence query never reads --captions, so a file that does not exist
        was accepted; it is refused as an image query without it is."""
        err = assert_one_error_line(
            capsys, "ConfigError", tmp_path / "none", "query",
            "--checkpoint", str(tmp_path / "missing.bin"), "--features", str(tmp_path / "missing.txt"),
            "--sentence", "c0w1", "--captions", str(tmp_path / "nope.tsv"), "--top-k", "2",
        )
        assert err == "error ConfigError: --captions applies to --image-id queries, not to --sentence queries\n"

    def test_requires_exactly_one_query_kind(self, tmp_path, corpus, trained, capsys):
        for kinds in ([], ["--sentence", "c0w1", "--image-id", "c0img000"]):
            err = assert_one_error_line(
                capsys, "ConfigError", tmp_path / "none", "query", "--checkpoint", str(trained / "checkpoint.bin"),
                "--features", str(corpus / "features.txt"), *kinds,
            )
            assert err == "error ConfigError: provide exactly one of --sentence or --image-id\n"


def command_argv(command, corpus, out, checkpoint, features, captions=None):
    """An ``evaluate`` into ``out``, or a sentence ``query``, of ``checkpoint`` on ``features``."""
    if command == "query":
        return ["query", "--checkpoint", str(checkpoint), "--features", str(features), "--sentence", "c0w1 c0w2"]
    return ["evaluate", "--checkpoint", str(checkpoint), "--captions", str(captions or corpus / "captions.tsv"),
            "--features", str(features), "--out", str(out)]


@pytest.mark.parametrize("command", ["evaluate", "query"])
class TestCheckpointReadBesideTheFeatures:
    """``evaluate`` and ``query`` read and CRC-check the checkpoint file on a worker
    thread while the main thread parses ``--features``. The features' error waits
    until the command reads the features, so with two bad inputs the error of the one
    read first still wins, and no thread outlives the command, whether it succeeds or
    fails."""

    @pytest.fixture(autouse=True)
    def no_thread_outlives_the_command(self):
        before = threading.enumerate()
        yield
        assert threading.enumerate() == before

    def test_success(self, tmp_path, corpus, trained, capsys, command):
        argv = command_argv(command, corpus, tmp_path / "eval", trained / "checkpoint.bin",
                            corpus / "features.txt")
        assert run(capsys, *argv)[0] == 0

    def test_bad_checkpoint_wins_over_missing_features(self, tmp_path, corpus, capsys, command):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"definitely not a checkpoint")
        out = tmp_path / "eval"
        err = assert_one_error_line(capsys, "CheckpointCorruptError", out,
                                    *command_argv(command, corpus, out, junk, tmp_path / "missing.txt"))
        assert err == f"error CheckpointCorruptError: {junk}: not a checkpoint file\n"

    @pytest.mark.parametrize("features, error, message", [
        ("missing.txt", "FileNotFoundError", "[Errno 2] No such file or directory: '{}'"),
        ("bad.txt", "CorpusFormatError", "{}:1: non-integer header fields"),
    ], ids=["missing", "bad_header"])
    def test_bad_features_with_a_good_checkpoint(self, tmp_path, corpus, trained, capsys, command,
                                                 features, error, message):
        features = tmp_path / features
        if features.name == "bad.txt":
            features.write_text("x 8\n")
        out = tmp_path / "eval"
        err = assert_one_error_line(capsys, error, out,
                                    *command_argv(command, corpus, out, trained / "checkpoint.bin", features))
        assert err == f"error {error}: {message.format(features)}\n"

    @pytest.mark.parametrize("broken", ["read_checkpoint", "load_image_features"])
    def test_a_bug_on_either_thread_is_raised_as_it_is(self, tmp_path, corpus, trained, monkeypatch, command,
                                                       broken):
        """The exception itself reaches ``main``'s caller: a bug stays a traceback."""
        bug = KeyError("not a user error")

        def broken_call(path):
            raise bug

        monkeypatch.setattr(cli, broken, broken_call)
        with pytest.raises(KeyError) as exc:
            main(command_argv(command, corpus, tmp_path / "eval", trained / "checkpoint.bin",
                              corpus / "features.txt"))
        assert exc.value is bug

    def test_an_interrupted_parse_waits_for_the_read(self, tmp_path, corpus, trained, monkeypatch, command):
        """An exception that is not deferred, such as an interrupt, leaves the parse
        while the read still runs: the command ends only once the worker has."""
        class Interrupt(BaseException):
            pass

        ended = []

        def slow_read(path):
            time.sleep(0.2)
            ended.append(read_checkpoint(path))

        def interrupted_parse(path):
            raise Interrupt

        monkeypatch.setattr(cli, "read_checkpoint", slow_read)
        monkeypatch.setattr(cli, "load_image_features", interrupted_parse)
        with pytest.raises(Interrupt):
            main(command_argv(command, corpus, tmp_path / "eval", trained / "checkpoint.bin",
                              corpus / "features.txt"))
        assert len(ended) == 1

    def test_read_runs_beside_the_parse(self, tmp_path, corpus, trained, monkeypatch, capsys, command):
        """The checkpoint read waits until the parse has begun, which a read run before
        the parse would never see; it runs on a thread that is not the main one, and
        the parse on the main thread."""
        begun, threads = threading.Event(), {}

        def parse(path):
            threads["parse"] = threading.current_thread()
            begun.set()
            return load_image_features(path)

        def read(path):
            threads["read"] = threading.current_thread()
            assert begun.wait(timeout=30)
            return read_checkpoint(path)

        monkeypatch.setattr(cli, "load_image_features", parse)
        monkeypatch.setattr(cli, "read_checkpoint", read)
        argv = command_argv(command, corpus, tmp_path / "eval", trained / "checkpoint.bin",
                            corpus / "features.txt")
        assert run(capsys, *argv)[0] == 0
        assert threads["parse"] is threading.main_thread() and threads["read"] is not threading.main_thread()

    def test_refusal_before_any_read_reads_nothing(self, tmp_path, monkeypatch, capsys, command):
        calls = []
        monkeypatch.setattr(cli, "load_image_features", calls.append)
        monkeypatch.setattr(cli, "read_checkpoint", calls.append)
        out = tmp_path / "eval"
        argv = command_argv(command, tmp_path, out, tmp_path / "missing.bin", tmp_path / "missing.txt")
        assert_one_error_line(capsys, "ConfigError", out, *argv, "--ks" if command == "evaluate" else "--top-k", "0")
        assert calls == []


class TestInputsUnderLoad:
    def test_concurrent_loads_with_a_short_switch_interval(self, tmp_path, corpus, trained):
        """Six commands' loads at once, each with its reading worker, more threads than
        cores, at a 1 µs switch interval: each gets the checkpoint and features that
        loads on one thread give."""
        features, path = str(corpus / "features.txt"), str(trained / "checkpoint.bin")
        want_ckpt, want = load_checkpoint(path), load_image_features(features)
        got = []

        def one_command():
            ckpt, features_for = cli._load_inputs(path, features)
            got.append((ckpt, features_for()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=one_command) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 6
        for ckpt, store in got:
            assert ckpt.vocabulary.digest == want_ckpt.vocabulary.digest
            for side in ("textual_net", "visual_net"):
                params, want_params = getattr(ckpt.model, side).params, getattr(want_ckpt.model, side).params
                assert all((params[name] == want_params[name]).all() for name in want_params)
            assert store.ids() == want.ids()
            assert all((store.get(i) == want.get(i)).all() for i in want.ids())


class TestEvaluateRefusalOrder:
    """Each ``evaluate`` refusal that comes before the features still wins over bad
    corpus files, whose features are parsed beside the checkpoint read."""

    def test_vocabulary_mismatch_wins_over_bad_corpus_files(self, tmp_path, corpus, trained, capsys):
        other = tmp_path / "othervocab"
        assert run(capsys, "preprocess", "--captions", str(corpus / "captions.tsv"),
                   "--mode", "2g", "--max-size", "10", "--out", str(other))[0] == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("x 8\n")
        out = tmp_path / "eval"
        for features in (tmp_path / "missing.txt", bad):
            err = assert_one_error_line(
                capsys, "ConfigError", out,
                *command_argv("evaluate", corpus, out, trained / "checkpoint.bin", features,
                              captions=tmp_path / "missing.tsv"),
                "--vocab", str(other / "vocab.tsv"),
            )
            assert err == (f"error ConfigError: vocabulary digest mismatch: {other / 'vocab.tsv'} "
                           "does not match the checkpoint's vocabulary\n")

    def test_captions_error_wins_over_bad_features(self, tmp_path, corpus, trained, capsys):
        out = tmp_path / "eval"
        missing = tmp_path / "missing.tsv"
        err = assert_one_error_line(
            capsys, "FileNotFoundError", out,
            *command_argv("evaluate", corpus, out, trained / "checkpoint.bin", tmp_path / "missing.txt",
                          captions=missing),
        )
        assert err == f"error FileNotFoundError: [Errno 2] No such file or directory: '{missing}'\n"


@pytest.fixture
def writing_argv(request, corpus, prepped, command):
    """``writing_argv(out, *extra)``: the argv of ``command``, a command that writes files, into ``out``."""
    checkpoint = request.getfixturevalue("trained") / "checkpoint.bin" if command == "evaluate" else None

    def argv(out, *extra):
        if command == "synth":
            return ["synth", "--clusters", "3", "--images-per-cluster", "4", "--feature-dim", "8",
                    "--out", str(out), *extra]
        if command == "preprocess":
            return ["preprocess", "--captions", str(corpus / "captions.tsv"), "--out", str(out), *extra]
        if command == "train":
            return train_args(corpus, prepped, out, *extra)
        return [*command_argv(command, corpus, out, checkpoint, corpus / "features.txt"), *extra]

    return argv


@pytest.mark.parametrize("command", ["train", "evaluate"])
class TestUnusableOut:
    """``train`` and ``evaluate`` refuse an unusable ``--out`` before they read any input,
    with the error ``os.makedirs`` or the staging directory's creation raises: no epoch line
    or report comes first, and nothing is written."""

    @pytest.fixture
    def refuse(self, writing_argv, monkeypatch):
        """``(writing_argv, reads)``, with every input reader patched to record its calls in
        ``reads`` once ``writing_argv``'s inputs are made."""
        reads = []
        for name in ("load_vocabulary", "load_captions", "load_image_features", "read_checkpoint"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: reads.append(name))
        return writing_argv, reads

    @pytest.mark.parametrize("below, named, error", [
        ((), (), "FileExistsError: [Errno 17] File exists"),
        (("run",), ("run",), "NotADirectoryError: [Errno 20] Not a directory"),
        (("run", "eval"), ("run",), "NotADirectoryError: [Errno 20] Not a directory"),
    ], ids=["is_a_file", "under_a_file", "two_below_a_file"])
    def test_refused_before_any_input_is_read(self, tmp_path, capsys, refuse, below, named, error):
        argv, reads = refuse
        out = tmp_path.joinpath("notadir", *below)
        (tmp_path / "notadir").write_text("a file\n")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        # nothing can exist below a file: the snapshot checks that nothing is written
        err = assert_one_error_line(capsys, error.split(":")[0], out / "x", *argv(out))
        assert err == f"error {error}: '{tmp_path.joinpath('notadir', *named)}'\n"
        assert reads == []
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("case", ["empty", "dangling_symlink", "staging_refused"])
    def test_refused_before_any_input_is_read_creating_nothing(self, tmp_path, capsys, monkeypatch, refuse,
                                                               case):
        """An empty ``--out``, a dangling symlink, and a new ``a/b/out`` in which the staging
        directory cannot be made, as in a directory this user may not write: one error line,
        no input read, and every path under the test directory as it was, ``a`` not made."""
        argv, reads = refuse
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        if case == "empty":
            out, error = "", re.escape("FileNotFoundError: [Errno 2] No such file or directory: ''")
        elif case == "dangling_symlink":
            out = tmp_path / "link"
            out.symlink_to(tmp_path / "nowhere")
            error = re.escape(f"FileExistsError: [Errno 17] File exists: '{out}'")
        else:
            out = tmp_path / "a" / "b" / "out"
            error = re.escape(f"PermissionError: [Errno 13] Permission denied: '{out}/staging-") + r"\w+\.tmp'"
            real_mkdir = os.mkdir

            def mkdir(path, *args, **kwargs):
                if os.path.basename(path).startswith("staging-"):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
                return real_mkdir(path, *args, **kwargs)

            monkeypatch.setattr(os, "mkdir", mkdir)
        before = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
        err = assert_one_error_line(capsys, error.split(":")[0], cwd / "x", *argv(out))
        assert re.fullmatch(f"error {error}\n", err), err
        assert reads == []
        assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == before


# each writing command's files, in the order they are renamed into --out, and a change of
# its argv that changes their bytes
WRITTEN = {
    "synth": (("captions.tsv", "features.txt"), ("--seed", "5")),
    "preprocess": (("vocab.tsv",), ("--max-size", "10")),
    "train": (("checkpoint.bin", "history.tsv", "manifest.json"), ("--seed", "5")),
    "evaluate": (("report_annotation.kv", "report_annotation.txt", "report_search.kv", "report_search.txt"),
                 ("--ks", "1,2")),
}
# each writing command's argv change that it refuses once --out is made
REFUSED = {"synth": ("--clusters", "0"), "preprocess": ("--max-size", "0"), "train": ("--epochs", "-1"),
           "evaluate": ("--ks", "0")}


@pytest.mark.parametrize("command", sorted(WRITTEN))
class TestOutputSet:
    """Each writing command writes its files into a staging directory inside ``--out`` and
    renames them into ``--out`` once all are complete. A command that fails or is interrupted
    before the renames leaves an earlier run in ``--out`` byte for byte, and a new ``--out``
    not made at all; neither keeps a staging directory or temporary file."""

    @staticmethod
    def snapshot(out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def test_a_failed_write_leaves_no_trace(self, tmp_path, capsys, monkeypatch, writing_argv, command):
        """An ``OSError`` at each file's open for writing, and at the first rename into
        ``--out``: into an earlier run, each failure leaves it byte for byte; into a new
        ``a/b/out``, each leaves no ``a``. A run that succeeds renames ``manifest.json`` last."""
        names, change = WRITTEN[command]
        out = tmp_path / "earlier"
        assert run(capsys, *writing_argv(out))[0] == 0
        earlier = self.snapshot(out)
        assert sorted(earlier) == list(names)
        real_open, real_replace, events = builtins.open, os.replace, []

        def event(kind, path):
            events.append((kind, path))
            if len(events) == failing:
                raise OSError(errno.EIO, os.strerror(errno.EIO))

        def open_for_writing(file, mode="r", *args, **kwargs):
            if "w" in mode:
                event("write", file)
            return real_open(file, mode, *args, **kwargs)

        def replace(src, dst):
            if os.path.dirname(dst) == str(target):
                event("rename", dst)
            return real_replace(src, dst)

        monkeypatch.setattr(builtins, "open", open_for_writing)
        monkeypatch.setattr(os, "replace", replace)
        # a failure after the first rename into --out falls in the renames' window
        for failing in range(1, len(names) + 2):
            for target in (out, tmp_path / f"new{failing}" / "b" / "out"):
                events.clear()
                rc, stdout, err = run(capsys, *writing_argv(target, *change))
                assert (rc, stdout) == (1, ""), (failing, target, err)
                assert err.splitlines()[-1] == f"error OSError: [Errno {errno.EIO}] {os.strerror(errno.EIO)}"
                assert [line for line in err.splitlines() if line.startswith("error ")] == err.splitlines()[-1:]
                assert len(events) == failing and events[-1][0] == ("write", "rename")[failing > len(names)]
                assert leftovers(target) == []
                if target == out:
                    assert self.snapshot(out) == earlier
                else:
                    assert not (tmp_path / f"new{failing}").exists()
        failing, target = 0, out
        events.clear()
        assert run(capsys, *writing_argv(out, *change))[0] == 0
        assert events[len(names):] == [("rename", str(out / name)) for name in names]
        # the failing runs would have changed the earlier run's bytes
        assert sorted(self.snapshot(out)) == list(names) and self.snapshot(out) != earlier

    def test_an_interrupt_ends_as_one_line_and_leaves_no_trace(self, tmp_path, capsys, monkeypatch, writing_argv,
                                                               command):
        """A Ctrl-C while the command works exits 130 with one ``error KeyboardInterrupt:``
        line, once the staging directory, and a new ``--out``, are gone."""
        out = tmp_path / "earlier"
        assert run(capsys, *writing_argv(out))[0] == 0
        earlier = self.snapshot(out)

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        work = {"synth": "generate_synthetic_corpus", "preprocess": "build_vocabulary", "train": "train",
                "evaluate": "build_rankings"}[command]
        monkeypatch.setattr(cli, work, interrupt)
        for target in (out, tmp_path / "new" / "b" / "out"):
            try:
                result = run(capsys, *writing_argv(target))
            except KeyboardInterrupt:  # would end the test session, not fail the test
                pytest.fail("the interrupt left main")
            assert result == (130, "", "error KeyboardInterrupt: KeyboardInterrupt\n")
            assert leftovers(target) == []
        assert self.snapshot(out) == earlier and not (tmp_path / "new").exists()

    @pytest.mark.parametrize("out, present, made", [("x/../y", [], "x"), ("nope/../keep", ["keep"], "nope"),
                                                    ("a/b/../c", ["a"], "a/b")])
    def test_a_dotdot_after_a_missing_directory_leaves_nothing(self, tmp_path, capsys, monkeypatch, writing_argv,
                                                               command, out, present, made):
        """``makedirs`` makes the missing directory before a ``..`` too; a refused command
        removes it, and keeps an empty directory that the ``..`` path names."""
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        for name in present:
            (cwd / name).mkdir()
        assert_one_error_line(capsys, "ConfigError", cwd / made, *writing_argv(out, *REFUSED[command]))
        assert sorted(p.name for p in cwd.rglob("*")) == present


def test_a_directory_another_command_wrote_into_stays(tmp_path, capsys, monkeypatch):
    """Two commands into new siblings under one new directory, run at once: the one that
    fails removes its own ``--out`` and staging directory, not the other's files beside it."""
    sweep = tmp_path / "sweep"

    def the_other_writes_then_this_fails(**kwargs):
        (sweep / "b").mkdir()
        (sweep / "b" / "captions.tsv").write_text("the other run's file\n")
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(cli, "generate_synthetic_corpus", the_other_writes_then_this_fails)
    assert run(capsys, "synth", "--out", str(sweep / "a"))[0] == 1
    assert sorted(p.relative_to(sweep) for p in sweep.rglob("*")) == [Path("b"), Path("b/captions.tsv")]


class TestOverflowingEmbedding:
    @pytest.fixture
    def overflowing(self, tmp_path, capsys):
        """A checkpoint trained one epoch on the default 40-image synth corpus,
        then re-saved with its visual w0 scaled by 1e200: it passes every
        check, and every image's squared norm overflows."""
        corpus, prep, trained = tmp_path / "corpus", tmp_path / "prep", tmp_path / "run"
        assert run(capsys, "synth", "--seed", "7", "--out", str(corpus))[0] == 0
        assert run(capsys, "preprocess", "--captions", str(corpus / "captions.tsv"), "--out", str(prep))[0] == 0
        rc, _, err = run(
            capsys, "train", "--captions", str(corpus / "captions.tsv"),
            "--features", str(corpus / "features.txt"), "--vocab", str(prep / "vocab.tsv"),
            "--n-test", "8", "--val-frac", "0.15", "--epochs", "1", "--n-emb", "16", "--out", str(trained),
        )
        assert rc == 0, err
        ckpt = load_checkpoint(str(trained / "checkpoint.bin"))
        ckpt.model.visual_net.params["w0"] *= 1e200
        path = tmp_path / "overflowing.bin"
        save_checkpoint(str(path), ckpt.model, ckpt.vocabulary, ckpt.train_config, ckpt.history,
                        data_config=ckpt.data_config)
        return path, corpus

    @pytest.mark.parametrize("command", ["evaluate", "query"])
    def test_one_error_line(self, tmp_path, overflowing, capsys, command):
        """Not a RuntimeWarning (the suite makes one an error), nor NaN or 0 scores."""
        ckpt, corpus = overflowing
        out = tmp_path / "eval"
        extra = (["--captions", str(corpus / "captions.tsv"), "--out", str(out)] if command == "evaluate"
                 else ["--sentence", "c0w1 c0w2"])
        assert_one_error_line(capsys, "NonFiniteGradientError", out, command, "--checkpoint", str(ckpt),
                              "--features", str(corpus / "features.txt"), *extra)


class TestProcess:
    """The installed ``crossmodal`` script runs the same ``cli.entry`` as ``python -m crossmodal.cli``."""

    def test_refusals_in_a_new_process(self, tmp_path, corpus, prepped, trained, monkeypatch):
        """A refusal before any file is read, a corrupt checkpoint, alone and with missing
        features, an overflow behind hidden layers, and a result that stdout's encoding cannot
        write: exit 1, nothing on stdout, no traceback or warning on stderr beside the one
        error line, and no ``--out``."""
        out = tmp_path / "out"
        err = assert_one_error_line(
            None, "ConfigError", out, "evaluate", "--checkpoint", str(tmp_path / "missing.bin"),
            "--captions", str(tmp_path / "missing.tsv"), "--features", str(tmp_path / "missing.txt"),
            "--ks", "5,5", "--out", str(out),
        )
        assert err == "error ConfigError: --ks repeats a cutoff: '5,5'\n"
        assert_one_error_line(None, "ConfigError", out, "synth", "--clusters", "x", "--out", str(out))
        blob = (trained / "checkpoint.bin").read_bytes()
        header = read_header(blob)
        header["data_config"]["n_test"] = -1
        resign(tmp_path / "negative.bin", blob, header=header)
        assert_one_error_line(
            None, "CheckpointCorruptError", out, "evaluate", "--checkpoint", str(tmp_path / "negative.bin"),
            "--captions", str(corpus / "captions.tsv"), "--features", str(corpus / "features.txt"),
            "--out", str(out),
        )
        assert_one_error_line(None, "NonFiniteGradientError", out, *train_args(
            corpus, prepped, out, "--lr", "1e200", "--n-hu", "6", "--visual-n-hu", "6"))
        # two bad inputs: the checkpoint's error wins, and the worker's goes nowhere
        for command in ("evaluate", "query"):
            assert_one_error_line(None, "CheckpointCorruptError", out, *command_argv(
                command, corpus, out, tmp_path / "negative.bin", tmp_path / "missing.txt"))
        (tmp_path / "q.tsv").write_text("c1img003\t0\tc1w1 caf\u00e9\n", encoding="utf-8")
        monkeypatch.setenv("PYTHONIOENCODING", "ascii")
        err = assert_one_error_line(
            None, "ConfigError", out, "query", "--checkpoint", str(trained / "checkpoint.bin"), "--features",
            str(corpus / "features.txt"), "--captions", str(tmp_path / "q.tsv"), "--image-id", "c1img003",
        )
        assert err == ("error ConfigError: stdout's encoding ascii cannot write the output; "
                       "run with PYTHONIOENCODING=utf-8\n")

    def test_evaluate_into_a_reader_that_closes_after_one_byte(self, tmp_path, corpus, trained):
        """``evaluate`` and ``query`` piped into a reader that closes after one byte
        exit 0 with the stderr of an unpiped run, whether or not a stdout write meets
        the closed pipe; ``evaluate`` writes its reports before stdout, so each run
        leaves all four. The image query prints more than a pipe holds (64 KiB on
        Linux), so its writes meet the closed pipe on every attempt."""
        # 40 copies of each image's captions, under new image ids
        captions = tmp_path / "captions.tsv"
        captions.write_text("".join(f"{image_id}x{copy}\t{rest}"
                                    for line in (corpus / "captions.tsv").read_text().splitlines(True)
                                    for image_id, rest in [line.split("\t", 1)] for copy in range(40)))
        evaluate = ("evaluate", "--captions", str(corpus / "captions.tsv"), "--out")
        query = ("query", "--captions", str(captions), "--image-id", "c0img000", "--top-k", "5000")
        for attempt in range(3):
            out = tmp_path / f"eval{attempt}"
            for argv, usual_err in ((evaluate + (str(out),), f"reports written to {out}\n"), (query, "")):
                with cli_process(*argv, "--checkpoint", str(trained / "checkpoint.bin"),
                                 "--features", str(corpus / "features.txt"),
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0) as proc:
                    assert len(proc.stdout.read(1)) == 1
                    proc.stdout.close()
                    err = proc.stderr.read().decode()
                assert (proc.returncode, err) == (0, usual_err), err
            assert sorted(p.name for p in out.iterdir()) == [
                "report_annotation.kv", "report_annotation.txt", "report_search.kv", "report_search.txt"]


class TestBlasThreads:
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path, capsys):
        """A ``train`` on 4096-d features, large enough for OpenBLAS to split its products
        over threads, and an ``evaluate`` of it, each run in new processes under 1 and 2 BLAS
        threads: every file written and stdout are the same bytes, because the package pins
        BLAS to one thread before numpy is imported."""
        corpus, prep = tmp_path / "corpus", tmp_path / "prep"
        assert run(capsys, "synth", "--clusters", "4", "--images-per-cluster", "10", "--feature-dim", "4096",
                   "--vocab-per-cluster", "12", "--noise-sigma", "0.01", "--out", str(corpus))[0] == 0
        assert run(capsys, "preprocess", "--captions", str(corpus / "captions.tsv"), "--out", str(prep))[0] == 0
        data = ["--captions", str(corpus / "captions.tsv"), "--features", str(corpus / "features.txt")]
        outputs = []
        for threads in ("1", "2"):
            run_dir, eval_dir = tmp_path / f"run{threads}", tmp_path / f"eval{threads}"
            stdouts = []
            for argv in (["train", *data, "--vocab", str(prep / "vocab.tsv"), "--n-test", "8", "--val-frac", "0.2",
                          "--epochs", "3", "--out", str(run_dir)],
                         ["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin"), *data, "--out", str(eval_dir)]):
                env = src_env(**dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
                proc = subprocess.run([sys.executable, "-m", "crossmodal.cli", *argv], env=env, capture_output=True,
                                      timeout=300)
                assert proc.returncode == 0, proc.stderr.decode()
                stdouts.append(proc.stdout)
            outputs.append((stdouts, {(out.name[:-1], p.name): p.read_bytes()
                                      for out in (run_dir, eval_dir) for p in out.iterdir()}))
        assert len(outputs[0][1]) == 7
        assert outputs[0] == outputs[1]


def readme_commands():
    """The argv of each command of README's walkthrough. A line of the block that is neither
    blank, a comment nor a ``crossmodal`` command fails, so README and the tests cannot drift
    apart."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    walkthrough = readme.split("## Command-line walkthrough", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```bash\n(.*?)```", walkthrough, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("crossmodal "):
            commands.append(shlex.split(line)[1:])
        elif line.strip() and not line.startswith("#"):
            pytest.fail(f"README walkthrough line is not a crossmodal command: {line!r}")
    assert {argv[0] for argv in commands} == {"synth", "preprocess", "train", "evaluate", "query"}
    return commands


# runs the commands given as a JSON list of argv lists through main, stopping at the first failure
# or at the first command after which a module named by a further argument is loaded
RUN_COMMANDS = """\
import json, sys
from crossmodal.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(f"{argv} failed")
    if loaded := [name for name in sys.argv[2:] if name in sys.modules]:
        sys.exit(f"{argv} loaded {loaded}")
"""


class TestReadme:
    def test_walkthrough_runs_twice_with_identical_bytes(self, tmp_path, monkeypatch, capsys):
        """README's walkthrough, run through ``main`` command by command in two fresh
        directories: every command exits 0, and the two runs print the same stdout
        and write the same files, byte for byte."""
        commands = readme_commands()
        runs = []
        for name in ("first", "second"):
            cwd = tmp_path / name
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            stdouts = []
            for argv in commands:
                rc, stdout, err = run(capsys, *argv)
                assert rc == 0, (argv, err)
                stdouts.append(stdout)
            files = {str(p.relative_to(cwd)): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}
            runs.append((stdouts, files))
        (first_out, first_files), (second_out, second_files) = runs
        assert first_out == second_out
        assert sorted(first_files) == sorted(second_files)
        for path, data in first_files.items():
            assert data == second_files[path], path

    def test_no_command_loads_a_thread_pool_or_logging(self, tmp_path):
        """README's walkthrough (synth, preprocess, train, evaluate and both kinds of query)
        run through ``main`` in one new process loads neither ``concurrent.futures`` nor the
        ``logging`` it imports, so no command pays for their import."""
        proc = subprocess.run([sys.executable, "-c", RUN_COMMANDS, json.dumps(readme_commands()),
                               "concurrent.futures", "logging"],
                              cwd=tmp_path, env=src_env(), capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        """README's walkthrough, then a sequence-net T2I run with a hidden visual layer and a
        bag run with tf-idf and hidden layers on its corpus, each run in one new process under
        ``PYTHONHASHSEED`` 0 and 1: every file written and stdout have the same sha256, so no
        output follows the iteration order of a set or dict of strings."""
        data = ["--captions", "corpus/captions.tsv", "--features", "corpus/features.txt"]
        train = ["train", *data, "--vocab", "prep/vocab.tsv", "--n-test", "8", "--val-frac", "0.15",
                 "--epochs", "5", "--n-emb", "16", "--seed", "7", "--visual-n-hu", "8"]
        commands = readme_commands() + [
            [*train, "--out", "sse/", "--textual", "sse", "--methodology", "t2i",
             "--word-dim", "8", "--kernels", "8", "--window", "3"],
            [*train, "--out", "tfidf/", "--weighting", "tfidf", "--n-hu", "8"],
            ["evaluate", "--checkpoint", "sse/checkpoint.bin", *data, "--out", "eval_sse/"],
        ]
        digests = []
        for seed in ("0", "1"):
            cwd = tmp_path / f"hashseed{seed}"
            cwd.mkdir()
            proc = subprocess.run([sys.executable, "-c", RUN_COMMANDS, json.dumps(commands)], cwd=cwd,
                                  env=src_env(PYTHONHASHSEED=seed), capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr.decode()
            files = {str(p.relative_to(cwd)): hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in cwd.rglob("*") if p.is_file()}
            assert {"sse/checkpoint.bin", "tfidf/checkpoint.bin", "eval_sse/report_search.kv"} <= set(files)
            digests.append((hashlib.sha256(proc.stdout).hexdigest(), files))
        assert digests[0] == digests[1]
