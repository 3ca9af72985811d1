import contextlib
import errno
import json
import os
import re
import struct
import sys
import threading
import time
import zlib
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import crossmodal.checkpoint as checkpoint_mod
import crossmodal.corpus as corpus_mod
import crossmodal.text as text_mod
from crossmodal.checkpoint import beside, load_checkpoint, save_checkpoint
from crossmodal.corpus import (
    FeatureStore,
    PretrainedEmbeddings,
    SplitDataset,
    generate_synthetic_corpus,
)
from crossmodal.errors import CheckpointCorruptError, CheckpointVersionError
from crossmodal.nets import NetSpec, forward, init_net
from crossmodal.ranker import (
    EpochStats,
    RetrievalDataset,
    ScoreModel,
    TrainConfig,
    TrainHistory,
    cosine_score,
    train,
)
from crossmodal.text import Vocabulary, build_vocabulary, featurize, normalize_tokenize, vocabulary_text

from oracles import oracle_init_net, oracle_save_checkpoint, oracle_serial_save_checkpoint, oracle_vocab_digest

# the test split every run record holds
SPLIT = {"n_test": 3, "val_frac": 0.1}


@pytest.fixture
def setup(tmp_path):
    images, captions = generate_synthetic_corpus(3, 3, 8, 6, 0.1, seed=2)
    store = FeatureStore(images, 8)
    vocab = build_vocabulary(captions, "unigram", 500)
    model = ScoreModel(
        textual_net=init_net(NetSpec("bag", vocab.size, 8, n_hu=5), 4),
        visual_net=init_net(NetSpec("bag", 8, 8), 5),
    )
    config = TrainConfig(seed=4, max_epochs=3)
    history = TrainHistory(
        epochs=[EpochStats(1, 0.001, 48.0, 47.5), EpochStats(2, 0.00099, 30.25, 31.0)],
        best_epoch=2,
    )
    path = str(tmp_path / "model.ckpt")
    return images, captions, store, vocab, model, config, history, path


class TestRoundTrip:
    def test_parameters_bit_exact(self, setup):
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history, SPLIT)
        ckpt = load_checkpoint(path)
        for net_name in ("textual_net", "visual_net"):
            saved = getattr(model, net_name)
            loaded = getattr(ckpt.model, net_name)
            assert saved.spec == loaded.spec
            assert list(saved.params) == list(loaded.params)
            for name in saved.params:
                assert saved.params[name].tobytes() == loaded.params[name].tobytes()
        assert ckpt.train_config == config
        assert ckpt.history == history
        assert ckpt.vocabulary.term_to_index == vocab.term_to_index
        assert ckpt.vocabulary.doc_freq == vocab.doc_freq
        assert ckpt.vocabulary.n_docs == vocab.n_docs
        assert ckpt.data_config == SPLIT
        assert ckpt.vocabulary.digest == oracle_vocab_digest(vocab)
        with pytest.raises(FrozenInstanceError):  # so its cached digest cannot go stale
            ckpt.vocabulary.mode = "bigram"

    def test_an_older_header_with_max_size_loads_the_same(self, setup):
        """Older headers hold a vocabulary ``max_size``; a load ignores it."""
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history, SPLIT)
        blob = Path(path).read_bytes()
        header = read_header(blob)
        assert "max_size" not in header["vocabulary"]
        new = load_checkpoint(path)
        header["vocabulary"]["max_size"] = 5000
        resign(path, blob, header=header)
        old = load_checkpoint(path)
        for net_name in ("textual_net", "visual_net"):
            a, b = getattr(new.model, net_name), getattr(old.model, net_name)
            assert a.spec == b.spec
            assert [v.tobytes() for v in a.params.values()] == [v.tobytes() for v in b.params.values()]
        for field in ("train_config", "data_config", "history"):
            assert getattr(old, field) == getattr(new, field)
        assert old.vocabulary == new.vocabulary
        assert old.vocabulary.digest == new.vocabulary.digest == vocab.digest

    def test_scores_bit_identical_after_round_trip(self, setup):
        """Train a little first so the saved parameters are non-trivial."""
        images, captions, store, vocab, model, config, history, path = setup
        split = SplitDataset(
            {r.image_id for r in images[:6]}, {r.image_id for r in images[6:]}, set(), seed=0
        )
        data = RetrievalDataset(store, captions, split, vocab)
        trained, hist = train(model, data, TrainConfig(seed=4, max_epochs=2, val_pairs_per_epoch=50))
        save_checkpoint(path, trained, vocab, config, hist, SPLIT)
        ckpt = load_checkpoint(path)
        probe = [(cap.image_id, cap) for cap in captions[:10]]
        for image_id, cap in probe:
            vec = featurize(normalize_tokenize(cap.text), vocab, "binary")
            if not len(vec):
                continue
            e_img_a, _ = forward(trained.visual_net, store.get(image_id))
            e_txt_a, _ = forward(trained.textual_net, vec)
            e_img_b, _ = forward(ckpt.model.visual_net, store.get(image_id))
            e_txt_b, _ = forward(ckpt.model.textual_net, vec)
            assert cosine_score(e_img_a, e_txt_a) == cosine_score(e_img_b, e_txt_b)


def resign(path, blob, header=None, payload=None):
    """Write ``blob`` back with its header (a dict, or raw bytes) and/or
    payload replaced and a valid CRC."""
    header_end = 16 + struct.unpack("<Q", blob[8:16])[0]
    header_bytes = (
        blob[16:header_end] if header is None
        else header if isinstance(header, bytes)
        else json.dumps(header, sort_keys=True).encode()
    )
    payload = blob[header_end:-4] if payload is None else payload
    body = blob[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + payload
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", zlib.crc32(body)))


def read_header(blob):
    return json.loads(blob[16 : 16 + struct.unpack("<Q", blob[8:16])[0]])


def sequence_spec(vocab, **extra):
    """A sequence textual net's spec for ``vocab``, with ``extra`` fields set."""
    return NetSpec("sequence", vocab.size, 8, **{"word_dim": 5, "kernel_count": 6, "window": 3, **extra})


# the spec fields that make the setup's bag visual net a sequence net
VISUAL_SEQUENCE = {"kind": "sequence", "word_dim": 5, "kernel_count": 6, "window": 3}
# the visual nets that train never writes, by the spec fields that change the setup's, and the
# refusal of a checkpoint that holds one
VISUAL_NETS_TRAIN_NEVER_WRITES = pytest.mark.parametrize(
    "fields, message",
    [({"word_dim": 300, "window": 7}, "ConfigError: a bag net does not read word_dim, so it must be 0, not 300"),
     (VISUAL_SEQUENCE, "ValueError: the visual net must be a bag net, not a sequence net")],
    ids=["word_dim_and_window_for_the_visual_net", "sequence_visual_net"],
)


def write_with_visual_net(path, source, fields):
    """The checkpoint at ``source`` written to ``path`` around a visual net with ``fields``
    changed, as ``train`` never writes it. A sequence visual net is a valid spec, so the
    serial writer, which checks no run record, writes it with its own parameters. A bag spec
    with a sequence net's fields cannot be built, so the header is edited and re-signed."""
    if fields.get("kind") == "sequence":
        ckpt = load_checkpoint(source)
        ckpt.model.visual_net = init_net(replace(ckpt.model.visual_net.spec, **fields), 5)
        oracle_serial_save_checkpoint(path, ckpt.model, ckpt.vocabulary, ckpt.train_config, ckpt.history,
                                      ckpt.data_config)
    else:
        blob = Path(source).read_bytes()
        header = read_header(blob)
        header["visual_spec"].update(fields)
        resign(path, blob, header=header)


def on_a_sequence_net(mutate):
    """A header mutation made to a checkpoint whose textual net is a sequence net."""
    mutate.on_a_sequence_net = True
    return mutate


def on_a_linear_net(mutate):
    """A header mutation made to a checkpoint whose textual net has no hidden layer."""
    mutate.on_a_linear_net = True
    return mutate


MIB = 1 << 20


def large_model(vocab, case="bag", seed=11):
    """A model of several MiB (the visual w0 alone is 1500 x 300 float64, 3.6 MB):
    ``bag``, ``bag_hidden`` or a ``sequence`` textual net."""
    if case == "sequence":
        tspec = NetSpec("sequence", vocab.size, 300, word_dim=5, kernel_count=6, window=3)
    else:
        tspec = NetSpec("bag", vocab.size, 300, n_hu=5 if case == "bag_hidden" else 0)
    vspec = NetSpec("bag", 1500, 300, n_hu=300 if case == "bag_hidden" else 0)
    return ScoreModel(init_net(tspec, seed), init_net(vspec, seed + 1))


def unicode_vocabulary(vocab):
    """``vocab``'s counts under terms that JSON escapes: accents, CJK, a quote, a backslash."""
    terms = ["caf\u00e9", "\u65e5\u672c", 'say"when', "back\\slash"]
    terms += [f"t{i}" for i in range(vocab.size - len(terms))]
    return Vocabulary(vocab.mode, {t: i for i, t in enumerate(terms)},
                      {t: 1 + i % vocab.n_docs for i, t in enumerate(terms)}, vocab.n_docs)


class TestLayoutOracle:
    """Init and save against the hand-built parameter dicts and the
    in-memory writer they replaced: same names, same bytes."""

    @pytest.mark.parametrize(
        "case",
        ["bag", "bag_hidden", "sequence", "tfidf", "pretrained", "empty_history"],
    )
    def test_init_and_save_match_oracle(self, setup, tmp_path, case):
        images, captions, store, vocab, model, config, history, path = setup
        if case == "sequence":
            tspec = sequence_spec(vocab)
        else:
            tspec = NetSpec("bag", vocab.size, 8, n_hu=5 if case == "bag_hidden" else 0)
        vspec = NetSpec("bag", 8, 8, n_hu=4 if case == "bag_hidden" else 0)
        init_kwargs = {}
        if case == "pretrained":
            rng = np.random.default_rng(3)
            terms = sorted(vocab.term_to_index)[::2]
            vectors = {term: rng.normal(size=8) for term in terms}
            init_kwargs = {"pretrained": PretrainedEmbeddings(8, vectors), "vocab": vocab}
        if case == "tfidf":
            config = TrainConfig(seed=4, max_epochs=3, weighting="tfidf")
        if case == "empty_history":
            history = TrainHistory()
        models = [ScoreModel(init(tspec, 11, **init_kwargs), init(vspec, 12))
                  for init in (init_net, oracle_init_net)]
        for side in ("textual_net", "visual_net"):
            got, want = getattr(models[0], side), getattr(models[1], side)
            assert list(got.params) == list(want.params)
            for name in want.params:
                assert got.params[name].tobytes() == want.params[name].tobytes(), name
        oracle_path = str(tmp_path / "oracle.ckpt")
        save_checkpoint(path, models[0], vocab, config, history, SPLIT)
        oracle_save_checkpoint(oracle_path, models[1], vocab, config, history, SPLIT)
        with open(path, "rb") as fh, open(oracle_path, "rb") as want_fh:
            assert fh.read() == want_fh.read()
        loaded = load_checkpoint(path).model
        for side in ("textual_net", "visual_net"):
            saved = getattr(models[0], side)
            for name, arr in getattr(loaded, side).params.items():
                # a view of the file buffer, aligned so matmuls need not copy it
                assert not arr.flags.owndata and arr.flags.aligned and arr.flags.writeable
                assert arr.dtype == np.float64
                assert arr.tobytes() == saved.params[name].tobytes()


class TestSerialWriterOracle:
    """Preallocation and the CRC worker write the serial writer's bytes, on models of
    several MiB, whether or not the platform can reserve the file's size."""

    @pytest.mark.parametrize(
        "case",
        ["bag", "bag_hidden", "tfidf", "sequence", "unicode_terms", "no_posix_fallocate",
         "posix_fallocate_unsupported"],
    )
    def test_save_matches_serial_writer(self, setup, tmp_path, monkeypatch, case):
        images, captions, store, vocab, model, config, history, path = setup
        model = large_model(vocab, case if case in ("bag_hidden", "sequence") else "bag")
        if case == "tfidf":
            config = replace(config, weighting="tfidf")
        if case == "unicode_terms":
            vocab = unicode_vocabulary(vocab)
        reserved = []
        if case == "no_posix_fallocate":
            monkeypatch.delattr(os, "posix_fallocate")
        elif case == "posix_fallocate_unsupported":
            def unsupported(fd, offset, length):
                raise OSError(errno.EOPNOTSUPP, os.strerror(errno.EOPNOTSUPP))
            monkeypatch.setattr(os, "posix_fallocate", unsupported)
        else:
            real = os.posix_fallocate
            monkeypatch.setattr(os, "posix_fallocate", lambda *args: reserved.append(args[1:]) or real(*args))
        oracle_path = str(tmp_path / "oracle.ckpt")
        save_checkpoint(path, model, vocab, config, history, SPLIT)
        oracle_serial_save_checkpoint(oracle_path, model, vocab, config, history, SPLIT)
        blob = Path(path).read_bytes()
        assert blob == Path(oracle_path).read_bytes()
        assert len(blob) > 3 * MIB
        if "posix_fallocate" not in case:
            assert reserved == [(0, len(blob))]  # the exact final size, once
        loaded = load_checkpoint(path)
        for side in ("textual_net", "visual_net"):
            for name, arr in getattr(loaded.model, side).params.items():
                assert arr.tobytes() == getattr(model, side).params[name].tobytes()


    def test_concurrent_saves_and_loads_with_a_short_switch_interval(self, setup, tmp_path):
        """Six threads (on any core count) each save and load their own model while the
        interpreter switches threads every microsecond: every file still holds the serial
        writer's bytes, so no worker checksummed another save's chunks."""
        images, captions, store, vocab, model, config, history, path = setup
        models = [large_model(vocab, seed=20 + i) for i in range(6)]
        results = {}

        def save_and_load(i):
            mine = str(tmp_path / f"{i}.ckpt")
            save_checkpoint(mine, models[i], vocab, config, history, SPLIT)
            results[i] = load_checkpoint(mine).model.visual_net.params["w0"].tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=save_and_load, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for i, model in enumerate(models):
            oracle_serial_save_checkpoint(path, model, vocab, config, history, SPLIT)
            assert (tmp_path / f"{i}.ckpt").read_bytes() == Path(path).read_bytes()
            assert results[i] == model.visual_net.params["w0"].tobytes()


class FailingWrites:
    """A binary file whose ``k``-th write raises ENOSPC (none if ``k`` is 0); ``writes``
    counts them, and ``failed`` keeps the data of the write that raised."""

    def __init__(self, path, mode, k, **kwargs):
        self.fh, self.k, self.writes, self.failed = open(path, mode, **kwargs), k, 0, None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fileno(self):
        return self.fh.fileno()

    def write(self, data):
        self.writes += 1
        if self.writes == self.k:
            self.failed = data
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(data)


def enospc(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestFaultsLeaveNoTrace:
    """A save or a load that fails leaves the earlier file as it was, no temp file and
    no thread: the CRC worker is joined, and what it raised is raised in the caller."""

    @pytest.mark.parametrize(
        "fault", ["posix_fallocate", "first_write", "middle_write", "last_write", "crc32"]
    )
    def test_save_out_of_space(self, setup, monkeypatch, fault):
        images, captions, store, vocab, model, config, history, path = setup
        model = large_model(vocab)
        files, k = [], 0  # the k-th write of the latest save fails; none while k is 0

        def failing_open(name, mode, **kwargs):  # atomic_write's open
            files.append(FailingWrites(name, mode, k, **kwargs))
            return files[-1]

        monkeypatch.setattr(corpus_mod, "open", failing_open, raising=False)
        save_checkpoint(path, model, vocab, config, history, SPLIT)
        before, threads, writes = Path(path).read_bytes(), threading.enumerate(), files[-1].writes
        if fault == "posix_fallocate":
            monkeypatch.setattr(os, "posix_fallocate", enospc)
        elif fault == "crc32":
            monkeypatch.setattr(checkpoint_mod, "zlib", SimpleNamespace(crc32=enospc))
        else:
            k = {"first_write": 1, "middle_write": writes // 2, "last_write": writes}[fault]
        model.visual_net.params["w0"] += 1.0  # the same size, other bytes
        with pytest.raises(OSError) as exc:
            save_checkpoint(path, model, vocab, config, history, SPLIT)
        assert exc.value.errno == errno.ENOSPC
        if fault.endswith("_write"):
            assert files[-1].writes == k
        if fault == "last_write":  # the stored CRC, written once the worker is done
            assert memoryview(files[-1].failed).nbytes == 4
        assert Path(path).read_bytes() == before
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
        assert threading.enumerate() == threads

    @pytest.mark.parametrize(
        "fault",
        ["first_mib", "middle_mib", "last_mib", "truncated", "truncated_at_two_mib"],
    )
    def test_load_of_a_damaged_file(self, setup, fault):
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, large_model(vocab), vocab, config, history, SPLIT)
        blob = bytearray(Path(path).read_bytes())
        if fault == "truncated":
            del blob[len(blob) - MIB - 9 :]
        elif fault == "truncated_at_two_mib":
            del blob[2 * MIB + 4 :]
        else:  # a byte flipped in the file's first, a middle or its last MiB
            blob[{"first_mib": 100, "middle_mib": 2 * MIB - 3, "last_mib": len(blob) - 5}[fault]] ^= 0x10
        Path(path).write_bytes(blob)
        threads = threading.enumerate()
        with pytest.raises(CheckpointCorruptError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: checksum mismatch (truncated or corrupted)"
        assert Path(path).read_bytes() == blob
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
        assert threading.enumerate() == threads


class TestBeside:
    """``beside(work, main)`` runs ``work`` on a worker thread while ``main`` runs on the
    caller's, and joins the worker before it returns or raises. It raises what ``main``
    raised, else what ``work`` raised, each as the same object, else returns both results.
    Every case runs at the usual and at a 1 µs switch interval, and leaves no thread."""

    @pytest.fixture(autouse=True, params=[None, 1e-6], ids=["usual_switch", "1us_switch"])
    def no_thread_left(self, request):
        interval, threads = sys.getswitchinterval(), threading.enumerate()
        sys.setswitchinterval(request.param or interval)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)
        assert threading.enumerate() == threads

    def test_both_results_from_two_threads_at_once(self):
        """``work`` waits until ``main`` has begun, which it would never see if it ran
        first on the caller's thread."""
        begun, threads = threading.Event(), {}

        def work():
            threads["work"] = threading.current_thread()
            assert begun.wait(timeout=30)
            return "from work"

        def main():
            threads["main"] = threading.current_thread()
            begun.set()
            return "from main"

        assert beside(work, main) == ("from work", "from main")
        assert threads["main"] is threading.current_thread() is not threads["work"]

    @pytest.mark.parametrize("kind", [ValueError, KeyboardInterrupt])
    def test_work_error_raised_as_it_is_once_main_has_finished(self, kind):
        error, ended = kind("from work"), []

        def work():
            raise error

        def main():
            time.sleep(0.05)
            ended.append("main")

        with pytest.raises(kind) as exc:
            beside(work, main)
        assert exc.value is error and ended == ["main"]

    @pytest.mark.parametrize("kind", [KeyError, KeyboardInterrupt])
    def test_main_error_wins_over_work_error(self, kind):
        error = kind("from main")

        def work():
            raise ValueError("from work")

        def main():
            raise error

        with pytest.raises(kind) as exc:
            beside(work, main)
        assert exc.value is error

    @pytest.mark.parametrize("main_raises", [False, True], ids=["returns", "raises"])
    def test_slow_work_has_finished_before_the_call_ends(self, main_raises):
        ended = []

        def work():
            time.sleep(0.2)
            ended.append("work")

        def main():
            if main_raises:
                raise ValueError("from main")

        with pytest.raises(ValueError) if main_raises else contextlib.nullcontext():
            beside(work, main)
        assert ended == ["work"]


class TestFailureModes:
    def test_unknown_version(self, setup):
        *_, path = setup
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history, SPLIT)
        blob = bytearray(Path(path).read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        # keep the checksum valid so the version check is what fires
        import zlib
        blob[-4:] = zlib.crc32(bytes(blob[:-4])).to_bytes(4, "little")
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError, match="99"):
            load_checkpoint(path)

    def test_truncated_file(self, setup):
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history, SPLIT)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[: len(blob) - 9])
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(path)

    def test_flipped_payload_byte(self, setup):
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history, SPLIT)
        blob = bytearray(Path(path).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda h: h["train_config"].update(momentum=0.9),
            lambda h: h.pop("textual_spec"),
            lambda h: h["train_config"].update(margin=-1),
            lambda h: h["params"]["textual"].insert(0, h["params"]["textual"].pop(1)),
            lambda h: h["visual_spec"].update(input_dim=4),
            lambda h: h.update(data_config={"n_test": "8", "val_frac": 0.15}),
            lambda h: h.update(data_config=[1, 2]),
            lambda h: h.update(data_config=[]),
            lambda h: h.update(data_config={}),
            lambda h: h.pop("data_config"),
            lambda h: h.update(data_config={"n_test": -1, "val_frac": 0.15}),
            lambda h: h.update(data_config={"n_test": 8, "val_frac": 1.5}),
            lambda h: h["vocabulary"].update(mode=None),
            lambda h: h["vocabulary"]["terms"][0].__setitem__(1, h["vocabulary"]["n_docs"] + 1),
            lambda h: h["train_config"].update(seed=[1]),
            lambda h: h["vocabulary"]["terms"].append(["zzz", 1]),
            lambda h: h["vocabulary"]["terms"].pop(),
            lambda h: h["vocabulary"]["terms"][1].__setitem__(0, h["vocabulary"]["terms"][0][0]),
            lambda h: h["vocabulary"]["terms"].insert(0, h["vocabulary"]["terms"].pop(1)),
            lambda h: h.update(vocab_digest="0" * 64),
            lambda h: h["history"].update(best_epoch=99),
            lambda h: h["history"].update(best_epoch=-4),
            lambda h: h["history"].update(best_epoch=0),
            lambda h: h["history"].update(best_epoch=3, epochs=[]),
            on_a_sequence_net(lambda h: h["train_config"].update(weighting="tfidf")),
            on_a_sequence_net(lambda h: h["textual_spec"].update(n_hu=6)),
            lambda h: h["textual_spec"].update(word_dim=300),
            lambda h: h["history"].update(best_epoch=True),
            lambda h: h["history"].update(best_epoch=2.0),
            lambda h: h["history"]["epochs"][0].__setitem__(1, "0.001"),
            lambda h: h["history"]["epochs"][1].__setitem__(3, "31.0"),
            lambda h: h["history"]["epochs"][1].__setitem__(0, 5),
            lambda h: h["history"].update(epochs=h["history"]["epochs"][::-1]),
            lambda h: h["train_config"].update(margin=True),
            lambda h: h["train_config"].update(max_epochs=3.0),
            lambda h: h["train_config"].update(val_pairs_per_epoch=True),
            on_a_linear_net(lambda h: h["textual_spec"].update(n_hu=0.0)),
            lambda h: h["visual_spec"].update(n_hu=0.0),
        ],
        ids=[
            "unknown_train_config_key",
            "missing_textual_spec",
            "negative_margin",
            "reordered_manifest",
            "spec_mismatches_manifest",
            "string_n_test",
            "list_data_config",
            "empty_list_data_config",
            "empty_data_config",
            "missing_data_config",
            "negative_n_test",
            "val_frac_past_one",
            "null_vocabulary_mode",
            "doc_freq_past_n_docs",
            "list_seed",
            "extra_term",
            "missing_term",
            "duplicate_term",
            "swapped_terms",
            "stale_digest",
            "best_epoch_past_the_epochs",
            "negative_best_epoch",
            "zero_best_epoch_after_epochs",
            "best_epoch_without_epochs",
            "tfidf_for_a_sequence_net",
            "n_hu_for_a_sequence_net",
            "word_dim_for_a_bag_net",
            "true_best_epoch",
            "float_best_epoch",
            "string_lr",
            "string_val_err",
            "epochs_numbered_1_5",
            "epochs_numbered_2_1",
            "true_margin",
            "float_max_epochs",
            "true_val_pairs_per_epoch",
            "float_textual_n_hu",
            "float_visual_n_hu",
        ],
    )
    def test_bad_header_with_valid_checksum(self, setup, mutate):
        images, captions, store, vocab, model, config, history, path = setup
        if getattr(mutate, "on_a_sequence_net", False):
            model.textual_net = init_net(sequence_spec(vocab), 4)
        if getattr(mutate, "on_a_linear_net", False):
            model.textual_net = init_net(NetSpec("bag", vocab.size, 8), 4)
        save_checkpoint(path, model, vocab, config, history, SPLIT)
        blob = Path(path).read_bytes()
        header = read_header(blob)
        mutate(header)
        resign(path, blob, header=header)
        with pytest.raises(CheckpointCorruptError, match="invalid header"):
            load_checkpoint(path)

    @VISUAL_NETS_TRAIN_NEVER_WRITES
    def test_visual_net_that_train_never_writes(self, setup, fields, message):
        """``train`` always writes a bag visual net with no sequence fields; a file written
        otherwise does not load."""
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history, SPLIT)
        write_with_visual_net(path, path, fields)
        with pytest.raises(CheckpointCorruptError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: invalid header ({message})"

    @pytest.mark.parametrize("case", ["extra_term", "missing_term", "duplicate_term"])
    def test_header_vocabulary_follows_the_vocab_tsv_rule(self, setup, case):
        """The textual net's input rows declare the size; the fault is named as in vocab.tsv."""
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history, SPLIT)
        blob = Path(path).read_bytes()
        header = read_header(blob)
        terms, size = header["vocabulary"]["terms"], vocab.size
        if case == "extra_term":
            terms.append(["zzz", 1])
            inner = f"vocabulary term {size}: index {size} is not a free index in 0..{size - 1}"
        elif case == "missing_term":
            terms.pop()
            inner = f"vocabulary: header declares {size} terms, found {size - 1}"
        else:
            terms[1][0] = terms[0][0]
            inner = f"vocabulary term 1: duplicate term {terms[0][0]!r}"
        resign(path, blob, header=header)
        with pytest.raises(CheckpointCorruptError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: invalid header (VocabularyError: {inner})"

    @pytest.mark.parametrize("extra", [8, -8], ids=["8_bytes_long", "8_bytes_short"])
    def test_payload_size_with_valid_checksum(self, setup, extra):
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history, SPLIT)
        blob = Path(path).read_bytes()
        header_end = 16 + struct.unpack("<Q", blob[8:16])[0]
        payload = blob[header_end:-4]
        resign(path, blob, payload=payload + bytes(extra) if extra > 0 else payload[:extra])
        with pytest.raises(CheckpointCorruptError, match="parameter data size"):
            load_checkpoint(path)


class TestSave:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda net: net.params.update(extra=np.zeros(3)),
            lambda net: net.params.update(w0=net.params["w0"][:, :-1]),
            lambda net: net.params.update(b0=net.params.pop("b0")),  # moved after w1 and b1
        ],
        ids=["extra_param", "misshapen_param", "reordered_params"],
    )
    def test_params_not_matching_spec_refused(self, setup, mutate):
        images, captions, store, vocab, model, config, history, path = setup
        mutate(model.textual_net)
        with pytest.raises(ValueError, match="textual net parameters do not match its spec"):
            save_checkpoint(path, model, vocab, config, history, SPLIT)
        assert os.listdir(os.path.dirname(path)) == []

    @pytest.mark.parametrize(
        "record, message",
        [
            (dict(data_config={"n_test": -1, "val_frac": 0.5}), "n_test=-1 must be at least 0"),
            (dict(data_config={"n_test": 8, "val_frac": 2.0}), "val_frac=2.0 outside"),
            (dict(data_config={"n_test": 8.0, "val_frac": 0.15}), "data_config must be"),
            (dict(data_config={"n_test": 8}), "data_config must be"),
            (dict(data_config={"n_test": 8, "val_frac": 0.15, "seed": 4}), "data_config must be"),
            (dict(data_config={}), "data_config must be an int n_test and a float val_frac"),
            (dict(best_epoch=99), "best_epoch 99 is not one of the 2 epochs"),
            (dict(best_epoch=-4), "best_epoch -4 is not one of the 2 epochs"),
            (dict(best_epoch=0), "best_epoch 0 is not one of the 2 epochs"),
            (dict(best_epoch=3, epochs=0), "best_epoch 3 is not one of the 0 epochs"),
            (dict(sequence={}, weighting="tfidf"),
             "a sequence textual net does not read weighting, so it must be 'binary', not 'tfidf'"),
            (dict(sequence={"n_hu": 6}), "a sequence net does not read n_hu, so it must be 0, not 6"),
            (dict(bag={"word_dim": 300}), "a bag net does not read word_dim, so it must be 0, not 300"),
            (dict(visual={"word_dim": 300, "window": 7}), "a bag net does not read word_dim, so it must be 0, not 300"),
            (dict(visual=VISUAL_SEQUENCE), "the visual net must be a bag net, not a sequence net"),
            (dict(best_epoch=True), "history best_epoch must be of type int, not True"),
            (dict(config={"margin": 1}), "train_config margin must be of type float, not 1"),
            (dict(config={"max_epochs": 3.0}), "train_config max_epochs must be of type int, not 3.0"),
            (dict(visual={"n_hu": 0.0}), "visual_spec n_hu must be of type int, not 0.0"),
            (dict(rows=[(1, 0.001, 48.0, 47.5), (2, 0.00099, 30.25, "31.0")]),
             "epoch row 2 val_err must be of type float, not '31.0'"),
            (dict(rows=[(1, 0.001, 48.0, 47.5), (3, 0.00099, 30.25, 31.0)]), "epoch row 2 is numbered 3, not 2"),
        ],
        ids=["negative_n_test", "val_frac_past_one", "float_n_test", "no_val_frac", "extra_key",
             "empty_data_config", "best_epoch_past_the_epochs", "negative_best_epoch", "zero_best_epoch_after_epochs",
             "best_epoch_without_epochs", "tfidf_for_a_sequence_net", "n_hu_for_a_sequence_net",
             "word_dim_for_a_bag_net", "word_dim_and_window_for_the_visual_net", "sequence_visual_net",
             "true_best_epoch", "int_margin", "float_max_epochs", "float_visual_n_hu", "string_val_err",
             "epochs_numbered_1_3"],
    )
    def test_run_record_that_load_refuses_is_not_saved(self, setup, record, message):
        """The rule load_checkpoint holds a header's net specs, weighting, data_config
        and best_epoch to, and the types of their fields, checked before the temp file
        opens; a spec with a field its kind does not read is refused as it is built, and
        a visual net that is not a bag net as the save checks the model. ``record``
        changes the setup's: ``sequence`` swaps in a sequence textual net with these extra
        spec fields, ``bag`` sets these fields of the setup's bag textual net, ``visual``
        these fields of its visual net, ``config`` these train config fields, ``rows``
        replaces the epochs."""
        images, captions, store, vocab, model, config, history, path = setup
        epochs = [EpochStats(*row) for row in record["rows"]] if "rows" in record else history.epochs
        history = TrainHistory(epochs=epochs[:record.get("epochs", 2)],
                               best_epoch=record.get("best_epoch", history.best_epoch))
        config = replace(config, weighting=record.get("weighting", config.weighting), **record.get("config", {}))
        with pytest.raises(ValueError, match=re.escape(message)):
            if "sequence" in record:
                model.textual_net = init_net(sequence_spec(vocab, **record["sequence"]), 4)
            if "bag" in record:
                model.textual_net = init_net(replace(model.textual_net.spec, **record["bag"]), 4)
            if "visual" in record:
                model.visual_net = init_net(replace(model.visual_net.spec, **record["visual"]), 5)
            save_checkpoint(path, model, vocab, config, history, record.get("data_config", SPLIT))
        assert os.listdir(os.path.dirname(path)) == []

    def test_save_without_a_split_refused(self, setup):
        """Every run record holds its test split: a save given none, or None, raises before
        the temp file opens."""
        images, captions, store, vocab, model, config, history, path = setup
        with pytest.raises(TypeError, match="data_config"):
            save_checkpoint(path, model, vocab, config, history)
        with pytest.raises(TypeError, match="NoneType"):
            save_checkpoint(path, model, vocab, config, history, None)
        assert os.listdir(os.path.dirname(path)) == []

    @pytest.mark.parametrize("delta", [1, -1], ids=["one_term_more", "one_term_fewer"])
    def test_vocabulary_not_fitting_the_textual_net_refused(self, setup, delta):
        images, captions, store, vocab, model, config, history, path = setup
        spec = NetSpec("bag", vocab.size + delta, 8, n_hu=5)
        model.textual_net = init_net(spec, 4)
        with pytest.raises(ValueError, match="does not fit the textual net"):
            save_checkpoint(path, model, vocab, config, history, SPLIT)
        assert os.listdir(os.path.dirname(path)) == []

    def test_vocabulary_hashed_once_per_object(self, setup, tmp_path, monkeypatch):
        images, captions, store, vocab, model, config, history, path = setup
        calls = []

        def counting(v):
            calls.append(v)
            return vocabulary_text(v)

        monkeypatch.setattr(text_mod, "vocabulary_text", counting)
        for i in range(3):
            save_checkpoint(path, model, vocab, config, history, SPLIT)
            oracle_save_checkpoint(str(tmp_path / "oracle.ckpt"), model, vocab, config, history, SPLIT)
            assert Path(path).read_bytes() == (tmp_path / "oracle.ckpt").read_bytes()
        assert calls == [vocab]

    def test_failed_save_keeps_previous_file(self, setup, monkeypatch):
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history, SPLIT)
        before = Path(path).read_bytes()
        calls = []

        def failing_crc32(data, value=0):
            calls.append(len(data))
            if len(calls) == 5:  # after the header and two parameters went out
                raise OSError("disk full")
            return zlib.crc32(data, value)

        monkeypatch.setattr(checkpoint_mod, "zlib", SimpleNamespace(crc32=failing_crc32))
        model.visual_net.params["w0"] += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, vocab, config, TrainHistory(), SPLIT)
        assert Path(path).read_bytes() == before
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
