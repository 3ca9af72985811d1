import json
import os
import struct
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import crossmodal.checkpoint as checkpoint_mod
from crossmodal.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    vocab_digest,
)
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
from crossmodal.text import build_vocabulary, featurize

from oracles import oracle_init_net, oracle_save_checkpoint


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
        save_checkpoint(path, model, vocab, config, history, {"n_test": 3, "val_frac": 0.1})
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
        assert ckpt.data_config == {"n_test": 3, "val_frac": 0.1}
        assert ckpt.vocab_digest == vocab_digest(vocab)

    def test_scores_bit_identical_after_round_trip(self, setup):
        """Train a little first so the saved parameters are non-trivial."""
        images, captions, store, vocab, model, config, history, path = setup
        split = SplitDataset(
            {r.image_id for r in images[:6]}, {r.image_id for r in images[6:]}, set(), seed=0
        )
        data = RetrievalDataset(store, captions, split, vocab)
        trained, hist = train(model, data, TrainConfig(seed=4, max_epochs=2, val_pairs_per_epoch=50))
        save_checkpoint(path, trained, vocab, config, hist)
        ckpt = load_checkpoint(path)
        probe = [(cap.image_id, cap) for cap in captions[:10]]
        for image_id, cap in probe:
            vec = featurize(cap.tokens, vocab, "binary")
            if not len(vec):
                continue
            e_img_a, _ = forward(trained.visual_net, store.get(image_id))
            e_txt_a, _ = forward(trained.textual_net, vec)
            e_img_b, _ = forward(ckpt.model.visual_net, store.get(image_id))
            e_txt_b, _ = forward(ckpt.model.textual_net, vec)
            assert cosine_score(e_img_a, e_txt_a) == cosine_score(e_img_b, e_txt_b)


def resign(path, blob, header=None, payload=None):
    """Write ``blob`` back with its header and/or payload replaced and a valid CRC."""
    header_end = 16 + struct.unpack("<Q", blob[8:16])[0]
    header_bytes = (
        blob[16:header_end] if header is None else json.dumps(header, sort_keys=True).encode()
    )
    payload = blob[header_end:-4] if payload is None else payload
    body = blob[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + payload
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", zlib.crc32(body)))


def read_header(blob):
    return json.loads(blob[16 : 16 + struct.unpack("<Q", blob[8:16])[0]])


class TestLayoutOracle:
    """Init and save against the hand-built parameter dicts and the
    in-memory writer they replaced: same names, same bytes."""

    @pytest.mark.parametrize(
        "case",
        ["bag", "bag_hidden", "sequence", "tfidf", "pretrained", "empty_history", "no_data_config"],
    )
    def test_init_and_save_match_oracle(self, setup, tmp_path, case):
        images, captions, store, vocab, model, config, history, path = setup
        if case == "sequence":
            tspec = NetSpec("sequence", vocab.size, 8, word_dim=5, kernel_count=6, window=3)
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
        data_config = None if case == "no_data_config" else {"n_test": 3, "val_frac": 0.1}
        models = [ScoreModel(init(tspec, 11, **init_kwargs), init(vspec, 12))
                  for init in (init_net, oracle_init_net)]
        for side in ("textual_net", "visual_net"):
            got, want = getattr(models[0], side), getattr(models[1], side)
            assert list(got.params) == list(want.params)
            for name in want.params:
                assert got.params[name].tobytes() == want.params[name].tobytes(), name
        oracle_path = str(tmp_path / "oracle.ckpt")
        save_checkpoint(path, models[0], vocab, config, history, data_config)
        oracle_save_checkpoint(oracle_path, models[1], vocab, config, history, data_config)
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


class TestFailureModes:
    def test_unknown_version(self, setup):
        *_, path = setup
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history)
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
        save_checkpoint(path, model, vocab, config, history)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[: len(blob) - 9])
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(path)

    def test_flipped_payload_byte(self, setup):
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history)
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
        ],
        ids=[
            "unknown_train_config_key",
            "missing_textual_spec",
            "negative_margin",
            "reordered_manifest",
            "spec_mismatches_manifest",
        ],
    )
    def test_bad_header_with_valid_checksum(self, setup, mutate):
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history)
        blob = Path(path).read_bytes()
        header = read_header(blob)
        mutate(header)
        resign(path, blob, header=header)
        with pytest.raises(CheckpointCorruptError, match="invalid header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [8, -8], ids=["8_bytes_long", "8_bytes_short"])
    def test_payload_size_with_valid_checksum(self, setup, extra):
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history)
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
            save_checkpoint(path, model, vocab, config, history)
        assert os.listdir(os.path.dirname(path)) == []

    def test_failed_save_keeps_previous_file(self, setup, monkeypatch):
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history)
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
            save_checkpoint(path, model, vocab, config, TrainHistory())
        assert Path(path).read_bytes() == before
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
