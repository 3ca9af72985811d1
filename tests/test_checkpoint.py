import json
import struct
import zlib

import pytest

from crossmodal.checkpoint import (
    FORMAT_VERSION,
    load_checkpoint,
    save_checkpoint,
    vocab_digest,
)
from crossmodal.corpus import FeatureStore, SplitDataset, generate_synthetic_corpus
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
        assert ckpt.format_version == FORMAT_VERSION
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


class TestFailureModes:
    def test_unknown_version(self, setup):
        *_, path = setup
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history)
        blob = bytearray(open(path, "rb").read())
        blob[4:8] = (99).to_bytes(4, "little")
        # keep the checksum valid so the version check is what fires
        import zlib
        blob[-4:] = zlib.crc32(bytes(blob[:-4])).to_bytes(4, "little")
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointVersionError, match="99"):
            load_checkpoint(path)

    def test_truncated_file(self, setup):
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) - 9])
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(path)

    def test_flipped_payload_byte(self, setup):
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
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
        ],
        ids=["unknown_train_config_key", "missing_textual_spec", "negative_margin"],
    )
    def test_bad_header_with_valid_checksum(self, setup, mutate):
        images, captions, store, vocab, model, config, history, path = setup
        save_checkpoint(path, model, vocab, config, history)
        blob = open(path, "rb").read()
        header_end = 16 + struct.unpack("<Q", blob[8:16])[0]
        header = json.loads(blob[16:header_end])
        mutate(header)
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        body = blob[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + blob[header_end:-4]
        open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointCorruptError, match="invalid header"):
            load_checkpoint(path)
