import gc
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import crossmodal.nets as nets_mod
import crossmodal.ranker as ranker_mod
from crossmodal.checkpoint import load_checkpoint, save_checkpoint
from crossmodal.corpus import FeatureStore, SplitDataset, generate_synthetic_corpus
from crossmodal.errors import ConfigError, NonFiniteGradientError, ZeroNormError
from crossmodal.nets import NetSpec, OuterGrad, clone_net, init_net, sgd_step
from crossmodal.ranker import (
    EpochStats,
    RetrievalDataset,
    ScoreModel,
    SplitView,
    TrainConfig,
    cosine_backward,
    cosine_score,
    margin_loss,
    sample_negative,
    train,
    train_epoch,
    triplet_grads,
    validate,
)
from crossmodal.text import SparseVector, TokenSequence, build_vocabulary
import oracles
from oracles import (
    densify,
    oracle_dense_accumulate,
    oracle_dense_backward,
    oracle_dense_matrix_backward,
    oracle_dense_matrix_sgd_step,
    oracle_dense_sgd_step,
    oracle_loop_forward,
    oracle_sample_negative,
    oracle_train_epoch,
    oracle_triplet_grads,
    oracle_validate,
)
from test_checkpoint import SPLIT


def make_dataset(
    n_clusters=3,
    images_per_cluster=4,
    feature_dim=8,
    vocab_per_cluster=6,
    noise=0.0,
    seed=0,
    train_ids=None,
    val_ids=None,
    test_ids=None,
    weighting="binary",
):
    images, captions = generate_synthetic_corpus(
        n_clusters, images_per_cluster, feature_dim, vocab_per_cluster, noise, seed
    )
    store = FeatureStore(images, feature_dim)
    vocab = build_vocabulary(captions, "unigram", 1000)
    all_ids = [r.image_id for r in images]
    if train_ids is None:
        train_ids = all_ids
        val_ids = val_ids or []
        test_ids = test_ids or []
    split = SplitDataset(set(train_ids), set(val_ids or []), set(test_ids or []), seed=seed)
    return RetrievalDataset(store, captions, split, vocab, weighting=weighting), store, vocab


def make_model(vocab_size, feature_dim, n_emb=8, seed=0):
    return ScoreModel(
        textual_net=init_net(NetSpec("bag", vocab_size, n_emb), seed),
        visual_net=init_net(NetSpec("bag", feature_dim, n_emb), seed + 1),
    )


class TestCosineScore:
    def test_identical_vectors_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=rng.integers(2, 12))
            assert cosine_score(v, v.copy()) == 1.0

    def test_orthogonal(self):
        assert cosine_score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_forty_five_degrees(self):
        s = cosine_score(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert s == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            v, w = rng.normal(size=6), rng.normal(size=6)
            alpha = float(rng.uniform(0.01, 100))
            assert abs(cosine_score(alpha * v, w) - cosine_score(v, w)) < 1e-12

    def test_zero_norm_raises(self):
        with pytest.raises(ZeroNormError):
            cosine_score(np.zeros(3), np.ones(3))

    @pytest.mark.parametrize(
        "v_img, v_txt, error",
        [(np.full(3, np.inf), np.ones(3), NonFiniteGradientError),
         (np.array([1.0, np.nan, 0.0]), np.ones(3), NonFiniteGradientError),
         (np.full(3, 1e200), np.ones(3), NonFiniteGradientError),  # the squared norm overflows
         (np.full(3, 1e120), np.full(3, 1e100), NonFiniteGradientError),  # their product overflows
         (np.full(3, 1e-100), np.full(3, 1e-100), ZeroNormError)],  # their product underflows
        ids=["inf", "nan", "overflowing_norm", "overflowing_product", "vanishing_product"],
    )
    def test_unscoreable_embeddings_raise_typed_errors(self, v_img, v_txt, error):
        """No RuntimeWarning (the suite makes one an error), NaN score or ZeroDivisionError."""
        for score in (cosine_score, lambda a, b: cosine_backward(a, b, 1.0)):
            for a, b in ((v_img, v_txt), (v_txt, v_img)):
                with pytest.raises(error):
                    score(a, b)

    @settings(max_examples=300, deadline=None)
    @given(dim=st.sampled_from([16, 300]), seed=st.integers(0, 2**32 - 1),
           exponents=st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
           zero=st.sampled_from([None, 0, 1]), d_score=st.sampled_from([-1.0, 1.0]))
    @example(dim=16, seed=0, exponents=(0, 0), zero=0, d_score=1.0)  # ZeroNormError
    @example(dim=16, seed=0, exponents=(-100, -100), zero=None, d_score=1.0)  # vanishing: ZeroNormError
    @example(dim=300, seed=0, exponents=(100, 100), zero=None, d_score=1.0)  # NonFiniteGradientError
    @example(dim=300, seed=0, exponents=(100, -100), zero=None, d_score=-1.0)  # finite at both extremes
    def test_swapped_arguments_give_the_same_bits(self, dim, seed, exponents, zero, d_score):
        """cosine_score(a, b) and cosine_score(b, a) are bit-identical, and
        cosine_backward's two gradients swap bit for bit, or both calls raise
        the same error: so either side of a pair can come first."""
        rng = np.random.default_rng(seed)
        vectors = [rng.normal(size=dim) * 10.0 ** e for e in exponents]
        if zero is not None:
            vectors[zero][:] = 0.0
        a, b = vectors

        def outcome(call):
            try:
                return call()
            except (ZeroNormError, NonFiniteGradientError) as exc:
                return type(exc)

        score_ab, score_ba = outcome(lambda: cosine_score(a, b)), outcome(lambda: cosine_score(b, a))
        grads_ab = outcome(lambda: cosine_backward(a, b, d_score))
        grads_ba = outcome(lambda: cosine_backward(b, a, d_score))
        if isinstance(score_ab, float):
            assert np.float64(score_ab).tobytes() == np.float64(score_ba).tobytes()
            assert grads_ab[0].tobytes() == grads_ba[1].tobytes()
            assert grads_ab[1].tobytes() == grads_ba[0].tobytes()
        else:
            assert score_ab is score_ba is grads_ab is grads_ba


class TestMarginLoss:
    def test_satisfied(self):
        assert margin_loss(0.9, 0.5, 0.15) == (0.0, 0.0, 0.0)

    def test_violated(self):
        loss, d_pos, d_neg = margin_loss(0.5, 0.45, 0.15)
        assert loss == pytest.approx(0.10)
        assert (d_pos, d_neg) == (-1.0, 1.0)

    def test_boundary_exactly_satisfied(self):
        assert margin_loss(0.65, 0.5, 0.15) == (0.0, 0.0, 0.0)

    def test_zero_set_characterization(self):
        rng = random.Random(2)
        for _ in range(300):
            s_pos, s_neg = rng.uniform(-1, 1), rng.uniform(-1, 1)
            delta = rng.uniform(0.01, 0.5)
            loss, _, _ = margin_loss(s_pos, s_neg, delta)
            assert loss >= 0.0
            assert (loss == 0.0) == (s_pos >= s_neg + delta)

    def test_requires_positive_margin(self):
        with pytest.raises(ValueError):
            margin_loss(0.5, 0.4, 0.0)


class TestCosineBackward:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(100):
            v = rng.normal(size=8)
            w = rng.normal(size=8)
            d = float(rng.normal())
            gv, gw = cosine_backward(v, w, d)
            for i in range(8):
                vp, vm = v.copy(), v.copy()
                vp[i] += h
                vm[i] -= h
                fd = d * (cosine_score(vp, w) - cosine_score(vm, w)) / (2 * h)
                assert abs(gv[i] - fd) / max(1.0, abs(gv[i])) < 1e-6
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = d * (cosine_score(v, wp) - cosine_score(v, wm)) / (2 * h)
                assert abs(gw[i] - fd) / max(1.0, abs(gw[i])) < 1e-6

    def test_aligned_vectors_gradient_orthogonal(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=6)
        gv, gw = cosine_backward(v, v.copy(), 1.0)
        assert abs(np.dot(gv, v)) < 1e-12
        assert abs(np.dot(gw, v)) < 1e-12

    def test_zero_d_score(self):
        gv, gw = cosine_backward(np.ones(3), np.array([1.0, 2.0, 3.0]), 0.0)
        assert np.all(gv == 0.0) and np.all(gw == 0.0)


class TestTripletGrads:
    TEXTUAL_SPECS = {
        "bag": NetSpec("bag", input_dim=9, n_emb=6),
        "bag_hidden": NetSpec("bag", input_dim=9, n_emb=6, n_hu=5),
        "sequence": NetSpec("sequence", input_dim=9, n_emb=6, word_dim=4, kernel_count=5, window=3),
    }

    @pytest.mark.parametrize("textual", sorted(TEXTUAL_SPECS))
    @pytest.mark.parametrize("methodology", ["I2T", "T2I"])
    def test_bit_identical_to_two_branch_oracle(self, methodology, textual):
        rng = np.random.default_rng(17)
        tspec = self.TEXTUAL_SPECS[textual]
        outcomes = set()
        for seed in range(40):
            vspec = NetSpec("bag", input_dim=7, n_emb=6, n_hu=4 if seed % 2 else 0)

            def encoding():
                if tspec.kind == "sequence":
                    return TokenSequence(rng.integers(0, 9, size=int(rng.integers(1, 7))))
                idx = np.sort(rng.choice(9, size=int(rng.integers(1, 10)), replace=False))
                return SparseVector(idx.astype(np.int64), rng.normal(size=len(idx)))

            pos, neg = (rng.normal(size=7), encoding()), (rng.normal(size=7), encoding())
            margin = float(rng.uniform(0.01, 0.5))
            results = []
            for impl, inputs in ((triplet_grads, (pos, neg)), (oracle_triplet_grads, (*pos, *neg))):
                model = ScoreModel(init_net(tspec, seed), init_net(vspec, seed + 1))
                try:
                    results.append(impl(model, *inputs, methodology, margin))
                except ZeroNormError:  # a relu wiped an embedding
                    results.append(None)
            got, want = results
            if want is None:
                assert got is None
                continue
            assert got[:3] == want[:3]  # loss, s_pos, s_neg
            nets = (model.textual_net, model.visual_net)
            for net, got_grads, want_grads in zip(nets, got[3:], want[3:]):
                if want_grads is None:
                    assert got_grads is None
                    continue
                assert list(got_grads) == list(want_grads)
                for name in want_grads:
                    param = net.params[name]
                    got_dense, want_dense = densify(param, got_grads[name]), densify(param, want_grads[name])
                    assert np.array_equal(got_dense, want_dense), name
            outcomes.add(want[3] is None)
        assert outcomes == {True, False}  # both margin-satisfied and violated cases ran


class TestRetrievalDataset:
    @pytest.mark.parametrize("mode, kind, weighting, error", [
        ("unigram", "sse", "binary", ValueError),
        ("bigram", "sequence", "binary", ConfigError),
        ("unigram", "bag", "counts", ValueError),
    ])
    def test_refuses_at_construction_without_captions(self, mode, kind, weighting, error):
        images, captions = generate_synthetic_corpus(2, 2, 4, 3, 0.0, 0)
        vocab = build_vocabulary(captions, mode, 100)
        split = SplitDataset({r.image_id for r in images}, set(), set(), seed=0)
        with pytest.raises(error):
            RetrievalDataset(FeatureStore(images, 4), [], split, vocab, weighting=weighting, textual_kind=kind)

    def test_a_view_encodes_only_its_split(self, monkeypatch):
        encoded = []
        original = ranker_mod.encode_caption
        monkeypatch.setattr(ranker_mod, "encode_caption",
                            lambda text, *rest: encoded.append(text) or original(text, *rest))
        images, captions = generate_synthetic_corpus(2, 2, 4, 3, 0.0, 0)
        ids = sorted(r.image_id for r in images)
        split = SplitDataset({ids[0]}, {ids[1]}, set(ids[2:]), seed=0)
        vocab = build_vocabulary(captions, "unigram", 100)
        data = RetrievalDataset(FeatureStore(images, 4), captions, split, vocab)
        assert encoded == [""]  # the construction check's empty caption
        view = data.view("train")
        assert len(encoded) == 1 + len(view.pairs) == 6 and view.unencodable == 0
        assert all(data.encoding(*key) is data.encoding(*key) for key in view.pairs)
        assert encoded[1:] == [cap.text for cap in captions if cap.image_id == ids[0]]

    def test_keeps_no_caption_object(self):
        """The dataset holds each caption's text, so the caller's captions can be freed."""
        images, captions = generate_synthetic_corpus(2, 2, 4, 3, 0.0, 0)
        split = SplitDataset({r.image_id for r in images}, set(), set(), seed=0)
        data = RetrievalDataset(FeatureStore(images, 4), captions, split,
                                build_vocabulary(captions, "unigram", 100))
        refs = [weakref.ref(cap) for cap in captions]
        del captions
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        assert len(data.view("train").pairs) == 20


class TestSampleNegative:
    def test_i2t_never_draws_own_captions(self):
        data, _, _ = make_dataset()
        view = data.view("train")
        rng = random.Random(0)
        pos = view.pairs[0]
        for _ in range(500):
            neg_img, neg_cap = sample_negative(pos, view, "I2T", rng)
            assert neg_img == pos[0]
            assert neg_cap[0] != pos[0]

    def test_t2i_never_draws_own_image(self):
        data, _, _ = make_dataset()
        view = data.view("train")
        rng = random.Random(0)
        pos = view.pairs[7]
        for _ in range(500):
            neg_img, neg_cap = sample_negative(pos, view, "T2I", rng)
            assert neg_cap == pos
            assert neg_img != pos[0]

    def test_uniformity_within_three_sigma(self):
        # 10 images x 5 captions; 10,000 draws per methodology
        data, _, _ = make_dataset(n_clusters=2, images_per_cluster=5)
        view = data.view("train")
        rng = random.Random(42)
        pos = view.pairs[0]
        draws = 10_000

        counts = {}
        for _ in range(draws):
            _, neg_cap = sample_negative(pos, view, "I2T", rng)
            counts[neg_cap] = counts.get(neg_cap, 0) + 1
        eligible = [p for p in view.pairs if p[0] != pos[0]]
        assert set(counts) <= set(eligible)
        p = 1 / len(eligible)
        sigma = math.sqrt(draws * p * (1 - p))
        for item in eligible:
            assert abs(counts.get(item, 0) - draws * p) <= 3 * sigma

        counts = {}
        for _ in range(draws):
            neg_img, _ = sample_negative(pos, view, "T2I", rng)
            counts[neg_img] = counts.get(neg_img, 0) + 1
        eligible_imgs = [i for i in view.image_ids if i != pos[0]]
        p = 1 / len(eligible_imgs)
        sigma = math.sqrt(draws * p * (1 - p))
        for img in eligible_imgs:
            assert abs(counts.get(img, 0) - draws * p) <= 3 * sigma

    def test_single_image_pool_rejected(self):
        data, _, _ = make_dataset(n_clusters=1, images_per_cluster=1)
        view = data.view("train")
        with pytest.raises(ValueError):
            sample_negative(view.pairs[0], view, "I2T", random.Random(0))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_draws_as_two_loop_oracle(self, data):
        # images with 0-5 scoreable captions each; the positive is any caption
        # of any image in the view, as every positive of a split is
        scoreable = data.draw(st.lists(st.sets(st.integers(0, 4)), min_size=1, max_size=6))
        image_ids = [f"img{i}" for i in range(len(scoreable))]
        pairs = [(image_id, j) for image_id, js in zip(image_ids, scoreable) for j in sorted(js)]
        view = SplitView("train", image_ids, pairs)
        pos = (data.draw(st.sampled_from(image_ids)), data.draw(st.integers(0, 4)))
        methodology = data.draw(st.sampled_from(["I2T", "T2I", "i2t"]))
        seed = data.draw(st.integers(0, 2**32))
        outcomes = []
        for sample in (sample_negative, oracle_sample_negative):
            rng = random.Random(seed)
            try:
                draws = [sample(pos, view, methodology, rng) for _ in range(3)]
            except ValueError:
                draws = ValueError
            outcomes.append((draws, rng.getstate()))
        assert outcomes[0] == outcomes[1]


class TestTrainEpoch:
    def test_deterministic_across_runs(self):
        results = []
        for _ in range(2):
            data, store, vocab = make_dataset(seed=5)
            model = make_model(vocab.size, store.feature_dim, seed=5)
            rng = random.Random(11)
            errs = [train_epoch(model, data, TrainConfig(seed=11), e, rng) for e in range(3)]
            results.append((errs, {k: v.copy() for k, v in model.textual_net.params.items()}))
        assert results[0][0] == results[1][0]
        for name in results[0][1]:
            np.testing.assert_array_equal(results[0][1][name], results[1][1][name])

    def test_two_cluster_zero_noise_converges(self):
        # one image per cluster keeps every sampled negative cross-cluster,
        # so the corpus is separable and training error can reach zero
        data, store, vocab = make_dataset(n_clusters=2, images_per_cluster=1, vocab_per_cluster=8)
        model = make_model(vocab.size, store.feature_dim, seed=0)
        config = TrainConfig(seed=0, lr0=0.02, max_epochs=30)
        rng = random.Random(0)
        errs = [train_epoch(model, data, config, e, rng) for e in range(30)]
        assert errs[-1] < 5.0

    def test_first_epoch_near_chance_over_seed_ensemble(self):
        data, store, vocab = make_dataset(n_clusters=4, images_per_cluster=4, noise=0.2, seed=9)
        errs = []
        for seed in range(20):
            model = make_model(vocab.size, store.feature_dim, seed=seed)
            errs.append(train_epoch(model, data, TrainConfig(seed=seed), 0, random.Random(seed)))
        assert 45.0 < sum(errs) / len(errs) < 55.0

    def test_i2t_epoch_only_sees_image_sharing_negatives(self, monkeypatch):
        data, store, vocab = make_dataset(seed=3)
        model = make_model(vocab.size, store.feature_dim, seed=3)
        seen = []
        original = ranker_mod.sample_negative

        def spy(pos, view, methodology, rng):
            neg = original(pos, view, methodology, rng)
            seen.append((pos, neg, methodology))
            return neg

        monkeypatch.setattr(ranker_mod, "sample_negative", spy)
        train_epoch(model, data, TrainConfig(seed=3, methodology="I2T"), 0, random.Random(3))
        assert seen
        for pos, (neg_img, neg_cap), methodology in seen:
            assert methodology == "I2T"
            assert neg_img == pos[0] and neg_cap[0] != pos[0]

        seen.clear()
        train_epoch(model, data, TrainConfig(seed=3, methodology="T2I"), 0, random.Random(3))
        for pos, (neg_img, neg_cap), methodology in seen:
            assert methodology == "T2I"
            assert neg_cap == pos and neg_img != pos[0]

    def test_non_finite_visual_gradient_moves_neither_net(self, monkeypatch):
        data, store, vocab = make_dataset(seed=5)
        model = make_model(vocab.size, store.feature_dim, seed=5)
        original = ranker_mod.triplet_grads

        def poisoned(*args):
            # a margin no score gap can meet, so every pair produces gradients
            loss, s_pos, s_neg, tgrads, vgrads = original(*args[:-1], 10.0)
            vgrads["b0"][0] = np.nan
            return loss, s_pos, s_neg, tgrads, vgrads

        monkeypatch.setattr(ranker_mod, "triplet_grads", poisoned)
        before = [{k: v.tobytes() for k, v in net.params.items()}
                  for net in (model.textual_net, model.visual_net)]
        with pytest.raises(NonFiniteGradientError, match="b0"):
            train_epoch(model, data, TrainConfig(seed=5), 0, random.Random(5))
        after = [{k: v.tobytes() for k, v in net.params.items()}
                 for net in (model.textual_net, model.visual_net)]
        assert after == before


@pytest.mark.usefixtures("fold_every_term")
class TestRowSparseTraining:
    """Training with row-sparse first-layer gradients is bit-identical to the
    dense-gradient reference path, and training through the one scored-pair
    loop to the separate training and validation loops it replaced."""

    @pytest.mark.parametrize("textual", ["bag", "bag_hidden", "bag_tfidf", "sequence"])
    @pytest.mark.parametrize("methodology", ["I2T", "T2I"])
    def test_bit_identical_to_dense_oracle(self, monkeypatch, methodology, textual):
        self.check_against_oracles(monkeypatch, methodology, textual, visual_n_hu=0)

    @pytest.mark.parametrize("textual", ["bag", "sequence"])
    @pytest.mark.parametrize("methodology", ["I2T", "T2I"])
    def test_visual_hidden_layer_bit_identical_to_dense_oracle(self, monkeypatch, methodology, textual):
        # the visual w0 gradient's right factor has gone through the relu
        self.check_against_oracles(monkeypatch, methodology, textual, visual_n_hu=5)

    @staticmethod
    def check_against_oracles(monkeypatch, methodology, textual, visual_n_hu):
        kind = "sequence" if textual == "sequence" else "bag"
        weighting = "tfidf" if textual == "bag_tfidf" else "binary"
        images, captions = generate_synthetic_corpus(3, 4, 8, 6, 0.3, 7)
        ids = sorted(record.image_id for record in images)
        split = SplitDataset(set(ids[:9]), set(ids[9:]), set(), seed=7)
        vocab = build_vocabulary(captions, "unigram", 1000)
        data = RetrievalDataset(
            FeatureStore(images, 8), captions, split, vocab, weighting=weighting, textual_kind=kind
        )
        if kind == "sequence":
            # 4-8 token captions from 6 terms: repeated tokens, and both
            # shorter and longer than the window
            tspec = NetSpec("sequence", vocab.size, 8, word_dim=5, kernel_count=6, window=5)
        else:
            tspec = NetSpec("bag", vocab.size, 8, n_hu=6 if textual == "bag_hidden" else 0)
        config = TrainConfig(
            lr0=0.05, max_epochs=3, methodology=methodology, seed=7, weighting=weighting,
            val_pairs_per_epoch=50,
        )

        def dense_sgd_step(nets, grads, lr):
            for net, net_grads in zip(nets, grads):
                oracle_dense_sgd_step(net, net_grads, lr)

        runs = []
        for oracle in (None, "loops", "dense"):
            monkeypatch.undo()
            if oracle == "loops":
                monkeypatch.setattr(ranker_mod, "train_epoch", oracle_train_epoch)
                monkeypatch.setattr(ranker_mod, "validate", oracle_validate)
            if oracle == "dense":
                monkeypatch.setattr(ranker_mod, "forward", oracle_loop_forward)
                monkeypatch.setattr(ranker_mod, "backward", oracle_dense_backward)
                monkeypatch.setattr(ranker_mod, "accumulate", oracle_dense_accumulate)
                monkeypatch.setattr(ranker_mod, "sgd_step", dense_sgd_step)
            model = ScoreModel(init_net(tspec, 7), init_net(NetSpec("bag", 8, 8, n_hu=visual_n_hu), 8))
            best, history = train(model, data, config)
            runs.append(([net.params for net in (model.textual_net, model.visual_net,
                                                 best.textual_net, best.visual_net)], history))
        (got_params, got_history), *oracle_runs = runs
        initial = init_net(tspec, 7).params
        first = "lookup" if kind == "sequence" else "w0"
        assert got_params[0][first].tobytes() != initial[first].tobytes()  # training moved it
        for want_params, want_history in oracle_runs:
            assert got_history.epochs == want_history.epochs
            assert got_history.best_epoch == want_history.best_epoch
            for got, want in zip(got_params, want_params):
                assert list(got) == list(want)
                for name in want:
                    assert got[name].tobytes() == want[name].tobytes(), name


def param_bytes(model):
    """Both nets' parameter bytes."""
    return [{name: param.tobytes() for name, param in net.params.items()}
            for net in (model.textual_net, model.visual_net)]


def net_states(model):
    """Both nets' parameter bytes and pending terms."""
    return [({name: param.tobytes() for name, param in net.params.items()},
             {name: (p.n, p.steps, p.lefts[: p.n].tobytes(), p.rights[: p.n].tobytes(), p.lrs[: p.n].tobytes())
              for name, p in net.pending.items()})
            for net in (model.textual_net, model.visual_net)]


class TestFactoredMatrixSteps:
    """``w1`` and ``out_w`` gradients come as factors and are stepped at once;
    every step is bit-identical to the dense gradients and the step that took
    them, and a refused step moves nothing."""

    # 300 rows of w1 and out_w: a full row block and a partial one
    TEXTUAL_SPECS = {
        "bag_hidden": NetSpec("bag", input_dim=9, n_emb=6, n_hu=300),
        "sequence": NetSpec("sequence", input_dim=9, n_emb=6, word_dim=4, kernel_count=300, window=3),
    }
    VISUAL_SPEC = NetSpec("bag", input_dim=7, n_emb=6, n_hu=300)
    MATRIX = {"bag": "w1", "sequence": "out_w"}

    def triplets(self, tspec, seed):
        """Endless (pos, neg, margin, lr) draws of (image vector, caption encoding) pairs."""
        rng = np.random.default_rng(seed)

        def encoding():
            if tspec.kind == "sequence":
                return TokenSequence(rng.integers(0, 9, size=int(rng.integers(1, 7))))
            idx = np.sort(rng.choice(9, size=int(rng.integers(1, 10)), replace=False))
            return SparseVector(idx.astype(np.int64), rng.normal(size=len(idx)))

        while True:
            pos, neg = (rng.normal(size=7), encoding()), (rng.normal(size=7), encoding())
            yield pos, neg, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.01, 0.1))

    def train_pair(self, textual, methodology, n_steps):
        """The model ``n_steps`` violated triplets trained, twice: by the library, and
        by the dense ``w1``/``out_w`` oracles; checks they agree after every step."""
        tspec = self.TEXTUAL_SPECS[textual]
        got, want = (ScoreModel(init_net(tspec, 3), init_net(self.VISUAL_SPEC, 4)) for _ in range(2))
        triplets = self.triplets(tspec, seed=5)
        steps = 0
        while steps < n_steps:
            pos, neg, margin, lr = next(triplets)
            result = triplet_grads(got, pos, neg, methodology, margin)
            if result[3] is None:
                continue
            want_result = oracle_triplet_grads(want, *pos, *neg, methodology, margin,
                                               backward=oracle_dense_matrix_backward)
            assert result[:3] == want_result[:3]
            # the candidate net sums two branches, the anchor net's backward is one
            for net, grads, candidate in zip((got.textual_net, got.visual_net), result[3:],
                                             (methodology == "I2T", methodology == "T2I")):
                matrix = self.MATRIX[net.spec.kind]
                assert isinstance(grads[matrix], OuterGrad) and len(grads[matrix].lefts) == 1 + candidate
            sgd_step((got.textual_net, got.visual_net), result[3:], lr)
            oracle_dense_matrix_sgd_step((want.textual_net, want.visual_net), want_result[3:], lr)
            assert net_states(got) == net_states(want)
            steps += 1
        return got, want, triplets

    @pytest.mark.parametrize("textual", sorted(TEXTUAL_SPECS))
    @pytest.mark.parametrize("methodology", ["I2T", "T2I"])
    def test_bit_identical_to_dense_matrix_oracle(self, methodology, textual):
        # 40 steps of one or two visual w0 terms: folds, and terms left pending
        got, want, _ = self.train_pair(textual, methodology, n_steps=40)
        assert any(p.n for p in got.visual_net.pending.values())
        for model in (got, want):
            for net in (model.textual_net, model.visual_net):
                nets_mod.fold_pending(net)
        assert net_states(got) == net_states(want)
        tspec = self.TEXTUAL_SPECS[textual]
        matrix = self.MATRIX[tspec.kind]
        assert got.textual_net.params[matrix].tobytes() != init_net(tspec, 3).params[matrix].tobytes()

    @pytest.mark.parametrize("bad", ["nan", "inf", "overflow"])
    @pytest.mark.parametrize("textual, side", [("bag_hidden", 0), ("bag_hidden", 1), ("sequence", 0)],
                             ids=["textual_w1", "visual_w1", "textual_out_w"])
    def test_non_finite_matrix_factor_moves_nothing(self, textual, side, bad):
        got, _, triplets = self.train_pair(textual, "I2T", n_steps=5)
        assert any(p.n for net in (got.textual_net, got.visual_net) for p in net.pending.values())
        while (result := triplet_grads(got, *next(triplets)[:2], "I2T", 1.5))[3] is None:
            pass
        grads = list(result[3:])
        matrix = self.MATRIX[(got.textual_net, got.visual_net)[side].spec.kind]
        (left, *lefts), rights = grads[side][matrix]
        if bad == "nan":
            left = left.copy()
            left[1] = np.nan
        elif bad == "inf":
            rights = (np.full_like(rights[0], np.inf), *rights[1:])
        else:  # finite factors whose product overflows
            left, rights = left * 1e200, tuple(right * 1e200 for right in rights)
        grads[side] = {**grads[side], matrix: OuterGrad((left, *lefts), rights)}
        before = net_states(got)
        with pytest.raises(NonFiniteGradientError, match=f"'{matrix}'"):
            sgd_step((got.textual_net, got.visual_net), grads, lr=0.05)
        assert net_states(got) == before


class TestValidate:
    def test_constant_model_reads_full_error(self):
        data, store, vocab = make_dataset(
            train_ids=["c0img000", "c1img000"],
            val_ids=["c0img001", "c1img001", "c2img000"],
        )
        model = make_model(vocab.size, store.feature_dim)
        for net in (model.textual_net, model.visual_net):
            for name, p in net.params.items():
                p[:] = 0.0
            net.params["b0"][:] = 1.0  # constant nonzero embedding for every input
        err = validate(model, data, TrainConfig(seed=0, val_pairs_per_epoch=100), random.Random(0))
        assert err == 100.0

    def test_oracle_model_zero_error(self):
        # one image per cluster; textual rows hand-set to the cluster prototype
        data, store, vocab = make_dataset(
            n_clusters=4,
            images_per_cluster=1,
            train_ids=["c0img000", "c1img000"],
            val_ids=["c2img000", "c3img000"],
        )
        n_emb = store.feature_dim
        model = ScoreModel(
            textual_net=init_net(NetSpec("bag", vocab.size, n_emb), 0),
            visual_net=init_net(NetSpec("bag", store.feature_dim, n_emb), 1),
        )
        model.visual_net.params["w0"][:] = np.eye(store.feature_dim)
        model.visual_net.params["b0"][:] = 0.0
        model.textual_net.params["b0"][:] = 0.0
        for term, idx in vocab.term_to_index.items():
            cluster_img = f"{term.split('w')[0]}img000"
            model.textual_net.params["w0"][idx] = store.get(cluster_img)
        err = validate(model, data, TrainConfig(seed=0, val_pairs_per_epoch=200), random.Random(0))
        assert err == 0.0

    def test_untrained_model_near_chance(self):
        data, store, vocab = make_dataset(
            n_clusters=4, images_per_cluster=4, noise=0.1, seed=7,
            train_ids=[f"c{c}img{i:03d}" for c in range(4) for i in range(2)],
            val_ids=[f"c{c}img{i:03d}" for c in range(4) for i in range(2, 4)],
        )
        errs = []
        for seed in range(10):
            model = make_model(vocab.size, store.feature_dim, seed=seed)
            errs.append(
                validate(model, data, TrainConfig(seed=seed, val_pairs_per_epoch=400), random.Random(seed))
            )
        assert 40.0 < sum(errs) / len(errs) < 60.0

    @pytest.mark.parametrize("methodology", ["I2T", "T2I"])
    def test_embeds_each_item_once_per_call(self, monkeypatch, methodology):
        """Each caption is embedded once per call, and the score equals the
        triplet oracle's, also when a val caption embeds to zero: then both
        skip the same pairs."""
        data, store, vocab = make_dataset(
            n_clusters=3, images_per_cluster=4, noise=0.2, seed=2,
            train_ids=[f"c{c}img{i:03d}" for c in range(3) for i in range(2)],
            val_ids=[f"c{c}img{i:03d}" for c in range(3) for i in range(2, 4)],
        )
        model = make_model(vocab.size, store.feature_dim, seed=2)
        config = TrainConfig(seed=2, methodology=methodology, val_pairs_per_epoch=90)
        view = data.view("val")
        zero_caption = ScoreModel(clone_net(model.textual_net), model.visual_net)
        zero_caption.textual_net.params["w0"][data.encoding(*view.pairs[0]).indices] = 0.0
        zero_caption.textual_net.params["b0"][:] = 0.0
        items = {id(data.features.get(img)) for img in view.image_ids}
        items |= {id(data.encoding(*key)) for key in view.pairs}
        skips = []

        def counted(score):
            def wrapper(*args):
                try:
                    return score(*args)
                except ZeroNormError:
                    skips[-1] += 1
                    raise
            return wrapper

        for module in (ranker_mod, oracles):
            monkeypatch.setattr(module, "cosine_score", counted(module.cosine_score))
        original = ranker_mod.forward
        monkeypatch.setattr(ranker_mod, "forward",
                            lambda net, x: calls[-1].append(id(x)) or original(net, x))
        for m in (model, zero_caption):
            calls = []
            for _ in range(2):
                calls.append([])
                skips.append(0)
                got = validate(m, data, config, random.Random(5))
                assert len(calls[-1]) == len(set(calls[-1])) and set(calls[-1]) <= items
            assert calls[0] == calls[1]  # nothing is kept from one call to the next
            skips.append(0)
            assert got == oracle_validate(m, data, config, random.Random(5))
            assert skips[-1] == skips[-2]
        assert skips[0] == 0 < skips[-1]


class TestTrain:
    def test_best_epoch_earliest_minimum(self, monkeypatch):
        data, store, vocab = make_dataset(
            train_ids=["c0img000", "c1img000", "c2img000"],
            val_ids=["c0img001", "c1img001"],
        )
        model = make_model(vocab.size, store.feature_dim)
        fake_vals = iter([50.0, 40.0, 42.0, 39.0, 39.0])
        monkeypatch.setattr(ranker_mod, "validate", lambda *a, **k: next(fake_vals))
        _, history = train(model, data, TrainConfig(seed=0, max_epochs=5))
        assert history.best_epoch == 4
        assert [e.val_err for e in history.epochs] == [50.0, 40.0, 42.0, 39.0, 39.0]

    def test_monotone_improvement_keeps_last_epoch(self, monkeypatch):
        data, store, vocab = make_dataset(
            train_ids=["c0img000", "c1img000", "c2img000"],
            val_ids=["c0img001", "c1img001"],
        )
        model = make_model(vocab.size, store.feature_dim)
        fake_vals = iter([50.0, 41.0, 33.0, 25.0])
        monkeypatch.setattr(ranker_mod, "validate", lambda *a, **k: next(fake_vals))
        _, history = train(model, data, TrainConfig(seed=0, max_epochs=4))
        assert history.best_epoch == 4

    def test_zero_epochs_returns_initial_model(self):
        data, store, vocab = make_dataset()
        model = make_model(vocab.size, store.feature_dim)
        before = {k: v.copy() for k, v in model.textual_net.params.items()}
        best, history = train(model, data, TrainConfig(seed=0, max_epochs=0))
        assert history.epochs == [] and history.best_epoch == 0
        for name in before:
            np.testing.assert_array_equal(best.textual_net.params[name], before[name])

    @pytest.mark.parametrize(
        "val_errs, clones",
        [([], 0), ([50.0, 40.0, 42.0, 39.0, 39.0], 3), ([50.0, 60.0, 70.0], 1),
         ([50.0, 41.0, 33.0, 25.0], 3)],
        ids=["no_epoch", "three_improvements", "first_epoch_only", "monotone"],
    )
    def test_clones_only_an_improving_epoch(self, monkeypatch, val_errs, clones):
        """One clone per improving epoch that a later epoch follows; the passed model itself
        is returned when no epoch runs or the last one is the best. The previous snapshot is
        freed before the next is taken, so at most one is held."""
        data, store, vocab = make_dataset(
            train_ids=["c0img000", "c1img000", "c2img000"],
            val_ids=["c0img001", "c1img001"],
        )
        model = make_model(vocab.size, store.feature_dim)
        fake_vals = iter(val_errs)
        monkeypatch.setattr(ranker_mod, "validate", lambda *a, **k: next(fake_vals))
        cloned, snapshots, held = [], [], []
        real_clone = ranker_mod.clone_model

        def clone(m):
            cloned.append(m)
            held.append(sum(ref() is not None for ref in snapshots))
            snapshot = real_clone(m)
            snapshots.append(weakref.ref(snapshot))
            return snapshot

        monkeypatch.setattr(ranker_mod, "clone_model", clone)
        best, _ = train(model, data, TrainConfig(seed=0, max_epochs=len(val_errs)))
        assert len(cloned) == clones and all(m is model for m in cloned)
        assert held == [0] * clones
        assert (best is model) == (not val_errs or val_errs[-1] < min(val_errs[:-1], default=math.inf))

    @pytest.mark.parametrize("val_errs", [None, [50.0, 40.0, 30.0], [50.0, 40.0, 45.0], [50.0, 40.0, 40.0],
                                          [], [50.0]],
                             ids=["validated", "last_best", "earlier_best", "tie", "no_epoch", "one_epoch"])
    @pytest.mark.parametrize("net", ["bag_i2t", "sse_t2i_visual_hidden", "tfidf_hidden"])
    def test_same_bytes_as_the_clone_every_improvement_oracle(self, monkeypatch, tmp_path, net, val_errs):
        """The returned model, the history and the checkpoint of the returned model are the
        bytes ``oracle_train`` gives, whichever epoch is the best; the passed model, folded,
        is the oracle's. No term folds on its own, so the last epoch's reach the end."""
        monkeypatch.setattr(nets_mod, "FOLD_TERMS", 1000)
        kind = "sequence" if net.startswith("sse") else "bag"
        weighting = "tfidf" if net.startswith("tfidf") else "binary"
        images, captions = generate_synthetic_corpus(3, 4, 8, 6, 0.3, 5)
        ids = sorted(record.image_id for record in images)
        split = SplitDataset(set(ids[:9]), set(ids[9:]), set(), seed=5)
        vocab = build_vocabulary(captions, "unigram", 1000)
        data = RetrievalDataset(FeatureStore(images, 8), captions, split, vocab, weighting=weighting,
                                textual_kind=kind)
        if kind == "sequence":
            tspec = NetSpec("sequence", vocab.size, 8, word_dim=5, kernel_count=6, window=3)
        else:
            tspec = NetSpec("bag", vocab.size, 8, n_hu=6 if weighting == "tfidf" else 0)
        vspec = NetSpec("bag", 8, 8, n_hu=5 if net.endswith("visual_hidden") else 0)
        config = TrainConfig(lr0=0.05, max_epochs=3 if val_errs is None else len(val_errs),
                             methodology="T2I" if "t2i" in net else "I2T", seed=5, weighting=weighting,
                             val_pairs_per_epoch=30)
        runs = []
        for run_train in (train, oracles.oracle_train):
            if val_errs is not None:
                errs = iter(val_errs)
                monkeypatch.setattr(ranker_mod, "validate", lambda *args: next(errs))
            model = ScoreModel(init_net(tspec, 5), init_net(vspec, 6))
            best, history = run_train(model, data, config)
            assert TestFoldPoints.pending_terms(best.textual_net, best.visual_net) == 0
            best_bytes = param_bytes(best)
            path = tmp_path / f"{run_train.__name__}.bin"
            save_checkpoint(str(path), best, vocab, config, history, SPLIT)
            for passed in (model.textual_net, model.visual_net):
                nets_mod.fold_pending(passed)
            runs.append((best_bytes, history, path.read_bytes(), param_bytes(model)))
        (got_best, got_history, got_bytes, got_passed), (want_best, want_history, want_bytes, want_passed) = runs
        assert got_history == want_history
        assert got_best == want_best and got_bytes == want_bytes and got_passed == want_passed
        if val_errs is not None:
            assert got_history.best_epoch == (val_errs.index(min(val_errs)) + 1 if val_errs else 0)

    def test_returned_model_is_best_snapshot(self):
        data, store, vocab = make_dataset(
            n_clusters=3,
            images_per_cluster=2,
            train_ids=[f"c{c}img000" for c in range(3)],
            val_ids=[f"c{c}img001" for c in range(3)],
        )
        model = make_model(vocab.size, store.feature_dim)
        best, history = train(model, data, TrainConfig(seed=0, max_epochs=6, lr0=0.02))
        best_val = min(e.val_err for e in history.epochs)
        assert history.epochs[history.best_epoch - 1].val_err == best_val
        # re-validating the returned snapshot reproduces its recorded error
        rng = random.Random(ranker_mod.epoch_seed(0, history.best_epoch))
        err = validate(best, data, TrainConfig(seed=0, max_epochs=6, lr0=0.02), rng)
        assert err == best_val


class TestFoldPoints:
    """``clone_net``, ``save_checkpoint`` and the model ``train`` returns: the first two
    read ``params`` directly and a caller may read the third's, so each first folds the
    pending terms in."""

    @staticmethod
    def pending_terms(*nets):
        return sum(pending.n for net in nets for pending in net.pending.values())

    def setup_method(self):
        self.data, store, self.vocab = make_dataset(
            noise=0.2, seed=4,
            train_ids=[f"c{c}img{i:03d}" for c in range(3) for i in range(2)],
            val_ids=[f"c{c}img{i:03d}" for c in range(3) for i in range(2, 4)],
        )
        self.model = make_model(self.vocab.size, store.feature_dim, seed=4)
        self.config = TrainConfig(seed=4, lr0=0.05, max_epochs=2, val_pairs_per_epoch=20)

    def trained_epoch(self, monkeypatch):
        monkeypatch.setattr(nets_mod, "FOLD_TERMS", 1000)  # nothing folds on its own
        train_epoch(self.model, self.data, self.config, 0, random.Random(4))
        assert self.pending_terms(self.model.visual_net) > 1
        return self.model

    def test_clone_net(self, monkeypatch):
        net = self.trained_epoch(monkeypatch).visual_net
        clone = clone_net(net)
        assert self.pending_terms(net, clone) == 0
        for name, param in net.params.items():
            assert clone.params[name].tobytes() == param.tobytes()

    def test_save_checkpoint(self, monkeypatch, tmp_path):
        model = self.trained_epoch(monkeypatch)
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, model, self.vocab, self.config, ranker_mod.TrainHistory(), SPLIT)
        assert self.pending_terms(model.textual_net, model.visual_net) == 0
        saved = load_checkpoint(path).model
        for net, loaded in ((model.textual_net, saved.textual_net), (model.visual_net, saved.visual_net)):
            for name, param in net.params.items():
                assert loaded.params[name].tobytes() == param.tobytes()

    def test_end_of_train(self, monkeypatch):
        """The returned model holds no pending terms, whether it is the first epoch's
        snapshot or the passed model itself at its last, best, epoch; a passed model that is
        not returned keeps its last epoch's terms."""
        monkeypatch.setattr(nets_mod, "FOLD_TERMS", 1000)  # nothing folds on its own
        initial = ranker_mod.clone_model(self.model)
        for model, val_errs in ((self.model, [50.0, 60.0]), (initial, [60.0, 50.0])):
            errs = iter(val_errs)
            monkeypatch.setattr(ranker_mod, "validate", lambda *args: next(errs))
            best, _ = train(model, self.data, self.config)
            assert self.pending_terms(best.textual_net, best.visual_net) == 0
            assert (best is model) == (val_errs[1] < val_errs[0])
            if best is not model:  # only the first epoch improves, so no clone folds the second's terms
                assert self.pending_terms(model.visual_net) > 1


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(margin=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lr0=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="margin must be positive and finite"):
                TrainConfig(margin=bad)
            with pytest.raises(ConfigError, match="lr0 must be positive and finite"):
                TrainConfig(lr0=bad)
        with pytest.raises(ValueError):
            TrainConfig(methodology="X2Y")
        with pytest.raises(ValueError):
            TrainConfig(weighting="ternary")
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            TrainConfig(seed=-1)

    def test_score_model_requires_matching_widths(self):
        with pytest.raises(ValueError):
            ScoreModel(
                textual_net=init_net(NetSpec("bag", 4, 8), 0),
                visual_net=init_net(NetSpec("bag", 4, 6), 0),
            )

    def test_score_model_requires_a_bag_visual_net(self):
        sequence = init_net(NetSpec("sequence", 4, 6, word_dim=3, kernel_count=2, window=2), 0)
        ScoreModel(textual_net=sequence, visual_net=init_net(NetSpec("bag", 4, 6), 1))
        with pytest.raises(ValueError) as exc:
            ScoreModel(textual_net=init_net(NetSpec("bag", 4, 6), 1), visual_net=sequence)
        assert str(exc.value) == "the visual net must be a bag net, not a sequence net"
