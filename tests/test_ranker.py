import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crossmodal.ranker as ranker_mod
from crossmodal.corpus import FeatureStore, SplitDataset, generate_synthetic_corpus
from crossmodal.errors import NonFiniteGradientError, ZeroNormError
from crossmodal.nets import NetSpec, init_net
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
from oracles import (
    densify,
    oracle_dense_accumulate,
    oracle_dense_backward,
    oracle_dense_sgd_step,
    oracle_loop_forward,
    oracle_sample_negative,
    oracle_train_epoch,
    oracle_triplet_grads,
    oracle_validate,
)


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

            inputs = (rng.normal(size=7), encoding(), rng.normal(size=7), encoding())
            margin = float(rng.uniform(0.01, 0.5))
            results = []
            for impl in (triplet_grads, oracle_triplet_grads):
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
        data, store, vocab = make_dataset(
            n_clusters=3, images_per_cluster=4, noise=0.2, seed=2,
            train_ids=[f"c{c}img{i:03d}" for c in range(3) for i in range(2)],
            val_ids=[f"c{c}img{i:03d}" for c in range(3) for i in range(2, 4)],
        )
        model = make_model(vocab.size, store.feature_dim, seed=2)
        config = TrainConfig(seed=2, methodology=methodology, val_pairs_per_epoch=90)
        view = data.view("val")
        items = {id(data.image_vec(img)) for img in view.image_ids}
        items |= {id(data.encoding(*key)) for key in view.pairs}
        calls = []
        original = ranker_mod.forward
        monkeypatch.setattr(ranker_mod, "forward",
                            lambda net, x: calls[-1].append(id(x)) or original(net, x))
        for _ in range(2):
            calls.append([])
            got = validate(model, data, config, random.Random(5))
            assert len(calls[-1]) == len(set(calls[-1])) and set(calls[-1]) <= items
        assert calls[0] == calls[1]  # nothing is kept from one call to the next
        monkeypatch.undo()
        assert got == oracle_validate(model, data, config, random.Random(5))


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


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(margin=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lr0=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(methodology="X2Y")
        with pytest.raises(ValueError):
            TrainConfig(weighting="ternary")

    def test_score_model_requires_matching_widths(self):
        with pytest.raises(ValueError):
            ScoreModel(
                textual_net=init_net(NetSpec("bag", 4, 8), 0),
                visual_net=init_net(NetSpec("bag", 4, 6), 0),
            )
