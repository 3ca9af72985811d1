"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s`).
The corpus-level experiments run on synthetic clustered fixtures whose
split seeds are chosen so that held-out images come from distinct
clusters; with zero feature noise, images of the same cluster are
bit-identical and therefore mutually unrankable, so cluster-distinct
evaluation pools are the only setting where perfect retrieval is even
definable.
"""

import json
import math
import random
import time
import numpy as np

from crossmodal.cli import main
from crossmodal.corpus import Caption, FeatureStore, generate_synthetic_corpus, split_dataset
from crossmodal.errors import ZeroNormError
from crossmodal.metrics import (
    bleu,
    build_rankings,
    evaluate_rankings,
    rouge,
)
from crossmodal.nets import NetSpec, forward, init_net
from crossmodal.ranker import (
    RetrievalDataset,
    ScoreModel,
    TrainConfig,
    cosine_score,
    margin_loss,
    train,
    triplet_grads,
    validate,
)
from crossmodal.text import (
    SparseVector,
    TokenSequence,
    build_vocabulary,
    extract_terms,
    featurize,
)

from oracles import (
    densify,
    oracle_bleu,
    oracle_median_rank,
    oracle_r_precision,
    oracle_recall,
    oracle_rouge,
    random_ranking_set,
)


def finish(name, ok, detail, t0, limit=None):
    elapsed = time.time() - t0
    status = "PASS" if ok and (limit is None or elapsed < limit) else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s)")
    assert ok, f"{name}: {detail}"
    if limit is not None:
        assert elapsed < limit, f"{name} exceeded the {limit}s budget ({elapsed:.1f}s)"


def cluster_of(image_id):
    return image_id.split("img")[0]


def scan_split_seed(images, captions, n_test, val_frac, require_val=2):
    """First seed whose test and val images all come from distinct clusters."""
    for seed in range(1000):
        split = split_dataset(images, captions, n_test, val_frac, seed)
        test_clusters = [cluster_of(i) for i in split.test]
        val_clusters = [cluster_of(i) for i in split.val]
        if (
            len(set(test_clusters)) == len(test_clusters)
            and len(set(val_clusters)) == len(val_clusters)
            and len(split.val) >= require_val
        ):
            return split
    raise RuntimeError("no cluster-distinct split seed found")


# ---------------------------------------------------------------------------


def triplet_loss_only(model, methodology, img_pos, enc_pos, img_neg, enc_neg, margin):
    if methodology == "I2T":
        v = forward(model.visual_net, img_pos)[0]
        tp = forward(model.textual_net, enc_pos)[0]
        tn = forward(model.textual_net, enc_neg)[0]
        s_pos, s_neg = cosine_score(v, tp), cosine_score(v, tn)
    else:
        t = forward(model.textual_net, enc_pos)[0]
        vp = forward(model.visual_net, img_pos)[0]
        vn = forward(model.visual_net, img_neg)[0]
        s_pos, s_neg = cosine_score(vp, t), cosine_score(vn, t)
    return margin_loss(s_pos, s_neg, margin)[0]


def well_conditioned(model, inputs, kink_margin=1e-3, norm_floor=0.3):
    """True when no relu preactivation sits near its kink and every
    embedding norm is large enough for the cosine to be smooth at h=1e-5."""
    for net, x in inputs:
        emb, tape = forward(net, x)
        if float(np.linalg.norm(emb)) < norm_floor:
            return False
        for key in ("h0", "avg"):
            if key in tape.data and np.any(np.abs(tape.data[key]) < kink_margin):
                return False
    return True


def random_bag_input(rng, input_dim):
    nnz = int(rng.integers(1, input_dim + 1))
    idx = np.sort(rng.choice(input_dim, size=nnz, replace=False)).astype(np.int64)
    return SparseVector(idx, rng.normal(size=nnz))


def test_criterion_gradient_correctness():
    """Full-pipeline analytic gradients vs central finite differences."""
    t0 = time.time()
    rng = np.random.default_rng(20250811)
    margin = 0.15
    h = 1e-5
    worst = 0.0
    checked = 0
    while checked < 100:
        arch = checked % 3
        seed = int(rng.integers(0, 1_000_000))
        if arch == 0:
            tspec = NetSpec("bag", input_dim=7, n_emb=6)
        elif arch == 1:
            tspec = NetSpec("bag", input_dim=7, n_emb=6, n_hu=5)
        else:
            tspec = NetSpec("sequence", input_dim=8, n_emb=6, word_dim=4, kernel_count=5, window=3)
        vspec = NetSpec("bag", input_dim=6, n_emb=6, n_hu=4 if checked % 4 == 0 else 0)
        model = ScoreModel(init_net(tspec, seed), init_net(vspec, seed + 1))
        methodology = "I2T" if checked % 2 == 0 else "T2I"
        if arch == 2:
            enc_pos = TokenSequence(rng.integers(0, 8, size=int(rng.integers(1, 7))).astype(np.int64))
            enc_neg = TokenSequence(rng.integers(0, 8, size=int(rng.integers(1, 7))).astype(np.int64))
        else:
            enc_pos = random_bag_input(rng, 7)
            enc_neg = random_bag_input(rng, 7)
        img_pos = rng.normal(size=6)
        img_neg = rng.normal(size=6)
        try:
            loss, s_pos, s_neg, tgrads, vgrads = triplet_grads(
                model, (img_pos, enc_pos), (img_neg, enc_neg), methodology, margin
            )
        except ZeroNormError:
            continue  # a relu wiped an embedding; the trainer skips these too
        # keep instances away from the hinge and relu kinks so the
        # finite-difference stencil stays on one smooth branch
        if tgrads is None or (s_neg - s_pos + margin) < 1e-3:
            continue
        if methodology == "I2T":
            probes = [(model.visual_net, img_pos), (model.textual_net, enc_pos), (model.textual_net, enc_neg)]
        else:
            probes = [(model.textual_net, enc_pos), (model.visual_net, img_pos), (model.visual_net, img_neg)]
        if not well_conditioned(model, probes):
            continue

        def loss_fn():
            return triplet_loss_only(model, methodology, img_pos, enc_pos, img_neg, enc_neg, margin)

        for net, grads in ((model.textual_net, tgrads), (model.visual_net, vgrads)):
            for name, grad in grads.items():
                flat_p = net.params[name].ravel()
                flat_g = densify(net.params[name], grad).ravel()
                for i in range(flat_p.size):
                    orig = flat_p[i]
                    flat_p[i] = orig + h
                    up = loss_fn()
                    flat_p[i] = orig - h
                    down = loss_fn()
                    flat_p[i] = orig
                    fd = (up - down) / (2 * h)
                    err = abs(flat_g[i] - fd) / max(1.0, abs(flat_g[i]))
                    worst = max(worst, err)
        checked += 1
    finish(
        "gradient correctness",
        worst < 1e-6,
        f"max relative error {worst:.2e} over 100 instances",
        t0,
        limit=10.0,
    )


def test_criterion_metric_oracle_equivalence():
    """All metrics agree exactly with brute-force oracles on 50 instances."""
    t0 = time.time()
    rng = random.Random(424242)
    mismatches = 0
    for i in range(50):
        direction = "annotation" if i % 2 == 0 else "search"
        rankings = random_ranking_set(rng, direction)
        seed = rng.randrange(10_000)
        variants = ("first_txt", "rnd_txt", "avg_txt") + (
            ("any_txt",) if direction == "annotation" else ()
        )
        for variant in variants:
            for k in (1, 2, 5, 10):
                if evaluate_rankings(rankings, (k,), seed).recall[variant][k] != oracle_recall(rankings, k, variant, seed):
                    mismatches += 1
        if evaluate_rankings(rankings).med_r != oracle_median_rank(rankings):
            mismatches += 1
        if direction == "annotation" and evaluate_rankings(rankings).r_precision_5 != oracle_r_precision(rankings):
            mismatches += 1
    alphabet = list("abcdef")
    for _ in range(100):
        cand = rng.choices(alphabet, k=rng.randint(1, 12))
        refs = [rng.choices(alphabet, k=rng.randint(1, 12)) for _ in range(rng.randint(1, 5))]
        if bleu(cand, refs) != oracle_bleu(cand, refs):
            mismatches += 1
        if rouge(cand, refs) != oracle_rouge(cand, refs):
            mismatches += 1
    finish(
        "metric oracle equivalence",
        mismatches == 0,
        f"{mismatches} mismatches across 50 ranking instances + 100 caption pairs",
        t0,
        limit=5.0,
    )


def test_criterion_random_baseline():
    """Untrained models sit at chance-level ranking error."""
    t0 = time.time()
    images, captions = generate_synthetic_corpus(4, 4, 12, 8, 0.2, seed=6)
    store = FeatureStore(images, 12)
    vocab = build_vocabulary(captions, "unigram", 1000)
    split = split_dataset(images, captions, n_test=4, val_frac=0.6, seed=6)
    data = RetrievalDataset(store, captions, split, vocab)
    errs = []
    for seed in range(20):
        model = ScoreModel(
            init_net(NetSpec("bag", vocab.size, 8), seed),
            init_net(NetSpec("bag", 12, 8), seed + 1),
        )
        config = TrainConfig(seed=seed, val_pairs_per_epoch=400)
        errs.append(validate(model, data, config, random.Random(seed)))
    mean_err = sum(errs) / len(errs)
    finish(
        "random baseline",
        45.0 <= mean_err <= 55.0,
        f"mean untrained validation error {mean_err:.2f}% over 20 seeds",
        t0,
        limit=30.0,
    )


def test_criterion_convergence():
    """Default-config training separates a zero-noise clustered corpus."""
    t0 = time.time()
    images, captions = generate_synthetic_corpus(4, 10, 16, 8, 0.0, seed=0)
    store = FeatureStore(images, 16)
    vocab = build_vocabulary(captions, "unigram", 5000)
    split = scan_split_seed(images, captions, n_test=4, val_frac=0.06)
    data = RetrievalDataset(store, captions, split, vocab)
    model = ScoreModel(
        init_net(NetSpec("bag", vocab.size, 8), 0),
        init_net(NetSpec("bag", 16, 8), 1),
    )
    config = TrainConfig(seed=0, max_epochs=30, val_pairs_per_epoch=300)
    best, history = train(model, data, config)
    best_val = min(e.val_err for e in history.epochs)
    annotation, _ = build_rankings(best, data)
    r1 = evaluate_rankings(annotation, (1,)).recall["avg_txt"][1]
    finish(
        "convergence",
        best_val < 5.0 and r1 > 80.0,
        f"best validation error {best_val:.2f}%, annotation R@1 avg_txt {r1:.1f}%",
        t0,
        limit=120.0,
    )


def test_criterion_directional_specialization():
    """I2T favors annotation, T2I favors search, across a seed ensemble."""
    t0 = time.time()
    images, captions = generate_synthetic_corpus(12, 12, 16, 32, noise_sigma=0.15, seed=1)
    store = FeatureStore(images, 16)
    vocab = build_vocabulary(captions, "unigram", 5000)
    split = split_dataset(images, captions, n_test=60, val_frac=0.1, seed=1)
    data = RetrievalDataset(store, captions, split, vocab)
    ok_seeds = 0
    val_errs = []
    details = []
    for seed in range(10):
        scores = {}
        for methodology in ("I2T", "T2I"):
            model = ScoreModel(
                init_net(NetSpec("bag", vocab.size, 8), seed),
                init_net(NetSpec("bag", 16, 8), seed + 1),
            )
            config = TrainConfig(
                seed=seed, max_epochs=30, methodology=methodology, val_pairs_per_epoch=500
            )
            best, history = train(model, data, config)
            annotation, search = build_rankings(best, data)
            scores[methodology] = (
                evaluate_rankings(annotation, (10,)).recall["avg_txt"][10],
                evaluate_rankings(search, (10,)).recall["avg_txt"][10],
            )
            val_errs.append(min(e.val_err for e in history.epochs))
        i2t_ann, i2t_srch = scores["I2T"]
        t2i_ann, t2i_srch = scores["T2I"]
        hit = i2t_ann > i2t_srch and t2i_srch > t2i_ann
        ok_seeds += hit
        details.append(f"seed {seed}: {'+' if hit else '-'}")
    mean_err = sum(val_errs) / len(val_errs)
    finish(
        "directional specialization",
        ok_seeds >= 7,
        f"{ok_seeds}/10 seeds show the I2T/T2I ordering (converged error {mean_err:.1f}%)",
        t0,
        limit=900.0,
    )


def test_criterion_tfidf_correctness():
    """featurize(tfidf) equals direct evaluation of the weighting formula."""
    t0 = time.time()
    rng = random.Random(99)
    words = [f"w{i}" for i in range(40)]
    training = [
        Caption(f"img{i}", i % 5, " ".join(rng.choices(words, k=rng.randint(3, 9))))
        for i in range(60)
    ]
    worst = 0.0
    for mode in ("unigram", "bigram"):
        vocab = build_vocabulary(training, mode, 60)
        for _ in range(50):
            tokens = rng.choices(words, k=rng.randint(1, 12))
            vec = featurize(tokens, vocab, "tfidf")
            terms = [t for t in extract_terms(tokens, mode) if t in vocab.term_to_index]
            if not terms:
                assert len(vec) == 0
                continue
            len_d = len(terms)
            for idx, value in zip(vec.indices, vec.values):
                term = next(t for t, i in vocab.term_to_index.items() if i == idx)
                count = sum(1 for t in terms if t == term)
                expected = (count / len_d) * math.log(vocab.n_docs / vocab.doc_freq[term])
                worst = max(worst, abs(value - expected))
    finish(
        "tf-idf correctness",
        worst < 1e-12,
        f"max deviation from the direct formula {worst:.2e} over 100 fuzzed captions",
        t0,
    )


def test_criterion_train_determinism(tmp_path, capsys):
    """Two identical training runs produce bit-identical artifacts."""
    t0 = time.time()
    corpus = tmp_path / "corpus"
    prep = tmp_path / "prep"
    assert main([
        "synth", "--out", str(corpus), "--clusters", "3", "--images-per-cluster", "4",
        "--feature-dim", "8", "--vocab-per-cluster", "6", "--seed", "5",
    ]) == 0
    assert main([
        "preprocess", "--captions", str(corpus / "captions.tsv"), "--out", str(prep),
    ]) == 0
    outs = []
    for name in ("runA", "runB"):
        out = tmp_path / name
        rc = main([
            "train",
            "--captions", str(corpus / "captions.tsv"),
            "--features", str(corpus / "features.txt"),
            "--vocab", str(prep / "vocab.tsv"),
            "--out", str(out),
            "--epochs", "3", "--n-test", "3", "--val-frac", "0.25",
            "--n-emb", "8", "--val-pairs", "100",
        ])
        assert rc == 0
        outs.append(out)
    capsys.readouterr()
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("manifest.json", "checkpoint.bin", "history.tsv")
    )
    finish(
        "train determinism",
        same,
        "checkpoint, history, and manifest bytes identical across reruns",
        t0,
    )


def test_criterion_hyperparameter_fidelity(tmp_path, capsys):
    """The default configuration matches the published operating point."""
    t0 = time.time()
    corpus = tmp_path / "corpus"
    prep = tmp_path / "prep"
    assert main([
        "synth", "--out", str(corpus), "--clusters", "3", "--images-per-cluster", "4",
        "--feature-dim", "8", "--vocab-per-cluster", "6", "--seed", "5",
    ]) == 0
    assert main([
        "preprocess", "--captions", str(corpus / "captions.tsv"), "--out", str(prep),
    ]) == 0
    out = tmp_path / "defaults_run"
    # only data-shape flags; every trainable hyperparameter stays default
    rc = main([
        "train",
        "--captions", str(corpus / "captions.tsv"),
        "--features", str(corpus / "features.txt"),
        "--vocab", str(prep / "vocab.tsv"),
        "--out", str(out),
        "--n-test", "3", "--val-frac", "0.25", "--val-pairs", "100",
    ])
    capsys.readouterr()
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = manifest["config"]
    checks = {
        "margin": cfg["margin"] == 0.15,
        "lr": cfg["lr"] == 0.001,
        "decay": cfg["lr_decay"] == "linear to 0.01 factor over 100 epochs",
        "nonlinearity": cfg["nonlinearity"] == "relu",
        "epochs": cfg["epochs"] == 50,
        "methodology": cfg["methodology"] == "I2T",
        "weighting": cfg["weighting"] == "binary",
    }
    bad = [k for k, v in checks.items() if not v]
    finish(
        "hyperparameter fidelity",
        not bad,
        "manifest records margin 0.15, lr 0.001, linear decay to the 0.01 floor, relu",
        t0,
    )
