"""The benchmark's workloads: input generation, set-up, one operation, checks.

Every input comes from ``generate_synthetic_corpus`` at the paper-like shape
(unigram vocabulary of 5000 terms, 300-d embeddings, 4096-d image features,
noisy images so that no two are bit-identical) and from the seed alone. The
program under test only ever sees the generated files.

* ``train_i2t`` / ``train_t2i_seq``: one operation is one training round,
  ``ranker.train`` over a fixed set of pairs for ``TRAIN_EPOCHS`` epochs with
  validation, then ``write_history`` and ``save_checkpoint`` as
  ``crossmodal train`` does. Every round starts from the same initial
  parameters, so every round must write the same bytes.
* ``evaluate``: one operation is one ``crossmodal evaluate`` call on a
  checkpoint trained (untimed, while preparing inputs) above chance.
* ``query``: one operation is two ``crossmodal query --top-k 10`` calls, one
  ``--sentence`` and one ``--image-id``, over a small gallery. Each call
  re-reads the checkpoint and the gallery's features, as a user's would.

This module imports numpy and crossmodal, so the worker imports it only
after its set-up clock has started.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from crossmodal import checkpoint, cli, corpus, nets, ranker, text
from crossmodal.errors import ZeroNormError


@dataclass(frozen=True)
class Shape:
    clusters: int = 20
    images_per_cluster: int = 25
    feature_dim: int = 4096
    vocab_per_cluster: int = 300  # 6000 words, of which the 5000 most frequent are kept
    noise_sigma: float = 0.01
    max_vocab: int = 5000
    n_emb: int = 300
    word_dim: int = 300
    kernels: int = 300
    window: int = 5
    # training workloads: pairs per round = 5 * train_images * TRAIN_EPOCHS
    train_images: int = 3
    val_images: int = 6
    val_pairs: int = 60
    # evaluate workload
    n_test: int = 100
    # query workload
    gallery_images: int = 25
    queries: int = 40
    top_k: int = 10
    # the checkpoint evaluate and query run on
    ckpt_train_images: int = 50
    ckpt_val_images: int = 10
    ckpt_lr: float = 0.05
    ckpt_val_pairs: int = 50
    # avg_txt R@10 must beat this multiple of chance (10 / n_test)
    r10_floor_vs_chance: float = 1.5


PAPER = Shape()
TOY = replace(
    PAPER,
    clusters=4,
    images_per_cluster=20,
    feature_dim=32,
    vocab_per_cluster=12,
    n_emb=16,
    word_dim=8,
    kernels=8,
    window=3,
    n_test=20,
    gallery_images=10,
    queries=6,
    ckpt_train_images=20,
    ckpt_val_images=4,
    r10_floor_vs_chance=1.0,
)
SHAPES = {"paper": PAPER, "toy": TOY}
TRAIN_EPOCHS = 2
EVAL_EXTRA_IMAGES = 10  # evaluate's split needs images beyond the test split


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _subset(images, captions, ids, prefix: str, out: str, dim: int) -> None:
    keep = set(ids)
    corpus.write_captions(
        [c for c in captions if c.image_id in keep], os.path.join(out, f"{prefix}captions.tsv")
    )
    corpus.write_features(
        [r for r in images if r.image_id in keep], dim, os.path.join(out, f"{prefix}features.txt")
    )


def prepare(shape: Shape, seed: int, out: str, with_model: bool) -> dict:
    """Write the seed's corpus and, for evaluate and query, a trained checkpoint,
    eval and gallery subsets and the query list. Returns facts about the inputs."""
    images, captions = corpus.generate_synthetic_corpus(
        n_clusters=shape.clusters,
        images_per_cluster=shape.images_per_cluster,
        feature_dim=shape.feature_dim,
        vocab_per_cluster=shape.vocab_per_cluster,
        noise_sigma=shape.noise_sigma,
        seed=seed,
    )
    corpus.write_captions(captions, os.path.join(out, "captions.tsv"))
    corpus.write_features(images, shape.feature_dim, os.path.join(out, "features.txt"))
    facts = {"images": len(images), "captions": len(captions)}
    if not with_model:
        return facts

    ids = sorted(r.image_id for r in images)
    random.Random(seed).shuffle(ids)
    n_eval = shape.n_test + EVAL_EXTRA_IMAGES
    eval_ids = ids[:n_eval]
    gallery_ids = ids[n_eval : n_eval + shape.gallery_images]
    rest = ids[n_eval + shape.gallery_images :]
    ck_train = set(rest[: shape.ckpt_train_images])
    ck_val = set(rest[shape.ckpt_train_images : shape.ckpt_train_images + shape.ckpt_val_images])
    _subset(images, captions, eval_ids, "eval_", out, shape.feature_dim)
    _subset(images, captions, gallery_ids, "gallery_", out, shape.feature_dim)

    for cap in captions:
        cap.tokens = text.normalize_tokenize(cap.text)
    vocab = text.build_vocabulary(captions, "unigram", shape.max_vocab)
    store = corpus.FeatureStore(images, shape.feature_dim)
    split = corpus.SplitDataset(train=ck_train, val=ck_val, test=set(eval_ids), seed=seed)
    data = ranker.RetrievalDataset(store, captions, split, vocab)
    model = ranker.ScoreModel(
        nets.init_net(nets.NetSpec("bag", vocab.size, shape.n_emb), seed),
        nets.init_net(nets.NetSpec("bag", shape.feature_dim, shape.n_emb), seed + 1),
    )
    config = ranker.TrainConfig(
        lr0=shape.ckpt_lr, max_epochs=1, seed=seed, val_pairs_per_epoch=shape.ckpt_val_pairs
    )
    best, history = ranker.train(model, data, config)
    ck_path = os.path.join(out, "model.bin")
    checkpoint.save_checkpoint(
        ck_path, best, vocab, config, history, data_config={"n_test": shape.n_test, "val_frac": 0.5}
    )

    rng = random.Random(seed + 1)
    gallery = set(gallery_ids)
    by_image = {}
    for cap in captions:
        if cap.image_id in gallery and any(t in vocab.term_to_index for t in cap.tokens):
            by_image.setdefault(cap.image_id, []).append(cap.text)
    queries = []
    for i in range(shape.queries):
        image_id = rng.choice(sorted(by_image))
        if i % 2 == 0:
            queries.append({"sentence": rng.choice(by_image[image_id])})
        else:
            queries.append({"image_id": image_id})
    with open(os.path.join(out, "queries.json"), "w", encoding="utf-8") as fh:
        json.dump(queries, fh)
    facts.update(
        vocab_size=vocab.size,
        checkpoint_sha256=sha256_file(ck_path),
        checkpoint_train_pairs=len(data.view("train").pairs),
    )
    return facts


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


class CheckFailed(Exception):
    """An operation's output violates what the benchmark expects of it."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class SkipCounter:
    """Counts pairs that training and validation skip on ZeroNormError.

    Both loops score a pair through ``ranker.cosine_score`` before anything
    else can raise ZeroNormError, and stop scoring the pair when it raises,
    so each raise there is one skipped pair.
    """

    def __init__(self) -> None:
        self.skipped = 0
        original = ranker.cosine_score

        def counted(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            except ZeroNormError:
                self.skipped += 1
                raise

        counted.__wrapped__ = original
        ranker.cosine_score = counted


class TrainWorkload:
    def __init__(self, shape: Shape, seed: int, inputs: str, work: str, methodology: str, textual: str):
        self.shape, self.seed, self.inputs, self.work = shape, seed, inputs, work
        self.methodology, self.textual = methodology, textual
        self.skips = SkipCounter()
        self.digests: list[tuple[str, str]] = []
        self.quality: dict = {}

    def setup(self) -> None:
        s = self.shape
        captions = corpus.load_captions(os.path.join(self.inputs, "captions.tsv"))
        features = corpus.load_image_features(os.path.join(self.inputs, "features.txt"))
        for cap in captions:
            cap.tokens = text.normalize_tokenize(cap.text)
        self.vocab = text.build_vocabulary(captions, "unigram", s.max_vocab)
        held = s.train_images + s.val_images
        self.data_config = {"n_test": len(features) - held, "val_frac": s.val_images / held}
        split = corpus.split_dataset(
            features.records(), captions, self.data_config["n_test"], self.data_config["val_frac"], self.seed
        )
        kind = "sequence" if self.textual == "sse" else "bag"
        self.data = ranker.RetrievalDataset(features, captions, split, self.vocab, textual_kind=kind)
        if kind == "bag":
            tspec = nets.NetSpec("bag", self.vocab.size, s.n_emb)
        else:
            tspec = nets.NetSpec(
                "sequence", self.vocab.size, s.n_emb,
                word_dim=s.word_dim, kernel_count=s.kernels, window=s.window,
            )
        vspec = nets.NetSpec("bag", features.feature_dim, s.n_emb)
        self.initial = ranker.ScoreModel(
            nets.init_net(tspec, self.seed), nets.init_net(vspec, self.seed + 1)
        )
        self.config = ranker.TrainConfig(
            max_epochs=TRAIN_EPOCHS, methodology=self.methodology, seed=self.seed,
            val_pairs_per_epoch=s.val_pairs,
        )
        self.pairs_per_round = TRAIN_EPOCHS * (
            len(self.data.view("train").pairs) + s.val_pairs
        )

    def warm_up(self) -> None:
        self.check(0, self.op(self.fresh_input(0)))

    def fresh_input(self, i: int):
        def copy(net):
            return nets.Net(spec=net.spec, params={k: v.copy() for k, v in net.params.items()})

        return ranker.ScoreModel(copy(self.initial.textual_net), copy(self.initial.visual_net))

    def op(self, model):
        best, history = ranker.train(model, self.data, self.config)
        ranker.write_history(history, os.path.join(self.work, "history.tsv"))
        checkpoint.save_checkpoint(
            os.path.join(self.work, "checkpoint.bin"), best, self.vocab, self.config, history,
            data_config=self.data_config,
        )
        return best, history

    def attempted(self) -> int:
        return self.pairs_per_round

    def check(self, i: int, output) -> None:
        best, history = output
        for net in (best.textual_net, best.visual_net):
            for name, value in net.params.items():
                _require(bool(np.all(np.isfinite(value))), f"non-finite parameter {name}")
        hist_path = os.path.join(self.work, "history.tsv")
        with open(hist_path, encoding="utf-8") as fh:
            rows = [line.split("\t") for line in fh.read().splitlines()]
        _require(len(rows) == TRAIN_EPOCHS, f"history.tsv has {len(rows)} rows")
        _require(all(len(r) == 4 for r in rows), "history.tsv rows need 4 fields")
        digest = (sha256_file(os.path.join(self.work, "checkpoint.bin")), sha256_file(hist_path))
        self.digests.append(digest)
        _require(digest == self.digests[0], "training round bytes differ from the first round")
        self.quality = {"val_err_pct": history.epochs[history.best_epoch - 1].val_err}

    def summary(self, op_seconds: list[float]) -> dict:
        out = dict(self.quality)
        if op_seconds:
            out["train_pairs_per_s"] = (
                TRAIN_EPOCHS * len(self.data.view("train").pairs) / statistics.median(op_seconds)
            )
        if self.digests:
            out["checkpoint_sha256"], out["history_sha256"] = self.digests[0]
        return out


def _parse_kv(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.split("=", 1) for line in fh.read().splitlines())


class EvaluateWorkload:
    def __init__(self, shape: Shape, seed: int, inputs: str, work: str):
        self.shape, self.work = shape, work
        self.skips = None
        self.digests: list[str] = []
        self.quality: dict = {}
        self.argv = [
            "evaluate",
            "--checkpoint", os.path.join(inputs, "model.bin"),
            "--captions", os.path.join(inputs, "eval_captions.tsv"),
            "--features", os.path.join(inputs, "eval_features.txt"),
            "--out", work,
        ]

    def setup(self) -> None:
        self.check(-1, self.op(None))

    def warm_up(self) -> None:
        pass  # set-up made the warm-up call

    def fresh_input(self, i: int):
        return None

    def op(self, _):
        return _run_cli(self.argv)

    def attempted(self) -> int:
        return 1

    def check(self, i: int, output) -> None:
        rc, stdout, stderr = output
        _require(rc == 0, f"evaluate exited {rc}: {stderr.strip()[-200:]}")
        n = self.shape.n_test
        floor = self.shape.r10_floor_vs_chance * 100.0 * min(10, n) / n
        reports = {}
        for direction in ("annotation", "search"):
            kv = _parse_kv(os.path.join(self.work, f"report_{direction}.kv"))
            _require(kv.get("direction") == direction, f"{direction} report has the wrong direction")
            _require(int(kv["queries"]) == n, f"{direction} report has {kv['queries']} queries, not {n}")
            med_r = int(kv["med_r"])
            _require(1 <= med_r <= n, f"{direction} med r {med_r} outside [1, {n}]")
            recall: dict[str, dict[int, float]] = {}
            for key, value in kv.items():
                if key.startswith("recall."):
                    _, variant, k = key.split(".")
                    recall.setdefault(variant, {})[int(k)] = float(value)
            for variant, by_k in recall.items():
                values = [by_k[k] for k in sorted(by_k)]
                _require(values == sorted(values), f"{direction} {variant} R@K decreases in k")
                _require(all(0.0 <= v <= 100.0 for v in values), f"{direction} {variant} R@K outside [0, 100]")
            for k, v in recall["avg_txt"].items():
                # med r is the smallest k at which avg_txt recall reaches 50%
                _require((med_r <= k) == (v >= 50.0 - 1e-9), f"{direction} med r {med_r} disagrees with R@{k}")
                # an any_txt hit through caption j is also a hit of avg_txt's run j
                if direction == "annotation":
                    _require(recall["any_txt"][k] <= 5 * v + 1e-9, f"any_txt R@{k} above 5 x avg_txt")
            _require(recall["avg_txt"][10] > floor, f"{direction} R@10 {recall['avg_txt'][10]:.2f} at or below {floor:.2f}")
            reports[direction] = (recall["avg_txt"][10], med_r)
        with open(os.path.join(self.work, "report_annotation.kv"), "rb") as fa, open(
            os.path.join(self.work, "report_search.kv"), "rb"
        ) as fs:
            digest = hashlib.sha256(fa.read() + fs.read()).hexdigest()
        self.digests.append(digest)
        _require(digest == self.digests[0], "evaluate reports differ from the first call")
        self.quality = {
            "r10_annotation_pct": reports["annotation"][0],
            "r10_search_pct": reports["search"][0],
            "med_r_annotation": reports["annotation"][1],
            "r10_floor_pct": floor,
        }

    def summary(self, op_seconds: list[float]) -> dict:
        out = dict(self.quality)
        if op_seconds:
            out["eval_s"] = statistics.median(op_seconds)
        if self.digests:
            out["reports_sha256"] = self.digests[0]
        return out


class QueryWorkload:
    """One operation is a pair of calls, a ``--sentence`` query then an
    ``--image-id`` query, so that every operation does the same mix of work."""

    def __init__(self, shape: Shape, seed: int, inputs: str, work: str):
        self.shape, self.inputs = shape, inputs
        self.skips = None
        with open(os.path.join(inputs, "queries.json"), encoding="utf-8") as fh:
            self.queries = json.load(fh)
        self.base = [
            "query",
            "--checkpoint", os.path.join(inputs, "model.bin"),
            "--features", os.path.join(inputs, "gallery_features.txt"),
            "--top-k", str(shape.top_k),
        ]
        self.first_output: dict[int, str] = {}
        self.query_seconds: list[float] = []

    def setup(self) -> None:
        self.check(0, self.op(self.fresh_input(0)))
        self.query_seconds.clear()

    def warm_up(self) -> None:
        pass  # set-up made the warm-up call

    def fresh_input(self, i: int) -> list[tuple[int, list[str]]]:
        calls = []
        for j in (2 * i, 2 * i + 1):
            j %= len(self.queries)
            q = self.queries[j]
            if "sentence" in q:
                argv = self.base + ["--sentence", q["sentence"]]
            else:
                captions = os.path.join(self.inputs, "gallery_captions.tsv")
                argv = self.base + ["--captions", captions, "--image-id", q["image_id"]]
            calls.append((j, argv))
        return calls

    def op(self, calls):
        results = []
        for j, argv in calls:
            t0 = time.perf_counter()
            rc, stdout, stderr = _run_cli(argv)
            results.append((j, rc, stdout, stderr, time.perf_counter() - t0))
        return results

    def attempted(self) -> int:
        return 2

    def check(self, i: int, output) -> None:
        for j, rc, stdout, stderr, seconds in output:
            self._check_one(j, rc, stdout, stderr)
            self.query_seconds.append(seconds)

    def _check_one(self, j: int, rc: int, stdout: str, stderr: str) -> None:
        _require(rc == 0, f"query exited {rc}: {stderr.strip()[-200:]}")
        lines = stdout.splitlines()
        _require(len(lines) == self.shape.top_k, f"query printed {len(lines)} lines, not {self.shape.top_k}")
        n_fields = 4 if "image_id" in self.queries[j] else 3
        scores = []
        for rank, line in enumerate(lines, start=1):
            fields = line.split("\t")
            _require(len(fields) == n_fields, f"malformed result line {line!r}")
            _require(fields[0] == str(rank), f"result line {rank} has rank {fields[0]}")
            score = float(fields[1])
            _require(-1.0 <= score <= 1.0, f"score {score} outside [-1, 1]")
            scores.append(score)
        _require(all(a >= b for a, b in zip(scores, scores[1:])), "query scores increase")
        first = self.first_output.setdefault(j, stdout)
        _require(stdout == first, "query output differs from the first call with the same arguments")

    def summary(self, op_seconds: list[float]) -> dict:
        if not self.query_seconds:
            return {}
        ordered = sorted(self.query_seconds)
        return {
            "queries": len(ordered),
            "query_p50_ms": 1000.0 * statistics.median(ordered),
            "query_p90_ms": 1000.0 * statistics.quantiles(ordered, n=10)[-1] if len(ordered) > 1 else None,
        }


def make(name: str, shape: Shape, seed: int, inputs: str, work: str):
    if name == "train_i2t":
        return TrainWorkload(shape, seed, inputs, work, "I2T", "bag")
    if name == "train_t2i_seq":
        return TrainWorkload(shape, seed, inputs, work, "T2I", "sse")
    if name == "evaluate":
        return EvaluateWorkload(shape, seed, inputs, work)
    if name == "query":
        return QueryWorkload(shape, seed, inputs, work)
    raise ValueError(f"unknown workload {name!r}")
