"""Command-line pipeline: synth, preprocess, train, evaluate, query.

Progress goes to stderr, data to stdout. Every command exits 0 on success
and nonzero with one machine-parsable ``error <Class>: <message>`` line on
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint, vocab_digest
from .corpus import (
    atomic_write,
    generate_synthetic_corpus,
    load_captions,
    load_image_features,
    load_word_embeddings,
    split_dataset,
    text_lines,
    write_captions,
    write_features,
)
from .errors import ConfigError, CrossmodalError, EmptySequenceError
from .metrics import (build_rankings, caption_id, evaluate_rankings, format_report,
                      rank_by_cosine, report_to_kv)
from .nets import NetSpec, forward, init_net
from .ranker import (
    METHODOLOGIES,
    RetrievalDataset,
    ScoreModel,
    TrainConfig,
    sample_negative,
    train,
    write_history,
)
from .text import (
    WEIGHTINGS,
    build_vocabulary,
    encode_caption,
    load_vocabulary,
    normalize_tokenize,
    save_vocabulary,
)

MODE_FLAGS = {"unigram": "unigram", "2g": "bigram", "3g": "trigram", "tk3": "trigram_skip"}

LR_DECAY_DESC = "linear to 0.01 factor over 100 epochs"
NONLINEARITY = "relu"
LENIENT_HELP = "accept images with fewer than five captions"


@dataclass(frozen=True)
class Option:
    """One train hyperparameter: a ``--flag``, a config-file key and a
    manifest key, all spelled ``name`` (the flag with - for _)."""

    name: str
    type: Callable[[str], Any]
    default: Any
    choices: tuple = ()
    help: str = ""
    field: str | None = None  # the TrainConfig field it sets


def _train_option(name: str, field_name: str, type_, help: str, choices: tuple = ()) -> Option:
    """An option that sets a TrainConfig field and takes its default from it."""
    return Option(name, type_, TrainConfig.__dataclass_fields__[field_name].default,
                  choices, help, field_name)


# defaults mirror the best-validated hyperparameters; lr decays linearly to
# a 0.01 factor over 100 epochs and stays there
OPTIONS = (
    _train_option("margin", "margin", float, "hinge margin between positive and negative scores"),
    _train_option("lr", "lr0", float, "initial learning rate"),
    _train_option("epochs", "max_epochs", int, "number of training epochs"),
    _train_option("methodology", "methodology", str.upper,
                  "I2T swaps the caption of a pair, T2I its image", METHODOLOGIES),
    _train_option("weighting", "weighting", str, "bag-of-terms feature weighting", WEIGHTINGS),
    _train_option("seed", "seed", int, "seed for the split, initialization and sampling"),
    _train_option("val_pairs", "val_pairs_per_epoch", int, "validation pairs scored per epoch"),
    Option("n_hu", int, 0, help="hidden units of the bag textual net; 0 is linear"),
    Option("n_emb", int, 300, help="width of the shared embedding space"),
    Option("visual_n_hu", int, 0, help="hidden units of the visual net; 0 is linear"),
    Option("textual", str, "bag", ("bag", "sse"), "textual net: bag of terms or sequence"),
    Option("word_dim", int, 300, help="sse word vector width"),
    Option("kernels", int, 300, help="sse convolution kernels"),
    Option("window", int, 5, help="sse convolution window, in tokens"),
    Option("n_test", int, 1000, help="images held out for the test split"),
    Option("val_frac", float, 0.05, help="fraction of the remaining images used to validate"),
)
OPTION_BY_NAME = {opt.name: opt for opt in OPTIONS}


def parse_config_file(path: str) -> dict[str, Any]:
    """Flat ``key = value`` lines, typed by OPTIONS; blank lines and # comments ignored."""
    values: dict[str, Any] = {}
    for lineno, line in text_lines(path, ConfigError):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        opt = OPTION_BY_NAME.get(key.strip())
        if opt is None:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        try:
            value = opt.type(raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {opt.name}: {exc}") from None
        if opt.choices and value not in opt.choices:
            raise ConfigError(
                f"{path}:{lineno}: {opt.name} must be one of {opt.choices}, got {raw.strip()!r}"
            )
        values[opt.name] = value
    return values


def resolve_config(args: argparse.Namespace) -> dict[str, Any]:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    resolved = {opt.name: opt.default for opt in OPTIONS}
    if args.config:
        resolved.update(parse_config_file(args.config))
    for opt in OPTIONS:
        flag = getattr(args, opt.name)
        if flag is not None:
            resolved[opt.name] = flag
    return resolved


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _parse_k(text: str, flag: str) -> int:
    """A rank cutoff given on the command line: an integer of at least 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise ConfigError(f"{flag} takes integers of at least 1, got {text!r}")
    return int(text)


def _report_unencodable(data: RetrievalDataset) -> None:
    if data.unencodable:
        _progress(f"captions with no in-vocabulary term, not scored: {data.unencodable}")


def cmd_synth(args: argparse.Namespace) -> int:
    images, captions = generate_synthetic_corpus(
        n_clusters=args.clusters,
        images_per_cluster=args.images_per_cluster,
        feature_dim=args.feature_dim,
        vocab_per_cluster=args.vocab_per_cluster,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    write_captions(captions, os.path.join(args.out, "captions.tsv"))
    write_features(images, args.feature_dim, os.path.join(args.out, "features.txt"))
    _progress(f"wrote {len(images)} images and {len(captions)} captions to {args.out}")
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    captions = load_captions(args.captions, strict=not args.lenient)
    for cap in captions:
        cap.tokens = normalize_tokenize(cap.text)
    mode = MODE_FLAGS[args.mode]
    vocab = build_vocabulary(captions, mode, args.max_size)
    os.makedirs(args.out, exist_ok=True)
    save_vocabulary(vocab, os.path.join(args.out, "vocab.tsv"))
    _progress(f"vocabulary of {vocab.size} {mode} terms written to {args.out}")
    return 0


def _write_manifest(path: str, typed: dict, args: argparse.Namespace) -> None:
    inputs = {name: getattr(args, name) for name in ("captions", "features", "vocab", "embeddings")}
    manifest = {
        "tool_version": __version__,
        "seed": typed["seed"],
        "config": {**typed, "lr_decay": LR_DECAY_DESC, "nonlinearity": NONLINEARITY},
        "inputs": {
            name: ({"path": p, "sha256": _sha256(p)} if p else None)
            for name, p in inputs.items()
        },
    }
    with atomic_write(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _net_specs(typed: dict, vocab_size: int, feature_dim: int) -> tuple[NetSpec, NetSpec]:
    """(textual, visual) specs for the resolved hyperparameters."""
    if typed["textual"] == "bag":
        tspec = NetSpec(kind="bag", input_dim=vocab_size, n_emb=typed["n_emb"], n_hu=typed["n_hu"])
    else:
        tspec = NetSpec(
            kind="sequence", input_dim=vocab_size, n_emb=typed["n_emb"],
            word_dim=typed["word_dim"], kernel_count=typed["kernels"], window=typed["window"],
        )
    vspec = NetSpec(
        kind="bag", input_dim=feature_dim, n_emb=typed["n_emb"], n_hu=typed["visual_n_hu"]
    )
    return tspec, vspec


def cmd_train(args: argparse.Namespace) -> int:
    typed = resolve_config(args)
    vocab = load_vocabulary(args.vocab)
    captions = load_captions(args.captions, strict=not args.lenient)
    features = load_image_features(args.features)
    pretrained = load_word_embeddings(args.embeddings) if args.embeddings else None
    # every value is checked by the object that enforces it before anything is written
    try:
        tspec, vspec = _net_specs(typed, vocab.size, features.feature_dim)
        config = TrainConfig(**{opt.field: typed[opt.name] for opt in OPTIONS if opt.field})
        split = split_dataset(
            features.records(), captions, typed["n_test"], typed["val_frac"], typed["seed"]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    data = RetrievalDataset(
        features, captions, split, vocab,
        weighting=config.weighting, textual_kind=tspec.kind,
    )
    for name in ("train", "val") if config.max_epochs else ():
        view = data.view(name)
        if not view.pairs:
            raise ConfigError(f"the {name} split has no scoreable pairs; check n_test and val_frac")
        try:
            # a view that gives one positive a negative gives every positive one
            sample_negative(view.pairs[0], view, config.methodology, random.Random(0))
        except ValueError as exc:
            raise ConfigError(f"the {name} split: {exc}; check n_test and val_frac") from None
    _report_unencodable(data)
    model = ScoreModel(
        textual_net=init_net(tspec, config.seed, pretrained=pretrained, vocab=vocab),
        visual_net=init_net(vspec, config.seed + 1),
    )
    os.makedirs(args.out, exist_ok=True)
    _write_manifest(os.path.join(args.out, "manifest.json"), typed, args)
    best, history = train(
        model, data, config,
        progress=lambda s: _progress(
            f"epoch {s.epoch} lr {s.lr:.6g} train_err {s.train_err:.2f}% val_err {s.val_err:.2f}%"
        ),
    )
    write_history(history, os.path.join(args.out, "history.tsv"))
    save_checkpoint(
        os.path.join(args.out, "checkpoint.bin"), best, vocab, config, history,
        data_config={"n_test": typed["n_test"], "val_frac": typed["val_frac"]},
    )
    _progress(f"best epoch {history.best_epoch}; checkpoint written to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    ks = tuple(_parse_k(k, "--ks") for k in args.ks.split(","))
    ckpt = load_checkpoint(args.checkpoint)
    if not {"n_test", "val_frac"} <= ckpt.data_config.keys():
        raise ConfigError(
            f"{args.checkpoint} records no n_test/val_frac, so its test split is unknown"
        )
    if args.vocab:
        given = vocab_digest(load_vocabulary(args.vocab))
        if given != ckpt.vocab_digest:
            raise ConfigError(
                f"vocabulary digest mismatch: {args.vocab} does not match the checkpoint's vocabulary"
            )
    captions = load_captions(args.captions, strict=not args.lenient)
    features = load_image_features(args.features)
    config = ckpt.train_config
    try:
        split = split_dataset(
            features.records(), captions, ckpt.data_config["n_test"], ckpt.data_config["val_frac"],
            config.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    data = RetrievalDataset(
        features, captions, split, ckpt.vocabulary, weighting=config.weighting,
        textual_kind=ckpt.model.textual_net.spec.kind,
    )
    _report_unencodable(data)
    annotation, search = build_rankings(ckpt.model, data, subset="test")
    os.makedirs(args.out, exist_ok=True)
    for rankings in (annotation, search):
        report = evaluate_rankings(rankings, ks=ks, rnd_seed=args.seed)
        text = format_report(report)
        sys.stdout.write(text)
        base = os.path.join(args.out, f"report_{report.direction}")
        with atomic_write(base + ".txt") as fh:
            fh.write(text)
        with atomic_write(base + ".kv") as fh:
            fh.write(report_to_kv(report))
    _progress(f"reports written to {args.out}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    top_k = _parse_k(args.top_k, "--top-k")
    if (args.sentence is None) == (args.image_id is None):
        raise ConfigError("provide exactly one of --sentence or --image-id")
    ckpt = load_checkpoint(args.checkpoint)
    features = load_image_features(args.features)
    textual, visual = ckpt.model.textual_net, ckpt.model.visual_net

    def encode(text: str):
        return encode_caption(
            normalize_tokenize(text), ckpt.vocabulary, textual.spec.kind, ckpt.train_config.weighting
        )

    if args.sentence is not None:
        enc = encode(args.sentence)
        if enc is None:
            raise EmptySequenceError("sentence has no in-vocabulary terms")
        query, _ = forward(textual, enc)
        ids = labels = features.ids()
        embs = [forward(visual, features.get(image_id))[0] for image_id in ids]
    else:
        if args.image_id not in features:
            raise ConfigError(f"unknown image id {args.image_id!r}")
        if not args.captions:
            raise ConfigError("--captions is required for image queries")
        captions = load_captions(args.captions, strict=False)
        query, _ = forward(visual, features.get(args.image_id))
        pool = [(cap, enc) for cap in captions if (enc := encode(cap.text)) is not None]
        ids = [caption_id(cap.image_id, cap.caption_index) for cap, _ in pool]
        labels = [f"{cid}\t{cap.text}" for cid, (cap, _) in zip(ids, pool)]
        embs = [forward(textual, enc)[0] for _, enc in pool]
    order, scores = rank_by_cosine(query[None], np.array(embs), ids)
    # zero-norm candidates cannot be scored; they sort last and are not shown
    for rank, (j, score) in enumerate(zip(order[0][:top_k], scores[0]), start=1):
        if score == -np.inf:
            break
        print(f"{rank}\t{score:.6f}\t{labels[j]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crossmodal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic captioned corpus")
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--images-per-cluster", type=int, default=10)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--vocab-per-cluster", type=int, default=12)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="build a vocabulary")
    p.add_argument("--captions", required=True)
    p.add_argument("--mode", choices=sorted(MODE_FLAGS), default="unigram")
    p.add_argument("--max-size", type=int, default=5000)
    p.add_argument("--lenient", action="store_true", help=LENIENT_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a ranking model")
    p.add_argument("--captions", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--embeddings", help="optional word2vec text file for first-layer init")
    p.add_argument("--config", help="flat key = value config file")
    for opt in OPTIONS:
        p.add_argument(
            "--" + opt.name.replace("_", "-"), dest=opt.name, type=opt.type,
            choices=opt.choices or None, help=f"{opt.help} (default {opt.default})",
        )
    p.add_argument("--lenient", action="store_true", help=LENIENT_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--captions", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--vocab", help="optional vocabulary file to cross-check against the checkpoint")
    p.add_argument("--ks", default="1,2,5,10", help="comma-separated R@K cutoffs, each at least 1")
    p.add_argument("--seed", type=int, default=0, help="seed for the rnd_txt caption draw")
    p.add_argument("--lenient", action="store_true", help=LENIENT_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("query", help="rank images for a sentence or captions for an image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--captions")
    p.add_argument("--sentence")
    p.add_argument("--image-id", dest="image_id")
    p.add_argument("--top-k", default="10", dest="top_k", help="results to print, at least 1")
    p.set_defaults(func=cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CrossmodalError, ValueError, KeyError, OSError, RuntimeError) as exc:
        message = str(exc) or type(exc).__name__
        print(f"error {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
