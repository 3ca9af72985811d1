"""Command-line pipeline: synth, preprocess, train, evaluate, query.

Progress goes to stderr, data to stdout; a reader that closes stdout early ends
the output, not the command. Every command exits 0 on success; bad input exits
1 with one ``error <Class>: <message>`` line naming a CrossmodalError, an
OSError or a MemoryError; a refused command line is a ConfigError. A Ctrl-C
exits 130 with one ``error KeyboardInterrupt:`` line. Any other exception is a
bug: it ends in a traceback.

A command that writes files makes ``--out`` before it reads any input, writes
into a staging directory inside it and renames the files into ``--out`` only
once all of them are complete (``output_set``); a failed or interrupted command
leaves the file system as it found it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import sys
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import __version__
from .checkpoint import beside, load_checkpoint, read_checkpoint, save_checkpoint
from .corpus import (
    check_split_values,
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
from .metrics import (DEFAULT_KS, build_rankings, caption_id, cosine_scores, evaluate_rankings,
                      format_report, lexicographic_rank, report_to_kv)
from .nets import FIELDS_ONLY_READ_BY, WEIGHTING_READ_BY, NetSpec, embed_dense, forward, init_net
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
    spec_field: str | None = None  # the NetSpec field it sets in a textual net whose kind reads it
    flag = property(lambda self: "--" + self.name.replace("_", "-"))


def _train_option(name: str, field_name: str, type_, help: str, choices: tuple = ()) -> Option:
    """An option that sets a TrainConfig field and takes its default from it."""
    return Option(name, type_, TrainConfig.__dataclass_fields__[field_name].default,
                  choices, help, field_name)


TEXTUAL_KIND_BY_VALUE = {"bag": "bag", "sse": "sequence"}  # each --textual value: its NetSpec kind
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
    Option("n_hu", int, 0, help="hidden units of the bag textual net; 0 is linear", spec_field="n_hu"),
    Option("n_emb", int, 300, help="width of the shared embedding space"),
    Option("visual_n_hu", int, 0, help="hidden units of the visual net; 0 is linear"),
    Option("textual", str, "bag", tuple(TEXTUAL_KIND_BY_VALUE), "textual net: bag of terms or sequence"),
    Option("word_dim", int, 300, help="sse word vector width", spec_field="word_dim"),
    Option("kernels", int, 300, help="sse convolution kernels", spec_field="kernel_count"),
    Option("window", int, 5, help="sse convolution window, in tokens", spec_field="window"),
    Option("n_test", int, 1000, help="images held out for the test split"),
    Option("val_frac", float, 0.05, help="fraction of the remaining images used to validate"),
)
OPTION_BY_NAME = {opt.name: opt for opt in OPTIONS}
# the options a checkpoint records as its data_config, checked by check_split_values
SPLIT_OPTIONS = ("n_test", "val_frac")
OPTION_DEFAULTS = {opt.name: opt.default for opt in OPTIONS}
# each --textual value: its NetSpec kind and the options only its net reads, by NetSpec's table
TEXTUAL_NETS = {textual: (kind, tuple(opt for opt in OPTIONS if opt.spec_field in FIELDS_ONLY_READ_BY[kind]
                                      or opt.field == "weighting" and kind == WEIGHTING_READ_BY))
                for textual, kind in TEXTUAL_KIND_BY_VALUE.items()}


def parse_config_file(path: str) -> dict[str, Any]:
    """Flat ``key = value`` lines, each key once, typed by OPTIONS; blank lines and # comments ignored."""
    values: dict[str, Any] = {}
    first_line: dict[str, int] = {}
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
        if opt.name in first_line:
            raise ConfigError(f"{path}:{lineno}: {opt.name} is already set on line {first_line[opt.name]}")
        first_line[opt.name] = lineno
        values[opt.name] = typed_value(opt, raw.strip(), f"{path}:{lineno}")
    return values


def typed_value(opt: Option, raw: str, where: str) -> Any:
    """``raw`` typed and checked by ``opt``, by the ``TrainConfig`` and ``NetSpec``s that train
    builds from it, and by ``check_split_values`` for a split option; errors open with
    ``where``, a path:line or --flag."""
    try:
        value = opt.type(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {opt.name}: {exc}") from None
    if opt.choices and value not in opt.choices:
        raise ConfigError(f"{where}: {opt.name} must be one of {opt.choices}, got {raw!r}")
    try:  # the value alone, every other option at its default, under each --textual value
        for textual in TEXTUAL_NETS:
            _train_setup({**OPTION_DEFAULTS, opt.name: value, "textual": textual}, 1, 1)
        if opt.name in SPLIT_OPTIONS:
            check_split_values(**{opt.name: value})
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return value


def resolve_config(args: argparse.Namespace) -> dict[str, Any]:
    """Defaults, overlaid by the config file, overlaid by explicit flags; all typed by
    typed_value. The one place a train value is refused, so nothing is read first."""
    resolved = dict(OPTION_DEFAULTS)
    if args.config:
        resolved.update(parse_config_file(args.config))
    resolved.update({opt.name: typed_value(opt, raw, opt.flag) for opt in OPTIONS
                     if (raw := getattr(args, opt.name)) is not None})
    # an option of a textual net that --textual did not choose would change nothing
    chosen = resolved["textual"]
    for textual, (_, options) in TEXTUAL_NETS.items():
        for opt in options:
            if textual != chosen and resolved[opt.name] != opt.default:
                raise ConfigError(f"{opt.flag} applies to --textual {textual}, not to --textual {chosen}")
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


def _write_stdout(lines: list[str]) -> None:
    """Write and flush a command's data lines. A reader that closed stdout ends
    the output, not the command: the rest of the run goes on as usual, and
    stdout points at os.devnull so that nothing more, not even the exit-time
    flush, meets the closed pipe. Output that stdout's encoding cannot write is refused
    before any of it is written; a stream with no encoding (``io.StringIO``) takes any text."""
    encoding = getattr(sys.stdout, "encoding", None)
    if encoding:
        try:
            "".join(lines).encode(encoding, sys.stdout.errors or "strict")
        except UnicodeEncodeError:
            raise ConfigError(f"stdout's encoding {encoding} cannot write the output; "
                              "run with PYTHONIOENCODING=utf-8") from None
    try:
        sys.stdout.writelines(lines)
        sys.stdout.flush()
    except BrokenPipeError:
        sys.stdout = open(os.devnull, "w")


def _report_unencodable(count: int) -> None:
    if count:
        _progress(f"captions with no in-vocabulary term, not scored: {count}")


def _load_inputs(checkpoint: str, features: str):
    """``(ckpt, features_for)`` for ``--checkpoint`` and ``--features``.

    ``beside`` reads and CRC-checks the checkpoint file, which releases the GIL, on its
    worker thread while this thread parses the features, and joins the worker before this
    returns or raises, so no thread outlives a command; what it raised is raised here as
    it is. The features' error waits for ``features_for()``, which returns them as wide as
    the checkpoint's visual net's input: a command calls it where it reads the features, so
    an earlier input's error still wins."""
    def parse():
        try:
            return load_image_features(features), None
        except Exception as exc:
            return None, exc

    blob, (store, error) = beside(lambda: read_checkpoint(checkpoint), parse)
    ckpt = load_checkpoint(checkpoint, blob)

    def features_for():
        if error is not None:
            raise error
        width = ckpt.model.visual_net.spec.input_dim
        if store.feature_dim != width:
            raise ConfigError(f"{features} has {store.feature_dim}-d features, the checkpoint takes {width}")
        return store

    return ckpt, features_for


@contextmanager
def output_set(out: str):
    """Make ``out`` and yield a new staging directory inside it; once the block ends, rename each
    file staged there into ``out``, ``manifest.json`` last. If anything raises before that, remove
    the staging directory and each directory this made that is empty: the file system is as it was."""
    made, path, staging = [], out, None
    while path and not os.path.lexists(path):  # the directories makedirs makes, deepest first
        if not os.path.lexists(os.path.abspath(path)):  # "missing/../old" names an existing old
            made.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(out, exist_ok=True)
        staging = tempfile.mkdtemp(prefix="staging-", suffix=".tmp", dir=out)
        yield staging
        for name in sorted(os.listdir(staging), key=lambda name: (name == "manifest.json", name)):
            os.replace(os.path.join(staging, name), os.path.join(out, name))
        made = []
    finally:
        if staging:
            shutil.rmtree(staging, ignore_errors=True)
        for path in made:
            with suppress(OSError):
                os.rmdir(path)


def cmd_synth(args: argparse.Namespace) -> int:
    with output_set(args.out) as staging:
        images, captions = generate_synthetic_corpus(
            n_clusters=args.clusters,
            images_per_cluster=args.images_per_cluster,
            feature_dim=args.feature_dim,
            vocab_per_cluster=args.vocab_per_cluster,
            noise_sigma=args.noise_sigma,
            seed=args.seed,
        )
        write_captions(captions, os.path.join(staging, "captions.tsv"))
        write_features(images, args.feature_dim, os.path.join(staging, "features.txt"))
    _progress(f"wrote {len(images)} images and {len(captions)} captions to {args.out}")
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    with output_set(args.out) as staging:
        captions = load_captions(args.captions, strict=not args.lenient)
        mode = MODE_FLAGS[args.mode]
        vocab = build_vocabulary(captions, mode, args.max_size)
        save_vocabulary(vocab, os.path.join(staging, "vocab.tsv"))
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _train_setup(typed: dict, vocab_size: int, feature_dim: int) -> tuple[TrainConfig, NetSpec, NetSpec]:
    """The train config and the (textual, visual) specs that the hyperparameters ``typed`` give."""
    config = TrainConfig(**{opt.field: typed[opt.name] for opt in OPTIONS if opt.field})
    kind, options = TEXTUAL_NETS[typed["textual"]]
    tspec = NetSpec(kind=kind, input_dim=vocab_size, n_emb=typed["n_emb"],
                    **{opt.spec_field: typed[opt.name] for opt in options if opt.spec_field})
    vspec = NetSpec(kind="bag", input_dim=feature_dim, n_emb=typed["n_emb"], n_hu=typed["visual_n_hu"])
    return config, tspec, vspec


def cmd_train(args: argparse.Namespace) -> int:
    with output_set(args.out) as staging:
        typed = resolve_config(args)
        vocab = load_vocabulary(args.vocab)
        captions = load_captions(args.captions, strict=not args.lenient)
        features = load_image_features(args.features)
        pretrained = load_word_embeddings(args.embeddings) if args.embeddings else None
        # every value is checked by the object that enforces it before training
        config, tspec, vspec = _train_setup(typed, vocab.size, features.feature_dim)
        split = split_dataset(
            features.records(), captions, typed["n_test"], typed["val_frac"], typed["seed"]
        )
        data = RetrievalDataset(features, captions, split, vocab,
                                weighting=config.weighting, textual_kind=tspec.kind)
        views = [data.view(name) for name in ("train", "val")] if config.max_epochs else []
        for view in views:
            # a view that gives one positive a negative gives every positive one
            sample_negative(view.pairs[0], view, config.methodology, random.Random(0))
        model = ScoreModel(
            textual_net=init_net(tspec, config.seed, pretrained=pretrained, vocab=vocab),
            visual_net=init_net(vspec, config.seed + 1),
        )
        # once every check passed, so a failure is one line
        _report_unencodable(sum(view.unencodable for view in views))
        best, history = train(
            model, data, config,
            progress=lambda s: _progress(
                f"epoch {s.epoch} lr {s.lr:.6g} train_err {s.train_err:.2f}% val_err {s.val_err:.2f}%"
            ),
        )
        save_checkpoint(
            os.path.join(staging, "checkpoint.bin"), best, vocab, config, history,
            data_config={name: typed[name] for name in SPLIT_OPTIONS},
        )
        write_history(history, os.path.join(staging, "history.tsv"))
        _write_manifest(os.path.join(staging, "manifest.json"), typed, args)
    _progress(f"best epoch {history.best_epoch}; checkpoint written to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    with output_set(args.out) as staging:
        ks = tuple(_parse_k(k, "--ks") for k in args.ks.split(","))
        if len(set(ks)) != len(ks):
            raise ConfigError(f"--ks repeats a cutoff: {args.ks!r}")
        ckpt, features_for = _load_inputs(args.checkpoint, args.features)
        if args.vocab and load_vocabulary(args.vocab).digest != ckpt.vocabulary.digest:
            raise ConfigError(f"vocabulary digest mismatch: {args.vocab} does not match the "
                              "checkpoint's vocabulary")
        captions = load_captions(args.captions, strict=not args.lenient)
        features = features_for()
        config = ckpt.train_config
        split = split_dataset(features.records(), captions, **ckpt.data_config, seed=config.seed)
        data = RetrievalDataset(features, captions, split, ckpt.vocabulary, weighting=config.weighting,
                                textual_kind=ckpt.model.textual_net.spec.kind)
        reports = [evaluate_rankings(rankings, ks=ks, rnd_seed=args.seed)
                   for rankings in build_rankings(ckpt.model, data)]
        texts = [format_report(report) for report in reports]
        _report_unencodable(data.view("test").unencodable)  # after the last check, as in train
        for report, text in zip(reports, texts):
            base = os.path.join(staging, f"report_{report.direction}")
            for suffix, data in ((".txt", text), (".kv", report_to_kv(report))):
                with open(base + suffix, "w", encoding="utf-8") as fh:
                    fh.write(data)
    # every file is written before stdout, so a reader that closes early loses none
    _write_stdout(texts)
    _progress(f"reports written to {args.out}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    top_k = _parse_k(args.top_k, "--top-k")
    if (args.sentence is None) == (args.image_id is None):
        raise ConfigError("provide exactly one of --sentence or --image-id")
    if args.image_id is not None and not args.captions:
        raise ConfigError("--captions is required for image queries")
    if args.sentence is not None and args.captions is not None:
        raise ConfigError("--captions applies to --image-id queries, not to --sentence queries")
    ckpt, features_for = _load_inputs(args.checkpoint, args.features)
    features = features_for()
    textual, visual = ckpt.model.textual_net, ckpt.model.visual_net
    unencodable = 0

    def encode(text: str):
        return encode_caption(text, ckpt.vocabulary, textual.spec.kind, ckpt.train_config.weighting)

    if args.sentence is not None:
        enc = encode(args.sentence)
        if enc is None:
            raise EmptySequenceError("sentence has no in-vocabulary terms")
        query, _ = forward(textual, enc)
        ids = labels = features.ids()
        embs = embed_dense(visual, [features.get(image_id) for image_id in ids])
    else:
        if args.image_id not in features:
            raise ConfigError(f"unknown image id {args.image_id!r}")
        captions = load_captions(args.captions, strict=False)
        query, _ = forward(visual, features.get(args.image_id))
        pool = [(cap, enc) for cap in captions if (enc := encode(cap.text)) is not None]
        unencodable = len(captions) - len(pool)
        ids = [caption_id(cap.image_id, cap.caption_index) for cap, _ in pool]
        labels = [f"{cid}\t{cap.text}" for cid, (cap, _) in zip(ids, pool)]
        embs = np.array([forward(textual, enc)[0] for _, enc in pool])
    if not ids:
        raise ConfigError("nothing to rank: no image, or no caption with an in-vocabulary term")
    scores = cosine_scores(query[None], embs)[0]
    _report_unencodable(unencodable)  # after the last check, as in train
    # zero-norm candidates cannot be scored; they sort last and are not shown
    top = [j for j in np.lexsort((lexicographic_rank(ids), -scores))[:top_k] if scores[j] > -np.inf]
    _write_stdout([f"{rank}\t{scores[j]:.6f}\t{labels[j]}\n" for rank, j in enumerate(top, start=1)])
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises what it refuses as a ConfigError, for ``main`` to report."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crossmodal", description=__doc__)
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
        p.add_argument(opt.flag, dest=opt.name, help=f"{opt.help} (default {opt.default})",
                       metavar="{%s}" % ",".join(opt.choices) if opt.choices else None)
    p.add_argument("--lenient", action="store_true", help=LENIENT_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--captions", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--vocab", help="optional vocabulary file to cross-check against the checkpoint")
    p.add_argument("--ks", default=",".join(map(str, DEFAULT_KS)),
                   help="comma-separated R@K cutoffs, each at least 1")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CrossmodalError, OSError, MemoryError, KeyboardInterrupt) as exc:
        # numpy raises a private MemoryError subclass; name the public class
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"error {name}: {str(exc) or name}", file=sys.stderr)
        return 130 if isinstance(exc, KeyboardInterrupt) else 1  # 128 + SIGINT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
