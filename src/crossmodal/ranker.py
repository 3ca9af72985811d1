"""Margin-ranking trainer for paired textual and visual embedding nets.

A positive (image, caption) pair and a sampled negative pair are scored by
cosine in the shared embedding space; the hinge max(0, s_neg - s_pos + margin)
drives SGD. Negatives follow one of two methodologies: I2T keeps the image
and swaps the caption, T2I keeps the caption and swaps the image.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .corpus import Caption, FeatureStore, SplitDataset, atomic_write
from .errors import ZeroNormError
from .nets import Net, accumulate, backward, clone_net, forward, lr_schedule, sgd_step
from .text import WEIGHTINGS, Encoding, Vocabulary, encode_caption, normalize_tokenize

METHODOLOGIES = ("I2T", "T2I")


@dataclass
class ScoreModel:
    textual_net: Net
    visual_net: Net

    def __post_init__(self) -> None:
        if self.textual_net.spec.n_emb != self.visual_net.spec.n_emb:
            raise ValueError("textual and visual nets must share the embedding width")


@dataclass
class TrainConfig:
    margin: float = 0.15
    lr0: float = 0.001
    max_epochs: int = 50
    methodology: str = "I2T"
    seed: int = 0
    weighting: str = "binary"
    val_pairs_per_epoch: int = 500

    def __post_init__(self) -> None:
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be nonnegative")
        if self.methodology not in METHODOLOGIES:
            raise ValueError(f"methodology must be one of {METHODOLOGIES}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}")
        if self.val_pairs_per_epoch < 1:
            raise ValueError("val_pairs_per_epoch must be positive")


@dataclass
class EpochStats:
    epoch: int  # 1-based
    lr: float
    train_err: float
    val_err: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0  # 1-based; 0 means no epoch ran


def write_history(history: TrainHistory, path: str) -> None:
    with atomic_write(path) as fh:
        for row in history.epochs:
            fh.write(f"{row.epoch}\t{row.lr!r}\t{row.train_err!r}\t{row.val_err!r}\n")


def cosine_score(v_img: np.ndarray, v_txt: np.ndarray) -> float:
    # dot / sqrt(dot_ii * dot_tt) scores bit-identical vectors as exactly 1.0;
    # the clamp only trims ulp-level Cauchy-Schwarz violations. Swapping the
    # arguments gives the same bits (products commute, sums keep index order),
    # and likewise swaps cosine_backward's outputs, so either side can anchor.
    dot_ii = float(np.dot(v_img, v_img))
    dot_tt = float(np.dot(v_txt, v_txt))
    if dot_ii == 0.0 or dot_tt == 0.0:
        raise ZeroNormError("cannot cosine-score a zero-norm embedding")
    s = float(np.dot(v_img, v_txt)) / math.sqrt(dot_ii * dot_tt)
    return min(1.0, max(-1.0, s))


def margin_loss(s_pos: float, s_neg: float, margin: float) -> tuple[float, float, float]:
    """Hinge on the score gap; returns (loss, d_loss/d_s_pos, d_loss/d_s_neg)."""
    if margin <= 0:
        raise ValueError("margin must be positive")
    if s_pos >= s_neg + margin:
        return 0.0, 0.0, 0.0
    return s_neg - s_pos + margin, -1.0, 1.0


def cosine_backward(
    v_img: np.ndarray, v_txt: np.ndarray, d_score: float
) -> tuple[np.ndarray, np.ndarray]:
    """Chain-rule gradients of the cosine score w.r.t. both embeddings."""
    dot_ii = float(np.dot(v_img, v_img))
    dot_tt = float(np.dot(v_txt, v_txt))
    if dot_ii == 0.0 or dot_tt == 0.0:
        raise ZeroNormError("cannot differentiate through a zero-norm embedding")
    norm_prod = math.sqrt(dot_ii * dot_tt)
    s = float(np.dot(v_img, v_txt)) / norm_prod
    grad_img = d_score * (v_txt / norm_prod - s * v_img / dot_ii)
    grad_txt = d_score * (v_img / norm_prod - s * v_txt / dot_tt)
    return grad_img, grad_txt


@dataclass
class SplitView:
    """One split's scoreable pairs, in deterministic sorted order."""

    name: str
    image_ids: list[str]
    pairs: list[tuple[str, int]]


class RetrievalDataset:
    """A corpus joined with its vocabulary, featurized once for training."""

    def __init__(
        self,
        features: FeatureStore,
        captions: list[Caption],
        split: SplitDataset,
        vocab: Vocabulary,
        weighting: str = "binary",
        textual_kind: str = "bag",
    ):
        if textual_kind not in ("bag", "sequence"):
            raise ValueError(f"unknown textual kind {textual_kind!r}")
        self.features = features
        self.captions: dict[tuple[str, int], Caption] = {
            (cap.image_id, cap.caption_index): cap for cap in captions
        }
        self.split = split
        self._encodings: dict[tuple[str, int], Encoding | None] = {}
        for key, cap in self.captions.items():
            if cap.tokens is None:
                cap.tokens = normalize_tokenize(cap.text)
            self._encodings[key] = encode_caption(cap.tokens, vocab, textual_kind, weighting)
        self.unencodable = sum(enc is None for enc in self._encodings.values())
        self._views: dict[str, SplitView] = {}

    def encoding(self, image_id: str, caption_index: int) -> Encoding | None:
        return self._encodings[(image_id, caption_index)]

    def image_vec(self, image_id: str) -> np.ndarray:
        return self.features.get(image_id)

    def triplet_inputs(self, pos: tuple[str, int], neg: tuple[str, tuple[str, int]]) -> tuple:
        """(positive image, positive caption, negative image, negative caption)
        inputs for a positive caption key and a ``sample_negative`` draw."""
        neg_image, neg_caption = neg
        return (self.image_vec(pos[0]), self.encoding(*pos),
                self.image_vec(neg_image), self.encoding(*neg_caption))

    def view(self, name: str) -> SplitView:
        """Pairs with usable encodings in the split, sorted for determinism."""
        if name not in self._views:
            member = self.split.subset(name)
            pairs = sorted(
                key
                for key, enc in self._encodings.items()
                if key[0] in member and enc is not None
            )
            self._views[name] = SplitView(name=name, image_ids=sorted(member), pairs=pairs)
        return self._views[name]


def sample_negative(
    pos: tuple[str, int],
    view: SplitView,
    methodology: str,
    rng: random.Random,
) -> tuple[str, tuple[str, int]]:
    """Draw one negative for a positive pair: (image_id, caption key).

    I2T pairs the positive image with a caption key from the view's pairs,
    T2I the positive caption with an image id from the view's images. One
    loop draws uniformly and redraws a negative whose image and caption
    match, which only a candidate of the positive's image gives.
    """
    if methodology == "I2T":
        pool, negative = view.pairs, lambda key: (pos[0], key)
    elif methodology == "T2I":
        pool, negative = view.image_ids, lambda image_id: (image_id, pos)
    else:
        raise ValueError(f"methodology must be one of {METHODOLOGIES}")
    if all(image == caption[0] for image, caption in map(negative, pool)):
        raise ValueError(f"{methodology} sampling needs candidates from at least two images")
    while True:
        image, caption = negative(pool[rng.randrange(len(pool))])
        if image != caption[0]:
            return image, caption


def score_triplet(
    model: ScoreModel,
    pos_image: np.ndarray,
    pos_caption: Encoding,
    neg_image: np.ndarray | None,
    neg_caption: Encoding | None,
    methodology: str,
    embed=None,
) -> tuple[float, float, tuple]:
    """Embed an anchor and its two candidates, and score each against the anchor.

    The methodology only picks the sides: I2T anchors on the image and ranks
    the positive caption against the negative caption (neg_image unused);
    T2I anchors on the caption and ranks two images (neg_caption unused).
    ``embed(net, x)`` returns the (embedding, tape) pair of ``forward``,
    which it defaults to. Returns (s_pos, s_neg, (anchor, positive,
    negative)), each of the last an ``embed`` result.
    """
    if methodology == "I2T":
        anchor_net, cand_net = model.visual_net, model.textual_net
        anchor, pos, neg = pos_image, pos_caption, neg_caption
    elif methodology == "T2I":
        anchor_net, cand_net = model.textual_net, model.visual_net
        anchor, pos, neg = pos_caption, pos_image, neg_image
    else:
        raise ValueError(f"methodology must be one of {METHODOLOGIES}")
    if neg is None:
        raise ValueError(f"{methodology} triplet needs a negative candidate")
    embed = embed or forward
    embedded = embed(anchor_net, anchor), embed(cand_net, pos), embed(cand_net, neg)
    (v_anchor, _), (v_pos, _), (v_neg, _) = embedded
    return cosine_score(v_anchor, v_pos), cosine_score(v_anchor, v_neg), embedded


def triplet_grads(
    model: ScoreModel,
    pos_image_vec: np.ndarray,
    pos_enc: Encoding,
    neg_image_vec: np.ndarray | None,
    neg_enc: Encoding | None,
    methodology: str,
    margin: float,
) -> tuple[float, float, float, dict | None, dict | None]:
    """Scores, loss, and accumulated parameter gradients for one triplet.

    The anchor net's gradient sums both branches through one backward pass;
    the candidate net's sums two. Returns (loss, s_pos, s_neg, textual
    grads, visual grads); the gradient dicts are None when the margin is
    already satisfied.
    """
    s_pos, s_neg, embedded = score_triplet(
        model, pos_image_vec, pos_enc, neg_image_vec, neg_enc, methodology
    )
    loss, d_pos, d_neg = margin_loss(s_pos, s_neg, margin)
    if loss == 0.0:
        return loss, s_pos, s_neg, None, None
    (v_anchor, tape_anchor), (v_pos, tape_pos), (v_neg, tape_neg) = embedded
    g_anchor_p, g_pos = cosine_backward(v_anchor, v_pos, d_pos)
    g_anchor_n, g_neg = cosine_backward(v_anchor, v_neg, d_neg)
    anchor_grads = backward(tape_anchor, g_anchor_p + g_anchor_n)
    cand_grads = accumulate(backward(tape_pos, g_pos), backward(tape_neg, g_neg))
    if tape_anchor.net is model.textual_net:
        return loss, s_pos, s_neg, anchor_grads, cand_grads
    return loss, s_pos, s_neg, cand_grads, anchor_grads


def _error_pct(
    data: RetrievalDataset, config: TrainConfig, view: SplitView, positives, rng: random.Random, score
) -> float:
    """Mistake % over ``positives``, each against one sampled negative.

    ``score(*inputs)`` returns (s_pos, s_neg) for the ``triplet_inputs`` of a
    positive caption key and its ``sample_negative`` draw; ties count as
    mistakes, and a pair with a zero-norm embedding is skipped.
    """
    if not view.pairs:
        raise RuntimeError(f"the {view.name} split has no scoreable pairs")
    mistakes = scored = 0
    for pos in positives:
        neg = sample_negative(pos, view, config.methodology, rng)
        try:
            s_pos, s_neg = score(*data.triplet_inputs(pos, neg))
        except ZeroNormError:
            continue
        scored += 1
        mistakes += s_pos <= s_neg
    if scored == 0:
        raise RuntimeError(f"every {view.name} pair was skipped")
    return 100.0 * mistakes / scored


def train_epoch(
    model: ScoreModel,
    data: RetrievalDataset,
    config: TrainConfig,
    epoch: int,
    rng: random.Random,
) -> float:
    """One seeded-shuffle pass over the training pairs; returns mistake %.

    Each positive pair gets one sampled negative; when the margin is
    violated, the accumulated gradients from both branches are applied to
    both nets in a single SGD step at the scheduled learning rate; a refused
    step moves neither net.
    """
    view = data.view("train")
    lr = lr_schedule(config.lr0, epoch)
    pairs = list(view.pairs)
    rng.shuffle(pairs)

    def step(*inputs) -> tuple[float, float]:
        _, s_pos, s_neg, tgrads, vgrads = triplet_grads(
            model, *inputs, config.methodology, config.margin
        )
        if tgrads is not None:
            sgd_step((model.textual_net, model.visual_net), (tgrads, vgrads), lr)
        return s_pos, s_neg

    return _error_pct(data, config, view, pairs, rng, step)


def validate(
    model: ScoreModel,
    data: RetrievalDataset,
    config: TrainConfig,
    rng: random.Random,
) -> float:
    """Ranking error % over sampled positive/negative pairs; no updates.

    Positive pairs cycle the validation split in sorted order; each draws
    one negative per the configured methodology. A constant-scoring model
    reads 100%. The model does not change here, so each image vector and
    caption encoding is embedded once per call.
    """
    view = data.view("val")
    positives = itertools.islice(itertools.cycle(view.pairs), config.val_pairs_per_epoch)
    # keyed by id(x), safe as every input is an object data owns for the whole call
    embedded: dict[int, tuple] = {}

    def embed(net: Net, x) -> tuple:
        if id(x) not in embedded:
            embedded[id(x)] = forward(net, x)
        return embedded[id(x)]

    def score(*inputs) -> tuple[float, float]:
        return score_triplet(model, *inputs, config.methodology, embed)[:2]

    return _error_pct(data, config, view, positives, rng, score)


def epoch_seed(seed: int, epoch: int) -> int:
    """Per-epoch validation seed: reproducible, distinct across epochs."""
    return seed * 1_000_003 + epoch


def clone_model(model: ScoreModel) -> ScoreModel:
    return ScoreModel(clone_net(model.textual_net), clone_net(model.visual_net))


def train(
    model: ScoreModel,
    data: RetrievalDataset,
    config: TrainConfig,
    progress=None,
) -> tuple[ScoreModel, TrainHistory]:
    """Run up to max_epochs, keeping the earliest best-validation snapshot.

    The passed model is trained in place to its final-epoch state; the
    returned model is a copy of the parameters at the epoch with the lowest
    validation error (ties keep the earlier epoch). ``progress``, if given,
    is called with each EpochStats as it is recorded.
    """
    history = TrainHistory()
    best = clone_model(model)
    best_val = float("inf")
    rng = random.Random(config.seed)
    for e in range(1, config.max_epochs + 1):
        train_err = train_epoch(model, data, config, e - 1, rng)
        val_rng = random.Random(epoch_seed(config.seed, e))
        val_err = validate(model, data, config, val_rng)
        stats = EpochStats(
            epoch=e, lr=lr_schedule(config.lr0, e - 1), train_err=train_err, val_err=val_err
        )
        history.epochs.append(stats)
        if progress is not None:
            progress(stats)
        if val_err < best_val:
            best_val = val_err
            best = clone_model(model)
            history.best_epoch = e
    return best, history
