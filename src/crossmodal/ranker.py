"""Margin-ranking trainer for paired textual and visual embedding nets.

A positive (image, caption) pair and a sampled negative pair are scored by
cosine in the shared embedding space; the hinge max(0, s_neg - s_pos + margin)
drives SGD. The methodology only picks the anchor side of the pair, which the
negative keeps: I2T anchors on the image and swaps the caption, T2I anchors on
the caption and swaps the image. Captions are encoded when first read, so
training never encodes a test caption.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .corpus import Caption, FeatureStore, SplitDataset, atomic_write
from .errors import ConfigError, NonFiniteGradientError, ZeroNormError
from .nets import (Net, accumulate, backward, clone_net, embed_dense, fold_pending, forward,
                   lr_schedule, sgd_step)
from .text import WEIGHTINGS, Encoding, Vocabulary, encode_caption

# each methodology's anchor side of an (image, caption) pair: 0 the image, 1 the caption
_ANCHOR_SIDE = {"I2T": 0, "T2I": 1}
METHODOLOGIES = tuple(_ANCHOR_SIDE)


@dataclass
class ScoreModel:
    textual_net: Net
    visual_net: Net

    def __post_init__(self) -> None:
        if self.textual_net.spec.n_emb != self.visual_net.spec.n_emb:
            raise ValueError("textual and visual nets must share the embedding width")
        if self.visual_net.spec.kind != "bag":
            raise ValueError(f"the visual net must be a bag net, not a {self.visual_net.spec.kind} net")


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
        if not 0 < self.margin < math.inf:  # false for NaN too
            raise ConfigError("margin must be positive and finite")
        if not 0 < self.lr0 < math.inf:
            raise ConfigError("lr0 must be positive and finite")
        if self.max_epochs < 0:
            raise ConfigError("max_epochs must be nonnegative")
        if self.methodology not in METHODOLOGIES:
            raise ConfigError(f"methodology must be one of {METHODOLOGIES}")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"weighting must be one of {WEIGHTINGS}")
        if self.val_pairs_per_epoch < 1:
            raise ConfigError("val_pairs_per_epoch must be positive")
        if type(self.seed) is not int:
            raise ConfigError("seed must be an integer")
        if self.seed < 0:  # numpy seeds only nonnegative integers
            raise ConfigError("seed must be nonnegative")


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


def cosine_vanishes(norm_products, dots, what: str) -> bool | np.ndarray:
    """The one rule for which pairs a cosine can score, from each pair's product
    of squared norms and dot, floats or arrays: a value that is not finite raises
    NonFiniteGradientError. Returns where the product is 0: it cannot divide."""
    finite = norm_products - norm_products + dots - dots == 0  # x - x is 0 exactly for finite x
    if not (finite if type(finite) is bool else finite.all()):  # no numpy call on a pair's floats
        raise NonFiniteGradientError(f"cannot {what} a non-finite or overflowing embedding")
    return norm_products == 0.0


def _cosine_dots(v_img: np.ndarray, v_txt: np.ndarray, what: str) -> tuple[float, float, float]:
    """(img . img, txt . txt, img . txt) of a pair ``cosine_vanishes`` scores;
    ZeroNormError where it vanishes. An overflow in the nets first shows here."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported as the error below
        dot_ii, dot_tt = float(np.dot(v_img, v_img)), float(np.dot(v_txt, v_txt))
        dot_it = float(np.dot(v_img, v_txt))
    if cosine_vanishes(dot_ii * dot_tt, dot_it, what):
        raise ZeroNormError(f"cannot {what} a zero-norm or vanishing embedding")
    return dot_ii, dot_tt, dot_it


def cosine_score(v_img: np.ndarray, v_txt: np.ndarray) -> float:
    # dot / sqrt(dot_ii * dot_tt) scores bit-identical vectors as exactly 1.0;
    # the clamp only trims ulp-level Cauchy-Schwarz violations. Swapping the
    # arguments gives the same bits (products commute, sums keep index order),
    # and likewise swaps cosine_backward's outputs, so either side can anchor.
    dot_ii, dot_tt, dot_it = _cosine_dots(v_img, v_txt, "cosine-score")
    s = dot_it / math.sqrt(dot_ii * dot_tt)
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
    dot_ii, dot_tt, dot_it = _cosine_dots(v_img, v_txt, "differentiate through")
    norm_prod = math.sqrt(dot_ii * dot_tt)
    s = dot_it / norm_prod
    grad_img = d_score * (v_txt / norm_prod - s * v_img / dot_ii)
    grad_txt = d_score * (v_img / norm_prod - s * v_txt / dot_tt)
    return grad_img, grad_txt


@dataclass
class SplitView:
    """One split's scoreable pairs, sorted, and its captions with no in-vocabulary term."""

    name: str
    image_ids: list[str]
    pairs: list[tuple[str, int]]
    unencodable: int = 0


class RetrievalDataset:
    """A corpus joined with its vocabulary: each caption's text, by (image_id,
    caption_index), encoded when first read; no ``Caption`` object is kept.
    A textual kind, weighting or vocabulary mode that cannot encode is refused here."""

    def __init__(
        self,
        features: FeatureStore,
        captions: list[Caption],
        split: SplitDataset,
        vocab: Vocabulary,
        weighting: str = "binary",
        textual_kind: str = "bag",
    ):
        encode_caption("", vocab, textual_kind, weighting)  # every refusal, before any caption
        self.features = features
        self.split = split
        self._encode_with = (vocab, textual_kind, weighting)
        self._texts = {(cap.image_id, cap.caption_index): cap.text for cap in captions}
        self._encodings: dict[tuple[str, int], Encoding | None] = {}
        self._views: dict[str, SplitView] = {}

    def encoding(self, image_id: str, caption_index: int) -> Encoding | None:
        """The caption's text encoded on the first call and kept; None for no known term."""
        key = (image_id, caption_index)
        if key not in self._encodings:
            self._encodings[key] = encode_caption(self._texts[key], *self._encode_with)
        return self._encodings[key]

    def view(self, name: str) -> SplitView:
        """Pairs with usable encodings in the split, sorted; refuses a split with none."""
        if name not in self._views:
            member = self.split.subset(name)
            keys = [key for key in self._texts if key[0] in member]
            pairs = sorted(key for key in keys if self.encoding(*key) is not None)
            if not pairs:
                raise ConfigError(f"the {name} split has no scoreable pairs; check n_test and val_frac")
            self._views[name] = SplitView(name, sorted(member), pairs, len(keys) - len(pairs))
        return self._views[name]


def _anchor_side(methodology: str) -> int:
    if methodology not in _ANCHOR_SIDE:
        raise ValueError(f"methodology must be one of {METHODOLOGIES}")
    return _ANCHOR_SIDE[methodology]


def sample_negative(
    pos: tuple[str, int],
    view: SplitView,
    methodology: str,
    rng: random.Random,
) -> tuple[str, tuple[str, int]]:
    """Draw one negative for a positive pair: (image_id, caption key).

    The negative keeps the positive's anchor side and draws the other from
    its pool: I2T a caption key from the view's pairs, T2I an image id from
    its images. One loop draws uniformly and redraws a negative whose image
    and caption match, which only a candidate of the positive's image gives.
    """
    cand = 1 - _anchor_side(methodology)  # the side the negative replaces
    pool = (view.image_ids, view.pairs)[cand]

    def negative(candidate) -> list:
        pair = [pos[0], pos]
        pair[cand] = candidate
        return pair

    if all(image == caption[0] for image, caption in map(negative, pool)):
        raise ConfigError(f"the {view.name} split: {methodology} sampling needs candidates "
                          "from at least two images; check n_test and val_frac")
    while True:
        image, caption = negative(pool[rng.randrange(len(pool))])
        if image != caption[0]:
            return image, caption


def triplet_grads(
    model: ScoreModel,
    pos: tuple[np.ndarray, Encoding],
    neg: tuple[np.ndarray, Encoding],
    methodology: str,
    margin: float,
) -> tuple[float, float, float, dict | None, dict | None]:
    """Scores, loss, and accumulated parameter gradients for one triplet.

    ``pos`` and ``neg`` are (image vector, caption encoding) pairs. The
    methodology only picks the anchor side: its net embeds ``pos[side]``
    and the candidate net the other side of each pair (``neg[side]`` is
    unused). The anchor net's gradient sums both branches through one
    backward pass; the candidate net's sums two. Returns (loss, s_pos,
    s_neg, textual grads, visual grads); the gradient dicts are None when
    the margin is already satisfied.
    """
    side = _anchor_side(methodology)
    nets, cand = (model.visual_net, model.textual_net), 1 - side
    (v_anchor, tape_anchor), (v_pos, tape_pos), (v_neg, tape_neg) = (
        forward(nets[side], pos[side]), forward(nets[cand], pos[cand]), forward(nets[cand], neg[cand]))
    s_pos, s_neg = cosine_score(v_anchor, v_pos), cosine_score(v_anchor, v_neg)
    loss, d_pos, d_neg = margin_loss(s_pos, s_neg, margin)
    if loss == 0.0:
        return loss, s_pos, s_neg, None, None
    g_anchor_p, g_pos = cosine_backward(v_anchor, v_pos, d_pos)
    g_anchor_n, g_neg = cosine_backward(v_anchor, v_neg, d_neg)
    grads = [None, None]  # visual, textual: by side
    grads[side] = backward(tape_anchor, g_anchor_p + g_anchor_n)
    grads[cand] = accumulate(backward(tape_pos, g_pos), backward(tape_neg, g_neg))
    return loss, s_pos, s_neg, grads[1], grads[0]


def _error_pct(config: TrainConfig, view: SplitView, positives, rng: random.Random, score) -> float:
    """Mistake % over ``positives``, each against one sampled negative.

    ``score(pos, neg)`` returns (s_pos, s_neg) for a positive caption key and
    its ``sample_negative`` draw; ties count as mistakes, and a pair with a
    zero-norm embedding is skipped. An overflow inside the nets ends at the
    cosine score or at ``sgd_step``'s finiteness check as a typed error, so
    its RuntimeWarnings are not printed.
    """
    mistakes = scored = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for pos in positives:
            neg = sample_negative(pos, view, config.methodology, rng)
            try:
                s_pos, s_neg = score(pos, neg)
            except ZeroNormError:
                continue
            scored += 1
            mistakes += s_pos <= s_neg
    if scored == 0:
        raise ZeroNormError(f"every {view.name} pair was skipped")
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

    def pair(image_id: str, caption_key: tuple[str, int]) -> tuple[np.ndarray, Encoding]:
        return data.features.get(image_id), data.encoding(*caption_key)

    def step(pos, neg) -> tuple[float, float]:
        _, s_pos, s_neg, tgrads, vgrads = triplet_grads(
            model, pair(pos[0], pos), pair(*neg), config.methodology, config.margin)
        if tgrads is not None:
            sgd_step((model.textual_net, model.visual_net), (tgrads, vgrads), lr)
        return s_pos, s_neg

    return _error_pct(config, view, pairs, rng, step)


def validate(
    model: ScoreModel,
    data: RetrievalDataset,
    config: TrainConfig,
    rng: random.Random,
) -> float:
    """Ranking error % over sampled positive/negative pairs; no updates.

    Positive pairs cycle the validation split in sorted order; each draws one
    negative per the configured methodology, and both score as (image, caption)
    pairs. A constant-scoring model reads 100%. The model is fixed here, so the
    split's images are embedded at once, each caption once per call; no tapes.
    """
    view = data.view("val")
    positives = itertools.islice(itertools.cycle(view.pairs), config.val_pairs_per_epoch)
    vectors = [data.features.get(image_id) for image_id in view.image_ids]
    images = dict(zip(view.image_ids, embed_dense(model.visual_net, vectors)))
    captions: dict[tuple[str, int], np.ndarray] = {}

    def caption(key: tuple[str, int]) -> np.ndarray:
        if key not in captions:
            captions[key] = forward(model.textual_net, data.encoding(*key))[0]
        return captions[key]

    def score(pos, neg) -> tuple[float, float]:
        v_pos, v_neg = caption(pos), caption(neg[1])  # both before either is scored, as triplet_grads does
        return cosine_score(images[pos[0]], v_pos), cosine_score(images[neg[0]], v_neg)

    return _error_pct(config, view, positives, rng, score)


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
    """Train the passed model in place for up to max_epochs; return the earliest
    best-validation model (ties keep the earlier epoch), folded, and the history.

    It is the passed model itself when the last epoch is the best or no epoch runs, else
    a copy taken at the best epoch; then the passed model is left at its last epoch with
    any pending terms unfolded, which ``forward`` applies and ``clone_net`` and
    ``save_checkpoint`` fold. ``progress`` is called with each EpochStats, if given.
    """
    history = TrainHistory()
    best, best_val = model, float("inf")
    rng = random.Random(config.seed)
    for e in range(1, config.max_epochs + 1):
        train_err = train_epoch(model, data, config, e - 1, rng)
        val_rng = random.Random(epoch_seed(config.seed, e))
        val_err = validate(model, data, config, val_rng)
        stats = EpochStats(e, lr_schedule(config.lr0, e - 1), train_err, val_err)
        history.epochs.append(stats)
        if progress is not None:
            progress(stats)
        if val_err < best_val:
            best_val, best = val_err, model  # free the old snapshot first: one at a time
            best = clone_model(model) if e < config.max_epochs else model  # a later epoch moves model
            history.best_epoch = e
    fold_pending(best.textual_net)
    fold_pending(best.visual_net)
    return best, history
