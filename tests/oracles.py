"""Reference implementations kept independent of the library code paths:
brute-force metric oracles (literal nested-loop re-implementations of the
metric definitions, which read each query's candidates in the order
``oracle_orderings`` sorts its scores in plain Python), the two-branch
triplet gradient the trainer's single anchor/candidate path replaced, the
training and validation pair loops the one scored-pair loop replaced, the
anchored ``oracle_score_triplet`` that validation's direct scoring of each
drawn pair replaced, the pair-by-pair ranking loop the batched cosine kernel
replaced, the whole-matrix cosine kernel that finishing the product in
place a block of query rows at a time replaced (kept verbatim), the
dense-gradient forward/backward/update the row-sparse first-layer
gradients replaced (its sequence net averages the windows first,
as the library's does), and the hand-built parameter dicts and in-memory
checkpoint writer that ``nets.param_shapes`` and the streamed save replaced,
the dense ``w1`` and ``out_w`` gradients and the step that took them, which
their factored gradients and in-place steps replaced (kept verbatim), the
serial streamed writer (write a chunk, then take its CRC) that the
preallocated save with its CRC worker thread replaced, the row-by-row
vector parser that the blocked ``np.loadtxt`` reader replaced, the
embeddings loader whose first row set ``dim`` inside that
parser, the two-loop negative sampler that one rejection loop replaced, and
the vocabulary writers, digest and ``vocab.tsv`` reader that the one
vocabulary rule and writer walk replaced, and the training loop that cloned
every improving epoch and folded the passed model, which ``train``
returning the passed model itself when its last epoch is the best replaced.

Three byte references for changes that round differently, which tests
compare within 1e-12 relative: the eager SGD step that pending terms and
their folds replaced, the per-window sequence forward and backward that
averaging the windows first replaced, and the per-image ``forward`` loop
that the stacked ``nets.embed_dense`` replaced."""

import hashlib
import itertools
import json
import random
import struct
import zlib
from dataclasses import asdict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import crossmodal.ranker as ranker_mod
from crossmodal.checkpoint import FORMAT_VERSION, MAGIC
from crossmodal.corpus import PretrainedEmbeddings, atomic_write, text_lines
from crossmodal.errors import CorpusFormatError, NonFiniteGradientError, VocabularyError, ZeroNormError
from crossmodal.metrics import RankingSet, caption_id
from crossmodal.nets import (
    Grads, Net, NetSpec, OuterGrad, RowGrad, Tape, _check_outer, _defer, _glorot, _outer_blocks, _times_transposed,
    accumulate, backward, fold_pending, forward, lr_schedule, param_shapes, relu, sgd_step,
)
from crossmodal.ranker import (
    METHODOLOGIES,
    EpochStats,
    RetrievalDataset,
    ScoreModel,
    SplitView,
    TrainConfig,
    TrainHistory,
    cosine_backward,
    cosine_score,
    cosine_vanishes,
    margin_loss,
    sample_negative,
    triplet_grads,
)
from crossmodal.text import MODES, Encoding, SparseVector, TokenSequence, Vocabulary


def densify(param, grad):
    """A gradient as a dense array of its parameter's shape; an ``OuterGrad``
    is summed term by term, in order, as the dense ``accumulate`` adds them."""
    if isinstance(grad, OuterGrad):
        dense = np.outer(grad.lefts[0], grad.rights[0])
        for left, right in zip(grad.lefts[1:], grad.rights[1:]):
            dense = dense + np.outer(left, right)
        assert dense.shape == param.shape
        return dense
    if not isinstance(grad, RowGrad):
        return grad
    assert grad.rows.dtype == np.int64 and np.all(np.diff(grad.rows) > 0)
    dense = np.zeros_like(param)
    dense[grad.rows] = grad.values
    return dense


def oracle_triplet_grads(model, pos_image_vec, pos_enc, neg_image_vec, neg_enc, methodology, margin,
                         backward=backward):
    """Hand-mirrored I2T and T2I branches; same contract as ranker.triplet_grads.
    ``backward`` is ``nets.backward`` or an oracle of it."""
    if methodology == "I2T":
        v_img, tape_img = forward(model.visual_net, pos_image_vec)
        v_pos, tape_pos = forward(model.textual_net, pos_enc)
        v_neg, tape_neg = forward(model.textual_net, neg_enc)
        s_pos = cosine_score(v_img, v_pos)
        s_neg = cosine_score(v_img, v_neg)
        loss, d_pos, d_neg = margin_loss(s_pos, s_neg, margin)
        if loss == 0.0:
            return loss, s_pos, s_neg, None, None
        g_img_p, g_txt_p = cosine_backward(v_img, v_pos, d_pos)
        g_img_n, g_txt_n = cosine_backward(v_img, v_neg, d_neg)
        vgrads = backward(tape_img, g_img_p + g_img_n)
        tgrads = backward(tape_pos, g_txt_p)
        tgrads = accumulate(tgrads, backward(tape_neg, g_txt_n))
        return loss, s_pos, s_neg, tgrads, vgrads
    v_txt, tape_txt = forward(model.textual_net, pos_enc)
    v_pos, tape_pos = forward(model.visual_net, pos_image_vec)
    v_neg, tape_neg = forward(model.visual_net, neg_image_vec)
    s_pos = cosine_score(v_pos, v_txt)
    s_neg = cosine_score(v_neg, v_txt)
    loss, d_pos, d_neg = margin_loss(s_pos, s_neg, margin)
    if loss == 0.0:
        return loss, s_pos, s_neg, None, None
    g_img_p, g_txt_p = cosine_backward(v_pos, v_txt, d_pos)
    g_img_n, g_txt_n = cosine_backward(v_neg, v_txt, d_neg)
    tgrads = backward(tape_txt, g_txt_p + g_txt_n)
    vgrads = backward(tape_pos, g_img_p)
    vgrads = accumulate(vgrads, backward(tape_neg, g_img_n))
    return loss, s_pos, s_neg, tgrads, vgrads


def oracle_score_triplet(
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


def oracle_train_epoch(
    model: ScoreModel,
    data: RetrievalDataset,
    config: TrainConfig,
    epoch: int,
    rng: random.Random,
) -> float:
    """One seeded-shuffle pass over the training pairs; returns mistake %.

    The training loop that ``ranker._error_pct`` merged with validation's.

    Each positive pair gets one sampled negative; when the margin is
    violated, the accumulated gradients from both branches are applied to
    both nets in a single SGD step at the scheduled learning rate; a refused
    step moves neither net. A pair counts as a mistake when s_pos <= s_neg.
    """
    view = data.view("train")
    if not view.pairs:
        raise RuntimeError("no scoreable training pairs")
    lr = lr_schedule(config.lr0, epoch)
    pairs = list(view.pairs)
    rng.shuffle(pairs)
    mistakes = 0
    scored = 0
    for pos in pairs:
        neg = sample_negative(pos, view, config.methodology, rng)
        try:
            loss, s_pos, s_neg, tgrads, vgrads = triplet_grads(
                model, (data.features.get(pos[0]), data.encoding(*pos)),
                (data.features.get(neg[0]), data.encoding(*neg[1])), config.methodology, config.margin
            )
        except ZeroNormError:
            continue
        scored += 1
        if s_pos <= s_neg:
            mistakes += 1
        if tgrads is not None:
            sgd_step((model.textual_net, model.visual_net), (tgrads, vgrads), lr)
    if scored == 0:
        raise RuntimeError("every training pair was skipped")
    return 100.0 * mistakes / scored


def oracle_validate(
    model: ScoreModel,
    data: RetrievalDataset,
    config: TrainConfig,
    rng: random.Random,
) -> float:
    """Ranking error % over sampled positive/negative pairs; no updates.

    The validation loop that ``ranker._error_pct`` merged with training's.

    Positive pairs cycle the validation split in sorted order; each draws
    one negative per the configured methodology. Ties (s_pos == s_neg)
    count as errors, so a constant-scoring model reads 100%.
    """
    view = data.view("val")
    if not view.pairs:
        raise RuntimeError("validation split has no scoreable pairs")
    mistakes = 0
    scored = 0
    for i in range(config.val_pairs_per_epoch):
        pos = view.pairs[i % len(view.pairs)]
        neg = sample_negative(pos, view, config.methodology, rng)
        try:
            s_pos, s_neg, _ = oracle_score_triplet(
                model, data.features.get(pos[0]), data.encoding(*pos),
                data.features.get(neg[0]), data.encoding(*neg[1]), config.methodology
            )
        except ZeroNormError:
            continue
        scored += 1
        if s_pos <= s_neg:
            mistakes += 1
    if scored == 0:
        raise RuntimeError("every validation pair was skipped")
    return 100.0 * mistakes / scored


def oracle_train(
    model: ScoreModel,
    data: RetrievalDataset,
    config: TrainConfig,
    progress=None,
) -> tuple[ScoreModel, TrainHistory]:
    """``ranker.train`` as it was before it returned the passed model itself: a clone at
    every improving epoch, a fold of the passed model after the last epoch, and a clone of
    it when no epoch runs. Epochs, validation and clones go through ``ranker_mod``, so a
    test's patch of them applies here as it does to ``train``."""
    history = TrainHistory()
    best, best_val = None, float("inf")
    rng = random.Random(config.seed)
    for e in range(1, config.max_epochs + 1):
        train_err = ranker_mod.train_epoch(model, data, config, e - 1, rng)
        val_rng = random.Random(ranker_mod.epoch_seed(config.seed, e))
        val_err = ranker_mod.validate(model, data, config, val_rng)
        stats = EpochStats(e, lr_schedule(config.lr0, e - 1), train_err, val_err)
        history.epochs.append(stats)
        if progress is not None:
            progress(stats)
        if val_err < best_val:
            best_val, best = val_err, None  # free the old snapshot first: one at a time
            best = ranker_mod.clone_model(model)
            history.best_epoch = e
    fold_pending(model.textual_net)
    fold_pending(model.visual_net)
    return (best if best is not None else ranker_mod.clone_model(model)), history


def oracle_loop_forward(net: Net, x: SparseVector | np.ndarray | TokenSequence) -> tuple[np.ndarray, Tape]:
    """Embed one input, recording the activations needed for backward.

    Per-position window loop; the dense-gradient reference's forward."""
    spec = net.spec
    p = net.params
    tape = Tape(net=net)
    if spec.kind == "bag":
        if isinstance(x, TokenSequence):
            raise TypeError("bag nets take sparse or dense vectors, not token sequences")
        if isinstance(x, SparseVector):
            h0 = p["b0"].copy()
            if len(x):
                h0 += x.values @ p["w0"][x.indices]
        else:
            dense = np.asarray(x, dtype=np.float64)
            if dense.shape != (spec.input_dim,):
                raise ValueError(f"dense input shape {dense.shape} != ({spec.input_dim},)")
            h0 = dense @ p["w0"] + p["b0"]
            x = dense
        tape.data["input"] = x
        tape.data["h0"] = h0
        if spec.n_hu > 0:
            a = relu(h0)
            tape.data["a"] = a
            return a @ p["w1"] + p["b1"], tape
        return h0, tape
    if not isinstance(x, TokenSequence):
        raise TypeError("sequence nets take TokenSequence inputs")
    if len(x) == 0:
        raise ValueError("empty token sequence")
    emb_rows = p["lookup"][x.indices]  # (T, M)
    t_len, m = emb_rows.shape
    width = spec.window * m
    if t_len < spec.window:
        windows = np.zeros((1, width))
        windows[0, : t_len * m] = emb_rows.reshape(-1)
    else:
        n_pos = t_len - spec.window + 1
        windows = np.empty((n_pos, width))
        for pos in range(n_pos):
            windows[pos] = emb_rows[pos : pos + spec.window].reshape(-1)
    # the convolution is linear: convolve the mean window
    avg = windows.mean(axis=0) @ p["conv_w"] + p["conv_b"]
    r = relu(avg)
    tape.data["tokens"] = x.indices
    tape.data["windows"] = windows
    tape.data["avg"] = avg
    tape.data["r"] = r
    return r @ p["out_w"] + p["out_b"], tape



def oracle_dense_backward(tape: Tape, grad_out: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of embedding . grad_out w.r.t. all parameters.

    The relu subgradient at 0 is taken as 0.
    """
    if tape.used:
        raise RuntimeError("tape already consumed by a previous backward pass")
    tape.used = True
    net = tape.net
    spec = net.spec
    p = net.params
    g = np.asarray(grad_out, dtype=np.float64)
    grads: dict[str, np.ndarray] = {}
    if spec.kind == "bag":
        if spec.n_hu > 0:
            a = tape.data["a"]
            grads["w1"] = np.outer(a, g)
            grads["b1"] = g.copy()
            dh0 = (p["w1"] @ g) * (tape.data["h0"] > 0)
        else:
            dh0 = g.copy()
        grads["b0"] = dh0
        x = tape.data["input"]
        grads["w0"] = np.zeros_like(p["w0"])
        if isinstance(x, SparseVector):
            if len(x):
                np.add.at(grads["w0"], x.indices, np.outer(x.values, dh0))
        else:
            grads["w0"] += np.outer(x, dh0)
        return grads
    windows = tape.data["windows"]
    n_pos = windows.shape[0]
    grads["out_w"] = np.outer(tape.data["r"], g)
    grads["out_b"] = g.copy()
    dr = p["out_w"] @ g
    davg = dr * (tape.data["avg"] > 0)
    grads["conv_w"] = np.outer(windows.mean(axis=0), davg)
    grads["conv_b"] = davg.copy()
    # every window enters the mean with weight 1/P, so all get this gradient
    dwindow = p["conv_w"] @ (davg / n_pos)
    tokens = tape.data["tokens"]
    m = spec.word_dim
    grads["lookup"] = np.zeros_like(p["lookup"])
    t_len = len(tokens)
    if t_len < spec.window:
        drows = dwindow[: t_len * m].reshape(t_len, m)
        np.add.at(grads["lookup"], tokens, drows)
    else:
        for pos in range(n_pos):
            drows = dwindow.reshape(spec.window, m)
            np.add.at(grads["lookup"], tokens[pos : pos + spec.window], drows)
    return grads



def oracle_eager_sgd_step(nets, grads, lr: float) -> None:
    """The SGD step before steps were deferred: every gradient applied at once,
    an ``OuterGrad`` a block of rows at a time with the dense update's
    operations in its order. Gradients are assumed checked."""
    for net, net_grads in zip(nets, grads, strict=True):
        assert not any(pending.n for pending in net.pending.values())
        for name, grad in net_grads.items():
            param = net.params[name]
            if isinstance(grad, RowGrad):
                param[grad.rows] -= lr * grad.values
            elif isinstance(grad, OuterGrad):
                for rows, step in _outer_blocks(grad, param.shape):
                    np.multiply(lr, step, out=step)
                    np.subtract(param[rows], step, out=param[rows])
            else:
                param -= lr * grad


def oracle_dense_matrix_backward(tape: Tape, grad_out: np.ndarray) -> Grads:
    """``nets.backward`` before the ``w1`` and ``out_w`` gradients were factored,
    when those two were dense ``np.outer`` arrays. Its docstring then:

    Exact gradients of embedding . grad_out w.r.t. all parameters.

    The first layer's gradient is a ``RowGrad`` over the input's rows for
    sparse vectors and token sequences, an ``OuterGrad`` for dense vectors;
    ``conv_w``'s is an ``OuterGrad`` of the mean window. The relu
    subgradient at 0 is taken as 0.
    """
    if tape.used:
        raise RuntimeError("tape already consumed by a previous backward pass")
    tape.used = True
    net = tape.net
    spec = net.spec
    p = net.params
    g = np.asarray(grad_out, dtype=np.float64)
    grads: Grads = {}
    if spec.kind == "bag":
        if spec.n_hu > 0:
            a = tape.data["a"]
            grads["w1"] = np.outer(a, g)
            grads["b1"] = g.copy()
            dh0 = (p["w1"] @ g) * (tape.data["h0"] > 0)
        else:
            dh0 = g.copy()
        grads["b0"] = dh0
        x = tape.data["input"]
        if isinstance(x, SparseVector):
            grads["w0"] = RowGrad(x.indices, np.outer(x.values, dh0))
        else:
            grads["w0"] = OuterGrad((x,), (dh0,))
        return grads
    grads["out_w"] = np.outer(tape.data["r"], g)
    grads["out_b"] = g.copy()
    dr = p["out_w"] @ g
    davg = dr * (tape.data["avg"] > 0)
    grads["conv_w"] = OuterGrad((tape.data["mean_window"],), (davg,))
    grads["conv_b"] = davg.copy()
    # every window enters the mean with weight 1/P, so all get this gradient
    dwindow = _times_transposed(net, "conv_w", davg / tape.data["n_pos"])
    tokens = tape.data["tokens"]
    m = spec.word_dim
    rows, slot = np.unique(tokens, return_inverse=True)
    # padded positions add into a scratch row past the last, dropped below
    slot = np.pad(slot, (0, max(spec.window - len(tokens), 0)), constant_values=len(rows))
    # contributions in (position, offset) order: each row gets the same
    # additions in the same order as a per-position loop
    values = np.zeros((len(rows) + 1, m))
    np.add.at(values, sliding_window_view(slot, spec.window), dwindow.reshape(spec.window, m))
    grads["lookup"] = RowGrad(rows, values[:-1])
    return grads


def oracle_dense_matrix_sgd_step(nets, grads, lr: float) -> None:
    """``nets.sgd_step`` before the ``w1`` and ``out_w`` gradients were factored,
    when a dense gradient was scanned for finiteness and applied as ``p -= lr * g``,
    and every ``OuterGrad`` was deferred. Its docstring then:

    In-place p <- p - lr * g for each net and its gradients (``grads[i]``
    belongs to ``nets[i]``); a ``RowGrad`` changes only its rows, and an
    ``OuterGrad`` is appended to its layer's pending terms.

    Every gradient is checked (known parameter, shape, rows in range,
    finite) before any parameter changes, so a refused step leaves every net
    and its pending terms as they were.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    for net, net_grads in zip(nets, grads, strict=True):
        for name, grad in net_grads.items():
            if name not in net.params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            shape = net.params[name].shape
            if isinstance(grad, OuterGrad):
                _check_outer(name, grad, shape)
                continue
            values = grad
            if isinstance(grad, RowGrad):
                rows, values = grad
                increasing = rows.ndim == 1 and bool(np.all(np.diff(rows) > 0))
                if not increasing or (len(rows) and (rows[0] < 0 or rows[-1] >= shape[0])):
                    raise ValueError(f"gradient rows for {name!r} out of range or not increasing")
                shape = (len(rows),) + shape[1:]
            if values.shape != shape:
                raise ValueError(f"gradient shape mismatch for {name!r}")
            if not np.all(np.isfinite(values)):
                raise NonFiniteGradientError(f"non-finite gradient in parameter {name!r}")
    for net, net_grads in zip(nets, grads):
        for name, grad in net_grads.items():
            if isinstance(grad, RowGrad):
                net.params[name][grad.rows] -= lr * grad.values
            elif isinstance(grad, OuterGrad):
                _defer(net, name, grad, lr)
            else:
                net.params[name] -= lr * grad


def oracle_window_forward(net: Net, x: TokenSequence) -> tuple[np.ndarray, Tape]:
    """The sequence net's forward before the windows were averaged first:
    every window is convolved, then the outputs are averaged."""
    spec, p = net.spec, net.params
    assert spec.kind == "sequence" and not any(pending.n for pending in net.pending.values())
    t_len, m = len(x), spec.word_dim
    emb_rows = np.zeros((max(t_len, spec.window), m))
    emb_rows[:t_len] = p["lookup"][x.indices]
    windows = sliding_window_view(emb_rows, (spec.window, m)).reshape(-1, spec.window * m)
    z = windows @ p["conv_w"] + p["conv_b"]  # (P, K)
    avg = z.mean(axis=0)
    r = relu(avg)
    tape = Tape(net=net, data={"tokens": x.indices, "windows": windows, "avg": avg, "r": r})
    return r @ p["out_w"] + p["out_b"], tape


def oracle_window_backward(tape: Tape, grad_out: np.ndarray) -> dict:
    """The sequence net's backward before the windows were averaged first: the
    average's gradient tiled over the P positions, and P equal window rows."""
    spec, p = tape.net.spec, tape.net.params
    g = np.asarray(grad_out, dtype=np.float64)
    windows = tape.data["windows"]
    n_pos = windows.shape[0]
    grads = {"out_w": np.outer(tape.data["r"], g), "out_b": g.copy()}
    davg = (p["out_w"] @ g) * (tape.data["avg"] > 0)
    # every position's conv output enters the average with weight 1/P
    dz = np.tile(davg / n_pos, (n_pos, 1))
    grads["conv_w"] = windows.T @ dz
    grads["conv_b"] = davg.copy()
    dwindows = dz @ p["conv_w"].T  # (P, window*M)
    tokens, m = tape.data["tokens"], spec.word_dim
    rows, slot = np.unique(tokens, return_inverse=True)
    slot = np.pad(slot, (0, max(spec.window - len(tokens), 0)), constant_values=len(rows))
    slot = sliding_window_view(slot, spec.window).reshape(-1)
    values = np.zeros((len(rows) + 1, m))
    np.add.at(values, slot, dwindows.reshape(-1, m))
    grads["lookup"] = RowGrad(rows, values[:-1])
    return grads


def oracle_embed_loop(net: Net, vectors) -> np.ndarray:
    """Embeddings of dense inputs as ``validate``, ``build_rankings`` and
    ``query --sentence`` built them before ``nets.embed_dense``: one ``forward`` each."""
    return np.array([forward(net, x)[0] for x in vectors])


def oracle_dense_sgd_step(net: Net, grads: dict[str, np.ndarray], lr: float) -> None:
    """In-place p <- p - lr * g; refuses non-finite gradients."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    for name, grad in grads.items():
        if name not in net.params:
            raise KeyError(f"gradient for unknown parameter {name!r}")
        if net.params[name].shape != grad.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradientError(f"non-finite gradient in parameter {name!r}")
    for name, grad in grads.items():
        net.params[name] -= lr * grad



def oracle_dense_accumulate(total: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Sum gradient dicts, used when shared weights see several branches.

    Dense gradients only."""
    for name, grad in grads.items():
        if name in total:
            total[name] = total[name] + grad
        else:
            total[name] = grad
    return total


def oracle_init_net(
    spec: NetSpec,
    seed: int,
    pretrained: PretrainedEmbeddings | None = None,
    vocab: Vocabulary | None = None,
) -> Net:
    """Initialize weights uniform in +-sqrt(6/(fan_in+fan_out)), biases zero.

    With ``pretrained`` given, every vocabulary term found in the embedding
    table overwrites its first-layer row (bag) or lookup row (sequence);
    the embedding width must match that row width.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    if spec.kind == "bag":
        first_out = spec.n_hu if spec.n_hu > 0 else spec.n_emb
        params["w0"] = _glorot(rng, spec.input_dim, first_out)
        params["b0"] = np.zeros(first_out)
        if spec.n_hu > 0:
            params["w1"] = _glorot(rng, spec.n_hu, spec.n_emb)
            params["b1"] = np.zeros(spec.n_emb)
        row_width = first_out
        row_key = "w0"
    else:
        params["lookup"] = _glorot(rng, spec.input_dim, spec.word_dim)
        params["conv_w"] = _glorot(rng, spec.window * spec.word_dim, spec.kernel_count)
        params["conv_b"] = np.zeros(spec.kernel_count)
        params["out_w"] = _glorot(rng, spec.kernel_count, spec.n_emb)
        params["out_b"] = np.zeros(spec.n_emb)
        row_width = spec.word_dim
        row_key = "lookup"
    if pretrained is not None:
        if pretrained.dim != row_width:
            raise ValueError(
                f"pretrained embeddings have dim {pretrained.dim}, first layer rows are {row_width}"
            )
        if vocab is None:
            raise ValueError("pretrained initialization needs the vocabulary for row lookup")
        for term, index in vocab.term_to_index.items():
            vec = pretrained.vectors.get(term)
            if vec is not None and index < spec.input_dim:
                params[row_key][index, :] = vec
    return Net(spec=spec, params=params)


def oracle_vocabulary_text(vocab: Vocabulary) -> str:
    lines = [f"{vocab.mode} {vocab.size} {vocab.n_docs}\n"]
    for term, index in sorted(vocab.term_to_index.items(), key=lambda kv: kv[1]):
        lines.append(f"{term}\t{index}\t{vocab.doc_freq[term]}\n")
    return "".join(lines)


def oracle_vocab_digest(vocab: Vocabulary) -> str:
    return hashlib.sha256(oracle_vocabulary_text(vocab).encode("utf-8")).hexdigest()


def oracle_vocab_to_json(vocab: Vocabulary) -> dict:
    by_index = sorted(vocab.term_to_index.items(), key=lambda kv: kv[1])
    return {
        "mode": vocab.mode,
        "n_docs": vocab.n_docs,
        "terms": [[term, vocab.doc_freq[term]] for term, _ in by_index],
    }


def _oracle_ints(fields: list[str], where: str) -> list[int]:
    try:
        return [int(field) for field in fields]
    except ValueError:
        raise VocabularyError(f"{where}: expected integers, got {' '.join(fields)!r}") from None


def oracle_load_vocabulary(path: str) -> Vocabulary:
    """Read ``vocab.tsv``: indices exactly 0..size-1, each once; doc_freq in 1..n_docs."""
    lines = text_lines(path, VocabularyError)
    header = next(lines, (1, ""))[1].split()
    if len(header) != 3 or header[0] not in MODES:
        raise VocabularyError(f"{path}:1: expected header 'mode size n_docs'")
    mode, (size, n_docs) = header[0], _oracle_ints(header[1:], f"{path}:1")
    term_to_index: dict[str, int] = {}
    doc_freq: dict[str, int] = {}
    used: set[int] = set()
    for lineno, line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise VocabularyError(f"{path}:{lineno}: expected 'term<TAB>index<TAB>doc_freq'")
        term, (index, count) = parts[0], _oracle_ints(parts[1:], f"{path}:{lineno}")
        if term in term_to_index:
            raise VocabularyError(f"{path}:{lineno}: duplicate term {term!r}")
        if not 0 <= index < size or index in used:
            raise VocabularyError(f"{path}:{lineno}: index {index} is not a free index in 0..{size - 1}")
        if not (type(count) is type(n_docs) is int and 1 <= count <= n_docs):
            raise VocabularyError(f"{path}:{lineno}: doc_freq {count} outside 1..{n_docs}")
        used.add(index)
        term_to_index[term] = index
        doc_freq[term] = count
    if len(term_to_index) != size:
        raise VocabularyError(f"{path}:1: header declares {size} terms, found {len(term_to_index)}")
    return Vocabulary(mode=mode, term_to_index=term_to_index, doc_freq=doc_freq, n_docs=n_docs)


def oracle_save_checkpoint(
    path: str,
    model: ScoreModel,
    vocab: Vocabulary,
    train_config: TrainConfig,
    history: TrainHistory,
    data_config: dict,
) -> None:
    header = {
        "textual_spec": asdict(model.textual_net.spec),
        "visual_spec": asdict(model.visual_net.spec),
        "train_config": asdict(train_config),
        "data_config": data_config,
        "vocabulary": oracle_vocab_to_json(vocab),
        "vocab_digest": oracle_vocab_digest(vocab),
        "history": {
            "best_epoch": history.best_epoch,
            "epochs": [[e.epoch, e.lr, e.train_err, e.val_err] for e in history.epochs],
        },
        "params": {
            "textual": [[name, list(arr.shape)] for name, arr in model.textual_net.params.items()],
            "visual": [[name, list(arr.shape)] for name, arr in model.visual_net.params.items()],
        },
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    blob += struct.pack("<Q", len(header_bytes))
    blob += header_bytes
    for net in (model.textual_net, model.visual_net):
        for arr in net.params.values():
            blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def oracle_serial_save_checkpoint(
    path: str,
    model: ScoreModel,
    vocab: Vocabulary,
    train_config: TrainConfig,
    history: TrainHistory,
    data_config: dict,
) -> None:
    """The streamed writer that preallocation and the CRC worker replaced: through
    ``<path>.tmp``, each chunk is written and then checksummed, one after the other.
    It checks no run record."""
    nets = {"textual": model.textual_net, "visual": model.visual_net}
    for net in nets.values():
        fold_pending(net)
    header = {
        "textual_spec": asdict(model.textual_net.spec),
        "visual_spec": asdict(model.visual_net.spec),
        "train_config": asdict(train_config),
        "data_config": data_config,
        "vocabulary": oracle_vocab_to_json(vocab),
        "vocab_digest": oracle_vocab_digest(vocab),
        "history": {
            "best_epoch": history.best_epoch,
            "epochs": [[e.epoch, e.lr, e.train_err, e.val_err] for e in history.epochs],
        },
        "params": {side: param_shapes(net.spec) for side, net in nets.items()},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<IQ", FORMAT_VERSION, len(header_bytes)), header_bytes]
    chunks += [np.ascontiguousarray(arr, dtype="<f8")
               for net in nets.values() for arr in net.params.values()]
    with atomic_write(path, "wb") as fh:
        crc = 0
        for chunk in chunks:
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
        fh.write(struct.pack("<I", crc))


def oracle_rank(query, candidates):
    """Candidate ids by descending cosine with the query embedding, ties
    lexicographic on id; zero-norm candidates cannot be scored and sort last."""
    scored = []
    for cand_id, emb in candidates:
        try:
            s = cosine_score(query, emb)
        except ZeroNormError:
            s = float("-inf")
        scored.append((-s, cand_id))
    scored.sort()
    return [cand_id for _, cand_id in scored]


def oracle_cosine_scores(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Cosine of every query (row) with every candidate (column), both stacked
    one embedding per row, clamped to [-1, 1], under ``cosine_vanishes``' rule:
    a non-finite or overflowing embedding raises NonFiniteGradientError, and a
    pair it cannot divide by, zero-norm or vanishing, gets -inf. A zero-norm
    query raises ZeroNormError."""
    if len(candidates) == 0:
        raise ValueError("candidate pool is empty")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused or set below
        q_sq, c_sq = (np.einsum("ij,ij->i", embs, embs) for embs in (queries, candidates))
        dots, norm_products = queries @ candidates.T, np.outer(q_sq, c_sq)
        vanishing = cosine_vanishes(norm_products, dots, "cosine-score")
        if not q_sq.all():
            raise ZeroNormError(f"query row {int(np.argmin(q_sq))} embeds to the zero vector")
        scores = np.clip(dots / np.sqrt(norm_products), -1.0, 1.0)
    scores[vanishing] = -np.inf
    return scores


def oracle_orderings(rankings):
    """Every query's candidate ids, sorted in plain Python by descending score,
    ties lexicographic on id: the order each metric definition reads."""
    return {
        query: [cid for _, cid in sorted(zip((-float(s) for s in row), rankings.cand_ids))]
        for query, row in rankings.results.items()
    }


def oracle_single_run(results, image_ids, selection, k, direction):
    hits = 0
    for img in image_ids:
        if direction == "annotation":
            pool = [cid for cid in selection.values()]
            in_pool_order = []
            for cid in results[img]:
                if cid in pool:
                    in_pool_order.append(cid)
            if selection[img] in in_pool_order[:k]:
                hits += 1
        else:
            qid = selection[img]
            if qid in results and img in results[qid][:k]:
                hits += 1
    return 100.0 * hits / len(image_ids)


def oracle_recall(rankings, k, variant, rnd_seed=0):
    results, image_ids = oracle_orderings(rankings), rankings.image_ids
    if variant == "any_txt":
        hits = 0
        for img in image_ids:
            found = False
            for cid in rankings.captions_of[img]:
                if cid in results[img][:k]:
                    found = True
            hits += found
        return 100.0 * hits / len(image_ids)
    if variant == "first_txt":
        sels = [{img: caption_id(img, 0) for img in image_ids}]
    elif variant == "rnd_txt":
        rng = random.Random(rnd_seed)
        sels = [{img: caption_id(img, rng.randrange(5)) for img in image_ids}]
    else:
        sels = [{img: caption_id(img, j) for img in image_ids} for j in range(5)]
    pcts = [oracle_single_run(results, image_ids, sel, k, rankings.direction) for sel in sels]
    return sum(pcts) / len(pcts)


def oracle_median_rank(rankings):
    # scan k upward until avg_txt recall reaches half
    for k in itertools.count(1):
        if oracle_recall(rankings, k, "avg_txt") >= 50.0:
            return k


def oracle_r_precision(rankings):
    results = oracle_orderings(rankings)
    total = 0.0
    for img in rankings.image_ids:
        own = rankings.captions_of[img]
        found = 0
        for cid in results[img][:5]:
            if cid in own:
                found += 1
        total += 100.0 * found / 5
    return total / len(rankings.image_ids)


def oracle_bleu(candidate, references):
    total = 0
    for word in set(candidate):
        clip = 0
        for ref in references:
            clip = max(clip, sum(1 for w in ref if w == word))
        total += min(sum(1 for w in candidate if w == word), clip)
    return total / len(candidate)


def oracle_rouge(candidate, references):
    num = 0
    den = 0
    for ref in references:
        den += len(ref)
        for word in set(ref):
            num += min(
                sum(1 for w in candidate if w == word),
                sum(1 for w in ref if w == word),
            )
    return num / den


def ranking_set_from_orders(direction, orders, image_ids, captions_of):
    """A RankingSet in which each query's row ranks its candidates in the
    given order, scoring the candidate at position p as -p. Every order
    lists every candidate: the captions of ``captions_of`` for annotation,
    the images for search."""
    if direction == "annotation":
        cand_ids = [cid for img in image_ids for cid in captions_of[img]]
    else:
        cand_ids = list(image_ids)
    results = {}
    for query, order in orders.items():
        assert sorted(order) == sorted(cand_ids)
        position = {cid: p for p, cid in enumerate(order)}
        results[query] = np.array([-float(position[cid]) for cid in cand_ids])
    return RankingSet(direction, results, image_ids, captions_of, cand_ids)


def random_ranking_set(rng, direction, n_images=None):
    n = n_images or rng.randint(2, 20)
    image_ids = [f"i{x:03d}" for x in range(n)]
    captions_of = {img: [caption_id(img, j) for j in range(5)] for img in image_ids}
    all_caps = [cid for img in image_ids for cid in captions_of[img]]
    orders = {}
    if direction == "annotation":
        for img in image_ids:
            perm = all_caps[:]
            rng.shuffle(perm)
            orders[img] = perm
    else:
        for cid in all_caps:
            perm = image_ids[:]
            rng.shuffle(perm)
            orders[cid] = perm
    return ranking_set_from_orders(direction, orders, image_ids, captions_of)


def oracle_vector_rows(path: str, numbered_lines, dim: int | None = None):
    """Yield (name, vector) for each ``name v1 ... vD`` row, skipping blank lines.

    Every row has ``dim`` values (the first row's count when ``dim`` is
    None), each a finite decimal; every error names ``path:line``.
    """
    for lineno, line in numbered_lines:
        parts = line.split()
        if not parts:
            continue
        name, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
        where = f"{path}:{lineno}: {name!r}"
        if len(values) != dim or not values:
            raise CorpusFormatError(f"{where} has {len(values)} values, expected {dim or 'at least 1'}")
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise CorpusFormatError(f"{where} has a non-numeric value") from None
        if not np.all(np.isfinite(vec)):
            raise CorpusFormatError(f"{where} has a non-finite value")
        yield name, vec


def oracle_load_word_embeddings(path: str) -> PretrainedEmbeddings:
    """Parse word2vec-style text embeddings.

    A word appearing a second time is refused, naming the file and the word.
    """
    vectors: dict[str, np.ndarray] = {}
    for word, vec in oracle_vector_rows(path, text_lines(path)):
        if word in vectors:
            raise CorpusFormatError(f"{path}: duplicate word {word!r}")
        vectors[word] = vec
    if not vectors:
        raise CorpusFormatError(f"{path}: no embeddings found")
    return PretrainedEmbeddings(dim=len(next(iter(vectors.values()))), vectors=vectors)


def oracle_sample_negative(
    pos: tuple[str, int],
    view: SplitView,
    methodology: str,
    rng: random.Random,
) -> tuple[str, tuple[str, int]]:
    """Draw one negative for a positive pair.

    I2T keeps the positive image and draws a caption uniformly from the
    view's pairs, excluding every caption of the positive image. T2I keeps
    the positive caption and draws a different image uniformly. Returns
    (negative image_id, negative caption key).
    """
    if methodology not in METHODOLOGIES:
        raise ValueError(f"methodology must be one of {METHODOLOGIES}")
    pos_image = pos[0]
    if methodology == "I2T":
        if not any(key[0] != pos_image for key in view.pairs):
            raise ValueError("I2T sampling needs captions from at least two images")
        while True:
            cand = view.pairs[rng.randrange(len(view.pairs))]
            if cand[0] != pos_image:
                return pos_image, cand
    if len(view.image_ids) < 2:
        raise ValueError("T2I sampling needs at least two images")
    while True:
        cand_img = view.image_ids[rng.randrange(len(view.image_ids))]
        if cand_img != pos_image:
            return cand_img, pos
