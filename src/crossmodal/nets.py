"""Minimal feed-forward embedding networks with hand-written backprop.

Two architectures share one interface:

* ``bag``      sparse or dense input -> linear [-> relu -> linear] -> embedding
* ``sequence`` token lookup table -> fixed-window convolution over word
  vectors -> average over positions -> relu -> linear -> embedding

Everything runs in float64; gradients are exact, which the finite-difference
test suite relies on. The convolution is linear, so the sequence net
averages its windows first and convolves the one mean window.

No weight-matrix gradient is dense. A caption touches only the ``w0`` rows
(bag) or ``lookup`` rows (sequence) of its terms, so ``backward`` returns
that gradient as a ``RowGrad`` of those rows, and ``sgd_step`` updates only
them. Every other weight gradient is an outer product, so ``backward``
returns its factors as an ``OuterGrad``, and ``sgd_step`` checks finiteness
on the factors. It steps ``w1`` and ``out_w`` at once with the dense step's
operations, in its order, so with its bits. ``DEFERRED_LAYERS``, a dense
input's ``w0`` and ``conv_w``, defer the step: ``sgd_step`` appends the
factors and the learning rate to the layer's ``Pending`` terms, and
``forward`` computes ``x @ w - ((x @ lefts.T) * lrs) @ rights``. Every
``FOLD_TERMS`` terms these are folded into the weights by one row-blocked
product; a fold of one step's terms is a dense step. ``fold_pending`` folds
them on demand, before anything reads ``params`` directly: ``clone_net``,
``save_checkpoint`` and the model ``train`` returns. Bias gradients are
dense arrays, applied at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import MAX_FLOAT64_VALUES, PretrainedEmbeddings
from .errors import ConfigError, NonFiniteGradientError
from .text import SparseVector, TokenSequence, Vocabulary


# each kind of net and the NetSpec fields that only it reads; every kind reads input_dim and n_emb
FIELDS_ONLY_READ_BY = {"bag": ("n_hu",), "sequence": ("word_dim", "kernel_count", "window")}
# the one kind of textual net that reads TrainConfig.weighting; with another it holds its default
WEIGHTING_READ_BY = "bag"


@dataclass(frozen=True)
class NetSpec:
    kind: str  # a key of FIELDS_ONLY_READ_BY
    input_dim: int
    n_emb: int
    n_hu: int = 0  # hidden units; 0 is linear
    word_dim: int = 0  # per-token embedding width
    kernel_count: int = 0  # convolution output width
    window: int = 0  # tokens per convolution position

    def __post_init__(self) -> None:
        if self.kind not in FIELDS_ONLY_READ_BY:
            raise ConfigError(f"unknown net kind {self.kind!r}")
        if self.input_dim < 1 or self.n_emb < 1:
            raise ConfigError("input_dim and n_emb must be positive")
        if self.n_hu < 0:
            raise ConfigError("n_hu must be nonnegative")
        if self.kind == "sequence" and min(self.word_dim, self.kernel_count, self.window) < 1:
            raise ConfigError("sequence nets need word_dim, kernel_count and window >= 1")
        for name in (name for kind, names in FIELDS_ONLY_READ_BY.items() if kind != self.kind for name in names):
            value, default = getattr(self, name), self.__dataclass_fields__[name].default
            if value != default:
                raise ConfigError(f"a {self.kind} net does not read {name}, "
                                  f"so it must be {default!r}, not {value!r}")
        for name, shape in param_shapes(self):
            if math.prod(shape) > MAX_FLOAT64_VALUES:
                raise ConfigError(f"parameter {name} of shape {shape} holds more than the "
                                  f"{MAX_FLOAT64_VALUES} float64 values numpy can address")


class RowGrad(NamedTuple):
    """Gradient of a parameter that is zero outside a few rows.

    ``rows`` is int64, strictly increasing; ``values[i]`` is the gradient of
    row ``rows[i]``. Being a tuple, ``+`` concatenates: sum with ``accumulate``.
    """

    rows: np.ndarray
    values: np.ndarray


class OuterGrad(NamedTuple):
    """Gradient of a weight matrix whose input is one dense vector per pass
    (all but a sparse ``w0`` and ``lookup``): sum_i outer(lefts[i], rights[i]).

    Never materialized whole; ``sgd_step`` defers it on ``DEFERRED_LAYERS``.
    Being a tuple, ``+`` concatenates fields wrongly: sum with ``accumulate``.
    """

    lefts: tuple[np.ndarray, ...]
    rights: tuple[np.ndarray, ...]


Grads = dict[str, np.ndarray | RowGrad | OuterGrad]

# rows of a weight matrix updated at once by a fold: 256 x 300 float64 is 600 KB
OUTER_BLOCK_ROWS = 256
# pending terms that trigger a fold: a 4096 x 300 layer holds 1 MB of them
FOLD_TERMS = 32
# layers whose OuterGrad steps are deferred; w1 and out_w step at once, as deferring rounds differently
DEFERRED_LAYERS = ("w0", "conv_w")
# image rows stacked at once by ``embed_dense``: 32 x 4096 float64 is 1 MB
EMBED_CHUNK_ROWS = 32


@dataclass
class Pending:
    """Steps deferred on one layer: its weights are ``param - sum_i lrs[i] *
    outer(lefts[i], rights[i])`` over the first ``n`` rows of the buffers,
    which ``steps`` calls of ``sgd_step`` appended."""

    lefts: np.ndarray  # (capacity, param rows)
    rights: np.ndarray  # (capacity, param columns)
    lrs: np.ndarray  # (capacity,)
    n: int = 0
    steps: int = 0


@dataclass
class Net:
    spec: NetSpec
    params: dict[str, np.ndarray]
    pending: dict[str, Pending] = field(default_factory=dict)


@dataclass
class Tape:
    """Activations recorded by one forward pass; consumed by one backward."""

    net: Net
    data: dict[str, object] = field(default_factory=dict)
    used: bool = False


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def param_shapes(spec: NetSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's (name, shape), in the order ``init_net`` draws them
    and checkpoints store them. The first is the row table that pretrained
    embeddings seed and sparse gradients touch."""
    if spec.kind == "bag":
        first_out = spec.n_hu if spec.n_hu > 0 else spec.n_emb
        shapes = [("w0", (spec.input_dim, first_out)), ("b0", (first_out,))]
        if spec.n_hu > 0:
            shapes += [("w1", (spec.n_hu, spec.n_emb)), ("b1", (spec.n_emb,))]
        return shapes
    return [
        ("lookup", (spec.input_dim, spec.word_dim)),
        ("conv_w", (spec.window * spec.word_dim, spec.kernel_count)),
        ("conv_b", (spec.kernel_count,)),
        ("out_w", (spec.kernel_count, spec.n_emb)),
        ("out_b", (spec.n_emb,)),
    ]


def init_net(
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
    shapes = param_shapes(spec)
    params = {name: _glorot(rng, *shape) if len(shape) == 2 else np.zeros(shape)
              for name, shape in shapes}
    row_key, (_, row_width) = shapes[0]
    if pretrained is not None:
        if pretrained.dim != row_width:
            raise ConfigError(
                f"pretrained embeddings have dim {pretrained.dim}, first layer rows are {row_width}"
            )
        if vocab is None:
            raise ValueError("pretrained initialization needs the vocabulary for row lookup")
        for term, index in vocab.term_to_index.items():
            vec = pretrained.vectors.get(term)
            if vec is not None and index < spec.input_dim:
                params[row_key][index, :] = vec
    return Net(spec=spec, params=params)


def _times(net: Net, name: str, x: np.ndarray) -> np.ndarray:
    """``x @ w`` for a row or a stack of rows ``x``, where ``w`` is
    ``net.params[name]`` less its pending terms."""
    out = x @ net.params[name]
    pending = net.pending.get(name)
    if pending is not None and pending.n:
        n = pending.n
        out -= ((x @ pending.lefts[:n].T) * pending.lrs[:n]) @ pending.rights[:n]
    return out


def _times_transposed(net: Net, name: str, y: np.ndarray) -> np.ndarray:
    """``w @ y`` for a vector ``y``, ``w`` as in ``_times``."""
    out = net.params[name] @ y
    pending = net.pending.get(name)
    if pending is not None and pending.n:
        n = pending.n
        out -= pending.lefts[:n].T @ (pending.lrs[:n] * (pending.rights[:n] @ y))
    return out


def _bag_output(net: Net, h0: np.ndarray, record: dict) -> np.ndarray:
    """The bag net's layers after ``h0``, for one row or a stack of rows."""
    p = net.params
    if net.spec.n_hu > 0:
        a = record["a"] = relu(h0)
        return a @ p["w1"] + p["b1"]
    return h0


def forward(net: Net, x: SparseVector | np.ndarray | TokenSequence) -> tuple[np.ndarray, Tape]:
    """Embed one input, recording the activations needed for backward."""
    spec = net.spec
    p = net.params
    tape = Tape(net=net)
    if spec.kind == "bag":
        if isinstance(x, TokenSequence):
            raise TypeError("bag nets take sparse or dense vectors, not token sequences")
        if isinstance(x, SparseVector):
            fold_pending(net)  # the rows are read directly
            h0 = p["b0"].copy()
            if len(x):
                h0 += x.values @ p["w0"][x.indices]
        else:
            dense = np.asarray(x, dtype=np.float64)
            if dense.shape != (spec.input_dim,):
                raise ValueError(f"dense input shape {dense.shape} != ({spec.input_dim},)")
            h0 = _times(net, "w0", dense) + p["b0"]
            x = dense
        tape.data["input"] = x
        tape.data["h0"] = h0
        return _bag_output(net, h0, tape.data), tape
    if not isinstance(x, TokenSequence):
        raise TypeError("sequence nets take TokenSequence inputs")
    if len(x) == 0:
        raise ValueError("empty token sequence")
    t_len, m = len(x), spec.word_dim
    # zero rows pad a caption shorter than the window to one window
    emb_rows = np.zeros((max(t_len, spec.window), m))
    emb_rows[:t_len] = p["lookup"][x.indices]
    # window pos is tokens pos .. pos+window-1 concatenated; the convolution
    # is linear, so convolving the mean window gives the mean output
    windows = sliding_window_view(emb_rows, (spec.window, m))
    mean_window = windows.mean(axis=0).reshape(-1)
    avg = _times(net, "conv_w", mean_window) + p["conv_b"]
    r = relu(avg)
    tape.data["tokens"] = x.indices
    tape.data["mean_window"] = mean_window
    tape.data["n_pos"] = len(windows)
    tape.data["avg"] = avg
    tape.data["r"] = r
    return r @ p["out_w"] + p["out_b"], tape


def embed_dense(net: Net, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Embeddings of dense inputs to a bag net, one row each: ``forward``'s
    up to rounding, from stacked products over chunks of rows, with no tape."""
    out = np.empty((len(vectors), net.spec.n_emb))
    for start in range(0, len(vectors), EMBED_CHUNK_ROWS):
        x = np.array(vectors[start : start + EMBED_CHUNK_ROWS], dtype=np.float64)
        if x.shape[1:] != (net.spec.input_dim,):
            raise ValueError(f"dense input shape {x.shape[1:]} != ({net.spec.input_dim},)")
        out[start : start + len(x)] = _bag_output(net, _times(net, "w0", x) + net.params["b0"], {})
    return out


def embed_each(net: Net, inputs: Sequence[SparseVector | np.ndarray | TokenSequence]) -> np.ndarray:
    """``forward``'s embedding of each input, with its bits, one row each of one
    array: no list of rows and no stacked copy of it."""
    out = np.empty((len(inputs), net.spec.n_emb))
    for row, x in zip(out, inputs):
        row[:] = forward(net, x)[0]
    return out


def backward(tape: Tape, grad_out: np.ndarray) -> Grads:
    """Exact gradients of embedding . grad_out w.r.t. all parameters.

    The first layer's gradient is a ``RowGrad`` over the input's rows for
    sparse vectors and token sequences, an ``OuterGrad`` for dense vectors;
    every other weight's is an ``OuterGrad`` of its layer's input (the mean
    window for ``conv_w``). The relu subgradient at 0 is taken as 0.
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
            grads["w1"] = OuterGrad((a,), (g,))
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
    grads["out_w"] = OuterGrad((tape.data["r"],), (g,))
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


def _outer_blocks(grad: OuterGrad, shape: tuple[int, int]):
    """Yield (rows, block): the sum over i of outer(lefts[i], rights[i]) on
    ``rows``, for consecutive slices of ``OUTER_BLOCK_ROWS`` rows.

    Terms are added in factor order, as the dense sum adds them. Every block
    is the same buffer, overwritten by the next one.
    """
    lefts, rights = grad
    buf = np.empty((min(OUTER_BLOCK_ROWS, shape[0]), shape[1]))
    term = np.empty_like(buf)
    for start in range(0, shape[0], OUTER_BLOCK_ROWS):
        rows = slice(start, start + OUTER_BLOCK_ROWS)
        n = min(OUTER_BLOCK_ROWS, shape[0] - start)
        block = np.multiply.outer(lefts[0][rows], rights[0], out=buf[:n])
        for left, right in zip(lefts[1:], rights[1:]):
            np.add(block, np.multiply.outer(left[rows], right, out=term[:n]), out=block)
        yield rows, block


def _check_outer(name: str, grad: OuterGrad, shape: tuple[int, ...]) -> None:
    lefts, rights = grad
    if (not lefts or len(lefts) != len(rights) or len(shape) != 2
            or any(left.shape != shape[:1] for left in lefts)
            or any(right.shape != shape[1:] for right in rights)):
        raise ValueError(f"gradient shape mismatch for {name!r}")
    # every element, and every partial sum of it, is at most this bound in
    # magnitude (rounding is monotone), so a finite bound proves the sum
    # finite; a NaN, an inf or an overflowing bound needs the full check
    bound = sum(float(np.max(np.abs(left))) * float(np.max(np.abs(right)))
                for left, right in zip(lefts, rights))
    if math.isfinite(bound):
        return
    with np.errstate(over="ignore", invalid="ignore"):  # reported as the error below
        if not all(np.all(np.isfinite(block)) for _, block in _outer_blocks(grad, shape)):
            raise NonFiniteGradientError(f"non-finite gradient in parameter {name!r}")


def sgd_step(nets: Sequence[Net], grads: Sequence[Grads], lr: float) -> None:
    """In-place p <- p - lr * g for each net and its gradients (``grads[i]``
    belongs to ``nets[i]``); a ``RowGrad`` changes only its rows, and an
    ``OuterGrad`` of ``DEFERRED_LAYERS`` is appended to pending terms.

    ``lr`` and every gradient are checked (known parameter, shape, rows in
    range, finite) before any parameter changes, so a refused step leaves
    every net and its pending terms as they were.
    """
    if not 0 < lr < math.inf:
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
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
            elif isinstance(grad, OuterGrad) and name in DEFERRED_LAYERS:
                _defer(net, name, grad, lr)
            elif isinstance(grad, OuterGrad):
                _step_outer(net.params[name], grad, lr)
            else:
                net.params[name] -= lr * grad


def _step_outer(param: np.ndarray, grad: OuterGrad, lr: float) -> None:
    """``param -= lr * (sum of grad's terms)`` by the dense step's operations, in its order."""
    for rows, step in _outer_blocks(grad, param.shape):
        np.multiply(lr, step, out=step)
        np.subtract(param[rows], step, out=param[rows])


def _defer(net: Net, name: str, grad: OuterGrad, lr: float) -> None:
    """Append one step's terms to the layer's pending terms; fold at ``FOLD_TERMS``."""
    k, pending = len(grad.lefts), net.pending.get(name)
    if pending is None or pending.n + k > len(pending.lrs):  # no room: fold, and make room
        fold_pending(net)
        size, (rows, cols) = max(FOLD_TERMS, k), net.params[name].shape
        pending = Pending(np.empty((size, rows)), np.empty((size, cols)), np.empty(size))
        net.pending[name] = pending
    n = pending.n
    pending.lefts[n : n + k] = grad.lefts
    pending.rights[n : n + k] = grad.rights
    pending.lrs[n : n + k] = lr
    pending.n, pending.steps = n + k, pending.steps + 1
    if pending.n >= FOLD_TERMS:
        fold_pending(net)


def fold_pending(net: Net) -> None:
    """Apply every pending term to ``net.params``, a block of rows at a time."""
    for name, pending in net.pending.items():
        n = pending.n
        if not n:
            continue
        param, lefts, rights = net.params[name], pending.lefts[:n], pending.rights[:n]
        if pending.steps == 1:  # one step's terms: a dense step
            _step_outer(param, OuterGrad(tuple(lefts), tuple(rights)), pending.lrs[0])
        else:
            scaled = pending.lrs[:n, None] * rights
            for start in range(0, param.shape[0], OUTER_BLOCK_ROWS):
                rows = slice(start, start + OUTER_BLOCK_ROWS)
                param[rows] -= lefts[:, rows].T @ scaled
        pending.n = pending.steps = 0


def lr_schedule(lr0: float, epoch: int) -> float:
    """Linear decay from lr0 to 0.01 * lr0 over 100 epochs, then constant."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    return lr0 * (1.0 - 0.99 * min(epoch, 100) / 100.0)


def accumulate(total: Grads, grads: Grads) -> Grads:
    """Sum gradient dicts, used when shared weights see several branches.

    Two ``RowGrad``s sum over the union of their rows: the first is added,
    then the second, which is the order of the dense sum. Two ``OuterGrad``s
    concatenate their factors, first then second, which ``sgd_step`` sums in
    that order: a ``w1`` or ``out_w`` step gets a dense sum's and step's bits.
    """
    for name, grad in grads.items():
        if name not in total:
            total[name] = grad
        elif isinstance(grad, OuterGrad):
            first = total[name]
            total[name] = OuterGrad(first.lefts + grad.lefts, first.rights + grad.rights)
        elif isinstance(grad, RowGrad):
            first = total[name]
            rows = np.union1d(first.rows, grad.rows)
            values = np.zeros((len(rows),) + grad.values.shape[1:])
            values[np.searchsorted(rows, first.rows)] += first.values
            values[np.searchsorted(rows, grad.rows)] += grad.values
            total[name] = RowGrad(rows, values)
        else:
            total[name] = total[name] + grad
    return total


def clone_net(net: Net) -> Net:
    """A copy of ``net`` with its pending terms folded in (into ``net`` too)."""
    fold_pending(net)
    return Net(spec=net.spec, params={k: v.copy() for k, v in net.params.items()})
