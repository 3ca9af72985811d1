"""Minimal feed-forward embedding networks with hand-written backprop.

Two architectures share one interface:

* ``bag``      sparse or dense input -> linear [-> relu -> linear] -> embedding
* ``sequence`` token lookup table -> fixed-window convolution over word
  vectors -> average over positions -> relu -> linear -> embedding

Everything runs in float64; gradients are exact, which the finite-difference
test suite relies on.

First-layer gradients are row-sparse: a caption touches only the ``w0`` rows
(bag) or ``lookup`` rows (sequence) of its terms, so ``backward`` returns that
gradient as a ``RowGrad`` of those rows, and ``sgd_step`` updates only them.
Every other gradient is a dense array of its parameter's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import PretrainedEmbeddings
from .errors import NonFiniteGradientError
from .text import SparseVector, TokenSequence, Vocabulary


@dataclass
class NetSpec:
    kind: str  # "bag" | "sequence"
    input_dim: int
    n_emb: int
    n_hu: int = 0
    word_dim: int = 0  # sequence only; per-token embedding width
    kernel_count: int = 0  # sequence only; convolution output width
    window: int = 0  # sequence only; tokens per convolution position

    def __post_init__(self) -> None:
        if self.kind not in ("bag", "sequence"):
            raise ValueError(f"unknown net kind {self.kind!r}")
        if self.input_dim < 1 or self.n_emb < 1:
            raise ValueError("input_dim and n_emb must be positive")
        if self.n_hu < 0:
            raise ValueError("n_hu must be nonnegative")
        if self.kind == "sequence" and min(self.word_dim, self.kernel_count, self.window) < 1:
            raise ValueError("sequence nets need word_dim, kernel_count and window >= 1")


class RowGrad(NamedTuple):
    """Gradient of a parameter that is zero outside a few rows.

    ``rows`` is int64, strictly increasing; ``values[i]`` is the gradient of
    row ``rows[i]``. Being a tuple, ``+`` concatenates: sum with ``accumulate``.
    """

    rows: np.ndarray
    values: np.ndarray


Grads = dict[str, np.ndarray | RowGrad]


@dataclass
class Net:
    spec: NetSpec
    params: dict[str, np.ndarray]


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


def forward(net: Net, x: SparseVector | np.ndarray | TokenSequence) -> tuple[np.ndarray, Tape]:
    """Embed one input, recording the activations needed for backward."""
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
    t_len, m = len(x), spec.word_dim
    # zero rows pad a caption shorter than the window to one window
    emb_rows = np.zeros((max(t_len, spec.window), m))
    emb_rows[:t_len] = p["lookup"][x.indices]
    # row pos is tokens pos .. pos+window-1 concatenated (reshape copies)
    windows = sliding_window_view(emb_rows, (spec.window, m)).reshape(-1, spec.window * m)
    z = windows @ p["conv_w"] + p["conv_b"]  # (P, K)
    avg = z.mean(axis=0)
    r = relu(avg)
    tape.data["tokens"] = x.indices
    tape.data["windows"] = windows
    tape.data["avg"] = avg
    tape.data["r"] = r
    return r @ p["out_w"] + p["out_b"], tape


def backward(tape: Tape, grad_out: np.ndarray) -> Grads:
    """Exact gradients of embedding . grad_out w.r.t. all parameters.

    The first layer's gradient is a ``RowGrad`` over the input's rows for
    sparse vectors and token sequences, dense for dense vectors. The relu
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
            grads["w0"] = np.outer(x, dh0)
        return grads
    windows = tape.data["windows"]
    n_pos = windows.shape[0]
    grads["out_w"] = np.outer(tape.data["r"], g)
    grads["out_b"] = g.copy()
    dr = p["out_w"] @ g
    davg = dr * (tape.data["avg"] > 0)
    # every position's conv output enters the average with weight 1/P
    dz = np.tile(davg / n_pos, (n_pos, 1))
    grads["conv_w"] = windows.T @ dz
    grads["conv_b"] = davg.copy()
    dwindows = dz @ p["conv_w"].T  # (P, window*M)
    tokens = tape.data["tokens"]
    m = spec.word_dim
    rows, slot = np.unique(tokens, return_inverse=True)
    # padded positions add into a scratch row past the last, dropped below
    slot = np.pad(slot, (0, max(spec.window - len(tokens), 0)), constant_values=len(rows))
    # contributions in (position, offset) order: each row gets the same
    # additions in the same order as a per-position loop
    slot = sliding_window_view(slot, spec.window).reshape(-1)
    values = np.zeros((len(rows) + 1, m))
    np.add.at(values, slot, dwindows.reshape(-1, m))
    grads["lookup"] = RowGrad(rows, values[:-1])
    return grads


def sgd_step(nets: Sequence[Net], grads: Sequence[Grads], lr: float) -> None:
    """In-place p <- p - lr * g for each net and its gradients (``grads[i]``
    belongs to ``nets[i]``); a ``RowGrad`` changes only its rows.

    Every gradient is checked (known parameter, shape, rows in range,
    finite) before any parameter changes, so a refused step leaves every net
    as it was.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    for net, net_grads in zip(nets, grads, strict=True):
        for name, grad in net_grads.items():
            if name not in net.params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            shape = net.params[name].shape
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
            else:
                net.params[name] -= lr * grad


def lr_schedule(lr0: float, epoch: int) -> float:
    """Linear decay from lr0 to 0.01 * lr0 over 100 epochs, then constant."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    return lr0 * (1.0 - 0.99 * min(epoch, 100) / 100.0)


def accumulate(total: Grads, grads: Grads) -> Grads:
    """Sum gradient dicts, used when shared weights see several branches.

    Two ``RowGrad``s sum over the union of their rows: the first is added,
    then the second, which is the order of the dense sum.
    """
    for name, grad in grads.items():
        if name not in total:
            total[name] = grad
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
    return Net(spec=net.spec, params={k: v.copy() for k, v in net.params.items()})
