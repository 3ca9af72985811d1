"""Versioned binary checkpoints for trained models.

Layout (all integers little-endian):

    magic b"XMRK" | uint32 version | uint64 header_len | header JSON (UTF-8)
    | raw float64 parameter data, C order | uint32 CRC32 of everything above

The header carries both net specs, the training and data configuration, the
vocabulary, the epoch history, and a parameter manifest (name + shape per
net) that must equal the layout the specs give: ``nets.param_shapes`` order,
textual net first. The vocabulary holds ``mode``, ``n_docs`` and ``terms``
(``[term, doc_freq]`` in index order), follows the vocab.tsv rule, has one
term per textual net input row and hashes to ``vocab_digest``; a load ignores
other vocabulary keys, such as the size cap older headers hold. Saves
stream to ``<path>.tmp``, whose exact final size is reserved with
``os.posix_fallocate`` before the first write where the platform and file
system offer it, and rename it over ``path``: a file system that allocates
blocks lazily (ext4) then has none left to allocate when the rename replaces
an older file. ``beside``, the package's one thread starter, CRCs the chunks
on a worker thread while they are written (``zlib.crc32`` and file writes
release the GIL) and joins it before a save returns or raises. A load reads
the file into one buffer and checks its magic and CRC32 (``read_checkpoint``,
which ``cli`` runs through ``beside``), then its header, and returns the
parameters as views of the buffer. Parameters round-trip bit-exactly.
"""

from __future__ import annotations

import errno
import functools
import json
import math
import os
import struct
import threading
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from .corpus import atomic_write, check_split_values
from .errors import CheckpointCorruptError, CheckpointVersionError, VocabularyError
from .nets import WEIGHTING_READ_BY, Net, NetSpec, fold_pending, param_shapes
from .ranker import EpochStats, ScoreModel, TrainConfig, TrainHistory
from .text import Vocabulary, vocabulary_from_rows, vocabulary_rows

MAGIC = b"XMRK"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    model: ScoreModel
    vocabulary: Vocabulary
    train_config: TrainConfig
    data_config: dict
    history: TrainHistory


def _vocab_to_json(vocab: Vocabulary) -> dict:
    return {
        "mode": vocab.mode,
        "n_docs": vocab.n_docs,
        "terms": [[term, count] for term, _, count in vocabulary_rows(vocab)],
    }


def _preallocate(fd: int, size: int) -> None:
    """Reserve ``size`` bytes for the file open at ``fd``, where the platform and the file
    system can; any other failure (such as ENOSPC) is raised."""
    if not hasattr(os, "posix_fallocate"):
        return
    try:
        os.posix_fallocate(fd, 0, size)
    except OSError as exc:
        if exc.errno not in (errno.EOPNOTSUPP, errno.ENOTSUP, errno.EINVAL):
            raise


def _vocab_from_json(blob: dict, digest: str, textual: NetSpec) -> Vocabulary:
    """The header vocabulary under the vocab.tsv rule (a term's index is its list position,
    the textual net's input rows declare the size), whose own digest must be ``digest``."""
    rows = ((i, term, i, count) for i, (term, count) in enumerate(blob["terms"]))
    vocab = vocabulary_from_rows("vocabulary", "vocabulary term {}".format, blob["mode"],
                                 textual.input_dim, blob["n_docs"], rows)
    if vocab.digest != digest:
        raise ValueError("vocab_digest is not the digest of the vocabulary")
    return vocab


# each annotated field type of the run record, as train writes it
_FIELD_TYPES = {"int": int, "float": float, "str": str}


def _is_a(value, kind: type) -> bool:
    """``value`` is a ``kind``, counting no bool as an int."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_run_record(textual: NetSpec, visual: NetSpec, train_config: TrainConfig,
                      data_config: dict, history: TrainHistory) -> None:
    """The run record's rule where the specs and the model do not check themselves, at save
    and at load: a textual net that does not read the weighting holds it at its default,
    ``data_config`` is an int ``n_test`` and a float ``val_frac`` under ``check_split_values``,
    the epochs are numbered 1..n, ``best_epoch`` is 0 exactly when no epoch ran, else one of
    the epochs, and every int, float or str field holds that type."""
    epochs = tuple(enumerate(history.epochs, start=1))
    for name, record in (("textual_spec", textual), ("visual_spec", visual),
                         ("train_config", train_config), ("history", history),
                         *((f"epoch row {i}", e) for i, e in epochs)):
        for f in fields(record):
            value, kind = getattr(record, f.name), _FIELD_TYPES.get(f.type)
            if kind and not _is_a(value, kind):
                raise ValueError(f"{name} {f.name} must be of type {f.type}, not {value!r}")
    for i, e in epochs:
        if e.epoch != i:
            raise ValueError(f"epoch row {i} is numbered {e.epoch}, not {i}")
    if textual.kind != WEIGHTING_READ_BY and train_config.weighting != TrainConfig.weighting:
        raise ValueError(f"a {textual.kind} textual net does not read weighting, "
                         f"so it must be {TrainConfig.weighting!r}, not {train_config.weighting!r}")
    # dict.items refuses a non-dict
    if {k: type(v) for k, v in dict.items(data_config)} != {"n_test": int, "val_frac": float}:
        raise ValueError("data_config must be an int n_test and a float val_frac")
    check_split_values(**data_config)
    if history.best_epoch not in (range(1, len(history.epochs) + 1) if history.epochs else (0,)):
        raise ValueError(f"best_epoch {history.best_epoch} is not one of the {len(history.epochs)} epochs")


def save_checkpoint(
    path: str,
    model: ScoreModel,
    vocab: Vocabulary,
    train_config: TrainConfig,
    history: TrainHistory,
    data_config: dict,
) -> None:
    model = ScoreModel(model.textual_net, model.visual_net)  # checks a net assigned since it was built
    _check_run_record(model.textual_net.spec, model.visual_net.spec, train_config, data_config, history)
    nets = {"textual": model.textual_net, "visual": model.visual_net}
    layout = {side: param_shapes(net.spec) for side, net in nets.items()}
    for side, net in nets.items():
        fold_pending(net)
        if [(name, arr.shape) for name, arr in net.params.items()] != layout[side]:
            raise ValueError(f"{side} net parameters do not match its spec")
    if vocab.size != model.textual_net.spec.input_dim:  # one first-layer row per term
        raise ValueError("the vocabulary does not fit the textual net's input rows")
    header = {
        "textual_spec": asdict(model.textual_net.spec),
        "visual_spec": asdict(model.visual_net.spec),
        "train_config": asdict(train_config),
        "data_config": data_config,
        "vocabulary": _vocab_to_json(vocab),
        "vocab_digest": vocab.digest,
        "history": {
            "best_epoch": history.best_epoch,
            "epochs": [[e.epoch, e.lr, e.train_err, e.val_err] for e in history.epochs],
        },
        "params": layout,  # shape tuples serialize as JSON lists
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<IQ", FORMAT_VERSION, len(header_bytes)), header_bytes]
    chunks += [np.ascontiguousarray(arr, dtype="<f8")
               for net in nets.values() for arr in net.params.values()]
    with atomic_write(path, "wb") as fh:
        _preallocate(fh.fileno(), sum(memoryview(chunk).nbytes for chunk in chunks) + 4)
        crc, _ = beside(lambda: functools.reduce(lambda value, chunk: zlib.crc32(chunk, value), chunks, 0),
                        lambda: sum(map(fh.write, chunks)))
        fh.write(struct.pack("<I", crc))


def beside(work, main):
    """``(work(), main())``, ``work`` run on a worker thread while ``main`` runs on this one.
    The worker is joined before this returns or raises; then what ``main`` raised is
    raised, else what ``work`` raised, each as the same object."""
    done: dict = {}

    def run() -> None:
        try:
            done["result"] = work()
        except BaseException as exc:  # raised again on the caller's thread
            done["error"] = exc

    worker = threading.Thread(target=run, name="crossmodal-worker")
    worker.start()
    try:
        result = main()
    finally:
        worker.join()
    if "error" in done:
        raise done.pop("error")
    return done.pop("result"), result


def read_checkpoint(path: str) -> memoryview:
    """The bytes of the checkpoint file at ``path``, once its magic and CRC32 check out.
    The file read and the CRC release the GIL, so another thread can run meanwhile."""
    with open(path, "rb") as fh:
        # offset the buffer so that the float64 data after the header is
        # 8-byte aligned: numpy copies an unaligned array for every matmul
        pad = -(16 + int.from_bytes(fh.peek(16)[8:16], "little")) % 8  # peek does not advance
        # not zero-filled, unlike a bytearray: filling 22 MB holds the GIL that a
        # caller's other thread needs, and the read overwrites every byte kept
        buf = np.empty(pad + os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        blob = memoryview(buf)[pad : pad + fh.readinto(memoryview(buf)[pad:])]
    if len(blob) < 20 or blob[:4] != MAGIC:
        raise CheckpointCorruptError(f"{path}: not a checkpoint file")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise CheckpointCorruptError(f"{path}: checksum mismatch (truncated or corrupted)")
    return blob


def load_checkpoint(path: str, blob: memoryview | None = None) -> Checkpoint:
    """The checkpoint at ``path``; ``blob`` is ``read_checkpoint(path)`` when the caller
    has read the file already."""
    if blob is None:
        blob = read_checkpoint(path)
    version, header_len = struct.unpack_from("<IQ", blob, 4)
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})"
        )
    header_end = 16 + header_len
    # the specs and configs validate themselves; a header that fails to
    # parse or to rebuild them, or whose manifest disagrees with the specs,
    # is as corrupt as a bad checksum
    try:
        header = json.loads(bytes(blob[16:header_end]).decode("utf-8"))
        specs = {side: NetSpec(**header[f"{side}_spec"]) for side in ("textual", "visual")}
        layout = {side: param_shapes(spec) for side, spec in specs.items()}
        if header["params"] != {side: [[name, list(shape)] for name, shape in shapes]
                                for side, shapes in layout.items()}:
            raise ValueError("parameter manifest does not match the net specs")
        sizes = [math.prod(shape) for shapes in layout.values() for _, shape in shapes]
        if header_end + 8 * sum(sizes) != len(blob) - 4:
            raise CheckpointCorruptError(f"{path}: parameter data size does not match the header")
        flat = np.frombuffer(blob, dtype="<f8", count=sum(sizes), offset=header_end)
        views = iter(np.split(flat.astype(np.float64, copy=False), np.cumsum(sizes)[:-1]))
        nets = {
            side: Net(specs[side], {name: next(views).reshape(shape) for name, shape in shapes})
            for side, shapes in layout.items()
        }
        history = TrainHistory(
            epochs=[EpochStats(*row) for row in header["history"]["epochs"]],
            best_epoch=header["history"]["best_epoch"],
        )
        train_config = TrainConfig(**header["train_config"])
        _check_run_record(specs["textual"], specs["visual"], train_config, header["data_config"], history)
        return Checkpoint(
            model=ScoreModel(textual_net=nets["textual"], visual_net=nets["visual"]),
            vocabulary=_vocab_from_json(header["vocabulary"], header["vocab_digest"], specs["textual"]),
            train_config=train_config,
            data_config=header["data_config"],
            history=history,
        )
    except (KeyError, TypeError, ValueError, VocabularyError) as exc:  # JSON and Unicode errors are ValueErrors
        raise CheckpointCorruptError(
            f"{path}: invalid header ({type(exc).__name__}: {exc})"
        ) from None
