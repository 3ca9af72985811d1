"""Versioned binary checkpoints for trained models.

Layout (all integers little-endian):

    magic b"XMRK" | uint32 version | uint64 header_len | header JSON (UTF-8)
    | raw float64 parameter data, C order | uint32 CRC32 of everything above

The header carries both net specs, the training and data configuration, the
vocabulary, the epoch history, and a parameter manifest (name + shape per
net) that fixes the byte layout. Parameters round-trip bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CheckpointCorruptError, CheckpointVersionError
from .nets import Net, NetSpec
from .ranker import EpochStats, ScoreModel, TrainConfig, TrainHistory
from .text import Vocabulary, vocabulary_text

MAGIC = b"XMRK"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    format_version: int
    model: ScoreModel
    vocabulary: Vocabulary
    train_config: TrainConfig
    data_config: dict
    history: TrainHistory
    vocab_digest: str


def vocab_digest(vocab: Vocabulary) -> str:
    return hashlib.sha256(vocabulary_text(vocab).encode("utf-8")).hexdigest()


def _vocab_to_json(vocab: Vocabulary) -> dict:
    by_index = sorted(vocab.term_to_index.items(), key=lambda kv: kv[1])
    return {
        "mode": vocab.mode,
        "n_docs": vocab.n_docs,
        "max_size": vocab.max_size,
        "terms": [[term, vocab.doc_freq[term]] for term, _ in by_index],
    }


def _vocab_from_json(blob: dict) -> Vocabulary:
    term_to_index = {term: i for i, (term, _) in enumerate(blob["terms"])}
    doc_freq = {term: df for term, df in blob["terms"]}
    return Vocabulary(
        mode=blob["mode"],
        term_to_index=term_to_index,
        doc_freq=doc_freq,
        n_docs=blob["n_docs"],
        max_size=blob["max_size"],
    )


def save_checkpoint(
    path: str,
    model: ScoreModel,
    vocab: Vocabulary,
    train_config: TrainConfig,
    history: TrainHistory,
    data_config: dict | None = None,
) -> None:
    header = {
        "textual_spec": asdict(model.textual_net.spec),
        "visual_spec": asdict(model.visual_net.spec),
        "train_config": asdict(train_config),
        "data_config": data_config or {},
        "vocabulary": _vocab_to_json(vocab),
        "vocab_digest": vocab_digest(vocab),
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


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20 or blob[:4] != MAGIC:
        raise CheckpointCorruptError(f"{path}: not a checkpoint file")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise CheckpointCorruptError(f"{path}: checksum mismatch (truncated or corrupted)")
    version = struct.unpack("<I", blob[4:8])[0]
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})"
        )
    header_len = struct.unpack("<Q", blob[8:16])[0]
    header_end = 16 + header_len
    offset = header_end
    # the specs and configs validate themselves; a header that fails to
    # parse or to rebuild them is as corrupt as a bad checksum
    try:
        header = json.loads(blob[16:header_end].decode("utf-8"))
        nets: dict[str, Net] = {}
        for net_name, spec_key in (("textual", "textual_spec"), ("visual", "visual_spec")):
            spec = NetSpec(**header[spec_key])
            params: dict[str, np.ndarray] = {}
            for name, shape in header["params"][net_name]:
                count = int(np.prod(shape)) if shape else 1
                nbytes = count * 8
                if offset + nbytes > len(blob) - 4:
                    raise CheckpointCorruptError(f"{path}: parameter data out of bounds")
                arr = np.frombuffer(blob[offset : offset + nbytes], dtype="<f8").reshape(shape)
                params[name] = arr.astype(np.float64, copy=True)
                offset += nbytes
            nets[net_name] = Net(spec=spec, params=params)
        if offset != len(blob) - 4:
            raise CheckpointCorruptError(f"{path}: trailing bytes after parameter data")
        history = TrainHistory(
            epochs=[EpochStats(*row) for row in header["history"]["epochs"]],
            best_epoch=header["history"]["best_epoch"],
        )
        return Checkpoint(
            format_version=version,
            model=ScoreModel(textual_net=nets["textual"], visual_net=nets["visual"]),
            vocabulary=_vocab_from_json(header["vocabulary"]),
            train_config=TrainConfig(**header["train_config"]),
            data_config=header["data_config"],
            history=history,
            vocab_digest=header["vocab_digest"],
        )
    except (KeyError, TypeError, ValueError) as exc:  # JSON and Unicode errors are ValueErrors
        raise CheckpointCorruptError(
            f"{path}: invalid header ({type(exc).__name__}: {exc})"
        ) from None
