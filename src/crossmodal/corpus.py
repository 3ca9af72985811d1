"""Corpus file parsing, dataset splitting, and synthetic fixture generation.

On-disk formats:

* ``captions.tsv``   UTF-8, one caption per line: ``image_id<TAB>caption_index<TAB>text``.
* ``features.txt``   header line ``count dim``, then one record per line:
  ``image_id v1 ... v_dim`` (decimal reals).
* ``embeddings.txt`` word2vec text format: ``word v1 ... vD`` per line.

Feature and embedding rows share one parser, :func:`_vector_rows`. It reads a
block of rows at a time with ``np.loadtxt``; any block that reader refuses is
re-read row by row under the same rule, so what is accepted and every error
message do not depend on the block.

Text is read through :func:`text_lines`, so bytes that are not UTF-8 end as a
typed error naming ``path:line``; outputs are written through
:func:`atomic_write`, so a failed write leaves the previous file as it was.
The command line writes them into a staging directory and commits each
command's files as one set (``cli.output_set``).
All loaders are pure functions; :class:`FeatureStore` is immutable after
construction, so loaded corpora can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CorpusFormatError, CrossmodalError

CAPTIONS_PER_IMAGE = 5
# values parsed per np.loadtxt call in _vector_rows: 16 rows of 4096-d features,
# 218 of 300-d embeddings; only one block of text is held at a time
ROW_BLOCK_VALUES = 1 << 16
# the most float64 values one numpy array can hold: its size in bytes must fit an intp
MAX_FLOAT64_VALUES = np.iinfo(np.intp).max // 8


@dataclass
class Caption:
    """One ``captions.tsv`` line; only :mod:`crossmodal.text` turns its text into tokens."""

    image_id: str
    caption_index: int
    text: str


@dataclass(frozen=True)
class ImageRecord:
    image_id: str
    features: np.ndarray


class FeatureStore:
    """Immutable image_id -> feature vector lookup with a fixed dimension."""

    def __init__(self, records: list[ImageRecord], feature_dim: int):
        self._vectors: dict[str, np.ndarray] = {}
        self.feature_dim = feature_dim
        for rec in records:
            if rec.image_id in self._vectors:
                raise CorpusFormatError(f"duplicate image_id {rec.image_id!r}")
            vec = np.asarray(rec.features, dtype=np.float64)
            if vec.shape != (feature_dim,):
                raise CorpusFormatError(
                    f"image {rec.image_id!r}: expected {feature_dim} features, got {vec.shape}"
                )
            with np.errstate(over="ignore"):  # the overflow is reported below, not warned
                if not np.isfinite(np.dot(vec, vec)):
                    raise CorpusFormatError(f"image {rec.image_id!r}: non-finite feature value or squared norm")
            vec.setflags(write=False)
            self._vectors[rec.image_id] = vec

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._vectors

    def get(self, image_id: str) -> np.ndarray:
        return self._vectors[image_id]

    def ids(self) -> list[str]:
        return sorted(self._vectors)

    def records(self) -> list[ImageRecord]:
        return [ImageRecord(i, self._vectors[i]) for i in self.ids()]


@dataclass
class SplitDataset:
    train: set[str]
    val: set[str]
    test: set[str]
    seed: int

    def subset(self, name: str) -> set[str]:
        if name not in ("train", "val", "test"):
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)


@dataclass
class PretrainedEmbeddings:
    dim: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)


def text_lines(path: str, error: type[CrossmodalError] = CorpusFormatError):
    """Yield (line number, line) for each line of a UTF-8 text file, newlines
    translated as in text mode; a line that is not UTF-8 raises ``error``
    naming ``path:line``."""
    # undecodable bytes arrive as lone surrogates, which decoded UTF-8 never
    # holds, so only a line that is not ASCII needs the check
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise error(f"{path}:{lineno}: not valid UTF-8") from None
            yield lineno, line


@contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Write through ``<path>.tmp`` and rename it over ``path`` once the block
    ends; if the block raises, remove the temp file and leave ``path`` as it
    was. Text is UTF-8."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_captions(path: str, strict: bool = True) -> list[Caption]:
    """Parse a captions.tsv file.

    In strict mode every image must have exactly ``CAPTIONS_PER_IMAGE``
    captions. Duplicate (image_id, caption_index) pairs and out-of-range
    indices are always errors.
    """
    captions: list[Caption] = []
    seen: set[tuple[str, int]] = set()
    per_image: dict[str, int] = {}
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t", 2)
        if len(parts) != 3:
            raise CorpusFormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
        image_id, idx_str, text = parts
        try:
            caption_index = int(idx_str)
        except ValueError:
            raise CorpusFormatError(
                f"{path}:{lineno}: caption_index {idx_str!r} is not an integer"
            ) from None
        if not 0 <= caption_index < CAPTIONS_PER_IMAGE:
            raise CorpusFormatError(
                f"{path}:{lineno}: caption_index {caption_index} outside [0, {CAPTIONS_PER_IMAGE - 1}]"
            )
        key = (image_id, caption_index)
        if key in seen:
            raise CorpusFormatError(
                f"{path}:{lineno}: duplicate caption ({image_id!r}, {caption_index})"
            )
        seen.add(key)
        per_image[image_id] = per_image.get(image_id, 0) + 1
        captions.append(Caption(image_id, caption_index, text))
    if strict:
        for image_id, count in sorted(per_image.items()):
            if count != CAPTIONS_PER_IMAGE:
                raise CorpusFormatError(
                    f"image {image_id!r} has {count} captions, expected {CAPTIONS_PER_IMAGE}"
                )
    return captions


def _vector_row(path: str, lineno: int, line: str, dim: int):
    """The row rule: (name, vector) for one ``name v1 ... vD`` line, or None
    for a blank line. The row has ``dim`` values, at least 1, each a finite
    decimal; every error names ``path:line``."""
    parts = line.split()
    if not parts:
        return None
    name, values = parts[0], parts[1:]
    where = f"{path}:{lineno}: {name!r}"
    if len(values) != dim or not values:
        raise CorpusFormatError(f"{where} has {len(values)} values, expected {dim or 'at least 1'}")
    try:
        vec = np.array([float(v) for v in values], dtype=np.float64)
    except ValueError:
        raise CorpusFormatError(f"{where} has a non-numeric value") from None
    if not np.all(np.isfinite(vec)):
        raise CorpusFormatError(f"{where} has a non-finite value")
    return name, vec


def _loadtxt_block(block, dim: int):
    """(names, values) for a block of (line number, ``line.split(None, 1)``)
    pairs as ``np.loadtxt`` reads them, or None when a row has a name and no
    values, ``loadtxt`` raises, the shape is not (rows, dim) or a value is not
    finite."""
    rows = [parts for _, parts in block if parts]
    if not rows or any(len(parts) == 1 for parts in rows):
        return None
    try:
        # no usecols: it would drop the extra values of a row that is too long
        values = np.loadtxt([rest for _, rest in rows], dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(rows), dim) or not np.isfinite(values).all():
        return None
    return [name for name, _ in rows], values


def _vector_rows(path: str, numbered_lines, dim: int):
    """Yield (name, vector) for each non-blank line, by :func:`_vector_row`.

    Lines are read and parsed a block of at most ``ROW_BLOCK_VALUES`` values
    at a time by ``np.loadtxt``; a block it refuses is re-read row by row, so
    what is accepted and every error message stay those of the row rule.
    Vectors are rows of the block's array.
    """
    lines = iter(numbered_lines)
    # no row has 0 values, so a 0-d block is one line: it fails before the next is read
    block_rows = max(1, ROW_BLOCK_VALUES // dim) if dim else 1
    while True:
        # each line is held once, as its name and the rest
        block, unreadable = [], None
        try:
            for lineno, line in itertools.islice(lines, block_rows):
                block.append((lineno, line.split(None, 1)))
        except CrossmodalError as exc:
            # rows before an unreadable line come out (or fail) first
            unreadable = exc
        fast = _loadtxt_block(block, dim)
        if fast:
            yield from zip(*fast)
        else:
            for lineno, parts in block:
                # name + " " + rest splits into the line's own tokens
                row = _vector_row(path, lineno, " ".join(parts), dim)
                if row:
                    yield row
        if unreadable:
            raise unreadable
        if len(block) < block_rows:
            return


def load_image_features(path: str) -> FeatureStore:
    """Parse a features.txt file into a FeatureStore."""
    lines = text_lines(path)
    header = next(lines, (1, ""))[1].split()
    if len(header) != 2:
        raise CorpusFormatError(f"{path}:1: expected header 'count dim'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise CorpusFormatError(f"{path}:1: non-integer header fields") from None
    if count < 0 or dim <= 0:
        raise CorpusFormatError(f"{path}:1: invalid header values count={count} dim={dim}")
    records = [ImageRecord(*row) for row in _vector_rows(path, lines, dim)]
    if len(records) != count:
        raise CorpusFormatError(f"{path}: header declares {count} records, found {len(records)}")
    try:
        return FeatureStore(records, dim)
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from None


def check_split_values(n_test: int = 0, val_frac: float = 0.5) -> None:
    """The rule for each split value alone, n_test at least 0 and val_frac in (0, 1);
    an omitted value passes. The image-count bound on n_test is split_dataset's."""
    if n_test < 0:
        raise ConfigError(f"n_test={n_test} must be at least 0")
    if not 0.0 < val_frac < 1.0:
        raise ConfigError(f"val_frac={val_frac} outside (0, 1)")


def split_dataset(
    images: list[ImageRecord],
    captions: list[Caption],
    n_test: int,
    val_frac: float,
    seed: int,
) -> SplitDataset:
    """Partition image ids into train/val/test with a seeded shuffle.

    The test set takes exactly ``n_test`` images; the validation set takes
    round(val_frac * remaining) images, rounding half up; the rest train.
    Captions follow their image's split, so only image ids are recorded.
    """
    ids = sorted(rec.image_id for rec in images)
    check_split_values(n_test, val_frac)
    if n_test >= len(ids):
        raise ConfigError(f"n_test={n_test} must be in [0, {len(ids)}), the image count")
    known = set(ids)
    for cap in captions:
        if cap.image_id not in known:
            raise CorpusFormatError(
                f"caption references unknown image {cap.image_id!r}; load features first"
            )
    rng = random.Random(seed)
    rng.shuffle(ids)
    test = ids[:n_test]
    rest = ids[n_test:]
    n_val = int(math.floor(val_frac * len(rest) + 0.5))
    return SplitDataset(train=set(rest[n_val:]), val=set(rest[:n_val]), test=set(test), seed=seed)


def load_word_embeddings(path: str) -> PretrainedEmbeddings:
    """Parse word2vec-style text embeddings.

    ``dim`` is the first non-blank line's value count, as a header's would
    be. A word seen again is refused, as a repeated image id is.
    """
    lines = text_lines(path)
    first = next(((lineno, line) for lineno, line in lines if line.split()), None)
    if first is None:
        raise CorpusFormatError(f"{path}: no embeddings found")
    dim = len(first[1].split()) - 1
    vectors: dict[str, np.ndarray] = {}
    for word, vec in _vector_rows(path, itertools.chain([first], lines), dim):
        if word in vectors:
            raise CorpusFormatError(f"{path}: duplicate word {word!r}")
        vectors[word] = vec
    return PretrainedEmbeddings(dim=dim, vectors=vectors)


def write_captions(captions: list[Caption], path: str) -> None:
    with atomic_write(path) as fh:
        for cap in captions:
            fh.write(f"{cap.image_id}\t{cap.caption_index}\t{cap.text}\n")


def write_features(records: list[ImageRecord], feature_dim: int, path: str) -> None:
    with atomic_write(path) as fh:
        fh.write(f"{len(records)} {feature_dim}\n")
        for rec in records:
            vals = " ".join(repr(float(v)) for v in rec.features)
            fh.write(f"{rec.image_id} {vals}\n")


def generate_synthetic_corpus(
    n_clusters: int,
    images_per_cluster: int,
    feature_dim: int,
    vocab_per_cluster: int,
    noise_sigma: float,
    seed: int,
) -> tuple[list[ImageRecord], list[Caption]]:
    """Build a clustered toy corpus where retrieval structure is known.

    Each cluster ``c`` gets a unit-norm prototype feature vector and the token
    set ``c{c}w0`` .. ``c{c}w{vocab_per_cluster - 1}``, disjoint from every
    other cluster's. Images are the prototype plus Gaussian noise; each
    image's five captions draw 4 to 8 tokens uniformly from the cluster's
    token set. Fully deterministic for a fixed seed.
    """
    if min(n_clusters, images_per_cluster, feature_dim, vocab_per_cluster) <= 0:
        raise ConfigError("all synthetic corpus counts must be positive")
    if feature_dim > MAX_FLOAT64_VALUES:
        raise ConfigError(f"feature_dim must be at most {MAX_FLOAT64_VALUES}, "
                          "the float64 values numpy can address")
    if vocab_per_cluster > np.iinfo(np.int64).max:
        raise ConfigError(f"vocab_per_cluster must be at most {np.iinfo(np.int64).max}, "
                          "the token indices numpy draws")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    if noise_sigma < 0:
        raise ConfigError("noise_sigma must be nonnegative")
    if not noise_sigma < math.inf:  # true for NaN too
        raise ConfigError("noise_sigma must be finite")
    rng = np.random.default_rng(seed)
    images: list[ImageRecord] = []
    captions: list[Caption] = []
    for c in range(n_clusters):
        proto = rng.normal(size=feature_dim)
        proto /= np.linalg.norm(proto)
        for i in range(images_per_cluster):
            image_id = f"c{c}img{i:03d}"
            # scale=0 yields exact zeros, so zero-noise images equal the prototype
            # while the rng stream stays aligned across noise settings
            noise = rng.normal(0.0, noise_sigma, size=feature_dim)
            images.append(ImageRecord(image_id, proto + noise))
            for j in range(CAPTIONS_PER_IMAGE):
                length = int(rng.integers(4, 9))
                picks = rng.integers(0, vocab_per_cluster, size=length)
                captions.append(Caption(image_id, j, " ".join(f"c{c}w{p}" for p in picks)))
    return images, captions
