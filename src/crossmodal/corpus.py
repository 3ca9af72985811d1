"""Corpus file parsing, dataset splitting, and synthetic fixture generation.

On-disk formats:

* ``captions.tsv``   UTF-8, one caption per line: ``image_id<TAB>caption_index<TAB>text``.
* ``features.txt``   header line ``count dim``, then one record per line:
  ``image_id v1 ... v_dim`` (decimal reals).
* ``embeddings.txt`` word2vec text format: ``word v1 ... vD`` per line.

All loaders are pure functions; :class:`FeatureStore` is immutable after
construction, so loaded corpora can be shared freely across threads.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CorpusFormatError

CAPTIONS_PER_IMAGE = 5


@dataclass
class Caption:
    image_id: str
    caption_index: int
    text: str
    tokens: list[str] | None = None


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
            if not np.all(np.isfinite(vec)):
                raise CorpusFormatError(f"image {rec.image_id!r}: non-finite feature value")
            vec.setflags(write=False)
            self._vectors[rec.image_id] = vec

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._vectors

    def get(self, image_id: str) -> np.ndarray:
        try:
            return self._vectors[image_id]
        except KeyError:
            raise KeyError(f"unknown image_id {image_id!r}") from None

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


def load_captions(path: str, strict: bool = True) -> list[Caption]:
    """Parse a captions.tsv file.

    In strict mode every image must have exactly ``CAPTIONS_PER_IMAGE``
    captions. Duplicate (image_id, caption_index) pairs and out-of-range
    indices are always errors.
    """
    captions: list[Caption] = []
    seen: set[tuple[str, int]] = set()
    per_image: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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


def load_image_features(path: str) -> FeatureStore:
    """Parse a features.txt file into a FeatureStore."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise CorpusFormatError(f"{path}:1: expected header 'count dim'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise CorpusFormatError(f"{path}:1: non-integer header fields") from None
        if count < 0 or dim <= 0:
            raise CorpusFormatError(f"{path}:1: invalid header values count={count} dim={dim}")
        records = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            image_id = parts[0]
            if len(parts) - 1 != dim:
                raise CorpusFormatError(
                    f"{path}:{lineno}: image {image_id!r} has {len(parts) - 1} values, expected {dim}"
                )
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError:
                raise CorpusFormatError(
                    f"{path}:{lineno}: image {image_id!r} has a non-numeric value"
                ) from None
            if not np.all(np.isfinite(vec)):
                raise CorpusFormatError(f"{path}:{lineno}: image {image_id!r} has a non-finite value")
            records.append(ImageRecord(image_id, vec))
    if len(records) != count:
        raise CorpusFormatError(f"{path}: header declares {count} records, found {len(records)}")
    return FeatureStore(records, dim)


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
    if not 0 <= n_test < len(ids):
        raise ValueError(f"n_test={n_test} must be in [0, {len(ids)}), the image count")
    if not 0.0 < val_frac < 1.0:
        raise ValueError(f"val_frac={val_frac} outside (0, 1)")
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

    Words appearing more than once keep their first vector; each repeat
    emits a UserWarning.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            word = parts[0]
            if dim is None:
                dim = len(parts) - 1
                if dim < 1:
                    raise CorpusFormatError(f"{path}:{lineno}: word {word!r} has no vector values")
            if len(parts) - 1 != dim:
                raise CorpusFormatError(
                    f"{path}:{lineno}: word {word!r} has {len(parts) - 1} values, expected {dim}"
                )
            if word in vectors:
                warnings.warn(f"duplicate embedding for word {word!r}; keeping first", stacklevel=2)
                continue
            try:
                vectors[word] = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError:
                raise CorpusFormatError(f"{path}:{lineno}: word {word!r} has a non-numeric value") from None
    if dim is None:
        raise CorpusFormatError(f"{path}: no embeddings found")
    return PretrainedEmbeddings(dim=dim, vectors=vectors)


def write_captions(captions: list[Caption], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cap in captions:
            fh.write(f"{cap.image_id}\t{cap.caption_index}\t{cap.text}\n")


def write_features(records: list[ImageRecord], feature_dim: int, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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

    Each cluster gets a unit-norm prototype feature vector and a token set
    disjoint from every other cluster's. Images are the prototype plus
    Gaussian noise; each image's five captions draw 4 to 8 tokens uniformly
    from the cluster's token set. Fully deterministic for a fixed seed.
    """
    if min(n_clusters, images_per_cluster, feature_dim, vocab_per_cluster) <= 0:
        raise ValueError("all synthetic corpus counts must be positive")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    images: list[ImageRecord] = []
    captions: list[Caption] = []
    for c in range(n_clusters):
        proto = rng.normal(size=feature_dim)
        proto /= np.linalg.norm(proto)
        tokens = [f"c{c}w{t}" for t in range(vocab_per_cluster)]
        for i in range(images_per_cluster):
            image_id = f"c{c}img{i:03d}"
            # scale=0 yields exact zeros, so zero-noise images equal the prototype
            # while the rng stream stays aligned across noise settings
            noise = rng.normal(0.0, noise_sigma, size=feature_dim)
            images.append(ImageRecord(image_id, proto + noise))
            for j in range(CAPTIONS_PER_IMAGE):
                length = int(rng.integers(4, 9))
                picks = rng.integers(0, vocab_per_cluster, size=length)
                captions.append(Caption(image_id, j, " ".join(tokens[p] for p in picks)))
    return images, captions
