"""Caption normalization, n-gram extraction, vocabularies, and featurization."""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import Caption, atomic_write, text_lines
from .errors import ConfigError, VocabularyError

MODES = ("unigram", "bigram", "trigram", "trigram_skip")
WEIGHTINGS = ("binary", "tfidf")
TEXTUAL_KINDS = ("bag", "sequence")  # the kinds of textual net that encode_caption encodes for
ARTICLES = frozenset({"a", "an", "the"})

# alphanumeric runs; underscore is a separator so it can join n-gram parts
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

SKIP_TAG = "*"


@dataclass(frozen=True)
class Vocabulary:
    """What vocab.tsv holds: the term mode, each term's index and document frequency, and the
    number of captions counted; the size cap is ``build_vocabulary``'s argument, not kept."""

    mode: str
    term_to_index: dict[str, int]
    doc_freq: dict[str, int]
    n_docs: int

    @property
    def size(self) -> int:
        return len(self.term_to_index)

    @cached_property
    def digest(self) -> str:
        """SHA-256 of :func:`vocabulary_text`, taken once: a frozen vocabulary never changes."""
        return hashlib.sha256(vocabulary_text(self).encode("utf-8")).hexdigest()


@dataclass
class SparseVector:
    indices: np.ndarray  # int64, strictly increasing
    values: np.ndarray  # float64, same length

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class TokenSequence:
    indices: np.ndarray  # int64, order-preserving

    def __len__(self) -> int:
        return len(self.indices)


Encoding = SparseVector | TokenSequence


def normalize_tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric characters, drop the articles."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in ARTICLES]


def extract_terms(tokens: list[str], mode: str) -> list[str]:
    """Expand a token list into the terms of the given mode.

    unigram keeps tokens as-is; bigram/trigram join adjacent tuples with
    ``_``. trigram_skip adds, for every 4-token window, the two triples that
    omit exactly one interior token, marked with a trailing ``*`` so they
    never collide with contiguous trigrams. Token lists shorter than the
    n-gram order collapse to one term joining all tokens (empty list -> no
    terms).
    """
    if mode not in MODES:
        raise ValueError(f"unknown term mode {mode!r}")
    if mode == "unigram":
        return list(tokens)
    n = 2 if mode == "bigram" else 3
    if not tokens:
        return []
    if len(tokens) < n:
        return ["_".join(tokens)]
    terms = ["_".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
    if mode == "trigram_skip":
        for i in range(len(tokens) - 3):
            a, b, c, d = tokens[i : i + 4]
            terms.append(f"{a}_{c}_{d}{SKIP_TAG}")
            terms.append(f"{a}_{b}_{d}{SKIP_TAG}")
    return terms


def build_vocabulary(captions: list[Caption], mode: str, max_size: int) -> Vocabulary:
    """Keep the ``max_size`` most frequent terms over every caption given: ``preprocess``
    passes its whole ``--captions`` file, test captions included.

    Ties at the cut are broken lexicographically (smaller term wins), and
    the retained terms are indexed by descending total count with the same
    tie-break, so construction is fully deterministic.
    """
    if not captions:
        raise VocabularyError("cannot build a vocabulary from zero captions")
    if max_size < 1:
        raise ConfigError("max_size must be positive")
    totals: Counter[str] = Counter()
    doc_freq: Counter[str] = Counter()
    for cap in captions:
        terms = extract_terms(normalize_tokenize(cap.text), mode)
        totals.update(terms)
        doc_freq.update(set(terms))
    if not totals:
        raise VocabularyError("no terms found in the training captions")
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:max_size]
    term_to_index = {term: i for i, (term, _) in enumerate(ranked)}
    return Vocabulary(
        mode=mode,
        term_to_index=term_to_index,
        doc_freq={term: doc_freq[term] for term, _ in ranked},
        n_docs=len(captions),
    )


def featurize(tokens: list[str], vocab: Vocabulary, weighting: str) -> SparseVector:
    """Turn a token list into a sparse feature vector over the vocabulary.

    binary: value 1.0 for every distinct in-vocabulary term. tfidf: value
    (count(w, d) / len_d) * ln(n_docs / doc_freq[w]) where len_d counts the
    caption's in-vocabulary term occurrences. Out-of-vocabulary terms are
    dropped; a caption with no in-vocabulary terms yields an empty vector.
    """
    if weighting not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}")
    present = [t for t in extract_terms(tokens, vocab.mode) if t in vocab.term_to_index]
    if not present:
        return SparseVector(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    counts = Counter(present)
    indexed = sorted((vocab.term_to_index[t], t) for t in counts)
    indices = np.array([i for i, _ in indexed], dtype=np.int64)
    if weighting == "binary":
        values = np.ones(len(indexed), dtype=np.float64)
    else:
        len_d = len(present)
        values = np.array(
            [
                (counts[t] / len_d) * math.log(vocab.n_docs / vocab.doc_freq[t])
                for _, t in indexed
            ],
            dtype=np.float64,
        )
    return SparseVector(indices, values)


def encode_sequence(tokens: list[str], vocab: Vocabulary) -> TokenSequence:
    """Map tokens to vocabulary indices in order, dropping OOV tokens; a
    caption with no in-vocabulary token yields an empty sequence."""
    if vocab.mode != "unigram":
        raise ConfigError("sequence encoding requires a unigram vocabulary")
    indices = [vocab.term_to_index[t] for t in tokens if t in vocab.term_to_index]
    return TokenSequence(np.array(indices, dtype=np.int64))


def encode_caption(text: str, vocab: Vocabulary, kind: str, weighting: str) -> Encoding | None:
    """Tokenize a caption's text and encode it for a ``bag`` or ``sequence``
    textual net, or None when no term of it is in the vocabulary: the one
    place that turns a caption into an input and decides it cannot be scored."""
    if kind not in TEXTUAL_KINDS:
        raise ValueError(f"unknown textual kind {kind!r}")
    tokens = normalize_tokenize(text)
    enc = encode_sequence(tokens, vocab) if kind == "sequence" else featurize(tokens, vocab, weighting)
    return enc if len(enc) else None


def vocabulary_rows(vocab: Vocabulary) -> list[tuple[str, int, int]]:
    """(term, index, doc_freq) in index order: how every writer walks a vocabulary."""
    rows = ((term, index, vocab.doc_freq[term]) for term, index in vocab.term_to_index.items())
    return sorted(rows, key=lambda row: row[1])


def vocabulary_text(vocab: Vocabulary) -> str:
    """Canonical serialized form, also used for integrity digests."""
    lines = [f"{vocab.mode} {vocab.size} {vocab.n_docs}\n"]
    lines += [f"{term}\t{index}\t{count}\n" for term, index, count in vocabulary_rows(vocab)]
    return "".join(lines)


def save_vocabulary(vocab: Vocabulary, path: str) -> None:
    with atomic_write(path) as fh:
        fh.write(vocabulary_text(vocab))


def vocabulary_from_rows(where: str, row_where, mode, size: int, n_docs, rows) -> Vocabulary:
    """The vocab.tsv rule, which checkpoint headers follow too: a known mode, distinct terms,
    indices exactly 0..size-1 each once, every doc_freq an int in 1..n_docs. ``rows`` hold
    (position, term, index, doc_freq); errors name ``where`` or ``row_where(position)``."""
    if mode not in MODES:
        raise VocabularyError(f"{where}: expected header 'mode size n_docs'")
    term_to_index, doc_freq, used = {}, {}, set()
    for pos, term, index, count in rows:
        if term in term_to_index:
            raise VocabularyError(f"{row_where(pos)}: duplicate term {term!r}")
        if not 0 <= index < size or index in used:
            raise VocabularyError(f"{row_where(pos)}: index {index} is not a free index in 0..{size - 1}")
        if not (type(count) is type(n_docs) is int and 1 <= count <= n_docs):
            raise VocabularyError(f"{row_where(pos)}: doc_freq {count} outside 1..{n_docs}")
        used.add(index)
        term_to_index[term] = index
        doc_freq[term] = count
    if len(term_to_index) != size:
        raise VocabularyError(f"{where}: header declares {size} terms, found {len(term_to_index)}")
    return Vocabulary(mode=mode, term_to_index=term_to_index, doc_freq=doc_freq, n_docs=n_docs)


def _ints(fields: list[str], where: str) -> list[int]:
    try:
        return [int(field) for field in fields]
    except ValueError:
        raise VocabularyError(f"{where}: expected integers, got {' '.join(fields)!r}") from None


def load_vocabulary(path: str) -> Vocabulary:
    """Read ``vocab.tsv`` under :func:`vocabulary_from_rows`, naming ``path:line``."""
    lines = text_lines(path, VocabularyError)
    header = next(lines, (1, ""))[1].split()
    if len(header) != 3:
        raise VocabularyError(f"{path}:1: expected header 'mode size n_docs'")

    def rows():
        for lineno, line in lines:
            parts = line.rstrip("\n").split("\t")
            if parts == [""]:
                continue
            if len(parts) != 3:
                raise VocabularyError(f"{path}:{lineno}: expected 'term<TAB>index<TAB>doc_freq'")
            yield lineno, parts[0], *_ints(parts[1:], f"{path}:{lineno}")

    size, n_docs = _ints(header[1:], f"{path}:1")
    return vocabulary_from_rows(f"{path}:1", lambda lineno: f"{path}:{lineno}", header[0], size, n_docs, rows())
