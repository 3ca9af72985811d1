"""Bidirectional retrieval metrics: R@K variants, median rank, rPrecision,
plus unigram clipped-precision BLEU and pooled-recall ROUGE.

Ranking protocol. Test captions are identified as ``image_id#j`` for
j in 0..4. Annotation queries are images ranked against captions; search
queries are captions ranked against images. The single-relevant R@K
variants (1st_txt, rnd_txt, and the five runs averaged by avg_txt)
designate one caption per image: for annotation that designated set is
also the candidate pool of the run, for search it selects which captions
act as queries. any_txt ranks the full caption pool and counts a hit when
any of the query image's five captions lands in the top k; it has no
search-side meaning.

Scoring. ``rank_by_cosine`` is the one ranking kernel: one batched cosine
per direction, each row ordered by descending score with ties broken
lexicographically on candidate id, so every metric is deterministic.
Zero-norm candidates sort last. Every R@K and med r is read off one rank
per (selection, image) from ``_designated_ranks``. A designated caption
that could not be scored (no in-vocabulary term, or zero norm as a search
query) misses at every k and counts as rank n for med r.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections import Counter
from itertools import repeat

import numpy as np

from .corpus import CAPTIONS_PER_IMAGE
from .errors import ZeroNormError
from .nets import embed_dense, forward
from .ranker import RetrievalDataset, ScoreModel

VARIANTS = ("first_txt", "rnd_txt", "avg_txt", "any_txt")
DEFAULT_KS = (1, 2, 5, 10)


def caption_id(image_id: str, index: int) -> str:
    return f"{image_id}#{index}"


@dataclass
class RankingSet:
    direction: str  # "annotation" | "search"
    results: dict[str, list[str]]
    image_ids: list[str]  # sorted query/candidate images
    captions_of: dict[str, list[str]]  # image -> its caption ids, index order


def _squared_norms(embs: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", embs, embs)


def rank_by_cosine(
    queries: np.ndarray, candidates: np.ndarray, cand_ids: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Order every candidate for every query by descending cosine score.

    ``queries`` and ``candidates`` stack one embedding per row. Returns
    ``(order, scores)``: row i of ``order`` lists candidate indices for
    query i, and ``scores[i, j]`` is the score of candidate ``order[i, j]``.
    Scores are clamped to [-1, 1]; ties break lexicographically on
    ``cand_ids``. A zero-norm candidate cannot be scored: it gets -inf and
    sorts last. A zero-norm query raises ZeroNormError.
    """
    if len(cand_ids) == 0:
        raise ValueError("candidate pool is empty")
    q_sq, c_sq = _squared_norms(queries), _squared_norms(candidates)
    if not q_sq.all():
        raise ZeroNormError(f"query row {int(np.argmin(q_sq))} embeds to the zero vector")
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.clip((queries @ candidates.T) / np.sqrt(np.outer(q_sq, c_sq)), -1.0, 1.0)
    scores[:, c_sq == 0.0] = -np.inf
    id_rank = np.argsort(np.argsort(np.asarray(cand_ids)))
    order = np.lexsort((np.broadcast_to(id_rank, scores.shape), -scores))
    return order, np.take_along_axis(scores, order, axis=1)


def build_rankings(
    model: ScoreModel, data: RetrievalDataset, subset: str = "test"
) -> tuple[RankingSet, RankingSet]:
    """Full annotation and search rankings over one split.

    Embeds every item once, the images as stacked products, and orders each
    direction with one ``rank_by_cosine`` call. A caption that embeds to the
    zero vector ranks last for every image and is not a search query.
    """
    view = data.view(subset)
    images = view.image_ids
    img_embs = embed_dense(model.visual_net, [data.image_vec(i) for i in images])
    cap_ids = [caption_id(image_id, index) for image_id, index in view.pairs]
    cap_embs = np.array([forward(model.textual_net, data.encoding(*key))[0] for key in view.pairs])
    captions_of: dict[str, list[str]] = {i: [] for i in images}
    for (image_id, _), cid in zip(view.pairs, cap_ids):
        captions_of[image_id].append(cid)
    order, _ = rank_by_cosine(img_embs, cap_embs, cap_ids)
    annotation = dict(zip(images, np.asarray(cap_ids, dtype=object)[order].tolist()))
    queries = np.flatnonzero(_squared_norms(cap_embs))
    order, _ = rank_by_cosine(cap_embs[queries], img_embs, images)
    search = dict(zip([cap_ids[q] for q in queries], np.asarray(images, dtype=object)[order].tolist()))
    return (RankingSet("annotation", annotation, list(images), captions_of),
            RankingSet("search", search, list(images), captions_of))


def _designated_ranks(rankings: RankingSet, selections: list[dict[str, str]]) -> np.ndarray:
    """1-based rank of each image's designated item: one row per selection,
    one column per image in ``image_ids`` order.

    Annotation ranks the designated caption within the selection's pool
    (the designated captions of all images). Search takes the image's rank
    in its designated caption's ranking. A designated caption that could not
    be scored (it is missing from the image's ranking, or is not a search
    query) gets inf, so it misses at every k.
    """
    images = rankings.image_ids
    ranks = np.full((len(selections), len(images)), np.inf)
    if rankings.direction == "annotation":
        pools = [sel[img] for sel in selections for img in images]
        for i, img in enumerate(images):
            position = dict(zip(rankings.results[img], range(len(rankings.results[img]))))
            at = np.fromiter(map(position.get, pools, repeat(np.inf)), float, len(pools))
            at = at.reshape(len(selections), len(images))
            own = at[:, i]
            scored = np.isfinite(own)
            ranks[scored, i] = np.count_nonzero(at[scored] <= own[scored, None], axis=1)
    else:
        for run, sel in enumerate(selections):
            for i, img in enumerate(images):
                ranking = rankings.results.get(sel[img])
                if ranking is not None:
                    ranks[run, i] = ranking.index(img) + 1
    return ranks


def _any_txt_ranks(rankings: RankingSet) -> np.ndarray:
    """Best rank of any of an image's own captions in its full ranking."""
    ranks = np.full((1, len(rankings.image_ids)), np.inf)
    for i, img in enumerate(rankings.image_ids):
        own = set(rankings.captions_of[img])
        ranks[0, i] = next((p for p, cid in enumerate(rankings.results[img], 1) if cid in own), np.inf)
    return ranks


def _selections(images: list[str], variant: str, rnd_seed: int) -> list[dict[str, str]]:
    """The designated caption of every image, one selection per run of a
    single-relevant variant."""
    if variant == "first_txt":
        picks = [[0] * len(images)]
    elif variant == "rnd_txt":
        rng = random.Random(rnd_seed)
        picks = [[rng.randrange(CAPTIONS_PER_IMAGE) for _ in images]]
    else:
        picks = [[j] * len(images) for j in range(CAPTIONS_PER_IMAGE)]
    return [{img: caption_id(img, j) for img, j in zip(images, pick)} for pick in picks]


def _variant_ranks(rankings: RankingSet, variants: tuple[str, ...], rnd_seed: int) -> dict[str, np.ndarray]:
    """Per-image ranks of each R@K variant, one row per run. The
    single-relevant variants share one ``_designated_ranks`` pass."""
    ranks = {"any_txt": _any_txt_ranks(rankings)} if "any_txt" in variants else {}
    single = [v for v in variants if v != "any_txt"]
    if single:
        runs = [_selections(rankings.image_ids, v, rnd_seed) for v in single]
        designated = _designated_ranks(rankings, [sel for run in runs for sel in run])
        start = 0
        for variant, run in zip(single, runs):
            ranks[variant] = designated[start : start + len(run)]
            start += len(run)
    return ranks


def _recall(ranks: np.ndarray, k: int) -> float:
    """Hit percentage at k of each run (row), averaged over runs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = ranks.shape[1]
    if n == 0:
        raise ValueError("no queries to evaluate")
    pcts = [100.0 * int(hits) / n for hits in np.count_nonzero(ranks <= k, axis=1)]
    return sum(pcts) / len(pcts)


def recall_at_k(rankings: RankingSet, k: int, variant: str, rnd_seed: int = 0) -> float:
    """Percentage of queries whose relevant item lands in the top k."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "any_txt" and rankings.direction != "annotation":
        raise ValueError("any_txt is only defined for annotation")
    return _recall(_variant_ranks(rankings, (variant,), rnd_seed)[variant], k)


def median_rank_from_ranks(ranks: list[int] | np.ndarray) -> int:
    """Smallest k covering at least half of the given ranks."""
    if len(ranks) == 0:
        raise ValueError("no ranks to take a median over")
    ordered = sorted(ranks)
    half = (len(ordered) + 1) // 2
    return int(ordered[half - 1])


def _median_of_avg_txt(ranks: np.ndarray) -> int:
    # a caption that is not a search query counts as the worst rank, n
    return median_rank_from_ranks(np.minimum(ranks, ranks.shape[1]).ravel())


def median_rank(rankings: RankingSet) -> int:
    """Smallest k at which avg_txt recall reaches 50%."""
    return _median_of_avg_txt(_variant_ranks(rankings, ("avg_txt",), 0)["avg_txt"])


def r_precision(rankings: RankingSet) -> float:
    """Mean percentage of an image's captions found in its top R = CAPTIONS_PER_IMAGE results.

    The denominator is always R: a caption that could not be scored is not
    in the ranking, so it counts as not found.
    """
    if rankings.direction != "annotation":
        raise ValueError("rPrecision is only defined for annotation")
    total = 0.0
    for img in rankings.image_ids:
        own = rankings.captions_of[img]
        if len(own) > CAPTIONS_PER_IMAGE:
            raise ValueError(f"image {img!r} has {len(own)} captions, expected at most {CAPTIONS_PER_IMAGE}")
        top = rankings.results[img][:CAPTIONS_PER_IMAGE]
        total += 100.0 * len(set(top) & set(own)) / CAPTIONS_PER_IMAGE
    return total / len(rankings.image_ids)


def bleu(candidate: list[str], references: list[list[str]]) -> float:
    """Clipped unigram precision of the candidate against the references."""
    if not candidate:
        raise ValueError("empty candidate")
    if not references:
        raise ValueError("no references")
    cand = Counter(candidate)
    clipped = 0
    for word, count in cand.items():
        best = max(ref.count(word) for ref in references)
        clipped += min(count, best)
    return clipped / sum(cand.values())


def rouge(candidate: list[str], references: list[list[str]]) -> float:
    """Clipped unigram recall pooled over all references."""
    if not references or all(len(r) == 0 for r in references):
        raise ValueError("references are empty")
    cand = Counter(candidate)
    matched = 0
    total = 0
    for ref in references:
        ref_counts = Counter(ref)
        total += sum(ref_counts.values())
        for word, count in ref_counts.items():
            matched += min(cand[word], count)
    return matched / total


@dataclass
class EvalReport:
    direction: str
    ks: tuple[int, ...]
    recall: dict[str, dict[int, float]]  # variant -> k -> percentage
    med_r: int
    r_precision_5: float | None
    query_count: int
    rnd_seed: int


def evaluate_rankings(
    rankings: RankingSet, ks: tuple[int, ...] = DEFAULT_KS, rnd_seed: int = 0
) -> EvalReport:
    variants = VARIANTS if rankings.direction == "annotation" else VARIANTS[:3]
    ranks = _variant_ranks(rankings, variants, rnd_seed)
    recall = {variant: {k: _recall(ranks[variant], k) for k in ks} for variant in variants}
    return EvalReport(
        direction=rankings.direction,
        ks=tuple(ks),
        recall=recall,
        med_r=_median_of_avg_txt(ranks["avg_txt"]),
        r_precision_5=r_precision(rankings) if rankings.direction == "annotation" else None,
        query_count=len(rankings.image_ids),
        rnd_seed=rnd_seed,
    )


_VARIANT_LABELS = {
    "first_txt": "R@K: 1st_txt",
    "rnd_txt": "R@K: rnd_txt",
    "avg_txt": "R@K: avg_txt",
    "any_txt": "R@K: any_txt",
}


def format_report(report: EvalReport) -> str:
    lines = [f"direction: {report.direction}   queries: {report.query_count}   rnd_seed: {report.rnd_seed}"]
    header = "metric".ljust(14) + "".join(f"k={k}".rjust(10) for k in report.ks)
    lines.append(header)
    for variant in ("rnd_txt", "avg_txt", "first_txt", "any_txt"):
        if variant not in report.recall:
            continue
        row = _VARIANT_LABELS[variant].ljust(14)
        row += "".join(f"{report.recall[variant][k]:10.2f}" for k in report.ks)
        lines.append(row)
    lines.append(f"med r: {report.med_r}")
    if report.r_precision_5 is not None:
        lines.append(f"rPrecision(5): {report.r_precision_5:.2f}")
    return "\n".join(lines) + "\n"


def report_to_kv(report: EvalReport) -> str:
    pairs: list[tuple[str, str]] = [
        ("direction", report.direction),
        ("queries", str(report.query_count)),
        ("rnd_seed", str(report.rnd_seed)),
        ("med_r", str(report.med_r)),
    ]
    if report.r_precision_5 is not None:
        pairs.append(("r_precision_5", repr(report.r_precision_5)))
    for variant in sorted(report.recall):
        for k in report.ks:
            pairs.append((f"recall.{variant}.{k}", repr(report.recall[variant][k])))
    return "".join(f"{key}={value}\n" for key, value in pairs)
