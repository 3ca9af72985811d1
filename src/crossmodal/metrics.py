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
search-side meaning. Ties are broken lexicographically on candidate id so
every metric is deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections import Counter

import numpy as np

from .corpus import CAPTIONS_PER_IMAGE
from .errors import ZeroNormError
from .nets import forward
from .ranker import RetrievalDataset, ScoreModel, cosine_score
from .text import Encoding

VARIANTS = ("first_txt", "rnd_txt", "avg_txt", "any_txt")
DEFAULT_KS = (1, 2, 5, 10)


def caption_id(image_id: str, index: int) -> str:
    return f"{image_id}#{index}"


@dataclass
class RankedResult:
    query_id: str
    candidates: list[str]  # descending score, ties lexicographic on id


@dataclass
class RankingSet:
    direction: str  # "annotation" | "search"
    results: dict[str, list[str]]
    image_ids: list[str]  # sorted query/candidate images
    captions_of: dict[str, list[str]]  # image -> its caption ids, index order


def _rank(query: np.ndarray, candidates: list[tuple[str, np.ndarray]]) -> list[str]:
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


def rank_candidates(
    model: ScoreModel,
    query: tuple[str, np.ndarray | Encoding],
    pool: list[tuple[str, np.ndarray | Encoding]],
    direction: str,
) -> RankedResult:
    """Rank one query against a candidate pool, scoring pair by pair.

    Annotation takes an image query (feature vector) against caption
    encodings; search takes a caption query against image feature vectors.
    Candidates that cannot be scored sort to the end.
    """
    if direction not in ("annotation", "search"):
        raise ValueError(f"unknown direction {direction!r}")
    if not pool:
        raise ValueError("candidate pool is empty")
    query_id, query_input = query
    query_net, cand_net = model.visual_net, model.textual_net
    if direction == "search":
        query_net, cand_net = cand_net, query_net
    q_emb, _ = forward(query_net, query_input)
    if float(np.linalg.norm(q_emb)) == 0.0:
        raise ZeroNormError(f"query {query_id!r} embeds to the zero vector")
    ranked = _rank(q_emb, [(cand_id, forward(cand_net, x)[0]) for cand_id, x in pool])
    return RankedResult(query_id=query_id, candidates=ranked)


def build_rankings(
    model: ScoreModel, data: RetrievalDataset, subset: str = "test"
) -> tuple[RankingSet, RankingSet]:
    """Full annotation and search rankings over one split.

    Embeds every item once; scores come from the same cosine as the
    pairwise path, so orderings are identical to rank_candidates. A caption
    that embeds to the zero vector ranks last for every image and is not
    a search query.
    """
    view = data.view(subset)
    if not view.image_ids:
        raise ValueError(f"split {subset!r} has no images")
    img_embs: list[tuple[str, np.ndarray]] = []
    for image_id in view.image_ids:
        emb, _ = forward(model.visual_net, data.image_vec(image_id))
        if float(np.linalg.norm(emb)) == 0.0:
            raise ZeroNormError(f"image {image_id!r} embeds to the zero vector")
        img_embs.append((image_id, emb))
    cap_embs: list[tuple[str, np.ndarray]] = []
    captions_of: dict[str, list[str]] = {i: [] for i in view.image_ids}
    for image_id, index in view.pairs:
        cid = caption_id(image_id, index)
        captions_of[image_id].append(cid)
        cap_embs.append((cid, forward(model.textual_net, data.encoding(image_id, index))[0]))
    annotation = {image_id: _rank(emb, cap_embs) for image_id, emb in img_embs}
    search = {
        cid: _rank(emb, img_embs) for cid, emb in cap_embs if float(np.linalg.norm(emb)) > 0.0
    }
    ann = RankingSet("annotation", annotation, list(view.image_ids), captions_of)
    srch = RankingSet("search", search, list(view.image_ids), captions_of)
    return ann, srch


def _selections(rankings: RankingSet, variant: str, rnd_seed: int) -> list[dict[str, str]]:
    """Designated caption per image for each single-relevant run."""
    if variant == "first_txt":
        runs = [{img: caption_id(img, 0) for img in rankings.image_ids}]
    elif variant == "rnd_txt":
        rng = random.Random(rnd_seed)
        runs = [{img: caption_id(img, rng.randrange(CAPTIONS_PER_IMAGE)) for img in rankings.image_ids}]
    elif variant == "avg_txt":
        runs = [
            {img: caption_id(img, j) for img in rankings.image_ids}
            for j in range(CAPTIONS_PER_IMAGE)
        ]
    else:
        raise ValueError(f"variant {variant!r} has no per-image selection")
    return runs


def _run_hits(rankings: RankingSet, selection: dict[str, str], k: int) -> int:
    hits = 0
    if rankings.direction == "annotation":
        pool = set(selection.values())
        for img in rankings.image_ids:
            target = selection[img]
            top = [c for c in rankings.results[img] if c in pool][:k]
            if target in top:
                hits += 1
    else:
        for img in rankings.image_ids:
            qid = selection[img]
            ranked = rankings.results.get(qid)
            if ranked is not None and img in ranked[:k]:
                hits += 1
    return hits


def recall_at_k(rankings: RankingSet, k: int, variant: str, rnd_seed: int = 0) -> float:
    """Percentage of queries whose relevant item lands in the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "any_txt" and rankings.direction != "annotation":
        raise ValueError("any_txt is only defined for annotation")
    n = len(rankings.image_ids)
    if n == 0:
        raise ValueError("no queries to evaluate")
    if variant == "any_txt":
        hits = 0
        for img in rankings.image_ids:
            own = set(rankings.captions_of[img])
            if own & set(rankings.results[img][:k]):
                hits += 1
        return 100.0 * hits / n
    runs = _selections(rankings, variant, rnd_seed)
    pcts = [100.0 * _run_hits(rankings, sel, k) / n for sel in runs]
    return sum(pcts) / len(pcts)


def _avg_txt_ranks(rankings: RankingSet) -> list[int]:
    """Rank of the designated item for every (image, caption index) run."""
    ranks: list[int] = []
    worst = len(rankings.image_ids)
    for sel in _selections(rankings, "avg_txt", 0):
        if rankings.direction == "annotation":
            pool = set(sel.values())
            for img in rankings.image_ids:
                restricted = [c for c in rankings.results[img] if c in pool]
                ranks.append(restricted.index(sel[img]) + 1)
        else:
            for img in rankings.image_ids:
                ranked = rankings.results.get(sel[img])
                ranks.append(ranked.index(img) + 1 if ranked is not None else worst)
    return ranks


def median_rank_from_ranks(ranks: list[int]) -> int:
    """Smallest k covering at least half of the given ranks."""
    if not ranks:
        raise ValueError("no ranks to take a median over")
    ordered = sorted(ranks)
    half = (len(ordered) + 1) // 2
    return ordered[half - 1]


def median_rank(rankings: RankingSet) -> int:
    """Smallest k at which avg_txt recall reaches 50%."""
    return median_rank_from_ranks(_avg_txt_ranks(rankings))


def r_precision(rankings: RankingSet, relevant_count: int = 5) -> float:
    """Mean percentage of an image's captions found in its top-R results."""
    if rankings.direction != "annotation":
        raise ValueError("rPrecision is only defined for annotation")
    total = 0.0
    for img in rankings.image_ids:
        own = rankings.captions_of[img]
        if len(own) != relevant_count:
            raise ValueError(
                f"image {img!r} has {len(own)} captions, expected {relevant_count}"
            )
        top = rankings.results[img][:relevant_count]
        total += 100.0 * len(set(top) & set(own)) / relevant_count
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
    recall = {
        variant: {k: recall_at_k(rankings, k, variant, rnd_seed) for k in ks}
        for variant in variants
    }
    return EvalReport(
        direction=rankings.direction,
        ks=tuple(ks),
        recall=recall,
        med_r=median_rank(rankings),
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
