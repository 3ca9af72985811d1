"""Bidirectional retrieval metrics: R@K variants, median rank, rPrecision,
plus unigram clipped-precision BLEU and pooled-recall ROUGE. A retrieval
metric has one way out: ``evaluate_rankings`` reads all of a direction's.

Ranking protocol. Test captions are identified as ``image_id#j`` for
j in 0..4. Annotation queries are images ranked against captions; search
queries are captions ranked against images. The single-relevant R@K
variants (rnd_txt, and the five runs averaged by avg_txt, whose first run,
caption #0 of every image, is 1st_txt) designate one caption per image:
for annotation that designated set is also the candidate pool of the run,
for search it selects which captions act as queries. any_txt ranks the
full caption pool and counts a hit when any of the query image's five
captions lands in the top k; it has no search-side meaning.

Scoring. ``cosine_scores`` is the one scoring kernel, one batched cosine
per direction. Its one product is the score matrix, divided and clamped in
place a block of query rows at a time, so only a block's temporaries are
held beside it: at paper shape (1,000 test images, 5,000 captions, 4096-d,
``n_emb`` 300) ``build_rankings`` peaks at 92 MiB, most of it the two 38 MiB
score matrices. Nothing is sorted: every rank is a count from
``_count_ranks``, one plus the candidates that score higher plus those that
tie and come first by id, so every metric is deterministic. Training's rule,
``ranker.cosine_vanishes``, decides which pairs score: a non-finite embedding
raises NonFiniteGradientError, and a zero-norm or vanishing pair scores -inf,
after every scored one. A designated caption that could not be scored (no
in-vocabulary term, or no image scores it) misses at every k and counts as
rank n for med r.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import CAPTIONS_PER_IMAGE
from .errors import ZeroNormError
from .nets import embed_dense, embed_each
from .ranker import RetrievalDataset, ScoreModel, cosine_vanishes

DEFAULT_KS = (1, 2, 5, 10)
# scores finished at once by ``cosine_scores``: 32 Ki float64 is 256 KB, and a
# block's norm products and rule temporaries take at most three times as much
SCORE_BLOCK_VALUES = 1 << 15


def caption_id(image_id: str, index: int) -> str:
    return f"{image_id}#{index}"


def lexicographic_rank(ids: list[str]) -> np.ndarray:
    """Each id's 0-based position in ``ids`` sorted: the order that breaks score ties."""
    return np.argsort(np.argsort(np.asarray(ids)))


@dataclass
class RankingSet:
    direction: str  # "annotation" | "search"
    results: dict[str, np.ndarray]  # query id -> its cosine with each of cand_ids
    image_ids: list[str]  # sorted query/candidate images
    captions_of: dict[str, list[str]]  # image -> its scored caption ids, index order
    cand_ids: list[str]

    def __post_init__(self) -> None:
        self.id_rank = lexicographic_rank(self.cand_ids)
        self.column = {cid: j for j, cid in enumerate(self.cand_ids)}  # id -> score column


def cosine_scores(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Cosine of every query (row) with every candidate (column), both stacked
    one embedding per row, clamped to [-1, 1], under ``cosine_vanishes``' rule:
    a non-finite or overflowing embedding raises NonFiniteGradientError, and a
    pair it cannot divide by, zero-norm or vanishing, gets -inf. A zero-norm
    query raises ZeroNormError.

    The one product ``queries @ candidates.T`` is the result: each block of
    about ``SCORE_BLOCK_VALUES`` scores is divided by its norms and clamped in
    place, so no other full-size array is held."""
    if len(candidates) == 0:
        raise ValueError("candidate pool is empty")
    block_rows = max(1, SCORE_BLOCK_VALUES // len(candidates))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused or set below
        q_sq, c_sq = (np.einsum("ij,ij->i", embs, embs) for embs in (queries, candidates))
        scores = queries @ candidates.T
        for start in range(0, len(scores), block_rows):
            block = scores[start : start + block_rows]
            norm_products = np.outer(q_sq[start : start + block_rows], c_sq)
            vanishing = cosine_vanishes(norm_products, block, "cosine-score")
            block /= np.sqrt(norm_products, out=norm_products)
            np.clip(block, -1.0, 1.0, out=block)
            block[vanishing] = -np.inf
    # after every block, so a non-finite pair anywhere is refused first
    if not q_sq.all():
        raise ZeroNormError(f"query row {int(np.argmin(q_sq))} embeds to the zero vector")
    return scores


def build_rankings(model: ScoreModel, data: RetrievalDataset) -> tuple[RankingSet, RankingSet]:
    """Annotation and search scores over the test split: every item embedded
    once, the images as stacked products, and one ``cosine_scores`` call per
    direction. A caption that no image can score ranks last for every image
    and is not a search query."""
    view = data.view("test")
    images = list(view.image_ids)
    img_embs = embed_dense(model.visual_net, [data.features.get(i) for i in images])
    cap_ids = [caption_id(image_id, index) for image_id, index in view.pairs]
    cap_embs = embed_each(model.textual_net, [data.encoding(*key) for key in view.pairs])
    captions_of: dict[str, list[str]] = {i: [] for i in images}
    for (image_id, _), cid in zip(view.pairs, cap_ids):
        captions_of[image_id].append(cid)
    annotation = cosine_scores(img_embs, cap_embs)
    queries = np.flatnonzero((annotation > -np.inf).any(axis=0))
    # every caption is a query unless one scored -inf for every image
    query_embs = cap_embs if len(queries) == len(cap_embs) else cap_embs[queries]
    search = dict(zip([cap_ids[q] for q in queries], cosine_scores(query_embs, img_embs)))
    return (RankingSet("annotation", dict(zip(images, annotation)), images, captions_of, cap_ids),
            RankingSet("search", search, images, captions_of, images))


def _count_ranks(scores: np.ndarray, id_rank: np.ndarray, targets) -> np.ndarray:
    """1-based rank of column ``targets[q]`` within row q of ``scores`` (one row
    shared by all targets if it is 1-d): one plus the columns that score
    higher, plus those that tie it and come first in ``id_rank``."""
    targets = np.asarray(targets, dtype=np.intp)
    scores = np.broadcast_to(scores, (len(targets), np.shape(scores)[-1]))
    own = scores[np.arange(len(targets)), targets][:, None]
    first = id_rank < id_rank[targets][:, None]
    return 1 + np.count_nonzero((scores > own) | ((scores == own) & first), axis=1)


def _designated_ranks(rankings: RankingSet, selections: list[dict[str, str]]) -> np.ndarray:
    """1-based rank of each image's designated item: one row per selection,
    one column per image in ``image_ids`` order. Annotation ranks the
    designated caption among the selection's scored designated captions;
    search ranks the image in its designated caption's row. A designated
    caption that could not be scored (it is not a candidate, or is not a
    search query) gets inf, so it misses at every k."""
    images, results, column = rankings.image_ids, rankings.results, rankings.column
    ranks = np.full((len(selections), len(images)), np.inf)
    for run, sel in enumerate(selections):
        if rankings.direction == "annotation":
            present = [i for i, img in enumerate(images) if sel[img] in column]
            pool = np.array([column[sel[images[i]]] for i in present], dtype=np.intp)
            rows = [results[images[i]][pool] for i in present]
            id_rank, targets = rankings.id_rank[pool], range(len(pool))
        else:
            present = [i for i, img in enumerate(images) if sel[img] in results]
            rows = [results[sel[images[i]]] for i in present]
            id_rank, targets = rankings.id_rank, [column[images[i]] for i in present]
        if present:
            ranks[run, present] = _count_ranks(np.array(rows), id_rank, targets)
    return ranks


def _selections(images: list[str], rnd_seed: int) -> list[dict[str, str]]:
    """The designated caption of every image, one selection per run: rnd_txt's
    seeded draw, then avg_txt's five runs, caption #j of every image in run j."""
    rng = random.Random(rnd_seed)
    picks = [[rng.randrange(CAPTIONS_PER_IMAGE) for _ in images]]
    picks += [[j] * len(images) for j in range(CAPTIONS_PER_IMAGE)]
    return [{img: caption_id(img, j) for img, j in zip(images, pick)} for pick in picks]


def _recall(ranks: np.ndarray, k: int) -> float:
    """Hit percentage at k of each run (row), averaged over runs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = ranks.shape[1]
    if n == 0:
        raise ValueError("no queries to evaluate")
    pcts = [100.0 * int(hits) / n for hits in np.count_nonzero(ranks <= k, axis=1)]
    return sum(pcts) / len(pcts)


def _median_rank(ranks: np.ndarray) -> int:
    """Smallest k at which the runs' recall reaches 50%: the ceil(m/2)-th of
    the m ranks, where a caption that is not a search query counts as the
    worst rank, n."""
    ordered = np.sort(np.minimum(ranks, ranks.shape[1]), axis=None)
    return int(ordered[(len(ordered) + 1) // 2 - 1])


def _r_precision(rankings: RankingSet, own_ranks: list[np.ndarray]) -> float:
    """Mean percentage of an image's captions found in its top R = CAPTIONS_PER_IMAGE
    results, from each image's own-caption ranks in ``image_ids`` order.

    The denominator is always R: a caption that could not be scored is not
    a candidate, so it counts as not found.
    """
    total = 0.0
    for img, ranks in zip(rankings.image_ids, own_ranks):
        if len(ranks) > CAPTIONS_PER_IMAGE:
            raise ValueError(f"image {img!r} has {len(ranks)} captions, expected at most {CAPTIONS_PER_IMAGE}")
        total += 100.0 * int(np.count_nonzero(ranks <= CAPTIONS_PER_IMAGE)) / CAPTIONS_PER_IMAGE
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
    """Every metric of one direction, each rank counted once: R@K of each
    variant, 1st_txt from avg_txt's first run, med r over avg_txt's runs and,
    for annotation, rPrecision from the same own-caption ranks as any_txt."""
    images = rankings.image_ids
    runs = _designated_ranks(rankings, _selections(images, rnd_seed))
    ranks = {"first_txt": runs[1:2], "rnd_txt": runs[:1], "avg_txt": runs[1:]}
    own_ranks = None
    if rankings.direction == "annotation":
        # each image's own captions ranked in its full row, for any_txt and rPrecision
        own_ranks = [_count_ranks(rankings.results[img], rankings.id_rank,
                                  [rankings.column[cid] for cid in rankings.captions_of[img]])
                     for img in images]
        ranks["any_txt"] = np.array([[min(r, default=np.inf) for r in own_ranks]], dtype=float)
    return EvalReport(
        direction=rankings.direction,
        ks=tuple(ks),
        recall={variant: {k: _recall(ranks[variant], k) for k in ks} for variant in ranks},
        med_r=_median_rank(ranks["avg_txt"]),
        r_precision_5=None if own_ranks is None else _r_precision(rankings, own_ranks),
        query_count=len(images),
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
