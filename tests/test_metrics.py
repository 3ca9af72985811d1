import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crossmodal.metrics as metrics_mod
from crossmodal.corpus import FeatureStore, SplitDataset, generate_synthetic_corpus
from crossmodal.errors import NonFiniteGradientError, ZeroNormError
from crossmodal.metrics import (
    _count_ranks,
    _median_rank,
    bleu,
    build_rankings,
    caption_id,
    cosine_scores,
    evaluate_rankings,
    lexicographic_rank,
    rouge,
)
from crossmodal.nets import NetSpec, forward, init_net
from crossmodal.ranker import RetrievalDataset, ScoreModel, cosine_score
from crossmodal.text import build_vocabulary

from oracles import (
    oracle_bleu,
    oracle_median_rank,
    oracle_orderings,
    oracle_r_precision,
    oracle_rank,
    oracle_recall,
    oracle_rouge,
    oracle_single_run,
    random_ranking_set,
    ranking_set_from_orders,
)


def counted_ranks(scores, ids):
    """The counted rank of every column in every row of ``scores``, one row
    of ranks per row of scores."""
    id_rank = lexicographic_rank(ids)
    return np.array([_count_ranks(row, id_rank, range(len(ids))) for row in scores])


def oracle_positions(expected, ids):
    """The 1-based position of each of ``ids`` in the ordered id list ``expected``."""
    position = {cid: p for p, cid in enumerate(expected, 1)}
    return [position[cid] for cid in ids]


class TestRecallAtK:
    def test_known_ranks(self):
        # 4 queries, target at ranks 1, 3, 7, 12 in a single-relevant run
        image_ids = [f"i{x}" for x in range(12)]
        captions_of = {img: [caption_id(img, j) for j in range(5)] for img in image_ids}
        results = {}
        ranks = {"i0": 1, "i1": 3, "i2": 7, "i3": 12}
        for img in image_ids:
            pool = [caption_id(other, 0) for other in image_ids]
            target = caption_id(img, 0)
            pool.remove(target)
            r = ranks.get(img, 1)
            pool.insert(r - 1, target)
            # pad with every image's remaining captions at the tail
            results[img] = pool + [caption_id(other, j) for other in image_ids for j in range(1, 5)]
        rankings = ranking_set_from_orders("annotation", results, image_ids, captions_of)
        got = evaluate_rankings(rankings, (5,)).recall["first_txt"][5]
        # i0, i1 hit within top 5; i2, i3 miss; remaining 8 images hit at rank 1
        assert got == pytest.approx(100.0 * 10 / 12)

    def test_k_at_pool_size_saturates(self):
        rng = random.Random(0)
        rankings = random_ranking_set(rng, "annotation", n_images=6)
        recall = evaluate_rankings(rankings, (6, 30)).recall
        assert recall["first_txt"][6] == 100.0
        assert recall["any_txt"][30] == 100.0

    def test_tied_scores_make_avg_equal_first(self):
        # same candidate order in every run implies identical hit sets per run
        image_ids = ["a", "b", "c"]
        captions_of = {img: [caption_id(img, j) for j in range(5)] for img in image_ids}
        results = {}
        for img in image_ids:
            ordered = []
            for other in sorted(image_ids, key=lambda x: (x != img, x)):
                ordered.extend(captions_of[other])
            results[img] = ordered
        rankings = ranking_set_from_orders("annotation", results, image_ids, captions_of)
        recall = evaluate_rankings(rankings, (1, 2, 3)).recall
        assert recall["avg_txt"] == recall["first_txt"]

    def test_monotone_in_k(self):
        rng = random.Random(2)
        for direction in ("annotation", "search"):
            for _ in range(20):
                rankings = random_ranking_set(rng, direction)
                report = evaluate_rankings(rankings, tuple(range(1, 12)), rnd_seed=7)
                assert len(report.recall) == (4 if direction == "annotation" else 3)
                for by_k in report.recall.values():
                    values = list(by_k.values())
                    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_avg_bounded_below_by_worst_run(self):
        rng = random.Random(3)
        for _ in range(20):
            rankings = random_ranking_set(rng, "annotation")
            recall = evaluate_rankings(rankings, (1, 3, 5)).recall["avg_txt"]
            for k in (1, 3, 5):
                runs = []
                for j in range(5):
                    sel = {img: caption_id(img, j) for img in rankings.image_ids}
                    runs.append(oracle_single_run(oracle_orderings(rankings), rankings.image_ids, sel,
                                                  k, "annotation"))
                assert recall[k] >= min(runs) - 1e-12


class TestMedianRank:
    def test_rank_multiset_examples(self):
        # one row per run, one column per query; a rank past n counts as n
        assert _median_rank(np.array([[3, 1, 2]])) == 2
        assert _median_rank(np.array([[1, 1], [1, 1]])) == 1
        assert _median_rank(np.array([[4, 4, 1, 1]])) == 1  # the 50% boundary is inclusive
        assert _median_rank(np.array([[1, np.inf, np.inf], [2, 2, np.inf]])) == 2
        assert _median_rank(np.array([[np.inf, np.inf, 1]])) == 3

    def test_examples(self):
        # build a search ranking set with known flattened avg_txt ranks
        def from_ranks(ranks):
            n = len(ranks) // 5
            image_ids = [f"i{x}" for x in range(n)]
            captions_of = {img: [caption_id(img, j) for j in range(5)] for img in image_ids}
            results = {}
            it = iter(ranks)
            for j in range(5):
                for img in image_ids:
                    pool = [x for x in image_ids if x != img]
                    pool.insert(next(it) - 1, img)
                    results[caption_id(img, j)] = pool
            return ranking_set_from_orders("search", results, image_ids, captions_of)

        # [1,2,9,10] over 4 ranks needs pool >= 10; use 2 images x 5 runs = 10 ranks
        rankings = from_ranks([1, 2, 2, 1, 1, 2, 1, 2, 1, 2])
        assert evaluate_rankings(rankings).med_r == 1
        rankings = from_ranks([2, 2, 2, 2, 2, 2, 2, 2, 1, 1])
        assert evaluate_rankings(rankings).med_r == 2

    def test_all_rank_one(self):
        rng = random.Random(4)
        rankings = random_ranking_set(rng, "search", n_images=4)
        orders = {}
        for cid in rankings.results:
            img = cid.rsplit("#", 1)[0]
            orders[cid] = [img] + [x for x in rankings.image_ids if x != img]
        rankings = ranking_set_from_orders("search", orders, rankings.image_ids, rankings.captions_of)
        assert evaluate_rankings(rankings).med_r == 1

    def test_exact_fifty_percent_boundary(self):
        # two runs at rank 5, two at rank 1: half the mass at or below 1? no:
        # ranks [1,1,5,5] -> k=1 covers 50% already
        image_ids = ["a", "b"]
        captions_of = {img: [caption_id(img, j) for j in range(5)] for img in image_ids}
        results = {}
        for j in range(5):
            for img in image_ids:
                other = "b" if img == "a" else "a"
                results[caption_id(img, j)] = [img, other] if j < 3 else [other, img]
        rankings = ranking_set_from_orders("search", results, image_ids, captions_of)
        assert evaluate_rankings(rankings).med_r == 1

    def test_consistency_property(self):
        rng = random.Random(5)
        for direction in ("annotation", "search"):
            for _ in range(15):
                rankings = random_ranking_set(rng, direction)
                med = evaluate_rankings(rankings).med_r
                recall = evaluate_rankings(rankings, tuple(range(1, med + 1))).recall["avg_txt"]
                assert recall[med] >= 50.0
                if med > 1:
                    assert recall[med - 1] < 50.0


class TestRPrecision:
    def test_perfect_retrieval(self):
        image_ids = ["a", "b"]
        captions_of = {img: [caption_id(img, j) for j in range(5)] for img in image_ids}
        results = {
            img: captions_of[img] + captions_of["b" if img == "a" else "a"] for img in image_ids
        }
        rankings = ranking_set_from_orders("annotation", results, image_ids, captions_of)
        assert evaluate_rankings(rankings).r_precision_5 == 100.0

    def test_single_hit_per_query(self):
        image_ids = ["a", "b"]
        captions_of = {img: [caption_id(img, j) for j in range(5)] for img in image_ids}
        results = {}
        for img in image_ids:
            other = "b" if img == "a" else "a"
            results[img] = [captions_of[img][0]] + captions_of[other] + captions_of[img][1:]
        rankings = ranking_set_from_orders("annotation", results, image_ids, captions_of)
        assert evaluate_rankings(rankings).r_precision_5 == 20.0

    def test_mixed_queries_average(self):
        image_ids = ["a", "b"]
        captions_of = {img: [caption_id(img, j) for j in range(5)] for img in image_ids}
        results = {
            "a": captions_of["a"] + captions_of["b"],  # all 5 in top 5
            "b": captions_of["a"] + captions_of["b"],  # none in top 5
        }
        rankings = ranking_set_from_orders("annotation", results, image_ids, captions_of)
        assert evaluate_rankings(rankings).r_precision_5 == 50.0


class TestBleuRouge:
    def test_bleu_examples(self):
        assert bleu(list("abc"), [list("abc")]) == 1.0
        assert bleu(list("abc"), [list("xyz")]) == 0.0
        assert bleu(["a", "a", "b"], [["a", "b"]]) == pytest.approx(2 / 3)

    def test_rouge_examples(self):
        assert rouge(list("abc"), [list("abc")]) == 1.0
        assert rouge(list("abc"), [list("xyz")]) == 0.0
        assert rouge(["a"], [["a", "a"], ["b"]]) == pytest.approx(1 / 3)

    def test_errors(self):
        with pytest.raises(ValueError):
            bleu([], [["a"]])
        with pytest.raises(ValueError, match="no references"):
            bleu(["a"], [])
        with pytest.raises(ValueError):
            rouge(["a"], [[], []])

    def test_bounded_fuzz(self):
        rng = random.Random(7)
        alphabet = list("abcde")
        for _ in range(200):
            cand = rng.choices(alphabet, k=rng.randint(1, 10))
            refs = [rng.choices(alphabet, k=rng.randint(1, 10)) for _ in range(rng.randint(1, 4))]
            b = bleu(cand, refs)
            r = rouge(cand, refs)
            assert 0.0 <= b <= 1.0 and 0.0 <= r <= 1.0


class TestOracleEquivalence:
    def test_fifty_random_instances_exact(self):
        rng = random.Random(8)
        for i in range(50):
            direction = "annotation" if i % 2 == 0 else "search"
            rankings = random_ranking_set(rng, direction)
            seed = rng.randrange(1000)
            report = evaluate_rankings(rankings, (1, 2, 5, 10), seed)
            assert len(report.recall) == (4 if direction == "annotation" else 3)
            for variant, by_k in report.recall.items():
                for k, pct in by_k.items():
                    assert pct == oracle_recall(rankings, k, variant, seed), (variant, k)
            assert report.med_r == oracle_median_rank(rankings)
            if direction == "annotation":
                assert report.r_precision_5 == oracle_r_precision(rankings)

    def test_unscoreable_captions_against_oracle(self):
        """A caption that could not be scored is in no ranking: as a designated
        caption it misses at every k, and rPrecision still divides by 5."""
        rng = random.Random(10)
        for _ in range(30):
            rankings = random_ranking_set(rng, "annotation")
            # at most one per image, so avg_txt recall can still reach 50%
            dropped = {rng.choice(rankings.captions_of[img]) for img in rankings.image_ids
                       if rng.random() < 0.5}
            orders = {img: [c for c in order if c not in dropped]
                      for img, order in oracle_orderings(rankings).items()}
            captions_of = {img: [c for c in caps if c not in dropped]
                           for img, caps in rankings.captions_of.items()}
            rankings = ranking_set_from_orders("annotation", orders, rankings.image_ids, captions_of)
            seed = rng.randrange(1000)
            report = evaluate_rankings(rankings, (1, 2, 5, 10), seed)
            for variant, by_k in report.recall.items():
                for k, pct in by_k.items():
                    assert pct == oracle_recall(rankings, k, variant, seed), (variant, k)
            assert report.med_r == oracle_median_rank(rankings)
            assert report.r_precision_5 == oracle_r_precision(rankings)

    def test_bleu_rouge_against_oracle(self):
        rng = random.Random(9)
        alphabet = list("abcdef")
        for _ in range(100):
            cand = rng.choices(alphabet, k=rng.randint(1, 12))
            refs = [rng.choices(alphabet, k=rng.randint(1, 12)) for _ in range(rng.randint(1, 5))]
            assert bleu(cand, refs) == oracle_bleu(cand, refs)
            assert rouge(cand, refs) == oracle_rouge(cand, refs)


class TestRankCandidates:
    @staticmethod
    def toy_model_and_data(seed=0, noise=0.0, images_per_cluster=2, unencodable=()):
        """Untrained nets on a three-cluster corpus whose captions all form the
        test split; the captions named in ``unencodable`` have no in-vocabulary term."""
        images, captions = generate_synthetic_corpus(3, images_per_cluster, 8, 6, noise, seed=seed)
        store = FeatureStore(images, 8)
        vocab = build_vocabulary(captions, "unigram", 500)
        for cap in captions:
            if caption_id(cap.image_id, cap.caption_index) in unencodable:
                cap.text = "zzz"
        split = SplitDataset(set(), set(), {r.image_id for r in images}, seed=0)
        data = RetrievalDataset(store, captions, split, vocab)
        model = ScoreModel(
            textual_net=init_net(NetSpec("bag", vocab.size, 8), seed),
            visual_net=init_net(NetSpec("bag", 8, 8), seed + 1),
        )
        return model, data, store, vocab

    def test_singleton_pool(self):
        model, data, store, vocab = self.toy_model_and_data()
        query = forward(model.visual_net, store.get("c0img000"))[0]
        cand = forward(model.textual_net, data.encoding("c0img000", 0))[0]
        scores = cosine_scores(query[None], cand[None])
        assert scores.shape == (1, 1)
        assert scores[0, 0] == pytest.approx(cosine_score(query, cand), abs=1e-12)
        assert counted_ranks(scores, ["c0img000#0"]).tolist() == [[1]]

    def test_pairwise_matches_batched(self):
        for seed in range(5):
            model, data, store, vocab = self.toy_model_and_data(seed=seed, noise=0.2)
            annotation, search = build_rankings(model, data)
            view = data.view("test")
            caps = [
                (f"{img}#{idx}", forward(model.textual_net, data.encoding(img, idx))[0])
                for img, idx in view.pairs
            ]
            imgs = [(img, forward(model.visual_net, store.get(img))[0]) for img in view.image_ids]
            assert annotation.cand_ids == [cid for cid, _ in caps]
            assert search.cand_ids == view.image_ids and list(search.results) == annotation.cand_ids
            for rankings, queries, pool in ((annotation, imgs, caps), (search, caps, imgs)):
                for qid, emb in queries:
                    ranks = counted_ranks([rankings.results[qid]], rankings.cand_ids)[0]
                    assert ranks.tolist() == oracle_positions(oracle_rank(emb, pool), rankings.cand_ids)

    def test_zero_norm_caption_ranks_last_and_is_not_a_query(self):
        model, data, store, vocab = self.toy_model_and_data()
        # every term of caption c0img000#0 embeds to zero and the net has no bias
        model.textual_net.params["b0"][:] = 0.0
        model.textual_net.params["w0"][data.encoding("c0img000", 0).indices] = 0.0
        caps = [(f"{i}#{j}", forward(model.textual_net, data.encoding(i, j))[0])
                for i, j in data.view("test").pairs]
        zero = {cid for cid, emb in caps if not np.any(emb)}
        assert "c0img000#0" in zero
        annotation, search = build_rankings(model, data)
        for img, row in annotation.results.items():
            expected = oracle_rank(forward(model.visual_net, store.get(img))[0], caps)
            assert set(expected[-len(zero):]) == zero
            ranks = counted_ranks([row], annotation.cand_ids)[0]
            assert ranks.tolist() == oracle_positions(expected, annotation.cand_ids)
        assert zero.isdisjoint(search.results)
        assert len(search.results) == len(data.view("test").pairs) - len(zero)

    def test_build_and_evaluate_against_oracles(self):
        """Every metric counted off ``build_rankings``' scores equals the
        oracles', with a designated caption that has no in-vocabulary term and
        captions that embed to zero, which tie at -inf."""
        model, data, store, vocab = self.toy_model_and_data(
            seed=3, noise=0.3, images_per_cluster=4, unencodable={"c1img002#0"})
        model.textual_net.params["b0"][:] = 0.0
        model.textual_net.params["w0"][data.encoding("c2img001", 3).indices] = 0.0
        annotation, search = build_rankings(model, data)
        assert data.view("test").unencodable == 1 and "c1img002#0" not in annotation.cand_ids
        row = annotation.results["c0img000"]
        zero = {cid for cid, score in zip(annotation.cand_ids, row) if score == -np.inf}
        assert "c2img001#3" in zero and zero.isdisjoint(search.results)
        for seed in range(3):
            for rankings in (annotation, search):
                report = evaluate_rankings(rankings, (1, 2, 5, 10), seed)
                for variant, by_k in report.recall.items():
                    for k, pct in by_k.items():
                        assert pct == oracle_recall(rankings, k, variant, seed), (variant, k)
                assert report.med_r == oracle_median_rank(rankings)
                if rankings.direction == "annotation":
                    assert report.r_precision_5 == oracle_r_precision(rankings)

    def test_own_caption_ranks_counted_once(self, monkeypatch):
        """An annotation report counts each image's own-caption ranks, one row
        per image, once for any_txt and rPrecision both."""
        model, data, store, vocab = self.toy_model_and_data(seed=1, noise=0.2)
        annotation, _ = build_rankings(model, data)
        rows = []
        monkeypatch.setattr(metrics_mod, "_count_ranks",
                            lambda scores, *rest: rows.append(np.ndim(scores)) or _count_ranks(scores, *rest))
        report = evaluate_rankings(annotation)
        assert rows.count(1) == len(annotation.image_ids) == 6
        assert report.r_precision_5 == oracle_r_precision(annotation)

    def test_oracle_model_ranks_own_cluster_first(self):
        model, data, store, vocab = self.toy_model_and_data()
        n_emb = store.feature_dim
        model = ScoreModel(
            textual_net=init_net(NetSpec("bag", vocab.size, n_emb), 0),
            visual_net=init_net(NetSpec("bag", store.feature_dim, n_emb), 1),
        )
        model.visual_net.params["w0"][:] = np.eye(store.feature_dim)
        model.visual_net.params["b0"][:] = 0.0
        model.textual_net.params["b0"][:] = 0.0
        for term, idx in vocab.term_to_index.items():
            model.textual_net.params["w0"][idx] = store.get(f"{term.split('w')[0]}img000")
        annotation, _ = build_rankings(model, data)
        own_cluster = 10  # 2 images x 5 captions per cluster
        for img, row in annotation.results.items():
            ranks = counted_ranks([row], annotation.cand_ids)[0]
            top = [cid for cid, rank in zip(annotation.cand_ids, ranks) if rank <= own_cluster]
            assert len(top) == own_cluster and all(cid[:2] == img[:2] for cid in top)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            cosine_scores(np.ones((1, 3)), np.empty((0, 3)))

    def test_zero_norm_query_rejected(self):
        model, data, store, vocab = self.toy_model_and_data()
        for p in model.visual_net.params.values():
            p[:] = 0.0
        query = forward(model.visual_net, store.get("c0img000"))[0]
        cand = forward(model.textual_net, data.encoding("c0img000", 0))[0]
        with pytest.raises(ZeroNormError):
            cosine_scores(query[None], cand[None])

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_queries=st.integers(1, 4),
        n_distinct=st.integers(1, 10),
        n_copies=st.integers(0, 4),
        n_zero=st.integers(0, 3),
        dim=st.integers(1, 6),
    )
    def test_kernel_matches_pairwise_oracle(self, seed, n_queries, n_distinct, n_copies, n_zero, dim):
        """Every counted rank lies in its oracle position's block of scores
        within 1e-12 of each other; exact ties rank in id order and zero-norm
        candidates last."""
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(n_queries, dim))
        distinct = rng.normal(size=(n_distinct, dim))
        rows = np.concatenate([
            distinct,
            distinct[rng.integers(0, n_distinct, size=n_copies)],  # exact ties
            np.zeros((n_zero, dim)),
        ])
        n_scored = len(rows) - n_zero
        # ids in an order unrelated to the rows, so ties really test id order
        ids = [f"c{x:02d}" for x in rng.permutation(len(rows))]
        pool = list(zip(ids, rows))
        scores = cosine_scores(queries, rows)
        ranks = counted_ranks(scores, ids)
        for q, query in enumerate(queries):
            score_of = {cid: cosine_score(query, emb) if np.any(emb) else -np.inf for cid, emb in pool}
            rank_of = dict(zip(ids, ranks[q].tolist()))
            expected = oracle_rank(query, pool)
            # cut the oracle order wherever adjacent pairwise scores differ by more than 1e-12
            cuts = [0] + [
                i for i in range(1, len(expected))
                if score_of[expected[i - 1]] - score_of[expected[i]] > 1e-12
            ] + [len(expected)]
            for a, b in zip(cuts, cuts[1:]):
                block = expected[a:b]
                assert sorted(rank_of[cid] for cid in block) == list(range(a + 1, b + 1))
                for i, first in enumerate(block):
                    for later in block[i + 1:]:
                        if score_of[first] == score_of[later]:
                            assert rank_of[first] < rank_of[later]  # exact ties in id order
            zero_ids = sorted(ids[n_scored:])
            assert [rank_of[cid] for cid in zero_ids] == list(range(n_scored + 1, len(rows) + 1))
            assert np.all(scores[q, n_scored:] == -np.inf)
            assert np.all(np.abs(scores[q, :n_scored] - [score_of[c] for c in ids[:n_scored]]) <= 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(1, 300), data=st.data())
    def test_kernel_follows_the_pairwise_rule(self, dim, data):
        """From 1e-200 to 1e200, where squared norms and their products
        underflow and overflow: the kernel refuses a non-finite pair exactly
        when ``cosine_score`` does, scores -inf exactly the pairs it refuses as
        zero-norm, and agrees with it on the rest."""
        def embeddings(n):
            seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n))
            scales = data.draw(st.lists(st.sampled_from([0.0] + [10.0 ** e for e in range(-200, 201)]),
                                        min_size=n, max_size=n))
            return np.array([np.random.default_rng(seed).normal(size=dim) * scale
                             for seed, scale in zip(seeds, scales)])

        def pairwise(query, cand):
            try:
                return cosine_score(query, cand)
            except ZeroNormError:
                return -np.inf
            except NonFiniteGradientError:
                return None

        def squared_norm(emb):
            with np.errstate(over="ignore"):
                return np.dot(emb, emb)

        queries = [q for q in embeddings(data.draw(st.integers(1, 3))) if squared_norm(q) != 0.0]
        cands = embeddings(data.draw(st.integers(1, 4)))
        if not queries:
            return
        expected = [[pairwise(q, c) for c in cands] for q in queries]
        if any(s is None for row in expected for s in row):
            with pytest.raises(NonFiniteGradientError):
                cosine_scores(np.array(queries), cands)
            return
        scores, expected = cosine_scores(np.array(queries), cands), np.array(expected)
        np.testing.assert_array_equal(scores == -np.inf, expected == -np.inf)
        normal = np.finfo(float).tiny
        for q, query in enumerate(queries):
            for c, cand in enumerate(cands):
                if min(squared_norm(query), squared_norm(cand)) >= normal and expected[q, c] > -np.inf:
                    assert abs(scores[q, c] - expected[q, c]) <= 1e-12


class TestEvalReport:
    def test_variants_per_direction(self):
        rng = random.Random(10)
        ann = evaluate_rankings(random_ranking_set(rng, "annotation"))
        srch = evaluate_rankings(random_ranking_set(rng, "search"))
        assert set(ann.recall) == {"first_txt", "rnd_txt", "avg_txt", "any_txt"}
        assert set(srch.recall) == {"first_txt", "rnd_txt", "avg_txt"}
        assert ann.r_precision_5 is not None
        assert srch.r_precision_5 is None

    @pytest.mark.parametrize("images, captions, ks, message", [
        (["a", "b"], 5, (0,), "k must be >= 1"),
        ([], 5, (1,), "no queries to evaluate"),
        (["a", "b"], 6, (1,), "image 'a' has 6 captions, expected at most 5"),
    ], ids=["k_below_1", "no_queries", "six_captions_for_an_image"])
    def test_refused(self, images, captions, ks, message):
        captions_of = {img: [caption_id(img, j) for j in range(captions)] for img in images}
        order = [cid for img in images for cid in captions_of[img]]
        rankings = ranking_set_from_orders("annotation", dict.fromkeys(images, order), images, captions_of)
        with pytest.raises(ValueError, match=message):
            evaluate_rankings(rankings, ks=ks)
