"""Reference implementations kept independent of the library code paths:
brute-force metric oracles (literal nested-loop re-implementations of the
metric definitions), the two-branch triplet gradient the trainer's single
anchor/candidate path replaced, and the pair-by-pair ranking loop the
batched cosine kernel replaced."""

import itertools
import random

from crossmodal.errors import ZeroNormError
from crossmodal.metrics import RankingSet, caption_id
from crossmodal.nets import accumulate, backward, forward
from crossmodal.ranker import cosine_backward, cosine_score, margin_loss


def oracle_triplet_grads(model, pos_image_vec, pos_enc, neg_image_vec, neg_enc, methodology, margin):
    """Hand-mirrored I2T and T2I branches; same contract as ranker.triplet_grads."""
    if methodology == "I2T":
        v_img, tape_img = forward(model.visual_net, pos_image_vec)
        v_pos, tape_pos = forward(model.textual_net, pos_enc)
        v_neg, tape_neg = forward(model.textual_net, neg_enc)
        s_pos = cosine_score(v_img, v_pos)
        s_neg = cosine_score(v_img, v_neg)
        loss, d_pos, d_neg = margin_loss(s_pos, s_neg, margin)
        if loss == 0.0:
            return loss, s_pos, s_neg, None, None
        g_img_p, g_txt_p = cosine_backward(v_img, v_pos, d_pos)
        g_img_n, g_txt_n = cosine_backward(v_img, v_neg, d_neg)
        vgrads, _ = backward(tape_img, g_img_p + g_img_n)
        tgrads, _ = backward(tape_pos, g_txt_p)
        tgrads = accumulate(tgrads, backward(tape_neg, g_txt_n)[0])
        return loss, s_pos, s_neg, tgrads, vgrads
    v_txt, tape_txt = forward(model.textual_net, pos_enc)
    v_pos, tape_pos = forward(model.visual_net, pos_image_vec)
    v_neg, tape_neg = forward(model.visual_net, neg_image_vec)
    s_pos = cosine_score(v_pos, v_txt)
    s_neg = cosine_score(v_neg, v_txt)
    loss, d_pos, d_neg = margin_loss(s_pos, s_neg, margin)
    if loss == 0.0:
        return loss, s_pos, s_neg, None, None
    g_img_p, g_txt_p = cosine_backward(v_pos, v_txt, d_pos)
    g_img_n, g_txt_n = cosine_backward(v_neg, v_txt, d_neg)
    tgrads, _ = backward(tape_txt, g_txt_p + g_txt_n)
    vgrads, _ = backward(tape_pos, g_img_p)
    vgrads = accumulate(vgrads, backward(tape_neg, g_img_n)[0])
    return loss, s_pos, s_neg, tgrads, vgrads


def oracle_rank(query, candidates):
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


def oracle_single_run(results, image_ids, selection, k, direction):
    hits = 0
    for img in image_ids:
        if direction == "annotation":
            pool = [cid for cid in selection.values()]
            in_pool_order = []
            for cid in results[img]:
                if cid in pool:
                    in_pool_order.append(cid)
            if selection[img] in in_pool_order[:k]:
                hits += 1
        else:
            qid = selection[img]
            if qid in results and img in results[qid][:k]:
                hits += 1
    return 100.0 * hits / len(image_ids)


def oracle_recall(rankings, k, variant, rnd_seed=0):
    results, image_ids = rankings.results, rankings.image_ids
    if variant == "any_txt":
        hits = 0
        for img in image_ids:
            found = False
            for cid in rankings.captions_of[img]:
                if cid in results[img][:k]:
                    found = True
            hits += found
        return 100.0 * hits / len(image_ids)
    if variant == "first_txt":
        sels = [{img: caption_id(img, 0) for img in image_ids}]
    elif variant == "rnd_txt":
        rng = random.Random(rnd_seed)
        sels = [{img: caption_id(img, rng.randrange(5)) for img in image_ids}]
    else:
        sels = [{img: caption_id(img, j) for img in image_ids} for j in range(5)]
    pcts = [oracle_single_run(results, image_ids, sel, k, rankings.direction) for sel in sels]
    return sum(pcts) / len(pcts)


def oracle_median_rank(rankings):
    # scan k upward until avg_txt recall reaches half
    for k in itertools.count(1):
        if oracle_recall(rankings, k, "avg_txt") >= 50.0:
            return k


def oracle_r_precision(rankings):
    total = 0.0
    for img in rankings.image_ids:
        own = rankings.captions_of[img]
        found = 0
        for cid in rankings.results[img][:5]:
            if cid in own:
                found += 1
        total += 100.0 * found / 5
    return total / len(rankings.image_ids)


def oracle_bleu(candidate, references):
    total = 0
    for word in set(candidate):
        clip = 0
        for ref in references:
            clip = max(clip, sum(1 for w in ref if w == word))
        total += min(sum(1 for w in candidate if w == word), clip)
    return total / len(candidate)


def oracle_rouge(candidate, references):
    num = 0
    den = 0
    for ref in references:
        den += len(ref)
        for word in set(ref):
            num += min(
                sum(1 for w in candidate if w == word),
                sum(1 for w in ref if w == word),
            )
    return num / den


def random_ranking_set(rng, direction, n_images=None):
    n = n_images or rng.randint(2, 20)
    image_ids = [f"i{x:03d}" for x in range(n)]
    captions_of = {img: [caption_id(img, j) for j in range(5)] for img in image_ids}
    all_caps = [cid for img in image_ids for cid in captions_of[img]]
    results = {}
    if direction == "annotation":
        for img in image_ids:
            perm = all_caps[:]
            rng.shuffle(perm)
            results[img] = perm
    else:
        for cid in all_caps:
            perm = image_ids[:]
            rng.shuffle(perm)
            results[cid] = perm
    return RankingSet(direction, results, image_ids, captions_of)
