"""Answer selection over candidate pools and confidence-threshold routing.

The best candidate is the one the similarity network scores highest; the
answer is returned to the user only when that score clears a threshold,
otherwise the question escalates to a human agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import simnet
from .corpus import CandidatePool
from .simnet import SimilarityNetwork


class RoutingOutcome(str, Enum):
    ANSWER = "answer"
    ESCALATE = "escalate"


@dataclass(frozen=True)
class RoutingDecision:
    outcome: RoutingOutcome
    confidence: float
    answer_doc: int | None = None

    def __post_init__(self):
        if self.outcome is RoutingOutcome.ANSWER and self.answer_doc is None:
            raise ValueError("an answered decision must carry the answer doc id")


def feature_rows(features: np.ndarray, doc_ids) -> np.ndarray:
    """Rows `doc_ids` of a per-doc array (feature vectors or head terms).
    An id outside [0, docs) raises ValueError; NumPy would wrap a negative
    one around to the last rows."""
    ids = np.asarray(doc_ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"doc ids must be integers, got {ids.dtype}")
    bad = ids[(ids < 0) | (ids >= len(features))]
    if bad.size:
        raise ValueError(f"no feature vector for doc id {bad[0]}")
    return features[ids.astype(np.intp, copy=False)]


class AnswerIndex:
    """Answer-side head terms of one answer collection, computed once.

    The head is u = w3[:h2]·T_q(q) + w3[h2:]·T_a(a) + b3 and the answer
    tower never sees the question, so a question costs one question-tower
    row plus a gather over the cached terms.
    """

    def __init__(self, net: SimilarityNetwork, a_features: np.ndarray):
        self.net = net
        self.terms = simnet.head_terms(net, a_features, "a")

    def select(self, q_vector: np.ndarray, candidates) -> tuple[int, float]:
        """Position in `candidates` (answer doc ids) of the most probable
        answer, and its probability.  Ties, including probabilities that
        saturate to 1.0, take the lowest position."""
        if np.ndim(q_vector) != 1:
            raise ValueError("select takes one question vector")
        a_terms = feature_rows(self.terms, candidates)
        if not a_terms.size:
            raise ValueError("candidate pool is empty")
        q_term = simnet.head_terms(self.net, q_vector, "q")
        scores = simnet.probabilities(self.net, q_term, a_terms)
        best = int(np.argmax(scores))  # argmax returns the first maximum
        return best, float(scores[best])


def check_threshold(threshold: float) -> float:
    """The routing threshold, if it lies in (0, 1); else a ValueError."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    return threshold


def route(score: float, threshold: float, answer_doc: int | None = None) -> RoutingDecision:
    """Answer when score >= threshold (boundary answers), else escalate."""
    check_threshold(threshold)
    if score >= threshold:
        return RoutingDecision(RoutingOutcome.ANSWER, confidence=score, answer_doc=answer_doc)
    return RoutingDecision(RoutingOutcome.ESCALATE, confidence=score)


def pool_top1(pools: list[CandidatePool], picks) -> float | None:
    """Top-1 accuracy of `picks`, each pool's chosen candidate position:
    hits over the pools that have a gold answer, or None when none has."""
    hits = [pick in pool.correct for pool, pick in zip(pools, picks) if pool.correct]
    return sum(hits) / len(hits) if hits else None


def evaluate_pool_accuracy(net: SimilarityNetwork, pools: list[CandidatePool],
                           features) -> float:
    """Top-1 accuracy over pools that have a gold answer.

    Pools whose `correct` set is empty do not enter the denominator;
    `pool_report` counts them separately.
    """
    top1 = pool_report(net, pools, features)["pool_top1"]
    if top1 is None:
        raise ValueError("no pool has a correct answer to score against")
    return top1


def pool_report(net: SimilarityNetwork, pools: list[CandidatePool], features,
                threshold: float = 0.7) -> dict:
    """Selection metrics over a pool set as one JSON-ready dict.

    answer_rate is the fraction of all pools whose winning score clears
    the routing threshold.
    """
    if not pools:
        raise ValueError("pools must be non-empty")
    q_features, a_features = features
    index = AnswerIndex(net, a_features)
    q_rows = feature_rows(q_features, [pool.question_doc for pool in pools])
    # (position, probability) of each pool's winner
    picks = [index.select(q_vector, pool.candidates) for pool, q_vector in zip(pools, q_rows)]
    scored = sum(1 for pool in pools if pool.correct)
    answered = sum(route(score, threshold, answer_doc=pool.candidates[best]).outcome
                   is RoutingOutcome.ANSWER for pool, (best, score) in zip(pools, picks))
    return {
        "pool_top1": pool_top1(pools, [best for best, _ in picks]),
        "pools_scored": scored,
        "pools_without_gold": len(pools) - scored,
        "threshold": threshold,
        "answer_rate": answered / len(pools),
    }
