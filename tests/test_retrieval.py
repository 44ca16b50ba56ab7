"""Retrieval tests: selection against a brute-force oracle, tie rules,
the cached answer index, threshold routing, pool-level accuracy
bookkeeping, and the paper head's known ranking limit."""

import numpy as np
import pytest

from qasim import simnet
from qasim.corpus import CandidatePool
from qasim.retrieval import (
    AnswerIndex,
    RoutingDecision,
    RoutingOutcome,
    evaluate_pool_accuracy,
    feature_rows,
    pool_report,
    route,
    select_answer,
)


@pytest.fixture(scope="module")
def net():
    return simnet.init_network(6, std=0.5, seed=11)


@pytest.fixture(scope="module")
def features():
    rng = np.random.default_rng(7)
    return rng.normal(size=(40, 6)), rng.normal(size=(40, 6))


class TestSelectAnswer:
    def test_matches_scalar_scan(self, net, features):
        qf, af = features
        pool = CandidatePool(question_doc=0, candidates=(3, 9, 14, 2, 30),
                             correct=frozenset({1}))
        best, best_score = select_answer(net, qf[0], pool, af)
        # oracle: score every candidate one at a time, keep first maximum
        oracle = [simnet.score(net, qf[0], af[c]) for c in pool.candidates]
        want = max(range(len(oracle)), key=lambda i: (oracle[i], -i))
        assert best == want
        assert best_score == pytest.approx(oracle[want], abs=1e-12)

    def test_exhaustive_over_random_pools(self, net, features):
        qf, af = features
        rng = np.random.default_rng(3)
        for trial in range(25):
            cands = tuple(rng.choice(40, size=rng.integers(2, 12), replace=False))
            pool = CandidatePool(question_doc=int(rng.integers(0, 40)),
                                 candidates=(tuple(int(c) for c in cands)),
                                 correct=frozenset({0}))
            best, score = select_answer(net, qf[pool.question_doc], pool, af)
            oracle = [simnet.score(net, qf[pool.question_doc], af[c])
                      for c in pool.candidates]
            assert oracle[best] == pytest.approx(max(oracle), abs=1e-12)
            assert all(oracle[i] < oracle[best] + 1e-12 for i in range(best))

    def test_tie_takes_lowest_index(self, net, features):
        qf, af = features
        # distinct doc ids with identical feature rows: exact ties, index 0 wins
        tied = af.copy()
        tied[12] = tied[5]
        tied[30] = tied[5]
        pool = CandidatePool(question_doc=1, candidates=(5, 12, 30),
                             correct=frozenset({2}))
        best, _ = select_answer(net, qf[1], pool, tied)
        assert best == 0

    def test_covariant_under_permutation(self, net, features):
        qf, af = features
        cands = (8, 17, 3, 22, 11)
        pool = CandidatePool(question_doc=2, candidates=cands, correct=frozenset({0}))
        best, score = select_answer(net, qf[2], pool, af)
        perm = (2, 4, 0, 3, 1)
        shuffled = CandidatePool(question_doc=2,
                                 candidates=tuple(cands[i] for i in perm),
                                 correct=frozenset({0}))
        best2, score2 = select_answer(net, qf[2], shuffled, af)
        assert shuffled.candidates[best2] == cands[best]
        assert score2 == pytest.approx(score, abs=1e-12)

    def test_empty_pool_rejected(self, net, features):
        qf, af = features
        pool = CandidatePool.__new__(CandidatePool)
        object.__setattr__(pool, "question_doc", 0)
        object.__setattr__(pool, "candidates", ())
        object.__setattr__(pool, "correct", frozenset())
        with pytest.raises(ValueError):
            select_answer(net, qf[0], pool, af)

    def test_missing_answer_feature_rejected(self, net, features):
        qf, af = features
        pool = CandidatePool(question_doc=0, candidates=(0, 99),
                             correct=frozenset({0}))
        with pytest.raises(ValueError):
            select_answer(net, qf[0], pool, af)


class TestFeatureRows:
    def test_gathers_rows_in_order(self):
        arr = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(feature_rows(arr, [2, 0, 2]), arr[[2, 0, 2]])

    @pytest.mark.parametrize("ids", [[-1], [0, 4], [1, -4]])
    def test_ids_outside_the_array_rejected(self, ids):
        # NumPy alone would wrap -1 and -4 around to existing rows
        with pytest.raises(ValueError, match="no feature vector for doc id"):
            feature_rows(np.zeros((4, 3)), ids)

    def test_non_integer_ids_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            feature_rows(np.zeros((4, 3)), [1.0])


class TestAnswerIndex:
    @pytest.fixture(scope="class")
    def collection(self):
        rng = np.random.default_rng(21)
        net = simnet.init_network(6, std=0.5, seed=4)
        return net, rng.normal(size=(2500, 6)), rng.normal(size=(5, 6))

    def test_matches_brute_force_oracle_on_large_collection(self, collection):
        net, af, qf = collection
        index = AnswerIndex(net, af)
        rng = np.random.default_rng(5)
        candidates = [np.arange(len(af)), rng.permutation(len(af))[:2000]]
        for q in qf:
            for cands in candidates:
                best, best_score = index.select(q, cands)
                oracle = np.array([simnet.score(net, q, af[c]) for c in cands])
                assert best == int(np.argmax(oracle))  # first maximum
                assert best_score == pytest.approx(oracle[best], abs=1e-12)

    def test_matches_select_answer(self, collection):
        net, af, qf = collection
        pool = CandidatePool(question_doc=0, candidates=(40, 7, 1999, 3),
                             correct=frozenset({0}))
        got = AnswerIndex(net, af).select(qf[0], pool.candidates)
        want = select_answer(net, qf[0], pool, af)
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_saturated_probabilities_tie_to_lowest_index(self, collection):
        net, af, qf = collection
        net = net.copy()
        net.b3[0] = 60.0  # sigmoid(u) rounds to exactly 1.0 for every candidate
        index = AnswerIndex(net, af)
        low, high = np.argsort(index.terms)[[0, -1]]
        assert simnet.score(net, qf[0], af[low]) == simnet.score(net, qf[0], af[high]) == 1.0
        # the later candidate has the larger logit, yet the first position wins
        assert index.select(qf[0], [low, high]) == (0, 1.0)
        assert index.select(qf[0], [high, low]) == (0, 1.0)

    @pytest.mark.parametrize("cands", [[3, -1], [-2500], [0, 2500], [10**9]])
    def test_out_of_range_and_negative_ids_rejected(self, collection, cands):
        net, af, qf = collection
        with pytest.raises(ValueError, match="no feature vector for doc id"):
            AnswerIndex(net, af).select(qf[0], cands)

    def test_empty_candidates_rejected(self, collection):
        net, af, qf = collection
        with pytest.raises(ValueError, match="empty"):
            AnswerIndex(net, af).select(qf[0], [])

    def test_one_question_per_call(self, collection):
        net, af, qf = collection
        with pytest.raises(ValueError):
            AnswerIndex(net, af).select(qf[:2], [0, 1])


class TestKnownLimits:
    def test_paper_head_ranks_answers_the_same_for_every_question(self):
        # u = w3[:h2]·T_q(q) + w3[h2:]·T_a(a) + b3 adds one question term to
        # every candidate, so the question cannot change which answer wins.
        rng = np.random.default_rng(8)
        net = simnet.init_network(6, std=0.5, seed=9)
        af = rng.normal(size=(300, 6))
        index = AnswerIndex(net, af)
        winners = {index.select(q, np.arange(len(af)))[0]
                   for q in rng.normal(scale=3.0, size=(200, 6))}
        assert winners == {int(np.argmax(index.terms))}


class TestRoute:
    def test_above_threshold_answers(self):
        decision = route(0.8, 0.7, answer_doc=4)
        assert decision.outcome is RoutingOutcome.ANSWER
        assert decision.answer_doc == 4
        assert decision.confidence == 0.8

    def test_boundary_answers(self):
        assert route(0.7, 0.7, answer_doc=1).outcome is RoutingOutcome.ANSWER

    def test_below_threshold_escalates(self):
        decision = route(0.69, 0.7)
        assert decision.outcome is RoutingOutcome.ESCALATE
        assert decision.answer_doc is None
        assert decision.confidence == 0.69

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.2, 1.5])
    def test_threshold_open_interval(self, threshold):
        with pytest.raises(ValueError):
            route(0.5, threshold)

    def test_monotone_in_score(self):
        # raising the score never flips answer back to escalate
        outcomes = [route(s, 0.5, answer_doc=0).outcome
                    for s in np.linspace(0, 1, 21)]
        flipped = ["".join("A" if o is RoutingOutcome.ANSWER else "E"
                           for o in outcomes)]
        assert flipped[0] == "E" * 10 + "A" * 11

    def test_answer_requires_doc(self):
        with pytest.raises(ValueError):
            RoutingDecision(RoutingOutcome.ANSWER, confidence=0.9)


class TestEvaluatePoolAccuracy:
    def planted_pools(self, net, features, n_pools=20, pool_size=5, seed=0):
        """Pools labeled by what the network itself prefers: accuracy 1."""
        qf, af = features
        rng = np.random.default_rng(seed)
        pools = []
        for q in range(n_pools):
            cands = tuple(int(c) for c in rng.choice(40, size=pool_size, replace=False))
            best, _ = select_answer(net, qf[q % 40], CandidatePool(
                question_doc=q % 40, candidates=cands, correct=frozenset({0})), af)
            pools.append(CandidatePool(question_doc=q % 40, candidates=cands,
                                       correct=frozenset({best})))
        return pools

    def test_perfect_when_gold_is_argmax(self, net, features):
        pools = self.planted_pools(net, features)
        assert evaluate_pool_accuracy(net, pools, features) == 1.0

    def test_zero_when_gold_never_argmax(self, net, features):
        pools = []
        for p in self.planted_pools(net, features):
            wrong = frozenset(range(len(p.candidates))) - p.correct
            pools.append(CandidatePool(p.question_doc, p.candidates,
                                       correct=frozenset({min(wrong)})))
        assert evaluate_pool_accuracy(net, pools, features) == 0.0

    def test_fraction_counts(self, net, features):
        good = self.planted_pools(net, features, n_pools=6)
        bad = []
        for p in self.planted_pools(net, features, n_pools=2, seed=5):
            wrong = frozenset(range(len(p.candidates))) - p.correct
            bad.append(CandidatePool(p.question_doc, p.candidates,
                                     correct=frozenset({min(wrong)})))
        assert evaluate_pool_accuracy(net, good + bad, features) == pytest.approx(6 / 8)

    def test_gold_less_pools_excluded(self, net, features):
        pools = self.planted_pools(net, features, n_pools=4)
        unlabeled = CandidatePool(question_doc=0, candidates=(1, 2, 3),
                                  correct=frozenset())
        with_extra = pools + [unlabeled]
        assert evaluate_pool_accuracy(net, with_extra, features) == 1.0

    def test_all_gold_less_rejected(self, net, features):
        pools = [CandidatePool(question_doc=0, candidates=(1, 2), correct=frozenset())]
        with pytest.raises(ValueError):
            evaluate_pool_accuracy(net, pools, features)

    def test_empty_rejected(self, net, features):
        with pytest.raises(ValueError):
            evaluate_pool_accuracy(net, [], features)

    def test_random_labels_near_chance(self, net, features):
        # gold drawn independently of scores: expect ~1/pool_size top-1
        qf, af = features
        rng = np.random.default_rng(9)
        pool_size = 10
        pools = []
        for q in range(400):
            cands = tuple(int(c) for c in rng.choice(40, size=pool_size, replace=False))
            pools.append(CandidatePool(question_doc=int(rng.integers(0, 40)),
                                       candidates=cands,
                                       correct=frozenset({int(rng.integers(0, pool_size))})))
        acc = evaluate_pool_accuracy(net, pools, features)
        sigma = (0.1 * 0.9 / 400) ** 0.5
        assert abs(acc - 0.1) < 6 * sigma


class TestPoolReport:
    def test_keys_and_counts(self, net, features):
        helper = TestEvaluatePoolAccuracy()
        pools = helper.planted_pools(net, features, n_pools=5)
        pools.append(CandidatePool(question_doc=0, candidates=(1, 2),
                                   correct=frozenset()))
        report = pool_report(net, pools, features, threshold=0.5)
        assert set(report) == {"pool_top1", "pools_scored", "pools_without_gold",
                               "threshold", "answer_rate"}
        assert report["pools_scored"] == 5
        assert report["pools_without_gold"] == 1
        assert report["pool_top1"] == 1.0
        assert report["threshold"] == 0.5

    def test_answer_rate_tracks_threshold(self, net, features):
        helper = TestEvaluatePoolAccuracy()
        pools = helper.planted_pools(net, features, n_pools=30)
        low = pool_report(net, pools, features, threshold=0.01)["answer_rate"]
        high = pool_report(net, pools, features, threshold=0.99)["answer_rate"]
        assert low >= high
        assert low == 1.0  # every winning score clears 0.01 on this fixture

    def test_no_gold_pool_top1_none(self, net, features):
        pools = [CandidatePool(question_doc=0, candidates=(1, 2),
                               correct=frozenset())]
        report = pool_report(net, pools, features, threshold=0.5)
        assert report["pool_top1"] is None
        assert report["pools_scored"] == 0
        assert report["pools_without_gold"] == 1
