"""Tokenization, vocabulary, encoding, pool and pair-sampling tests."""

import collections
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasim import corpus
from qasim.corpus import (
    CandidatePool,
    QAPair,
    LF_TOKEN,
    NUM_TOKEN,
    build_vocabulary,
    encode,
    encode_corpus,
    sample_pairs,
    tokenize,
)


class TestTokenize:
    def test_question_mark_stripped(self):
        assert tokenize("When was Mozart born?") == ["when", "was", "mozart", "born"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_currency_token_preserved(self):
        # "$" is a symbol, not punctuation; the digit mapping happens at encode
        assert tokenize("I paid $30.50 today") == ["i", "paid", "$30.50", "today"]

    def test_interior_punctuation_kept(self):
        assert tokenize("it's a mother-in-law") == ["it's", "a", "mother-in-law"]

    def test_all_punctuation_token_dropped(self):
        assert tokenize("yes -- no") == ["yes", "no"]

    def test_whitespace_only(self):
        assert tokenize(" \t \n ") == []

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_tokens_never_contain_whitespace_and_are_lowercase(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert not any(ch.isspace() for ch in token)
            assert token  # never empty


class TestBuildVocabulary:
    def test_threshold_excludes_rare_tokens(self):
        vocab = build_vocabulary([["a", "a", "b"]], min_count=2)
        assert len(vocab) == 3
        assert "a" in vocab.token_to_id
        assert "b" not in vocab.token_to_id

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocabulary([["a", "b"], ["a", "b"]], min_count=1)
        assert len(vocab) == 4
        assert vocab.token_to_id["a"] == 0
        assert vocab.token_to_id["b"] == 1

    def test_descending_frequency_ids(self):
        vocab = build_vocabulary([["z", "z", "z", "m", "m", "k"]], min_count=1)
        assert vocab.token_to_id["z"] == 0
        assert vocab.token_to_id["m"] == 1
        assert vocab.token_to_id["k"] == 2

    def test_digit_tokens_never_regular_entries(self):
        vocab = build_vocabulary([["42", "42", "42", "42", "price2"]], min_count=1)
        assert "42" not in vocab.token_to_id
        assert "price2" not in vocab.token_to_id
        assert vocab.frequency[vocab.num_id] == 5

    def test_reserved_symbols_take_highest_ids(self):
        vocab = build_vocabulary([["a", "a"]], min_count=1)
        assert vocab.id_to_token[vocab.lf_id] == LF_TOKEN
        assert vocab.id_to_token[vocab.num_id] == NUM_TOKEN
        assert vocab.num_id == len(vocab) - 1
        assert vocab.lf_id == len(vocab) - 2

    def test_lf_frequency_counts_dropped_tokens(self):
        vocab = build_vocabulary([["a"] * 5 + ["b", "b", "c"]], min_count=5)
        assert vocab.frequency[vocab.lf_id] == 3  # two b's and one c

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary([], min_count=1)

    def test_min_count_below_one_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary([["a"]], min_count=0)

    @given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8),
                    min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_roundtrip_and_threshold_invariants(self, docs):
        vocab = build_vocabulary(docs, min_count=2)
        for token, idx in vocab.token_to_id.items():
            assert vocab.id_to_token[idx] == token
            assert vocab.frequency[idx] >= 2
        # ids dense 0..V-1
        assert sorted(vocab.token_to_id.values()) == list(range(len(vocab) - 2))


class TestEncode:
    def test_digit_tokens_to_num(self):
        vocab = build_vocabulary([["a", "a"]], min_count=1)
        assert encode(["$30.50"], vocab).tokens == [vocab.num_id]

    def test_unknown_tokens_to_lf(self):
        vocab = build_vocabulary([["a", "a"]], min_count=1)
        assert encode(["zzz-rare-word"], vocab).tokens == [vocab.lf_id]

    def test_identity_case(self):
        vocab = build_vocabulary([["a", "b"], ["a", "b"]], min_count=1)
        assert encode(["a", "b"], vocab).tokens == [0, 1]

    def test_encode_corpus_assigns_sequential_doc_ids(self):
        vocab = build_vocabulary([["a", "a"]], min_count=1)
        docs = encode_corpus([["a"], ["a", "a"]], vocab)
        assert [d.doc_id for d in docs] == [0, 1]

    @given(st.lists(st.text(alphabet="ab1 .", min_size=1, max_size=6), max_size=20))
    @settings(max_examples=100)
    def test_ids_always_below_vocab_size(self, doc):
        vocab = build_vocabulary([["a", "b", "a", "b"]], min_count=1)
        encoded = encode(doc, vocab)
        assert all(0 <= t < len(vocab) for t in encoded.tokens)


class TestPoolAndPairTypes:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            QAPair(0, 0, 2)

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(ValueError):
            CandidatePool(0, [1, 1], frozenset())

    def test_correct_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CandidatePool(0, [1, 2], frozenset({5}))

    def test_empty_correct_allowed(self):
        pool = CandidatePool(0, [1, 2])
        assert pool.correct == frozenset()

    @pytest.mark.parametrize("make", [
        lambda: QAPair(-1, 0, 1),
        lambda: QAPair(0, -3, 0),
        lambda: CandidatePool(-1, [0, 1]),
        lambda: CandidatePool(0, [1, -1]),
    ])
    def test_negative_doc_ids_rejected(self, make):
        # NumPy indexing would silently wrap these around to the last rows
        with pytest.raises(ValueError, match="non-negative integers"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: QAPair("0", 1, 1),
        lambda: QAPair(0, 1.0, 1),
        lambda: QAPair(True, 1, 1),
        lambda: CandidatePool(None, [0]),
        lambda: CandidatePool(0, [0, 2.5]),
    ])
    def test_non_integer_doc_ids_rejected(self, make):
        with pytest.raises(ValueError, match="non-negative integers"):
            make()

    def test_numpy_integer_doc_ids_accepted(self):
        pair = QAPair(np.int64(2), np.int32(0), 1)
        assert (pair.question_doc, pair.answer_doc) == (2, 0)
        assert CandidatePool(np.int64(0), [np.int64(3), 1]).candidates[0] == 3


class TestSamplePairs:
    def one_pool(self):
        return [CandidatePool(0, [10, 11], frozenset({0}))]

    def test_counting_example(self):
        pairs = sample_pairs(self.one_pool(), 4, positive_fraction=0.5, seed=1)
        labels = sorted(p.label for p in pairs)
        assert labels == [0, 0, 1, 1]

    def test_rounding_of_positive_count(self):
        # round(5 * 0.5) rounds half to even: 2 positives, 3 negatives
        pairs = sample_pairs(self.one_pool(), 5, positive_fraction=0.5, seed=1)
        assert sum(p.label for p in pairs) == 2

    def test_all_positive_fraction(self):
        pairs = sample_pairs(self.one_pool(), 6, positive_fraction=1.0, seed=0)
        assert all(p.label == 1 for p in pairs)

    def test_all_negative_fraction(self):
        pairs = sample_pairs(self.one_pool(), 6, positive_fraction=0.0, seed=0)
        assert all(p.label == 0 for p in pairs)

    def test_determinism(self):
        a = sample_pairs(self.one_pool(), 50, seed=7)
        b = sample_pairs(self.one_pool(), 50, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        pools = [CandidatePool(0, list(range(10)), frozenset({0}))]
        a = sample_pairs(pools, 50, seed=1)
        b = sample_pairs(pools, 50, seed=2)
        assert a != b

    def test_positives_requested_but_absent(self):
        pools = [CandidatePool(0, [1, 2])]  # no gold anywhere
        with pytest.raises(ValueError):
            sample_pairs(pools, 4, positive_fraction=0.5, seed=0)

    def test_negatives_requested_but_absent(self):
        pools = [CandidatePool(0, [1], frozenset({0}))]
        with pytest.raises(ValueError):
            sample_pairs(pools, 4, positive_fraction=0.5, seed=0)

    def test_negative_uniformity(self):
        # binomial(10000, 1/2): mean 5000, sd 50; +-300 is a 6-sigma band
        pools = [CandidatePool(0, [5, 6, 7], frozenset({0}))]
        pairs = sample_pairs(pools, 10_000, positive_fraction=0.0, seed=3)
        counts = collections.Counter(p.answer_doc for p in pairs)
        assert set(counts) == {6, 7}
        for doc in (6, 7):
            assert 4700 <= counts[doc] <= 5300

    def test_pairs_reference_pool_members_only(self):
        pools = [
            CandidatePool(0, [10, 11, 12], frozenset({1})),
            CandidatePool(1, [12, 13], frozenset({0})),
        ]
        pairs = sample_pairs(pools, 200, seed=5)
        eligible_pos = {(0, 11), (1, 12)}
        eligible_neg = {(0, 10), (0, 12), (1, 13)}
        for p in pairs:
            key = (p.question_doc, p.answer_doc)
            assert key in (eligible_pos if p.label else eligible_neg)


class TestFileFormats:
    def test_corpus_file_roundtrip(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("When was Mozart born?\nI paid $30.50 today\n", encoding="utf-8")
        docs = corpus.load_corpus_file(path)
        assert docs == [["when", "was", "mozart", "born"], ["i", "paid", "$30.50", "today"]]

    def test_vocabulary_roundtrip(self, tmp_path):
        vocab = build_vocabulary([["b", "b", "a", "a", "a", "zz"]], min_count=2)
        path = tmp_path / "vocab.tsv"
        corpus.save_vocabulary(vocab, path)
        loaded = corpus.load_vocabulary(path, min_count=2)
        assert loaded.token_to_id == vocab.token_to_id
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.frequency == vocab.frequency
        assert loaded.lf_id == vocab.lf_id and loaded.num_id == vocab.num_id

    def test_vocabulary_file_validation(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("a\t0\t3\nb\t2\t2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            corpus.load_vocabulary(path)

    def test_vocabulary_missing_reserved_symbols(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("a\t0\t3\nb\t1\t2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            corpus.load_vocabulary(path)

    def test_qa_dataset_load(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        records = [
            {"question": "q one", "candidates": ["alpha", "beta"], "correct": [0]},
            {"question": "q two", "candidates": ["beta", "gamma"], "correct": [1]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        questions, answers, pools = corpus.load_qa_dataset(path)
        assert questions == ["q one", "q two"]
        assert answers == ["alpha", "beta", "gamma"]  # deduplicated across pools
        assert pools[0].candidates == [0, 1]
        assert pools[1].candidates == [1, 2]
        assert pools[1].correct == frozenset({1})

    def test_qa_dataset_duplicate_candidate_in_pool(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        record = {"question": "q", "candidates": ["a", "b", "a"], "correct": [2]}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        _, answers, pools = corpus.load_qa_dataset(path)
        assert answers == ["a", "b"]
        assert pools[0].candidates == [0, 1]
        # gold pointed at the duplicate occurrence; remapped to its first position
        assert pools[0].correct == frozenset({0})

    def test_qa_dataset_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('{"question": "q", "candidates": ["a"]}\nnot json\n',
                        encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            corpus.load_qa_dataset(path)

    def test_qa_dataset_correct_out_of_range(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        record = {"question": "q", "candidates": ["a"], "correct": [4]}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="out of range"):
            corpus.load_qa_dataset(path)

    @pytest.mark.parametrize("record", [
        '{"question_doc": 0}',
        '{"question_doc": 0, "answer_doc": "a", "label": 1}',
        '{"question_doc": -1, "answer_doc": 0, "label": 1}',
        '{"question_doc": 0, "answer_doc": 1, "label": 2}',
        '[0, 1, 1]',
        'not json',
    ])
    def test_pairs_malformed_record_reports_line_number(self, tmp_path, record):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"question_doc": 0, "answer_doc": 1, "label": 1}\n' + record + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r":2: malformed pair record"):
            corpus.load_pairs(path)

    def test_pairs_roundtrip(self, tmp_path):
        pairs = [QAPair(0, 3, 1), QAPair(1, 2, 0)]
        path = tmp_path / "pairs.jsonl"
        corpus.save_pairs(pairs, path)
        assert corpus.load_pairs(path) == pairs
