"""qasim: question answering by deep similarity over paragraph vectors.

The pipeline: tokenize a corpus and build vocabularies (corpus), learn
word and document embeddings with negative sampling (embedding), score
question/answer pairs with a two-tower feed-forward network (simnet,
training), rank candidate pools and route by confidence (retrieval),
and compare feature families on text classification (evaluation).
"""

from .corpus import (
    CandidatePool,
    QAPair,
    TokenizedDocument,
    Vocabulary,
    build_vocabulary,
    encode,
    encode_corpus,
    sample_pairs,
    tokenize,
)
from .embedding import (
    CombineMode,
    DocEmbeddingModel,
    EmbedTrainConfig,
    WordEmbeddingModel,
    Word2VecMode,
    infer_doc_vector,
    infer_doc_vectors,
    train_doc2vec,
    train_word2vec,
)
from .retrieval import AnswerIndex, RoutingDecision, RoutingOutcome, route
from .simnet import Activation, SimilarityNetwork, init_network
from .training import SimTrainConfig, TrainReport, train_simnet

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "AnswerIndex",
    "CandidatePool",
    "CombineMode",
    "DocEmbeddingModel",
    "EmbedTrainConfig",
    "QAPair",
    "RoutingDecision",
    "RoutingOutcome",
    "SimTrainConfig",
    "SimilarityNetwork",
    "TokenizedDocument",
    "TrainReport",
    "Vocabulary",
    "WordEmbeddingModel",
    "Word2VecMode",
    "build_vocabulary",
    "encode",
    "encode_corpus",
    "infer_doc_vector",
    "infer_doc_vectors",
    "init_network",
    "route",
    "sample_pairs",
    "tokenize",
    "train_doc2vec",
    "train_simnet",
    "train_word2vec",
    "__version__",
]
