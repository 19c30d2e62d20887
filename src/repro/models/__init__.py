"""Classifier architectures: Kim-CNN, CNN+GRU tagger, bag-of-embeddings."""

from .base import SequenceTagger, TextClassifier
from .mlp import BagOfEmbeddingsClassifier, MLPClassifier
from .ner_crnn import NERTagger, NERTaggerConfig
from .text_cnn import TextCNN, TextCNNConfig

__all__ = [
    "TextClassifier",
    "SequenceTagger",
    "TextCNN",
    "TextCNNConfig",
    "NERTagger",
    "NERTaggerConfig",
    "BagOfEmbeddingsClassifier",
    "MLPClassifier",
]
