"""Unsupervised dependency parsing with a jointly trained generative
valence grammar and discriminative clustering parser, coupled through
joint decoding that solves their dual-decomposition problem exactly."""

from .corpus import (
    Corpus,
    DepTree,
    Sentence,
    Token,
    filter_corpus,
    parse_conllu,
    read_conllu,
    write_conllu,
)
from .dmv import ConstraintConfig, DmvParams
from .cmst import CmstModel
from .trainer import TrainConfig, TrainState, joint_train, pretrain, train

__version__ = "0.1.0"

__all__ = [
    "Corpus", "DepTree", "Sentence", "Token",
    "filter_corpus", "parse_conllu", "read_conllu", "write_conllu",
    "ConstraintConfig", "DmvParams", "CmstModel",
    "TrainConfig", "TrainState", "joint_train", "pretrain", "train",
]
