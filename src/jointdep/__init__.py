"""Unsupervised dependency parsing with a jointly trained generative
valence grammar and discriminative clustering parser, coupled through
joint decoding that solves their dual-decomposition problem exactly."""

__version__ = "0.1.0"
