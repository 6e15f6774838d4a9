"""Planted-grammar corpora: a DMV over the 17 UPOS tags sampled from a seed,
and sentences with gold trees drawn from it by the Klein & Manning (2004)
generative story (root tag, then for each head and direction a stop/continue
decision conditioned on adjacency, and a child tag per continue).

Sentence lengths are given by the caller, so the size of a corpus (and its
sum of n**3, which sets chart cost) does not depend on the seed.
"""

from __future__ import annotations

import bisect

import numpy as np

from jointdep.corpus import Corpus, DepTree, Sentence, Token
from jointdep.dmv import LEFT, RIGHT, DmvParams

UPOS = (
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
)

_MAX_DRAWS = 1_000_000
_BRANCHING = 0.95  # expected children per head: just below critical


def plant_grammar(rng: np.random.Generator) -> DmvParams:
    """A DMV with peaked (learnable) rule distributions. Every tag keeps some
    probability as root and as a child, so long corpora use all 17 tags.
    Every head expects `_BRANCHING` children in all, split at random between
    the two directions; a near-critical process makes sentences of 3 to 25
    tokens common enough to sample by rejection, at a rate that does not
    depend on the seed."""
    V = len(UPOS)
    uniform = np.full(V, 1.0 / V)
    root = 0.8 * rng.dirichlet(np.full(V, 0.5)) + 0.2 * uniform
    attach = np.empty((V, 2, V))
    for h in range(V):
        for d in (LEFT, RIGHT):
            attach[h, d] = 0.85 * rng.dirichlet(np.full(V, 0.2)) + 0.15 * uniform
    share = rng.uniform(0.2, 0.8, size=V)
    expected = _BRANCHING * np.stack([share, 1.0 - share], axis=1)  # (V, 2)
    stop = np.empty((V, 2, 2))
    stop[:, :, 1] = rng.uniform(0.5, 0.9, size=(V, 2))
    # A direction's expected child count is (1 - stop0) / stop1.
    stop[:, :, 0] = 1.0 - expected * stop[:, :, 1]
    theta = DmvParams(UPOS, root, attach, stop)
    theta.validate(tol=1e-9)
    return theta


class _Sampler:
    """Draws derivations from a DMV with a block of uniforms at a time."""

    def __init__(self, theta: DmvParams, rng: np.random.Generator):
        self.rng = rng
        self.root_cdf = np.cumsum(theta.root).tolist()
        self.attach_cdf = np.cumsum(theta.attach, axis=2).tolist()
        self.stop = theta.stop.tolist()
        self.vocab = theta.vocab
        self._uniforms: list[float] = []

    def _uniform(self) -> float:
        if not self._uniforms:
            self._uniforms = self.rng.random(4096).tolist()
        return self._uniforms.pop()

    def _draw(self, cdf) -> int:
        return min(bisect.bisect_right(cdf, self._uniform()), len(cdf) - 1)

    def tree(self, budget: int):
        """One derivation as (tags, heads) in surface order, or None once it
        exceeds `budget` tokens."""
        nodes = [(self._draw(self.root_cdf), [], [])]
        pending = [0]
        while pending:
            i = pending.pop()
            tag, left, right = nodes[i]
            for direction, kids in ((LEFT, left), (RIGHT, right)):
                adj = 0
                while self._uniform() >= self.stop[tag][direction][adj]:
                    if len(nodes) == budget:
                        return None
                    child = self._draw(self.attach_cdf[tag][direction])
                    nodes.append((child, [], []))
                    kids.append(len(nodes) - 1)
                    pending.append(len(nodes) - 1)
                    adj = 1
        # Children are generated nearest first, so left children are laid
        # out in reverse generation order.
        order: list[int] = []
        stack = [(0, False)]
        while stack:
            i, expanded = stack.pop()
            if expanded:
                order.append(i)
                continue
            _, left, right = nodes[i]
            stack.extend((c, False) for c in reversed(right))
            stack.append((i, True))
            stack.extend((c, False) for c in left)
        position = {node: p + 1 for p, node in enumerate(order)}
        head_of = {c: h for h, (_, l, r) in enumerate(nodes) for c in l + r}
        tags = [self.vocab[nodes[i][0]] for i in order]
        heads = [position[head_of[i]] if i in head_of else 0 for i in order]
        return tags, heads


def sample_corpus(theta: DmvParams, rng: np.random.Generator,
                  lengths: list[int]) -> tuple[Corpus, list[DepTree]]:
    """One sentence of each given length, with its gold tree. Derivations are
    drawn until each length has its quota; surplus ones are dropped. Raises
    if a tag never occurs."""
    need = {n: lengths.count(n) for n in set(lengths)}
    max_len = max(lengths)
    pool: dict[int, list] = {n: [] for n in need}
    sampler = _Sampler(theta, rng)
    for _ in range(_MAX_DRAWS):
        if all(len(pool[n]) == k for n, k in need.items()):
            break
        got = sampler.tree(max_len)
        if got is not None and len(got[0]) in need \
                and len(pool[len(got[0])]) < need[len(got[0])]:
            pool[len(got[0])].append(got)
    else:
        raise RuntimeError(f"length quotas not met in {_MAX_DRAWS} draws")
    sentences, trees = [], []
    for n in lengths:
        tags, heads = pool[n].pop()
        sentences.append(Sentence(tuple(Token(t.lower(), t) for t in tags)))
        trees.append(DepTree(tuple(heads)))
    corpus = Corpus(tuple(sentences), theta.vocab)
    seen = {t for s in corpus for t in s.upos}
    missing = [t for t in theta.vocab if t not in seen]
    if missing:
        raise RuntimeError(f"planted corpus never uses tags {missing}")
    return corpus, trees
