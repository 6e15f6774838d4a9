"""Independent brute-force oracles used to check the chart algorithms.

Everything here is deliberately naive: trees are enumerated exhaustively,
validity is checked from first principles, and scores are summed arc by
arc, so these routines share no code path with the dynamic programs they
verify.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from jointdep.corpus import DepTree, Sentence, Token, Corpus


def _descendants(heads, h):
    out = set()
    frontier = [h]
    while frontier:
        x = frontier.pop()
        for d, hh in enumerate(heads, start=1):
            if hh == x and d not in out:
                out.add(d)
                frontier.append(d)
    return out


def _valid_projective(heads) -> bool:
    n = len(heads)
    if sum(1 for h in heads if h == 0) != 1:
        return False
    for i, h in enumerate(heads, start=1):
        if h == i or not 0 <= h <= n:
            return False
    # Connectivity (acyclic + single component).
    if len(_descendants(heads, 0)) != n:
        return False
    # Projectivity: everything strictly between an arc's endpoints must be a
    # descendant of the head.
    for d, h in enumerate(heads, start=1):
        if h == 0:
            continue
        lo, hi = min(h, d), max(h, d)
        desc = _descendants(heads, h) | {h}
        for k in range(lo + 1, hi):
            if k not in desc:
                return False
    return True


@lru_cache(maxsize=None)
def all_projective_heads(n: int) -> tuple[tuple[int, ...], ...]:
    """Every single-rooted projective head array of length n."""
    out = []
    for heads in itertools.product(*[range(0, n + 1)] * n):
        if _valid_projective(heads):
            out.append(heads)
    return tuple(out)


def all_projective_trees(n: int) -> list[DepTree]:
    return [DepTree(h) for h in all_projective_heads(n)]


def span_nesting_depth(heads) -> int:
    """Center-embedding depth from explicit span endpoint comparisons."""
    n = len(heads)
    spans = {}
    for t in range(1, n + 1):
        desc = _descendants(heads, t) | {t}
        spans[t] = (min(desc), max(desc))
    best = 0
    for leaf in range(1, n + 1):
        # Walk up to the root counting strictly-interior links.
        count = 0
        t = leaf
        while heads[t - 1] != 0:
            h = heads[t - 1]
            tl, tr = spans[t]
            hl, hr = spans[h]
            if hl < tl and tr < hr:
                count += 1
            t = h
        # Strict links on the path combine into one descending chain.
        best = max(best, count)
    return best


def logsumexp(values) -> float:
    m = max(values)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in values))


# The 17 Universal Dependencies POS tags. Over this vocabulary the
# discriminative feature dimension is 6210, as on real treebank data.
UPOS_TAGS = (
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM", "PART",
    "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
)


def make_sentence(tags) -> Sentence:
    return Sentence(tuple(Token(f"w{i}", t) for i, t in enumerate(tags)))


def price_matrix(values, n):
    """(n+1, n+1) matrix keyed [h, d] holding the n*n `values` on the arc
    cells, dependent by dependent (d = 1..n, then h = 0..n without d), so a
    test draws one random number per arc."""
    mat = np.zeros((n + 1, n + 1))
    mat.T[1:][~np.eye(n + 1, dtype=bool)[1:]] = values
    return mat


def random_corpus(rng, vocab, n_sentences, max_len=7, min_len=1) -> Corpus:
    sents = []
    for _ in range(n_sentences):
        n = int(rng.integers(min_len, max_len + 1))
        tags = [vocab[i] for i in rng.integers(0, len(vocab), size=n)]
        sents.append(make_sentence(tags))
    return Corpus(tuple(sents), tuple(vocab))


def random_dmv_params(rng, vocab):
    from jointdep.dmv import DmvParams

    V = len(vocab)
    return DmvParams(
        tuple(vocab),
        rng.dirichlet(np.ones(V)),
        rng.dirichlet(np.ones(V), size=(V, 2)),
        rng.uniform(0.05, 0.95, size=(V, 2, 2)),
    )


# ---------------------------------------------------------------------------
# Scalar reference passes over a compiled chart
#
# Unlike the oracles above, these share the chart structure with the code
# they check: they replace the level-by-level numpy passes with loops over
# the edges in build order, and resolve the weight slots from the tag ids
# one by one.  Edges are sorted by head and heads are numbered in
# topological order, so one forward sweep sees every tail before its heads.
# ---------------------------------------------------------------------------

def slot_weight_refs(pos, V):
    """Log-weight index of every weight slot of a chart over tag ids `pos`;
    the unit slot maps to index size (the appended log 1)."""
    from jointdep.dmv import LEFT, RIGHT, _WeightIndex

    wi = _WeightIndex(V)
    n = len(pos)
    refs = [wi.size]
    refs += [wi.root(pos[c]) for c in range(n)]
    for ref in (wi.stop, wi.cont):
        refs += [ref(pos[h], d, a) for h in range(n) for d in (0, 1) for a in (0, 1)]
    refs += [
        wi.attach(pos[h], RIGHT if c > h else LEFT, pos[c])
        for h in range(n) for c in range(n)
    ]
    return refs


def _scalar_edges(s, pos, V, wlog, beta, prices):
    """Per edge: (head, tails, weight refs, score before tails), the score
    summed as ((0.0 + w[r0]) + w[r1]) - beta*(|h-d|-1) - price."""
    refs = slot_weight_refs(pos, V)
    w = [float(v) for v in wlog] + [0.0]
    for e in range(s.head.size):
        r0, r1 = refs[s.slots[0, e]], refs[s.slots[1, e]]
        h, d = int(s.arc_h[e]), int(s.arc_d[e])
        score = (0.0 + w[r0]) + w[r1]
        if d and h and beta:
            score -= beta * (abs(h - d) - 1)
        if d and prices is not None:
            score -= float(prices[h, d])
        tails = [int(t) for t in (s.tail0[e], s.tail1[e]) if t != s.n_nodes]
        yield int(s.head[e]), tails, (r0, r1), score


def scalar_viterbi(s, pos, V, wlog, beta, prices=None):
    """(heads, best log score) by strict-improvement Viterbi: each node keeps
    its earliest-built edge among equal scores."""
    vals = [0.0] * s.n_nodes
    best = [None] * s.n_nodes
    for e, (v, tails, _, score) in enumerate(
        _scalar_edges(s, pos, V, wlog, beta, prices)
    ):
        for t in tails:
            score = score + vals[t]
        if best[v] is None or score > vals[v]:
            vals[v], best[v] = score, e
    heads = [-1] * s.n
    stack = [s.goal]
    while stack:
        e = best[stack.pop()]
        if s.arc_d[e]:
            heads[s.arc_d[e] - 1] = int(s.arc_h[e])
        stack.extend(int(t) for t in (s.tail0[e], s.tail1[e]) if t != s.n_nodes)
    return tuple(heads), vals[s.goal]


def scalar_inside(s, pos, V, wlog, beta):
    """Inside log-value of every node, one logsumexp per node."""
    vals = [0.0] * s.n_nodes
    edges = _scalar_edges(s, pos, V, wlog, beta, None)
    for v, group in itertools.groupby(edges, key=lambda edge: edge[0]):
        terms = []
        for _, tails, _, score in group:
            for t in tails:
                score = score + vals[t]
            terms.append(score)
        vals[v] = logsumexp(terms)
    return vals


def scalar_expected_counts(s, pos, V, wlog, beta):
    """(inside values, expected count of every log-weight index with the
    unit slot last) by an edge-by-edge outside sweep from the goal."""
    vals = scalar_inside(s, pos, V, wlog, beta)
    logz = vals[s.goal]
    edges = list(_scalar_edges(s, pos, V, wlog, beta, None))
    out = [-math.inf] * s.n_nodes
    out[s.goal] = 0.0
    counts = np.zeros(len(wlog) + 1)
    for v, tails, refs, score in reversed(edges):
        if out[v] == -math.inf:
            continue
        for t in tails:
            score = score + vals[t]
        if score == -math.inf:
            continue
        post = math.exp(out[v] + score - logz)
        for r in refs:
            counts[r] += post
        for t in tails:
            c = out[v] + score - vals[t]
            out[t] = c if out[t] == -math.inf else float(np.logaddexp(out[t], c))
    return vals, counts
