"""Independent brute-force oracles used to check the chart algorithms.

Everything here is deliberately naive: trees are enumerated exhaustively,
validity is checked from first principles, and scores are summed arc by
arc, so these routines share no code path with the dynamic programs they
verify.
"""

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from jointdep import cmst, dmv
from jointdep.corpus import DepTree, Sentence, Token, Corpus
from jointdep.dmv import HAS_CHILD, LEFT, NO_CHILD, RIGHT, _WeightIndex

# No depth cap and no length penalty: the plain grammar.
UNCONSTRAINED = dmv.ConstraintConfig(max_ce_depth=None, dep_len_beta=0.0)


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


def encode(xs):
    """The `Corpus.encoding` of the sentences xs."""
    return Corpus(tuple(xs), ()).encoding


def tag_ids(theta, x):
    """x's tag ids in the grammar theta's vocabulary, one lookup per token."""
    index = {t: i for i, t in enumerate(theta.vocab)}
    return tuple(index[t] for t in x.upos)


def tree_matrix(tree: DepTree) -> np.ndarray:
    """0/1 arc matrix of a tree: 1.0 at [heads[d-1], d] for d in 1..n."""
    mat = np.zeros((tree.n + 1, tree.n + 1))
    mat[tree.heads, np.arange(1, tree.n + 1)] = 1.0
    return mat


def rule_matrix(x, r):
    """`cmst.rule_vector` of the one sentence x as its (n+1, n+1) matrix."""
    return cmst.rule_vector(encode([x]), r).reshape(x.n + 1, x.n + 1)


# ---------------------------------------------------------------------------
# One sentence through the grammar's batched engine
# ---------------------------------------------------------------------------

def tree_logprob(x, y, theta, cfg) -> float:
    """log P(x, y) plus the log constraint factor (soft penalty / hard cap)."""
    cost = dmv.tree_cost(Corpus((x,), theta.vocab), [y], theta, 0.0, cfg.dep_len_beta)
    if cfg.max_ce_depth is not None and dmv.ce_depth(y) > cfg.max_ce_depth:
        return -math.inf
    return -cost


def inside_loglik(x, theta, cfg) -> float:
    """Log of the constrained marginal: sum over feasible trees of P(x, y)*f."""
    s, _, score = dmv._charts(encode([x]), theta, cfg.max_ce_depth, cfg.dep_len_beta)
    return float(dmv._inside(s, score)[s.goals[0]])


def viterbi_decode(x, theta, cfg, u=None):
    """Best tree under -tree_logprob(x, y) + u.y, with the prices u an
    (n+1, n+1) matrix keyed [h, d]; returns (tree, minimum)."""
    s, _, score = dmv._charts(encode([x]), theta, cfg.max_ce_depth, cfg.dep_len_beta,
                              None if u is None else u.ravel())
    [(heads, best)] = dmv.viterbi_batch(s, score)
    if heads is None:
        raise dmv.InfeasibleParseError()
    return DepTree(heads), -best


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


def init_params_reference(c, mode="harmonic"):
    """The initializer's tables built entry by entry: the uniform tables, or
    the harmonic counts summed sentence by sentence and token pair by token
    pair, smoothed by 1 and normalized table by table."""
    from jointdep.dmv import LEFT, RIGHT, DmvParams

    vocab = c.pos_vocab
    V = len(vocab)
    idx = {t: i for i, t in enumerate(vocab)}
    if mode == "uniform":
        root = np.full(V, 1.0 / V)
        attach = np.full((V, 2, V), 1.0 / V)
    else:
        root = np.zeros(V)
        attach = np.zeros((V, 2, V))
        for sent in c:
            ids = [idx[t] for t in sent.upos]
            for i, hi_tag in enumerate(ids):
                root[hi_tag] += 1.0 / sent.n
                for j, dj_tag in enumerate(ids):
                    if i == j:
                        continue
                    direction = LEFT if j < i else RIGHT
                    attach[hi_tag, direction, dj_tag] += 1.0 / (abs(i - j) + 1.0)
        # Smooth so every event keeps support, then normalize.
        root += 1.0
        attach += 1.0
        root /= root.sum()
        attach /= attach.sum(axis=2, keepdims=True)
    stop = np.full((V, 2, 2), 0.5)
    return DmvParams(vocab, root, attach, stop)


# ---------------------------------------------------------------------------
# Scalar reference for the batched Eisner chart
# ---------------------------------------------------------------------------

def eisner_min_reference(cost):
    """Min-cost projective single-rooted tree, and its cost, for one (n+1, n+1)
    arc-cost matrix keyed [head, dependent]; row/column 0 is the root
    pseudo-node. A cell-by-cell loop over the split-head chart, the reference
    for the batched `cmst.eisner_min`: the same sums in the same order, and
    ties broken toward the earliest-constructed derivation (smaller split
    point, then nearer attachment, then the leftmost root).
    """
    n = cost.shape[0] - 1
    INF = math.inf
    # L[h][i]: best cost of h's left half spanning [i, h]; mirrored R.
    L = [[INF] * (n + 2) for _ in range(n + 2)]
    R = [[INF] * (n + 2) for _ in range(n + 2)]
    IL = [[INF] * (n + 2) for _ in range(n + 2)]  # IL[c][h], arc h -> c
    IR = [[INF] * (n + 2) for _ in range(n + 2)]  # IR[h][c], arc h -> c
    bL = [[-1] * (n + 2) for _ in range(n + 2)]
    bR = [[-1] * (n + 2) for _ in range(n + 2)]
    bIL = [[-1] * (n + 2) for _ in range(n + 2)]
    bIR = [[-1] * (n + 2) for _ in range(n + 2)]
    for h in range(1, n + 1):
        L[h][h] = 0.0
        R[h][h] = 0.0
    for m in range(1, n):
        for h in range(1, n + 1):
            c = h - m
            if c >= 1:
                best = INF
                for k in range(c, h):
                    val = R[c][k] + L[h][k + 1]
                    if val < best:
                        best = val
                        bIL[c][h] = k
                IL[c][h] = best + cost[h, c]
            c = h + m
            if c <= n:
                best = INF
                for k in range(h + 1, c + 1):
                    val = L[c][k] + R[h][k - 1]
                    if val < best:
                        best = val
                        bIR[h][c] = k
                IR[h][c] = best + cost[h, c]
        for h in range(1, n + 1):
            i = h - m
            if i >= 1:
                best = INF
                for c in range(i, h):
                    val = IL[c][h] + L[c][i]
                    if val < best:
                        best = val
                        bL[h][i] = c
                L[h][i] = best
            j = h + m
            if j <= n:
                best = INF
                for c in range(h + 1, j + 1):
                    val = IR[h][c] + R[c][j]
                    if val < best:
                        best = val
                        bR[h][j] = c
                R[h][j] = best
    best = INF
    root = -1
    for c in range(1, n + 1):
        val = cost[0, c] + L[c][1] + R[c][n]
        if val < best:
            best = val
            root = c
    heads = [-1] * n
    heads[root - 1] = 0

    def take_left(h, i):
        if i == h:
            return
        c = bL[h][i]
        heads[c - 1] = h
        k = bIL[c][h]
        take_right(c, k)
        take_left(h, k + 1)
        take_left(c, i)

    def take_right(h, j):
        if j == h:
            return
        c = bR[h][j]
        heads[c - 1] = h
        k = bIR[h][c]
        take_left(c, k)
        take_right(h, k - 1)
        take_right(c, j)

    take_left(root, 1)
    take_right(root, n)
    return tuple(heads), best


# ---------------------------------------------------------------------------
# Per-arc references for the discriminative parser
# ---------------------------------------------------------------------------

def dist_bin(dist: int) -> int:
    """The distance bin of an arc of length `dist`: the first bin edge it
    does not exceed, or the last bin."""
    from jointdep.cmst import _BIN_EDGES

    for b, edge in enumerate(_BIN_EDGES):
        if dist <= edge:
            return b
    return len(_BIN_EDGES)


def arc_features(t, head_tag: str, dep_tag: str, h: int, d: int) -> list[int]:
    """Active feature indices of template `t` for the arc (h, d), block by
    block: the per-arc reference for `extract_features`."""
    ht = t.tag_id(head_tag)
    dt = t.tag_id(dep_tag)
    direction = 1 if h < d else 0  # 1 = head precedes dependent
    b = dist_bin(abs(h - d))
    blocks = t._blocks if h == 0 else t._blocks[:-t._ROOT_BLOCKS]
    return [
        off + ht * sh + dt * sd + direction * sr + b * sb
        for _, off, (sh, sd, sr, sb) in blocks
    ]


def _feature_rows(x, t):
    """The active feature indices of every cell [h, d] of x's arc matrix, in
    row-major cell order and, within a cell, in block order, and the number
    of them in each cell: one per block on root arcs, one per block but the
    root-only ones on other arcs, none on non-arc cells (d = 0 or h = d)."""
    from jointdep.cmst import _BIN_EDGES, ROOT_TAG

    # Each cell's [head tag, dependent tag, direction, distance bin]; row 0
    # is headed by the ROOT tag, and direction is 1 when the head precedes.
    ids = np.array([t.tag_id(tag) for tag in (ROOT_TAG,) + x.upos])
    pos = np.arange(x.n + 1)
    right = (pos[:, None] < pos).astype(np.intp)
    bins = np.searchsorted(_BIN_EDGES, np.abs(pos[:, None] - pos))
    blocks = t._blocks
    offs = np.array([off for _, off, _ in blocks])
    strides = np.array([s for _, _, s in blocks])  # (blocks, 4)
    cells = np.stack(np.broadcast_arrays(ids[:, None], ids, right, bins), axis=-1)
    idx = offs + cells @ strides.T  # (n+1, n+1, blocks): index in each block
    arc = (pos != 0) & (pos[:, None] != pos)
    fires = np.arange(len(blocks)) < len(blocks) - t._ROOT_BLOCKS
    active = arc[..., None] & (fires | (pos == 0)[:, None, None])
    return idx[active], active.sum(axis=2).ravel()


def extract_features(xs, t):
    """Sparse 0/1 matrix with one row per cell [h, d] of each sentence's
    (n+1, n+1) arc matrix, in row-major order, the sentences stacked in order,
    built in one numpy pass per sentence. Rows of non-arc cells (d = 0 or
    h = d) are empty, so the rows of sentence x give (X @ w).reshape(n + 1,
    n + 1), its arc score matrix: the features that the parser scores
    through `FeatureTemplate.weight_sums` and never builds."""
    import scipy.sparse as sp

    rows = [_feature_rows(x, t) for x in xs]
    cols = np.concatenate([c for c, _ in rows])
    indptr = np.concatenate(([0], np.cumsum(np.concatenate([k for _, k in rows]))))
    return sp.csr_matrix(
        (np.ones(cols.size), cols, indptr), shape=(indptr.size - 1, t.dimension),
    )


def extract_features_reference(x, t):
    """`extract_features` of one sentence, built arc by arc from
    `arc_features`."""
    import scipy.sparse as sp

    from jointdep.cmst import ROOT_TAG

    n = x.n
    tags = (ROOT_TAG,) + x.upos
    indptr = [0]
    cols: list[int] = []
    for h in range(n + 1):
        for d in range(n + 1):
            if d and d != h:
                cols.extend(arc_features(t, tags[h], tags[d], h, d))
            indptr.append(len(cols))
    return sp.csr_matrix(
        (np.ones(len(cols)), np.asarray(cols), np.asarray(indptr)),
        shape=((n + 1) ** 2, t.dimension),
    )


def rule_vector_reference(x, r):
    """`cmst.rule_vector` by one rule-set lookup per arc."""
    n = x.n
    tags = ("ROOT",) + x.upos
    v = np.zeros((n + 1, n + 1))
    for h in range(n + 1):
        for d in range(1, n + 1):
            if h != d and (tags[h], tags[d]) in r:
                v[h, d] = 1.0
    return v


def arc_costs_reference(q, v, mu):
    """`cmst.arc_costs` of one sentence with (n+1, n+1) arc scores q and
    rule matrix v, arc by arc: (1 - 2q[h, d]) / (2n) - mu v[h, d] on arcs,
    0.0 on column 0 and the diagonal."""
    n = q.shape[0] - 1
    cost = np.zeros((n + 1, n + 1))
    for h in range(n + 1):
        for d in range(1, n + 1):
            if h != d:
                cost[h, d] = (1.0 - 2.0 * q[h, d]) / (2.0 * n) - mu * v[h, d]
    return cost


def flat_costs(costs):
    """The lengths of (n+1, n+1) arc-cost matrices and the matrices flat in
    their `ArcLayout`, end to end: `cmst.eisner_min`'s arguments."""
    lengths = [c.shape[0] - 1 for c in costs]
    return lengths, np.concatenate([np.empty(0)] + [c.ravel() for c in costs])


def tree_loss(y, q, v, mu, ridge=0.0):
    """The per-sentence loss at the (n+1, n+1) arc matrix y, with
    q = (Xw).reshape(n + 1, n + 1) the arc scores and `ridge` the sentence's
    share of the w-regularizer:
    (1/2n)||y - q||^2 + ridge - mu * v.y
    """
    resid = y - q
    return (
        float(np.vdot(resid, resid)) / (2.0 * (y.shape[0] - 1))
        + ridge
        - mu * float(np.vdot(v, y))
    )


def sentence_objective(q, v, y, m, N):
    """Per-sentence discriminative loss at the (n+1, n+1) arc matrix y, for a
    sentence with terms (q, v) in a corpus of N sentences:
    (1/2n)||y - q||^2 + (lam/2N)||w||^2 - mu * v.y
    """
    return tree_loss(y, q, v, m.mu, m.lam / (2.0 * N) * float(m.w @ m.w))


class WeightIndexReference(_WeightIndex):
    """`dmv._WeightIndex` with the log-weight index of each event spelled
    out, one accessor per kind."""

    def root(self, p: int) -> int:
        return p

    def attach(self, h: int, direction: int, c: int) -> int:
        return self.attach_off + (h * 2 + direction) * self.V + c

    def stop(self, h: int, direction: int, adj: int) -> int:
        return self.stop_off + (h * 2 + direction) * 2 + adj

    def cont(self, h: int, direction: int, adj: int) -> int:
        return self.cont_off + (h * 2 + direction) * 2 + adj


def tree_events_reference(pos, y, wi):
    """Log-weight indices, under the `WeightIndexReference` wi, of the
    events that generate tree y over tag ids `pos`, walked child by child:
    the root choice, then per head and direction a continue and an attach
    for each child, and the stop."""
    if y.n != len(pos):
        raise ValueError(f"tree of length {y.n} for a sentence of length {len(pos)}")
    events = [wi.root(pos[y.root() - 1])]
    for h, kids in enumerate(y.children()[1:], start=1):
        hp = pos[h - 1]
        for direction, side in ((LEFT, [c for c in kids if c < h]),
                                (RIGHT, [c for c in kids if c > h])):
            adj = NO_CHILD
            for c in side:
                events += (wi.cont(hp, direction, adj),
                           wi.attach(hp, direction, pos[c - 1]))
                adj = HAS_CHILD
            events.append(wi.stop(hp, direction, adj))
    return events


def tree_logprob_reference(x, y, theta, cfg):
    """`dmv.tree_logprob` event by event: the log-weights of
    `tree_events_reference`, summed one by one, minus beta per length penalty
    unit |h - d| - 1 of each arc but the root's; -inf when y is deeper than
    the depth cap by `span_nesting_depth`."""
    if cfg.max_ce_depth is not None and span_nesting_depth(y.heads) > cfg.max_ce_depth:
        return -math.inf
    w = theta.log_weights()
    events = tree_events_reference(tag_ids(theta, x), y, WeightIndexReference(theta.V))
    lp = sum(float(w[e]) for e in events)
    return lp - cfg.dep_len_beta * sum(
        abs(h - d) - 1 for d, h in enumerate(y.heads, start=1) if h
    )


def joint_objective_reference(c, state, cfg, trees):
    """`trainer.joint_objective` sentence by sentence: each sentence's
    grammar loss -log p(tree) by `tree_logprob_reference` (depth cap lifted)
    and g_weight times its `sentence_objective` at its 0/1 arc matrix, then
    the Dirichlet prior -eps * sum(log theta), table by table, for eps > 0."""
    from dataclasses import replace

    cfg_eval = replace(cfg.constraint, max_ce_depth=None)
    total = 0.0
    m = state.model
    for sent, tree in zip(c, trees, strict=True):
        v = rule_vector_reference(sent, m.rules)
        q = (extract_features_reference(sent, m.templates) @ m.w).reshape(v.shape)
        total += -tree_logprob_reference(sent, tree, state.theta, cfg_eval)
        total += cfg.g_weight * sentence_objective(
            q, v, tree_matrix(tree), m, c.N
        )
    if cfg.mstep_smoothing:
        theta = state.theta
        with np.errstate(divide="ignore"):
            total -= cfg.mstep_smoothing * sum(
                float(np.log(p).sum())
                for p in (theta.root, theta.attach, theta.stop, 1.0 - theta.stop)
            )
    return total


def sentence_gradient(X, y, m, N):
    """Gradient of `sentence_objective` with respect to w, for a sentence
    with feature matrix X (the rule term does not depend on w)."""
    return X.T @ (X @ m.w - y.ravel()) / (y.shape[0] - 1) + (m.lam / N) * m.w


def ridge_reference(corpus, model, z):
    """The ridge system (sum_i (1/n_i) X_i'X_i + lam*I) w = X'z that
    `FrankWolfeOptimizer.ridge_solve` solves, with X the stacked
    `extract_features` of `corpus` and z a flat vector in its arc layout,
    built from X and solved by SuperLU. Returns w, the matrix and X'z."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    X = extract_features(corpus.sentences, model.templates)
    n = np.repeat([float(s.n) for s in corpus], [(s.n + 1) ** 2 for s in corpus])
    gram = (X.T @ sp.diags(1.0 / n) @ X + model.lam * sp.identity(X.shape[1])).tocsc()
    rhs = X.T @ z
    return splu(gram, permc_spec="MMD_AT_PLUS_A").solve(rhs), gram, rhs


def nested_ridge_reference(t, lam, c):
    """The factor and solve of `cmst._NestedRidge(t, lam, c)` built densely:
    every block's coupling to every other summed by one full-width bincount
    per block, and the right-hand side and the fine weights' share summed
    over all blocks at once. The nested ridge must equal it in bytes.
    Returns A, Q, G and solve(b), as `_NestedRidge` names them."""
    from types import SimpleNamespace

    from jointdep.cmst import _NUM_BINS, _spd_inverse

    T, blocks, axes = t.T, t._blocks, t._BLOCK_AXES
    pair = [i for i, a in enumerate(axes) if a[:2] == (True, True) and not a[3]]
    coarse = pair + [i for i, a in enumerate(axes) if a[:2] != (True, True)]
    grid = np.indices((T, T, 2, _NUM_BINS)).reshape(4, -1).T
    idx = grid @ np.array([s for *_, s in blocks]).T + [off for _, off, _ in blocks]
    fine = idx[:, axes.index((True,) * 4)]
    root = np.flatnonzero((grid[:, 0] == 0) & (grid[:, 2] == 1))
    span = [off + np.arange(math.prod(shape)) for shape, off, _ in blocks]
    order = np.concatenate(
        [np.concatenate([span[i].reshape(T * T, -1) for i in pair], 1).ravel()]
        + [span[i] for i in coarse[len(pair):]])
    where = np.empty(t.dimension, dtype=np.intp)
    where[order] = np.arange(order.size)
    pos = where[idx[:, coarse]].T
    R = np.zeros(fine.size)
    R[root] = c[fine.size:-1]
    C = c[:fine.size] + R
    d = lam + C
    fires = (np.array(coarse) < len(axes) - t._ROOT_BLOCKS)[:, None]
    g = np.where(fires, C, R)
    split = len(coarse) - t._ROOT_BLOCKS
    scatter = np.concatenate([pos[:split].ravel(), pos[split:, root].ravel()])
    nP = sum(span[i].size for i in pair)
    k, nG, p = nP // (T * T), order.size - nP, len(pair)
    pp, cg = np.zeros(nP * k), np.zeros((nP + nG) * nG)
    for i, row in enumerate(pos):
        v = np.where(fires[i] & fires, C, R) - g[i] * g / d
        key = row * nG + pos[p:] - nP
        cg += np.bincount(key.ravel(), v[p:].ravel(), minlength=cg.size)
        if i < p:
            key = row * k + pos[:p] % k
            pp += np.bincount(key.ravel(), v[:p].ravel(), minlength=pp.size)
    cg = cg.reshape(nP + nG, nG)
    spg = cg[:nP].reshape(T * T, k, nG)
    A = np.linalg.inv(pp.reshape(T * T, k, k) + lam * np.eye(k))
    Q = np.einsum("pij,pjg->pig", A, spg)
    G = _spd_inverse(cg[nP:] + lam * np.eye(nG) - np.einsum("pki,pkj->ij", spg, Q))

    def solve(b):
        cells = d.size
        bR = np.zeros(cells)
        bR[root] = b[cells:-1]
        bf = b[:cells] + bR
        q = bf / d
        u = np.concatenate([
            (bf - g[:split] * q).ravel(),
            (bR[root] - g[split:, root] * q[root]).ravel(),
        ])
        rhs = np.bincount(scatter, u, minlength=nP + nG)
        rp, rg = rhs[:-nG].reshape(T * T, k), rhs[-nG:]
        wg = np.einsum("ij,j", G, rg - np.einsum("pki,pk", Q, rp))
        wp = np.einsum("pij,pj->pi", A, rp)
        wp -= np.einsum("pki,i->pk", Q, wg)
        w = np.zeros(rhs.size + cells)
        w[order] = wc = np.concatenate([wp.ravel(), wg])
        w[fine] = (bf - (g * wc[pos]).sum(axis=0)) / d
        return w

    return SimpleNamespace(A=A, Q=Q, G=G, solve=solve)


def fw_run_reference(corpus, model, iters, trees=None):
    """Frank-Wolfe training of `model` on `corpus` as a loop over
    per-sentence matrices: the reference for `cmst.FrankWolfeOptimizer`,
    whose state is flat corpus vectors. From the chain trees, or from
    `trees` with w re-solved at them, run `iters` steps. Each step re-solves
    w, takes each sentence's gradient, decodes each vertex with
    `eisner_min_reference` and builds it as a `DepTree` and a 0/1 matrix,
    then line-searches. The ridge system and its solve are those of the
    optimizer (`FrankWolfeOptimizer.ridge_solve`, checked against SuperLU
    by `ridge_reference`); the arc scores are per-sentence feature
    matrices times w.

    Returns the relaxed trees `y` (a list of matrices), the objective and
    gap histories, and `w` (also left in model.w)."""
    from types import SimpleNamespace

    import scipy.sparse as sp

    from jointdep.cmst import FrankWolfeOptimizer

    X = [extract_features_reference(s, model.templates) for s in corpus]
    v = [rule_vector_reference(s, model.rules) for s in corpus]
    y = [tree_matrix(DepTree(tuple(range(s.n)))) for s in corpus]
    ns = np.array([s.n for s in corpus], dtype=np.float64)
    ridge_solve = FrankWolfeOptimizer(corpus, model).ridge_solve
    X_all = sp.vstack(X).tocsr()
    ends = np.cumsum([Xi.shape[0] for Xi in X])[:-1]

    def solve_w():
        model.w = ridge_solve(
            np.concatenate([yi.ravel() / n for yi, n in zip(y, ns)]))

    if trees is not None:
        y = [tree_matrix(t) for t in trees]
        solve_w()
    objectives, gaps = [], []
    mu = model.mu
    for _ in range(iters):
        solve_w()
        q = [
            qi.reshape(yi.shape)
            for qi, yi in zip(np.split(X_all @ model.w, ends), y)
        ]
        grads = [(yi - qi) / n - mu * vi for yi, qi, vi, n in zip(y, q, v, ns)]
        verts = [tree_matrix(DepTree(eisner_min_reference(g)[0])) for g in grads]
        gap = 0.0
        denom = 0.0
        for g, yi, s, n in zip(grads, y, verts, ns):
            diff = yi - s
            gap += float(np.vdot(g, diff))
            denom += float(np.vdot(diff, diff)) / n
        if denom > 0.0:
            gamma = min(1.0, max(0.0, gap / denom))
            for yi, s in zip(y, verts):
                yi += gamma * (s - yi)
        total = model.lam / 2.0 * float(model.w @ model.w)
        for qi, vi, yi in zip(q, v, y):
            total += tree_loss(yi, qi, vi, mu)
        objectives.append(total)
        gaps.append(gap)
    return SimpleNamespace(
        w=model.w, y=y, objective_history=objectives, gap_history=gaps
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
    wi = WeightIndexReference(V)
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


def expand_structure(s):
    """The compiled chart `s` in the layout of `compile_reference`, rebuilt
    from the per-edge arrays it keeps: every edge's head node, its two
    weight slots (the second is the unit slot of its chart unless the edge
    attaches a token), and its arc's head and dependent (0 and 0 unless it
    attaches one), with `levels` viewing the head; the rest is `s`'s own."""
    from types import SimpleNamespace

    n = np.array(s.lengths)
    out = SimpleNamespace(
        lengths=s.lengths, n_nodes=s.n_nodes, goals=s.goals, tail0=s.tail0,
        tail1=s.tail1, arc_edges=s.arc_edges, arc_price=s.arc_price,
        arc_pen=s.arc_pen,
    )
    counts = np.concatenate([count for _, _, _, count, *_ in s.levels])
    out.head = np.repeat(np.arange(s.n_nodes, dtype=np.int32), counts)
    # A slot, or a price, lies in its chart's block.
    slot0 = np.cumsum(1 + 9 * n + n * n) - (1 + 9 * n + n * n)
    unit = slot0[np.searchsorted(slot0, s.slot, "right") - 1]
    out.slots = np.stack([s.slot, unit]).astype(np.int32)
    out.slots[1, s.arc_edges] = s.arc_slot
    price0 = np.cumsum((n + 1) ** 2) - (n + 1) ** 2
    chart = np.searchsorted(price0, s.arc_price, "right") - 1
    h, d = np.divmod(s.arc_price - price0[chart], n[chart] + 1)
    out.arc_h = np.zeros(s.tail0.size, dtype=np.int32)
    out.arc_d = np.zeros(s.tail0.size, dtype=np.int32)
    out.arc_h[s.arc_edges], out.arc_d[s.arc_edges] = h, d
    out.levels = tuple((a, b, seg, edges, out.head[edges], t0, t1)
                       for a, b, seg, _, edges, t0, t1 in s.levels)
    return out


def _scalar_edges(s, pos, V, wlog, beta, prices):
    """Per edge of `expand_structure(s)`: (head, tails, weight refs, score
    before tails), the score summed as ((0.0 + w[r0]) + w[r1]) -
    beta*(|h-d|-1) - price. The refs are the slots the edge reads: r1 only
    if it attaches a token, since r1 is otherwise the unit slot."""
    s = expand_structure(s)
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
        yield int(s.head[e]), tails, (r0, r1) if d else (r0,), score


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
    s = expand_structure(s)
    [n], [goal] = s.lengths, s.goals
    heads = [-1] * n
    stack = [goal]
    while stack:
        e = best[stack.pop()]
        if s.arc_d[e]:
            heads[s.arc_d[e] - 1] = int(s.arc_h[e])
        stack.extend(int(t) for t in (s.tail0[e], s.tail1[e]) if t != s.n_nodes)
    return tuple(heads), vals[goal]


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
    [goal] = s.goals
    logz = vals[goal]
    edges = list(_scalar_edges(s, pos, V, wlog, beta, None))
    out = [-math.inf] * s.n_nodes
    out[goal] = 0.0
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


# ---------------------------------------------------------------------------
# Per-sentence reference for agreement decoding
# ---------------------------------------------------------------------------

# The reference certifies a sentence once its dual gap is at most
# DD_GAP_TOL * (1 + |L|), L the dual value: the rounding of sums of a few
# dozen terms stays far below.
DD_GAP_TOL = 1e-9


class DDReference(NamedTuple):
    tree: DepTree
    converged: bool
    iterations: int
    final_gap: float  # best primal cost minus dual value; 0.0 on agreement
    dual: float       # the dual value L of the last iteration
    relaxed_depth_cap: bool


def dd_decode_reference(x, theta, cfg_f, m, max_iters, g_weight=1.0):
    """Agreement decoding of one sentence alone by dual decomposition, as
    the paper decodes: Polyak subgradient steps on the arc prices u, each
    iteration one `scalar_viterbi` of the grammar under +u and one
    `eisner_min_reference` of the discriminative arc costs under -u, with
    `DepTree`s and 0/1 arc matrices for the update u + tau * (Y - Z), and a
    Python loop for the joint cost P of the grammar's tree. A sentence
    infeasible under the depth cap is decoded without it.

    P and the dual value L = eis - vit leave out g_weight * ||q||^2 / 2n,
    the term G gives every tree alike, so every L is a lower bound on the
    least P, which the exact joint decode reaches. The sentence is
    certified once its two trees agree, or once its lowest P so far is
    within `DD_GAP_TOL` * (1 + |L|) of L, with the tree that first reached
    it; after `max_iters` iterations it ends the same way, uncertified."""
    from dataclasses import replace

    # Scored through per-arc features, not the decoders' weight sums.
    v = rule_vector_reference(x, m.rules)
    q = (extract_features_reference(x, m.templates) @ m.w).reshape(v.shape)
    base = arc_costs_reference(q, v, m.mu) * g_weight
    pos, wlog = tag_ids(theta, x), theta.log_weights()
    u = np.zeros(v.shape)
    relaxed = False
    best_cost, best = math.inf, None
    for k in range(1, max_iters + 1):
        while True:
            heads, y_score = scalar_viterbi(
                dmv._compile((x.n,), cfg_f.max_ce_depth), pos, theta.V, wlog,
                cfg_f.dep_len_beta, u,
            )
            if y_score > -math.inf:
                break
            if relaxed or cfg_f.max_ce_depth is None:
                raise dmv.InfeasibleParseError()
            relaxed = True
            cfg_f = replace(cfg_f, max_ce_depth=None)
        y = DepTree(heads)
        z_heads, z_cost = eisner_min_reference(base - u)
        z = DepTree(z_heads)
        dual = z_cost - y_score
        if y == z:
            return DDReference(y, True, k, 0.0, dual, relaxed)
        cost = 0.0
        for d, h in enumerate(y.heads, 1):
            cost += base[h, d] - u[h, d]
        cost -= y_score
        if cost < best_cost:
            best_cost, best = cost, y
        gap = float(best_cost - dual)
        if gap <= DD_GAP_TOL * (1.0 + abs(dual)):
            return DDReference(best, True, k, gap, dual, relaxed)
        if k == max_iters:
            return DDReference(best, False, k, gap, dual, relaxed)
        diff = tree_matrix(y) - tree_matrix(z)
        u = u + gap / float(np.vdot(diff, diff)) * diff


# ---------------------------------------------------------------------------
# Cell-by-cell chart compilation
# ---------------------------------------------------------------------------

def compile_reference(n, cap):
    """The compiled chart of a length-n sentence under depth cap `cap`, built
    cell by cell, split point by split point and state pair by state pair,
    with every attribute `dmv._Structure` has: the reference that the
    template-tiled `dmv._compile((n,), cap)` must equal array for array,
    dtypes included.

    Nodes are numbered by level, then in creation order; edges are sorted
    by head, then kept in emission order."""
    from array import array
    from types import SimpleNamespace

    from jointdep.dmv import (
        HAS_CHILD, LEFT, NO_CHILD, RIGHT, _IL, _IR, _LC, _LO, _RC, _RO,
    )

    stop_base, cont_base, attach_base = 1 + n, 1 + 5 * n, 1 + 9 * n

    def stop(h, direction, adj):
        return stop_base + 4 * (h - 1) + 2 * direction + adj

    def cont(h, direction, adj):
        return cont_base + 4 * (h - 1) + 2 * direction + adj

    def attach(h, c):
        return attach_base + n * (h - 1) + c - 1

    index = {}
    level = array("i")
    # States present per (kind, a, b) cell in creation order, each followed
    # by its node id.
    cells = {}
    records = array("i")
    emit = records.extend

    def node(key, lv):
        nid = index.get(key)
        if nid is None:
            nid = index[key] = len(level)
            level.append(lv)
            cells.setdefault(key[:3], []).append(key[3:] + (nid,))
        return nid

    def attach_settled(s, p):
        if cap is None:
            return 0
        s2 = max(s, p + 1)
        return None if s2 > cap else s2

    def child_val(vl, vr):
        if cap is None:
            return 0
        v = max(vl, vr)
        return None if v > cap else v

    def close_val(s, p):
        return 0 if cap is None else max(s, p, 0)

    # Width-0 axioms (level 0) and their closed forms (level 1).
    for h in range(1, n + 1):
        for open_kind, closed_kind, direction in ((_LO, _LC, LEFT),
                                                  (_RO, _RC, RIGHT)):
            base = node((open_kind, h, h, 0, -1), 0)
            emit((base, -1, -1, 0, 0, 0, 0))
            emit((node((closed_kind, h, h, 0), 1), base, -1,
                  stop(h, direction, NO_CHILD), 0, 0, 0))

    for m in range(1, n):
        lv_inc, lv_open, lv_closed = 3 * m - 1, 3 * m, 3 * m + 1
        # Incomplete items of width m (arc attachments).
        for h in range(1, n + 1):
            c = h - m
            if c >= 1:  # left attachment h -> c
                att = attach(h, c)
                for k in range(c, h):
                    cont_ref = cont(h, LEFT, HAS_CHILD if k + 1 < h else NO_CHILD)
                    for vr, t0 in cells.get((_RC, c, k), ()):
                        for s, p, t1 in cells.get((_LO, h, k + 1), ()):
                            s2 = attach_settled(s, p)
                            if s2 is None:
                                continue
                            emit((node((_IL, c, h, s2, vr), lv_inc), t0, t1,
                                  cont_ref, att, h, c))
            c = h + m
            if c <= n:  # right attachment h -> c
                att = attach(h, c)
                for k in range(h + 1, c + 1):
                    cont_ref = cont(h, RIGHT, HAS_CHILD if k - 1 > h else NO_CHILD)
                    for vl, t0 in cells.get((_LC, c, k), ()):
                        for s, p, t1 in cells.get((_RO, h, k - 1), ()):
                            s2 = attach_settled(s, p)
                            if s2 is None:
                                continue
                            emit((node((_IR, h, c, s2, vl), lv_inc), t0, t1,
                                  cont_ref, att, h, c))
        # Open and closed halves of width m.
        for h in range(1, n + 1):
            i = h - m
            if i >= 1:
                for c in range(i, h):
                    for s2, vr, t0 in cells.get((_IL, c, h), ()):
                        for vl, t1 in cells.get((_LC, c, i), ()):
                            v = child_val(vl, vr)
                            if v is None:
                                continue
                            emit((node((_LO, h, i, s2, v), lv_open), t0, t1,
                                  0, 0, 0, 0))
                stop_ref = stop(h, LEFT, HAS_CHILD)
                for s, p, t0 in cells.get((_LO, h, i), ()):
                    emit((node((_LC, h, i, close_val(s, p)), lv_closed), t0, -1,
                          stop_ref, 0, 0, 0))
            j = h + m
            if j <= n:
                for c in range(h + 1, j + 1):
                    for s2, vl, t0 in cells.get((_IR, h, c), ()):
                        for vr, t1 in cells.get((_RC, c, j), ()):
                            v = child_val(vl, vr)
                            if v is None:
                                continue
                            emit((node((_RO, h, j, s2, v), lv_open), t0, t1,
                                  0, 0, 0, 0))
                stop_ref = stop(h, RIGHT, HAS_CHILD)
                for s, p, t0 in cells.get((_RO, h, j), ()):
                    emit((node((_RC, h, j, close_val(s, p)), lv_closed), t0, -1,
                          stop_ref, 0, 0, 0))

    goal = node(("goal", 0, 0), 3 * n - 1)
    for c in range(1, n + 1):
        for vl, t0 in cells.get((_LC, c, 1), ()):
            for vr, t1 in cells.get((_RC, c, n), ()):
                emit((goal, t0, t1, c, 0, 0, c))  # slot c is root(c)
    rec = np.frombuffer(records, dtype=np.int32).reshape(-1, 7)
    level = np.frombuffer(level, dtype=np.int32)

    # Renumber nodes by level (stably), then sort edges by head (stably).
    order = np.argsort(level, kind="stable")
    n_nodes = len(level)
    renum = np.empty(n_nodes + 1, dtype=np.int32)
    renum[order] = np.arange(n_nodes, dtype=np.int32)
    renum[n_nodes] = n_nodes  # tail -1 is the sentinel
    head = renum[rec[:, 0]]
    by_head = np.argsort(head, kind="stable")
    rec = rec[by_head]
    s = SimpleNamespace(lengths=(n,), n_nodes=n_nodes,
                        goals=np.array([n_nodes - 1], dtype=np.int32))
    s.head = head[by_head]
    s.tail0 = renum[rec[:, 1]]
    s.tail1 = renum[rec[:, 2]]
    s.slots = np.ascontiguousarray(rec[:, 3:5].T)
    s.arc_h = rec[:, 5].copy()
    s.arc_d = rec[:, 6].copy()
    s.arc_edges = np.flatnonzero(s.arc_d).astype(np.int32)
    arc_h, arc_d = s.arc_h[s.arc_edges], s.arc_d[s.arc_edges]
    s.arc_price = arc_h * (n + 1) + arc_d
    s.arc_pen = np.where(arc_h > 0, np.abs(arc_h - arc_d) - 1, 0).astype(np.int32)
    first = np.searchsorted(s.head, np.arange(n_nodes + 1))
    starts = np.flatnonzero(np.diff(level[order])) + 1
    s.levels = _levels(s, first, [0, *starts.tolist(), n_nodes])
    return s


def _levels(s, first, bounds):
    """`dmv._Structure.levels` of `s`, given each node's first edge and the
    level bounds."""
    levels = []
    for a, b in zip(bounds, bounds[1:]):
        e0, e1 = int(first[a]), int(first[b])
        levels.append((a, b, first[a:b] - e0, slice(e0, e1), s.head[e0:e1],
                       s.tail0[e0:e1], s.tail1[e0:e1]))
    return tuple(levels)


def plan_reference(structures):
    """The charts `structures`, each compiled alone (`compile_reference`),
    laid out as one group with every attribute `dmv._Structure` has: the
    reference that `dmv._compile(lengths, cap)` must equal array for array.

    Level l of the group is level l of every chart in chart order, so each
    chart keeps its own node and edge order within a level, a level's edges
    stay grouped by head, and the charts share one sentinel. Chart i's slots
    and arc prices follow those of the charts before it: 1 + 9n + n^2 slots
    and (n + 1)^2 prices each."""
    from types import SimpleNamespace

    ss = list(structures)
    # Node and edge counts per (chart, level); each chart's sentinel counts
    # as one more node, in a last column.
    top = max(len(s.levels) for s in ss)
    nodes = np.zeros((len(ss), top + 1), dtype=np.int32)
    edges = np.zeros((len(ss), top), dtype=np.int32)
    for i, s in enumerate(ss):
        for lv, (a, b, _, sl, *_) in enumerate(s.levels):
            nodes[i, lv], edges[i, lv] = b - a, sl.stop - sl.start
    nodes[:, top] = 1
    n_nodes = int(nodes[:, :top].sum())
    node_to = _level_major(nodes)
    node_to[:, top] = n_nodes  # every sentinel becomes the group's one
    node_new = _moved(nodes, node_to)
    edge_new = _moved(edges, _level_major(edges))
    slots, n_edges = nodes.sum(axis=1), edges.sum(axis=1)
    node_base = np.cumsum(slots) - slots
    shift = np.repeat(node_base.astype(np.int32), n_edges)

    def place(arrays, renumber=False):
        """The charts' per-edge `arrays` (edges on the last axis), in group
        order; node ids renumbered if `renumber`."""
        flat = np.concatenate(arrays, axis=-1)
        if renumber:
            flat = node_new[flat + shift]
        out = np.empty_like(flat)
        out[..., edge_new] = flat
        return out

    lengths = tuple(n for s in ss for n in s.lengths)
    sizes = np.array([[1 + 9 * n + n * n, (n + 1) ** 2] for n in lengths])
    slot_off, price_off = (np.cumsum(sizes, axis=0) - sizes).T.tolist()
    out = SimpleNamespace(lengths=lengths, n_nodes=n_nodes,
                          goals=node_new[node_base + slots - 2])
    out.head = place([s.head for s in ss], True)
    out.tail0 = place([s.tail0 for s in ss], True)
    out.tail1 = place([s.tail1 for s in ss], True)
    out.slots = place([s.slots + off for s, off in zip(ss, slot_off)])
    out.arc_h = place([s.arc_h for s in ss])
    out.arc_d = place([s.arc_d for s in ss])
    edge_base = np.cumsum(n_edges) - n_edges
    arc_edges = edge_new[
        np.concatenate([s.arc_edges + b for s, b in zip(ss, edge_base)])
    ]
    by_edge = np.argsort(arc_edges)
    out.arc_edges = arc_edges[by_edge]
    out.arc_price = np.concatenate(
        [s.arc_price + off for s, off in zip(ss, price_off)])[by_edge]
    out.arc_pen = np.concatenate([s.arc_pen for s in ss])[by_edge]
    first = np.searchsorted(out.head, np.arange(n_nodes + 1))
    bounds = [0, *np.cumsum(nodes[:, :top].sum(axis=0)).tolist()]
    out.levels = _levels(out, first, bounds)
    return out


def _level_major(counts):
    """Where each (chart, level) block of sizes `counts` starts when the
    blocks are laid out level by level, chart by chart within a level."""
    by_level = counts.T.ravel()
    return (np.cumsum(by_level) - by_level).reshape(counts.T.shape).T.copy()


def _moved(counts, to):
    """New position of every element of (chart, level) blocks of sizes
    `counts`, laid out chart by chart, when block (i, l) moves to to[i, l]."""
    sizes = counts.ravel()
    shift = to.ravel() - (np.cumsum(sizes) - sizes)
    return np.arange(sizes.sum(), dtype=np.int32) + np.repeat(
        shift.astype(np.int32), sizes)
