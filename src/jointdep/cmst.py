"""Discriminative clustering parser: arc features, rule priors, projective
min-cost decoding, and Frank-Wolfe training over relaxed tree variables with
an exact ridge solve for the weights."""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .corpus import Corpus, DepTree, Sentence, tree_matrix

ROOT_TAG = "<ROOT>"
UNK_TAG = "<UNK>"

# Distance bins: 1, 2, 3, 4, 5, 6-10, >10.
_BIN_EDGES = (1, 2, 3, 4, 5, 10)
_NUM_BINS = len(_BIN_EDGES) + 1


def _dist_bin(dist: int) -> int:
    for b, edge in enumerate(_BIN_EDGES):
        if dist <= edge:
            return b
    return _NUM_BINS - 1


@dataclass(frozen=True)
class FeatureTemplate:
    """Deterministic dense indexing of first-order arc features.

    Templates: bias; head tag; dependent tag; tag pair; pair + direction;
    pair + direction + distance bin; direction + distance bin; root-arc
    indicator; root + dependent tag.  Root arcs use the distinguished ROOT
    head tag; tags unseen at extraction time map to UNK.
    """

    tags: tuple[str, ...]  # ROOT, UNK, then the corpus vocabulary
    _tag_index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_tag_index", {t: i for i, t in enumerate(self.tags)}
        )

    @classmethod
    def for_vocab(cls, pos_vocab: Sequence[str]) -> "FeatureTemplate":
        return cls((ROOT_TAG, UNK_TAG) + tuple(pos_vocab))

    @property
    def T(self) -> int:
        return len(self.tags)

    @property
    def dimension(self) -> int:
        T = self.T
        B = _NUM_BINS
        return 1 + 2 * T + 3 * T * T + 2 * B * T * T + 2 * B + 1 + T

    def tag_id(self, tag: str) -> int:
        return self._tag_index.get(tag, 1)  # UNK at index 1

    def arc_features(self, head_tag: str, dep_tag: str, h: int, d: int) -> list[int]:
        """Active feature indices for the arc (h, d)."""
        T = self.T
        B = _NUM_BINS
        ht = self.tag_id(head_tag)
        dt = self.tag_id(dep_tag)
        direction = 1 if h < d else 0  # 1 = head precedes dependent
        b = _dist_bin(abs(h - d))
        pair = ht * T + dt
        off = 1
        feats = [0, off + ht, off + T + dt, off + 2 * T + pair]
        off += 2 * T + T * T
        feats.append(off + pair * 2 + direction)
        off += 2 * T * T
        feats.append(off + (pair * 2 + direction) * B + b)
        off += 2 * B * T * T
        feats.append(off + direction * B + b)
        off += 2 * B
        if h == 0:
            feats.append(off)
            feats.append(off + 1 + dt)
        return feats


def extract_features(x: Sentence, t: FeatureTemplate) -> sp.csr_matrix:
    """Sparse 0/1 matrix with one row per cell [h, d] of the (n+1, n+1) arc
    matrix, in row-major order. Rows of non-arc cells (d = 0 or h = d) are
    empty, so (X @ w).reshape(n + 1, n + 1) is the arc score matrix."""
    n = x.n
    tags = (ROOT_TAG,) + x.upos
    indptr = [0]
    cols: list[int] = []
    for h in range(n + 1):
        for d in range(n + 1):
            if d and d != h:
                cols.extend(t.arc_features(tags[h], tags[d], h, d))
            indptr.append(len(cols))
    data = np.ones(len(cols), dtype=np.float64)
    return sp.csr_matrix(
        (data, np.asarray(cols), np.asarray(indptr)),
        shape=((n + 1) ** 2, t.dimension),
    )


# ---------------------------------------------------------------------------
# Linguistic-rule prior
# ---------------------------------------------------------------------------

RuleSet = frozenset  # of (head_tag, dep_tag) pairs; "ROOT" literal allowed


def parse_rules(lines) -> RuleSet:
    rules = set()
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"rule line must be 'HEADTAG DEPTAG': {raw!r}")
        rules.add((parts[0], parts[1]))
    return frozenset(rules)


def load_rules(path) -> RuleSet:
    with open(path, encoding="utf-8") as f:
        return parse_rules(f)


def default_rules() -> RuleSet:
    text = (
        importlib.resources.files("jointdep.data")
        .joinpath("universal_rules.txt")
        .read_text(encoding="utf-8")
    )
    return parse_rules(text.splitlines())


def rule_vector(x: Sentence, r: RuleSet) -> np.ndarray:
    """(n+1, n+1) matrix keyed [h, d]: 1.0 on the arcs whose (head tag,
    dependent tag) pair is licensed, 0 elsewhere and on non-arc cells."""
    n = x.n
    tags = ("ROOT",) + x.upos
    v = np.zeros((n + 1, n + 1))
    for h in range(n + 1):
        for d in range(1, n + 1):
            if h != d and (tags[h], tags[d]) in r:
                v[h, d] = 1.0
    return v


def sentence_terms(x: Sentence, m: CmstModel) -> tuple[sp.csr_matrix, np.ndarray]:
    """The discriminative terms of a sentence under a model: its feature
    matrix X (see `extract_features`) and its rule matrix v (see
    `rule_vector`). Every scorer below takes these rather than the sentence."""
    return extract_features(x, m.templates), rule_vector(x, m.rules)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass
class CmstModel:
    w: np.ndarray
    lam: float
    mu: float
    templates: FeatureTemplate
    rules: RuleSet

    def __post_init__(self):
        if not (0 <= self.lam < math.inf and 0 <= self.mu < math.inf):
            raise ValueError(
                f"lambda and mu must be finite and >= 0, got {self.lam}, {self.mu}"
            )
        if self.w.shape != (self.templates.dimension,):
            raise ValueError(
                f"weight vector has shape {self.w.shape}, expected "
                f"({self.templates.dimension},)"
            )
        if not np.isfinite(self.w).all():
            raise ValueError("weight vector has non-finite entries")

    @classmethod
    def create(
        cls,
        pos_vocab: Sequence[str],
        lam: float = 1.0,
        mu: float = 0.5,
        rules: RuleSet | None = None,
    ) -> "CmstModel":
        t = FeatureTemplate.for_vocab(pos_vocab)
        if rules is None:
            rules = default_rules()
        return cls(np.zeros(t.dimension), lam, mu, t, rules)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("cmstmodel 1\n")
            f.write("lambda %.17e\n" % self.lam)
            f.write("mu %.17e\n" % self.mu)
            f.write("tags " + " ".join(self.templates.tags) + "\n")
            for head, dep in sorted(self.rules):
                f.write(f"rule {head} {dep}\n")
            for i in np.nonzero(self.w)[0]:
                f.write("w %d %.17e\n" % (i, self.w[i]))

    @classmethod
    def load(cls, path) -> "CmstModel":
        with open(path, encoding="utf-8") as f:
            header = f.readline().split()
            if header[:2] != ["cmstmodel", "1"]:
                raise ValueError(f"unrecognized model header {header!r}")
            lam = mu = None
            tags = None
            rules = set()
            weights = []
            arity = {"lambda": 2, "mu": 2, "rule": 3, "w": 3}
            for line_no, line in enumerate(f, start=2):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != arity.get(parts[0], len(parts)):
                    raise ValueError(
                        f"line {line_no}: {parts[0]} record needs "
                        f"{arity[parts[0]] - 1} fields, got {len(parts) - 1}"
                    )
                if parts[0] == "lambda":
                    lam = float(parts[1])
                elif parts[0] == "mu":
                    mu = float(parts[1])
                elif parts[0] == "tags":
                    tags = tuple(parts[1:])
                elif parts[0] == "rule":
                    rules.add((parts[1], parts[2]))
                elif parts[0] == "w":
                    weights.append((int(parts[1]), float(parts[2])))
                else:
                    raise ValueError(f"unrecognized record {parts[0]!r}")
            if lam is None or mu is None or tags is None:
                raise ValueError("incomplete model file")
            t = FeatureTemplate(tags)
            w = np.zeros(t.dimension)
            for i, v in weights:
                if not 0 <= i < t.dimension:
                    raise ValueError(
                        f"weight index {i} out of range for dimension {t.dimension}"
                    )
                w[i] = v
            return cls(w, lam, mu, t, frozenset(rules))


def tree_loss(
    y: np.ndarray, q: np.ndarray, v: np.ndarray, mu: float, ridge: float = 0.0
) -> float:
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


def sentence_objective(
    X: sp.csr_matrix, v: np.ndarray, y: np.ndarray, m: CmstModel, N: int
) -> float:
    """Per-sentence discriminative loss at the (n+1, n+1) arc matrix y, for a
    sentence with terms (X, v) in a corpus of N sentences:
    (1/2n)||y - Xw||^2 + (lam/2N)||w||^2 - mu * v.y
    """
    if y.shape != v.shape:
        raise ValueError(f"arc matrix has shape {y.shape}, expected {v.shape}")
    q = (X @ m.w).reshape(y.shape)
    return tree_loss(y, q, v, m.mu, m.lam / (2.0 * N) * float(m.w @ m.w))


# ---------------------------------------------------------------------------
# Arc-factored projective decoding (split-head min-cost chart)
# ---------------------------------------------------------------------------

def eisner_min(cost: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Min-cost projective single-rooted tree for an (n+1, n+1) arc-cost
    matrix keyed [head, dependent]; row/column 0 is the root pseudo-node.

    Ties are broken toward the earliest-constructed derivation (smaller
    split point, then nearer attachment).
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


def arc_costs(
    X: sp.csr_matrix, v: np.ndarray, m: CmstModel, u: np.ndarray | None = None
) -> np.ndarray:
    """(n+1, n+1) matrix of the per-arc linear cost of the discriminative
    objective over 0/1 trees, keyed [h, d], for a sentence with terms (X, v):
    (1/2n)(1 - 2(Xw)[h, d]) - mu v[h, d] - u[h, d] on arcs, 0 on non-arc
    cells.
    """
    q = (X @ m.w).reshape(v.shape)
    costs = (1.0 - 2.0 * q) / (2.0 * (v.shape[0] - 1)) - m.mu * v
    costs[:, 0] = 0.0
    np.fill_diagonal(costs, 0.0)
    if u is not None:
        costs = costs - u
    return costs


def lmo_decode(
    X: sp.csr_matrix, v: np.ndarray, m: CmstModel, u: np.ndarray | None = None
) -> tuple[DepTree, float]:
    """Min-cost projective tree under the linearized objective minus prices,
    for a sentence with terms (X, v)."""
    heads, score = eisner_min(arc_costs(X, v, m, u))
    return DepTree(heads), score


# ---------------------------------------------------------------------------
# Frank-Wolfe training over relaxed per-sentence tree variables
# ---------------------------------------------------------------------------

def _chain_tree(n: int) -> DepTree:
    return DepTree(tuple(range(0, n)))  # token 1 rooted, each next one chained


class FrankWolfeOptimizer:
    """Block optimization of the discriminative clustering objective: exact
    ridge re-solve for w given the relaxed tree variables, then one
    Frank-Wolfe step (projective-tree linear minimization plus exact line
    search) on the relaxed variables jointly.

    The ridge matrix sum_i (1/n_i) X_i'X_i + lam*I is the same for every
    solve, so it is factored once. SuperLU gets a symmetric ordering: its
    default column ordering fills the factors about 20 times more here."""

    def __init__(self, corpus: Corpus, model: CmstModel):
        if not model.lam > 0:
            raise ValueError(
                f"lambda must be > 0 for a unique weight solution, got {model.lam}"
            )
        if corpus.N == 0:
            raise ValueError("cannot train on an empty corpus")
        self.model = model
        self.X, self.v = zip(*(sentence_terms(s, model) for s in corpus))
        self.y = [tree_matrix(_chain_tree(s.n)) for s in corpus]
        self.ns = np.array([s.n for s in corpus], dtype=np.float64)
        # Stacked design matrix with rows scaled 1/sqrt(n) so that the ridge
        # normal equations sum (1/n) X'X per sentence.
        scaled = [X / math.sqrt(n) for X, n in zip(self.X, self.ns)]
        self.D = sp.vstack(scaled).tocsr()
        gram = self.D.T @ self.D + model.lam * sp.identity(self.D.shape[1])
        self._lu = splu(
            gram.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
        self.objective_history: list[float] = []
        self.gap_history: list[float] = []

    def _solve_w(self) -> None:
        ytil = np.concatenate(
            [y.ravel() / math.sqrt(n) for y, n in zip(self.y, self.ns)]
        )
        self.model.w = self._lu.solve(self.D.T @ ytil)

    def fit_trees(self, trees: Sequence[DepTree]) -> None:
        """Set the relaxed tree variables to fixed trees and re-solve w: the
        exact minimizer of the objective over w at those trees."""
        self.y = [tree_matrix(t) for t in trees]
        self._solve_w()

    def objective(self) -> float:
        w = self.model.w
        total = self.model.lam / 2.0 * float(w @ w)
        for X, v, y in zip(self.X, self.v, self.y):
            total += tree_loss(y, (X @ w).reshape(y.shape), v, self.model.mu)
        return total

    def step(self) -> float:
        """Run one iteration; returns the Frank-Wolfe duality gap."""
        self._solve_w()
        w = self.model.w
        verts = []
        gap = 0.0
        denom = 0.0
        for X, v, y, n in zip(self.X, self.v, self.y, self.ns):
            g = (y - (X @ w).reshape(y.shape)) / n - self.model.mu * v
            s = tree_matrix(DepTree(eisner_min(g)[0]))
            verts.append(s)
            diff = y - s
            gap += float(np.vdot(g, diff))
            denom += float(np.vdot(diff, diff)) / n
        if denom > 0.0:
            gamma = min(1.0, max(0.0, gap / denom))
            for y, s in zip(self.y, verts):
                y += gamma * (s - y)
        self.objective_history.append(self.objective())
        self.gap_history.append(gap)
        return gap

    def run(self, iters: int) -> None:
        if iters < 1:
            raise ValueError("iters must be >= 1")
        for _ in range(iters):
            self.step()


# ---------------------------------------------------------------------------
# Weight gradient
# ---------------------------------------------------------------------------

def sentence_gradient(
    X: sp.csr_matrix, y: np.ndarray, m: CmstModel, N: int
) -> np.ndarray:
    """Gradient of sentence_objective with respect to w, for a sentence with
    feature matrix X (the rule term does not depend on w)."""
    return X.T @ (X @ m.w - y.ravel()) / (y.shape[0] - 1) + (m.lam / N) * m.w
