"""Discriminative clustering parser: arc features, rule priors, projective
min-cost decoding, and Frank-Wolfe training over relaxed tree variables with
an exact ridge solve for the weights.

An arc's features depend only on its cell [head tag, dependent tag,
direction, distance bin] (`_arc_cells`). Decoding scores arcs from tables of
weight sums (`sentence_terms`), one entry per cell, so it builds no feature
matrix. Only Frank-Wolfe training builds the sparse features X
(`extract_features`), in one numpy pass per sentence, and only it imports
scipy. Its state is a few flat corpus vectors, so each step is a handful of
corpus-wide numpy operations around one `eisner_min` call."""

from __future__ import annotations

import functools
import importlib.resources
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .corpus import ArcLayout, Corpus, DepTree, Sentence

if TYPE_CHECKING:
    import scipy.sparse as sp

ROOT_TAG = "<ROOT>"
UNK_TAG = "<UNK>"

# Distance bins: 1, 2, 3, 4, 5, 6-10, >10. The bin of a distance is the
# first edge it does not exceed.
_BIN_EDGES = (1, 2, 3, 4, 5, 10)
_NUM_BINS = len(_BIN_EDGES) + 1


@dataclass(frozen=True)
class FeatureTemplate:
    """Deterministic dense indexing of first-order arc features.

    Templates: bias; head tag; dependent tag; tag pair; pair + direction;
    pair + direction + distance bin; direction + distance bin; root-arc
    indicator; root + dependent tag.  Root arcs use the distinguished ROOT
    head tag; tags unseen at extraction time map to UNK.
    """

    # Each template's block of weights, in index order, named by the axes of
    # a feature cell [head tag, dependent tag, direction, distance bin] that
    # index it (row-major). The last `_ROOT_BLOCKS` fire on root arcs only.
    _BLOCK_AXES = (
        (False, False, False, False),  # bias
        (True, False, False, False),  # head tag
        (False, True, False, False),  # dependent tag
        (True, True, False, False),  # tag pair
        (True, True, True, False),  # pair + direction
        (True, True, True, True),  # pair + direction + distance bin
        (False, False, True, True),  # direction + distance bin
        (False, False, False, False),  # root-arc indicator
        (False, True, False, False),  # root + dependent tag
    )
    _ROOT_BLOCKS = 2

    tags: tuple[str, ...]  # ROOT, UNK, then the corpus vocabulary
    _tag_index: dict = field(default=None, repr=False, compare=False)
    # Per block: its 4-d shape, its first index, and the stride of each cell
    # axis in it (0 for the axes it ignores).
    _blocks: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # `tag_id` scores every unseen tag as index 1, and a repeated tag
        # would give one tag two rows of weights.
        if self.tags[:2] != (ROOT_TAG, UNK_TAG):
            raise ValueError(
                f"feature tags must start with {ROOT_TAG} {UNK_TAG}, got "
                f"{' '.join(self.tags[:2])!r}"
            )
        object.__setattr__(
            self, "_tag_index", {t: i for i, t in enumerate(self.tags)}
        )
        if len(self._tag_index) < self.T:
            dup = next(t for i, t in enumerate(self.tags) if self._tag_index[t] != i)
            raise ValueError(
                f"feature tag {dup!r} appears more than once "
                f"({ROOT_TAG} and {UNK_TAG} are reserved)"
            )
        blocks = []
        off = 0
        for axes in self._BLOCK_AXES:
            shape = tuple(
                size if used else 1
                for size, used in zip((self.T, self.T, 2, _NUM_BINS), axes)
            )
            strides = tuple(
                math.prod(shape[i + 1:]) if used else 0
                for i, used in enumerate(axes)
            )
            blocks.append((shape, off, strides))
            off += math.prod(shape)
        object.__setattr__(self, "_blocks", tuple(blocks))

    @classmethod
    def for_vocab(cls, pos_vocab: Sequence[str]) -> "FeatureTemplate":
        return cls((ROOT_TAG, UNK_TAG) + tuple(pos_vocab))

    @property
    def T(self) -> int:
        return len(self.tags)

    @property
    def dimension(self) -> int:
        shape, off, _ = self._blocks[-1]
        return off + math.prod(shape)

    def tag_id(self, tag: str) -> int:
        return self._tag_index.get(tag, 1)  # UNK at index 1

    def weight_sums(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The score of every arc feature cell under weights w: a (T, T, 2, B)
        table keyed [head tag, dependent tag, direction, bin] for heads that
        are tokens, and a (T, B) table keyed [dependent tag, bin] for the
        root. Each entry adds its cell's weights to 0.0 one at a time, in
        block order, as a CSR matvec sums a row of X @ w."""
        split = len(self._blocks) - self._ROOT_BLOCKS
        sums = np.zeros((self.T, self.T, 2, _NUM_BINS))
        for shape, off, _ in self._blocks[:split]:
            sums += w[off:off + math.prod(shape)].reshape(shape)
        root = sums[self.tag_id(ROOT_TAG), :, 1, :]
        for shape, off, _ in self._blocks[split:]:
            root = root + w[off:off + math.prod(shape)].reshape(shape)[0, :, 0, :]
        return sums, root


def _arc_cells(x: Sentence, t: FeatureTemplate) -> tuple[np.ndarray, ...]:
    """The feature cell [head tag, dependent tag, direction, distance bin] of
    every cell [h, d] of x's (n+1, n+1) arc matrix, as four index arrays that
    broadcast to (n+1, n+1). Row 0 is headed by the ROOT tag; direction is
    1 when the head precedes the dependent."""
    ids = np.array([t.tag_id(tag) for tag in (ROOT_TAG,) + x.upos])
    pos = np.arange(x.n + 1)
    right = (pos[:, None] < pos).astype(np.intp)
    bins = np.searchsorted(_BIN_EDGES, np.abs(pos[:, None] - pos))
    return ids[:, None], ids, right, bins


def _arc_scores(
    x: Sentence, t: FeatureTemplate, sums: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """The (n+1, n+1) arc score matrix of x, keyed [h, d], read from the
    tables `sums = t.weight_sums(w)`: bit for bit
    (extract_features([x], t) @ w).reshape(n + 1, n + 1), with no feature
    matrix built. Column 0 and the diagonal are 0."""
    pair, root = sums
    heads, deps, right, bins = _arc_cells(x, t)
    q = pair[heads, deps, right, bins]
    q[0] = root[deps, bins[0]]
    q[:, 0] = 0.0
    np.fill_diagonal(q, 0.0)
    return q


def _feature_rows(x: Sentence, t: FeatureTemplate) -> tuple[np.ndarray, np.ndarray]:
    """The active feature indices of every cell [h, d] of x's arc matrix, in
    row-major cell order and, within a cell, in block order, and the number
    of them in each cell: one per block on root arcs, one per block but the
    root-only ones on other arcs, none on non-arc cells (d = 0 or h = d)."""
    blocks = t._blocks
    offs = np.array([off for _, off, _ in blocks])
    strides = np.array([s for _, _, s in blocks])  # (blocks, 4)
    cells = np.stack(np.broadcast_arrays(*_arc_cells(x, t)), axis=-1)
    idx = offs + cells @ strides.T  # (n+1, n+1, blocks): index in each block
    pos = np.arange(x.n + 1)
    arc = (pos != 0) & (pos[:, None] != pos)
    fires = np.arange(len(blocks)) < len(blocks) - t._ROOT_BLOCKS
    active = arc[..., None] & (fires | (pos == 0)[:, None, None])
    return idx[active], active.sum(axis=2).ravel()


def extract_features(xs: Sequence[Sentence], t: FeatureTemplate) -> sp.csr_matrix:
    """Sparse 0/1 matrix with one row per cell [h, d] of each sentence's
    (n+1, n+1) arc matrix, in row-major order, the sentences stacked in order.
    Rows of non-arc cells (d = 0 or h = d) are empty, so the rows of sentence
    x give (X @ w).reshape(n + 1, n + 1), its arc score matrix."""
    # Imported here, not at module load, as in `FrankWolfeOptimizer`.
    import scipy.sparse as sp

    rows = [_feature_rows(x, t) for x in xs]
    cols = np.concatenate([c for c, _ in rows])
    indptr = np.concatenate(([0], np.cumsum(np.concatenate([k for _, k in rows]))))
    return sp.csr_matrix(
        (np.ones(cols.size), cols, indptr), shape=(indptr.size - 1, t.dimension),
    )


# ---------------------------------------------------------------------------
# Linguistic-rule prior
# ---------------------------------------------------------------------------

RuleSet = frozenset  # of (head_tag, dep_tag) pairs; "ROOT" literal allowed


def parse_rules(lines) -> RuleSet:
    rules = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                f"line {line_no}: rule line must be 'HEADTAG DEPTAG': {raw.strip()!r}"
            )
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
    dependent tag) pair is licensed, 0 elsewhere and on non-arc cells. Read
    from a table over the sentence's distinct tags and the "ROOT" literal."""
    kinds: dict[str, int] = {}
    ids = np.array([kinds.setdefault(tag, len(kinds)) for tag in ("ROOT",) + x.upos])
    licensed = np.array([[(h, d) in r for d in kinds] for h in kinds], dtype=float)
    v = licensed[ids[:, None], ids]
    v[:, 0] = 0.0
    np.fill_diagonal(v, 0.0)
    return v


def sentence_terms(
    xs: Iterable[Sentence], m: CmstModel
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The discriminative terms of each sentence of xs under a model, one at
    a time: its arc scores q (see `_arc_scores`) and its rule matrix v (see
    `rule_vector`), with the weight sums built once for all of them. Every
    scorer below takes these rather than the sentence."""
    sums = m.templates.weight_sums(m.w)
    for x in xs:
        yield _arc_scores(x, m.templates, sums), rule_vector(x, m.rules)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def check_weights(lam: float, mu: float, train: bool = False) -> None:
    """Raise ValueError unless the ridge weight `lam` and the rule weight `mu`
    are finite and >= 0, and, to `train` on them, `lam` > 0 so that the
    weight solution is unique."""
    if train and not lam > 0:
        raise ValueError(f"lambda must be > 0 for a unique weight solution, got {lam}")
    if not (0 <= lam < math.inf and 0 <= mu < math.inf):
        raise ValueError(f"lambda and mu must be finite and >= 0, got {lam}, {mu}")


@dataclass
class CmstModel:
    w: np.ndarray
    lam: float
    mu: float
    templates: FeatureTemplate
    rules: RuleSet

    def __post_init__(self):
        check_weights(self.lam, self.mu)
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
                raise ValueError(f"line 1: unrecognized model header {header!r}")
            t = None
            scalars = {}  # lambda and mu
            rules = set()
            weights = []
            arity = {"lambda": 2, "mu": 2, "tags": None, "rule": 3, "w": 3}
            for line_no, line in enumerate(f, start=2):
                parts = line.split()
                if not parts:
                    continue
                kind = parts[0]
                if kind not in arity:
                    raise ValueError(f"line {line_no}: unrecognized record {kind!r}")
                if arity[kind] not in (None, len(parts)):
                    raise ValueError(
                        f"line {line_no}: {kind} record needs "
                        f"{arity[kind] - 1} fields, got {len(parts) - 1}"
                    )
                try:
                    if kind in ("lambda", "mu"):
                        value = float(parts[1])
                        if not 0 <= value < math.inf:
                            raise ValueError(f"must be finite and >= 0, got {value}")
                        scalars[kind] = value
                    elif kind == "tags":
                        t = FeatureTemplate(tuple(parts[1:]))
                    elif kind == "rule":
                        rules.add((parts[1], parts[2]))
                    else:
                        value = float(parts[2])
                        if not math.isfinite(value):
                            raise ValueError(f"must be finite, got {value}")
                        weights.append((line_no, int(parts[1]), value))
                except ValueError as exc:
                    raise ValueError(f"line {line_no}: {kind} record: {exc}") from None
            if len(scalars) < 2 or t is None:
                raise ValueError("incomplete model file")
            w = np.zeros(t.dimension)
            for line_no, i, v in weights:
                if not 0 <= i < t.dimension:
                    raise ValueError(
                        f"line {line_no}: weight index {i} out of range for "
                        f"dimension {t.dimension}"
                    )
                w[i] = v
            return cls(w, scalars["lambda"], scalars["mu"], t, frozenset(rules))


# ---------------------------------------------------------------------------
# Arc-factored projective decoding: one batched split-head min-cost chart
# ---------------------------------------------------------------------------
#
# Each sentence of length n owns an n*n block of two flat charts, cell (a, b)
# of the block (1 <= a, b <= n) at offset + (a-1)*n + (b-1):
#   C[h, x]  best cost of h's half-span reaching x: its left half when x < h,
#            its right half when x > h, and 0 when x == h;
#   I[h, c]  best cost of the span between h and c with the arc h -> c.
# A cell of width m = |h - c| has exactly m split candidates whatever n is,
#   I[h, c] = min_k (C[c, k] + C[h, k + 1]) + cost[h, c]   (c < h, k = c..h-1)
#   I[h, c] = min_k (C[c, k] + C[h, k - 1]) + cost[h, c]   (c > h, k = h+1..c)
#   C[h, x] = min_c (I[h, c] + C[c, x])   (c = x..h-1 or h+1..x)
# so the cells of one width from every sentence of a batch, of any lengths,
# stack into one (cells, m) candidate array with no padding.
#
# A plan takes about 12 bytes per n^3 of the sentences it covers, so a batch
# is decoded in passes of at most _PASS_CUBES: each pass's plan stays under
# about 1.6 MB (a longer sentence gets a pass of its own), and the 8 cached
# plans under about 13 MB, however large the corpus. Compiling a plan takes
# about three times as long as one pass over it, so passes that fall out of
# the cache still cost far less than a cell-by-cell chart.
_PASS_CUBES = 1 << 17


@dataclass(frozen=True)
class _EisnerPlan:
    """The chart layout of one tuple of sentence lengths."""

    size: int                  # cells of the flat charts
    offsets: tuple[int, ...]   # where each sentence's block starts
    # Per width m = 1, 2, ...: the target cells, the (cells, m) candidate
    # indices of the two operands of I and of the two operands of C, and
    # the flat index of each target's first candidate.
    widths: tuple[tuple[np.ndarray, ...], ...]
    root_cells: np.ndarray     # C[c, 1] then C[c, n], c = 1..n, per sentence


def _width_cells(n: int, m: int, offs: Sequence[int]) -> list[np.ndarray]:
    """Target cells (as a column), and the (cells, m) candidate indices of
    the two operands of I and of C, of the width-m cells of sentences of
    length n at offsets `offs`: sentence by sentence, left arcs (c = h - m)
    before right ones."""
    h = np.concatenate([np.arange(m + 1, n + 1), np.arange(1, n - m + 1)])
    c = np.concatenate([h[: n - m] - m, h[n - m:] + m])
    left = (c < h)[:, None]
    h, c = h[:, None] - 1, c[:, None] - 1  # 0-based from here
    k = np.where(left, c, h + 1) + np.arange(m)  # split points of each cell
    local = [
        h * n + c,                           # target I[h, c] and C[h, c]
        c * n + k,                           # I: C[c, k]
        h * n + k + np.where(left, 1, -1),   # I: C[h, k + 1] or C[h, k - 1]
        h * n + k,                           # C: I[h, k]
        k * n + c,                           # C: C[k, c]
    ]
    offs = np.array(offs)[:, None, None]
    return [(offs + idx).reshape(-1, idx.shape[1]) for idx in local]


@functools.lru_cache(maxsize=8)
def _eisner_plan(ns: tuple[int, ...]) -> _EisnerPlan:
    """Compile the chart layout of a batch of sentences of lengths `ns`."""
    offsets = np.cumsum((0,) + tuple(n * n for n in ns)).tolist()
    by_length: dict[int, list[int]] = {}
    for n, off in zip(ns, offsets):
        by_length.setdefault(n, []).append(off)
    widths = []
    for m in range(1, max(ns)):
        parts = [_width_cells(n, m, offs) for n, offs in by_length.items() if n > m]
        tgt, *cand = (np.concatenate(rows) for rows in zip(*parts))
        widths.append((tgt[:, 0], *cand, np.arange(0, tgt.size * m, m)))
    root_cells = [
        off + np.arange(n) * n + np.array([[0], [n - 1]])
        for n, off in zip(ns, offsets)
    ]
    return _EisnerPlan(
        offsets[-1], tuple(offsets[:-1]), tuple(widths),
        np.concatenate(root_cells, axis=1),
    )


def eisner_min(
    costs: Sequence[np.ndarray],
) -> list[tuple[tuple[int, ...], float]]:
    """Min-cost projective single-rooted tree, and its cost, of every
    (n+1, n+1) arc-cost matrix in `costs`, keyed [head, dependent], with
    row/column 0 the root pseudo-node. The matrices may have any sizes; they
    are decoded together, in as few chart passes as the plan bound allows.

    Costs are summed as min_k(C + C) + cost for incomplete spans, min_c(I + C)
    for complete ones and (cost[0, c] + C[c, 1]) + C[c, n] at the root. Ties
    go to the first minimum: the smaller split point, then the nearer
    attachment, then the leftmost root.
    """
    out: list[tuple[tuple[int, ...], float]] = []
    batch: list[np.ndarray] = []
    cubes = 0
    for cost in costs:
        n = cost.shape[0] - 1
        if batch and cubes + n**3 > _PASS_CUBES:
            out += _eisner_pass(batch)
            batch, cubes = [], 0
        batch.append(cost)
        cubes += n**3
    if batch:
        out += _eisner_pass(batch)
    return out


def _eisner_pass(
    costs: list[np.ndarray],
) -> list[tuple[tuple[int, ...], float]]:
    """`eisner_min` of a non-empty batch in one chart pass."""
    ns = tuple(c.shape[0] - 1 for c in costs)
    plan = _eisner_plan(ns)
    arc_cost = np.concatenate([c[1:, 1:].ravel() for c in costs])
    C = np.zeros(plan.size)
    I = np.zeros(plan.size)
    back_C = np.zeros(plan.size, dtype=np.int32)
    back_I = np.zeros(plan.size, dtype=np.int32)
    for tgt, a, b, ia, ib, first in plan.widths:
        cand = C[a]
        cand += C[b]
        j = cand.argmin(axis=1)
        I[tgt] = cand.ravel()[first + j] + arc_cost[tgt]
        back_I[tgt] = j
        cand = I[ia]
        cand += C[ib]
        j = cand.argmin(axis=1)
        C[tgt] = cand.ravel()[first + j]
        back_C[tgt] = j
    root_cost = np.concatenate([c[0, 1:] for c in costs])
    root_vals = ((root_cost + C[plan.root_cells[0]]) + C[plan.root_cells[1]]).tolist()
    back_C, back_I = back_C.tolist(), back_I.tolist()
    out = []
    start = 0
    for n, off in zip(ns, plan.offsets):
        vals = root_vals[start:start + n]
        start += n
        best = min(vals)
        root = vals.index(best) + 1
        heads = [0] * n
        stack = [(root, 1), (root, n)]
        while stack:
            h, x = stack.pop()
            if x == h:
                continue
            row = off + (h - 1) * n - 1  # cell (h, y) is row + y
            if x < h:
                c = x + back_C[row + x]
                k = c + back_I[row + c]
                stack += ((c, k), (h, k + 1), (c, x))
            else:
                c = h + 1 + back_C[row + x]
                k = h + 1 + back_I[row + c]
                stack += ((c, k), (h, k - 1), (c, x))
            heads[c - 1] = h
        out.append((tuple(heads), best))
    return out


def arc_costs(q: np.ndarray, v: np.ndarray, m: CmstModel) -> np.ndarray:
    """(n+1, n+1) matrix of the per-arc linear cost of the discriminative
    objective over 0/1 trees, keyed [h, d], for a sentence with terms (q, v):
    (1/2n)(1 - 2q[h, d]) - mu v[h, d] on arcs, 0 on non-arc cells.
    """
    costs = (1.0 - 2.0 * q) / (2.0 * (v.shape[0] - 1)) - m.mu * v
    costs[:, 0] = 0.0
    np.fill_diagonal(costs, 0.0)
    return costs


# ---------------------------------------------------------------------------
# Frank-Wolfe training over relaxed per-sentence tree variables
# ---------------------------------------------------------------------------

class FrankWolfeOptimizer:
    """Block optimization of the discriminative clustering objective: exact
    ridge re-solve for w given the relaxed tree variables, then one
    Frank-Wolfe step (projective-tree linear minimization plus exact line
    search) on the relaxed variables jointly.

    The state is flat corpus vectors in the `ArcLayout` of the training
    sentences, which is also the row layout of the stacked feature matrix
    `X_all`. The relaxed trees, the rule matrices and the gradient, vertex
    and residual buffers all take that layout, and `y` and `v` are
    per-sentence views into the first two. So a step's elementwise algebra
    runs once over the corpus; only the sums run per sentence, one `np.vdot`
    on each sentence's views, added in corpus order as a per-sentence loop
    over matrices adds them.

    The ridge matrix sum_i (1/n_i) X_i'X_i + lam*I is the same for every
    solve, so it is factored once. SuperLU gets a symmetric ordering: its
    default column ordering fills the factors about 20 times more here."""

    def __init__(self, corpus: Corpus, model: CmstModel):
        check_weights(model.lam, model.mu, train=True)
        if corpus.N == 0:
            raise ValueError("cannot train on an empty corpus")
        # Imported here, not at module load: scipy costs about 0.2 s and
        # 20 MB that parsing and evaluation never use.
        import scipy.sparse as sp

        self.model = model
        self.layout = layout = ArcLayout(s.n for s in corpus)
        # One CSR matvec with X_all scores every arc of the corpus, each row
        # summed as sentence i's own features X_i @ w would sum it.
        self.X_all = extract_features(corpus.sentences, model.templates)
        # Per cell: its sentence's length n, as a float, and sqrt(n).
        ns = np.array(layout.lengths, dtype=np.float64)
        self._n = np.repeat(ns, np.diff(layout.offsets))
        self._sqrt_n = np.sqrt(self._n)
        # The ridge design D is X_all with sentence i's rows scaled 1/sqrt(n),
        # so that the normal equations sum (1/n) X'X per sentence. It shares
        # X_all's structure.
        scale = np.repeat(1.0 / np.sqrt(ns), np.diff(self.X_all.indptr[layout.offsets]))
        D = sp.csr_matrix(
            (scale, self.X_all.indices, self.X_all.indptr), shape=self.X_all.shape
        )
        gram = D.T @ D + model.lam * sp.identity(D.shape[1])
        # Imported only now: imported before the features were built, it
        # raised the peak RSS of cmst-only training by about 1 MB.
        from scipy.sparse.linalg import splu

        self._lu = splu(
            gram.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
        del D, gram
        self._V = np.concatenate([rule_vector(s, model.rules).ravel() for s in corpus])
        self._Y = np.zeros(layout.size)
        self._grad = np.empty(layout.size)
        self._diff = np.empty(layout.size)  # Y - S, then the residual Y - q
        self._vert = np.empty(layout.size)
        self.v = layout.views(self._V)
        self.y = layout.views(self._Y)
        self._grad_views = layout.views(self._grad)
        self._diff_views = layout.views(self._diff)
        # Start from the chain trees: token 1 rooted, each next one chained.
        self._scatter(self._Y, [range(n) for n in layout.lengths])
        self.objective_history: list[float] = []
        self.gap_history: list[float] = []

    def _scatter(self, flat: np.ndarray, heads: Iterable[Iterable[int]]) -> None:
        """Set `flat` to the 0/1 arc matrices of the trees with the given head
        sequences, one per sentence in corpus order."""
        flat.fill(0.0)
        flat[self.layout.arcs(heads)] = 1.0

    def _solve_w(self) -> None:
        # D' (y / sqrt(n)) as X_all' (y / sqrt(n) * (1 / sqrt(n))): D's
        # entries are 1 / sqrt(n) where X_all's are 1, so the products and
        # their order are the same.
        z = self._Y / self._sqrt_n
        z *= 1.0 / self._sqrt_n
        self.model.w = self._lu.solve(self.X_all.T @ z)

    def _heads(self, trees: Sequence[DepTree]) -> Iterator[tuple[int, ...]]:
        """The head sequences of `trees`, one tree per training sentence in
        corpus order; raises ValueError if their lengths do not match."""
        if [t.n for t in trees] != self.layout.lengths:
            raise ValueError("trees do not match the training sentences")
        return (t.heads for t in trees)

    def fit_trees(self, trees: Sequence[DepTree]) -> None:
        """Set the relaxed tree variables to fixed trees and re-solve w: the
        exact minimizer of the objective over w at those trees."""
        self._scatter(self._Y, self._heads(trees))
        self._solve_w()

    def objective(
        self, q: np.ndarray | None = None, trees: Sequence[DepTree] | None = None
    ) -> float:
        """The objective at the current w, over the relaxed trees or, given
        `trees` (one per training sentence), over their 0/1 arc matrices,
        which leaves the relaxed trees as they are. `q` is the flat arc score
        vector X_all @ w at the current w, when the caller already has it.
        Each sentence's loss (1/2n)||y - q||^2 - mu * v.y is added to the
        w-regularizer (lam/2)||w||^2 in corpus order."""
        if q is None:
            q = self.X_all @ self.model.w
        Y, ys = self._Y, self.y
        if trees is not None:
            Y = self._vert
            self._scatter(Y, self._heads(trees))
            ys = self.layout.views(Y)
        w, mu = self.model.w, self.model.mu
        np.subtract(Y, q, out=self._diff)
        total = self.model.lam / 2.0 * float(w @ w)
        for r, v, y, n in zip(self._diff_views, self.v, ys, self.layout.lengths):
            total += float(np.vdot(r, r)) / (2.0 * n) - mu * float(np.vdot(v, y))
        return total

    def step(self) -> float:
        """Run one iteration; returns the Frank-Wolfe duality gap. Every
        sentence's linear minimization runs in one `eisner_min` call, whose
        heads are scattered straight into the flat vertex."""
        self._solve_w()
        q = self.X_all @ self.model.w
        g, s, diff = self._grad, self._vert, self._diff
        np.subtract(self._Y, q, out=g)
        g /= self._n
        g -= self.model.mu * self._V
        self._scatter(s, (heads for heads, _ in eisner_min(self._grad_views)))
        np.subtract(self._Y, s, out=diff)
        gap = 0.0
        denom = 0.0
        for gi, di, n in zip(self._grad_views, self._diff_views, self.layout.lengths):
            gap += float(np.vdot(gi, di))
            denom += float(np.vdot(di, di)) / n
        if denom > 0.0:
            gamma = min(1.0, max(0.0, gap / denom))
            s -= self._Y
            s *= gamma
            self._Y += s
        self.objective_history.append(self.objective(q))
        self.gap_history.append(gap)
        return gap

    def run(self, iters: int) -> None:
        if iters < 1:
            raise ValueError("iters must be >= 1")
        for _ in range(iters):
            self.step()
