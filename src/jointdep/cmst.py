"""Discriminative clustering parser: arc features, rule priors, projective
min-cost decoding, and Frank-Wolfe training over relaxed tree variables with
an exact ridge solve for the weights.

An arc's features depend only on its class (`_arc_classes`): its cell [head
tag, dependent tag, direction, distance bin], and whether the root heads it.
So no feature matrix is built: arc scores are gathered from weight sums per
class (`FeatureTemplate.weight_sums`), and Frank-Wolfe's ridge system is
solved from sums per class (`_NestedRidge`). Its state is a few flat corpus
vectors, so each step is a handful of corpus-wide numpy operations around
one `eisner_min` call."""

from __future__ import annotations

import functools
import importlib.resources
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import ArcLayout, Corpus, DepTree, Sentence

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
    head tag; tags outside the vocabulary map to UNK.
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

    def weight_sums(self, w: np.ndarray) -> np.ndarray:
        """The score under weights w of every arc class (`_arc_classes`):
        the (T, T, 2, B) cells [head tag, dependent tag, direction, bin] of
        token-headed arcs, then the (T, B) cells [dependent tag, bin] of root
        arcs, then 0.0 for non-arc cells. Each entry adds its class's weights
        to 0.0 one at a time, in block order, as a CSR matvec sums X @ w."""
        split = len(self._blocks) - self._ROOT_BLOCKS
        sums = np.zeros((self.T, self.T, 2, _NUM_BINS))
        for shape, off, _ in self._blocks[:split]:
            sums += w[off:off + math.prod(shape)].reshape(shape)
        root = sums[self.tag_id(ROOT_TAG), :, 1, :]
        for shape, off, _ in self._blocks[split:]:
            root = root + w[off:off + math.prod(shape)].reshape(shape)[0, :, 0, :]
        return np.concatenate([sums.ravel(), root.ravel(), [0.0]])


def _arc_classes(x: Sentence, t: FeatureTemplate) -> np.ndarray:
    """The (n+1, n+1) matrix of the class of every cell [h, d] of x's arc
    matrix, each an index into `t.weight_sums(w)`, so that the gather of
    those sums is bit for bit x's arc scores X @ w, with X never built."""
    ids = np.array([t.tag_id(tag) for tag in (ROOT_TAG,) + x.upos])
    pos = np.arange(x.n + 1)
    bins = np.searchsorted(_BIN_EDGES, np.abs(pos[:, None] - pos))
    cells = 2 * t.T * t.T * _NUM_BINS
    cls = ((ids[:, None] * t.T + ids) * 2 + (pos[:, None] < pos)) * _NUM_BINS + bins
    cls[0] = cells + ids * _NUM_BINS + bins[0]  # headed by the root
    cls[:, 0] = cells + t.T * _NUM_BINS
    np.fill_diagonal(cls, cls[0, 0])
    return cls


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
# The charts are laid out as the costs are (`ArcLayout`): each sentence of
# length n owns an (n+1)^2 block of two flat charts, cell [h, c] at
# offset + h(n+1) + c, and rows and columns 0 are left unused:
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

    layout: ArcLayout          # of the costs and of the charts
    # Per width m = 1, 2, ...: the target cells, the (cells, m) candidate
    # indices of the two operands of I and of the two operands of C, and
    # the flat index of each target's first candidate.
    widths: tuple[tuple[np.ndarray, ...], ...]
    root_cells: np.ndarray     # cost[0, c], C[c, 1], C[c, n], c = 1..n, per sentence


def _width_cells(n: int, m: int, offs: Sequence[int]) -> list[np.ndarray]:
    """Target cells (as a column), and the (cells, m) candidate indices of
    the two operands of I and of C, of the width-m cells of sentences of
    length n at offsets `offs`: sentence by sentence, left arcs (c = h - m)
    before right ones."""
    h = np.concatenate([np.arange(m + 1, n + 1), np.arange(1, n - m + 1)])[:, None]
    c = np.concatenate([h[: n - m] - m, h[n - m:] + m])
    left = c < h
    k = np.where(left, c, h + 1) + np.arange(m)  # split points of each cell
    s = n + 1
    local = [
        h * s + c,                           # target I[h, c] and C[h, c]
        c * s + k,                           # I: C[c, k]
        h * s + k + np.where(left, 1, -1),   # I: C[h, k + 1] or C[h, k - 1]
        h * s + k,                           # C: I[h, k]
        k * s + c,                           # C: C[k, c]
    ]
    offs = np.array(offs)[:, None, None]
    return [(offs + idx).reshape(-1, idx.shape[1]) for idx in local]


@functools.lru_cache(maxsize=8)
def _eisner_plan(ns: tuple[int, ...]) -> _EisnerPlan:
    """Compile the chart layout of a batch of sentences of lengths `ns`."""
    layout = ArcLayout(ns)
    by_length: dict[int, list[int]] = {}
    for n, off in zip(ns, layout.offsets):
        by_length.setdefault(n, []).append(off)
    widths = []
    for m in range(1, max(ns)):
        parts = [_width_cells(n, m, offs) for n, offs in by_length.items() if n > m]
        tgt, *cand = (np.concatenate(rows) for rows in zip(*parts))
        widths.append((tgt[:, 0], *cand, np.arange(0, tgt.size * m, m)))
    root_cells = [
        off + np.arange(1, n + 1) * np.array([[1], [n + 1], [n + 1]]) + [[0], [1], [n]]
        for n, off in zip(ns, layout.offsets)
    ]
    return _EisnerPlan(layout, tuple(widths), np.concatenate(root_cells, axis=1))


def eisner_min(
    lengths: Sequence[int], costs: np.ndarray
) -> list[tuple[tuple[int, ...], float]]:
    """Min-cost projective single-rooted tree, and its cost, of every
    sentence of the given lengths, whose arc costs `costs` holds flat in
    their `ArcLayout`, keyed [head, dependent] with row/column 0 the root
    pseudo-node. The sentences may have any lengths; they are decoded
    together, in as few chart passes as the plan bound allows.

    Costs are summed as min_k(C + C) + cost for incomplete spans, min_c(I + C)
    for complete ones and (cost[0, c] + C[c, 1]) + C[c, n] at the root. Ties
    go to the first minimum: the smaller split point, then the nearer
    attachment, then the leftmost root.
    """
    out: list[tuple[tuple[int, ...], float]] = []
    batch: list[int] = []
    cubes = start = 0
    for n in lengths:
        if batch and cubes + n**3 > _PASS_CUBES:
            out += _eisner_pass(tuple(batch), costs[start:])
            start += sum((k + 1) ** 2 for k in batch)
            batch, cubes = [], 0
        batch.append(n)
        cubes += n**3
    if batch:
        out += _eisner_pass(tuple(batch), costs[start:])
    return out


def _eisner_pass(
    ns: tuple[int, ...], costs: np.ndarray
) -> list[tuple[tuple[int, ...], float]]:
    """`eisner_min` of a non-empty batch in one chart pass, its costs the
    head of `costs`."""
    plan = _eisner_plan(ns)
    C = np.zeros(plan.layout.size)
    I = np.zeros(plan.layout.size)
    back_C = np.zeros(plan.layout.size, dtype=np.int32)
    back_I = np.zeros(plan.layout.size, dtype=np.int32)
    for tgt, a, b, ia, ib, first in plan.widths:
        cand = C[a]
        cand += C[b]
        j = cand.argmin(axis=1)
        I[tgt] = cand.ravel()[first + j] + costs[tgt]
        back_I[tgt] = j
        cand = I[ia]
        cand += C[ib]
        j = cand.argmin(axis=1)
        C[tgt] = cand.ravel()[first + j]
        back_C[tgt] = j
    root_arc, left, right = plan.root_cells
    root_vals = ((costs[root_arc] + C[left]) + C[right]).tolist()
    back_C, back_I = back_C.tolist(), back_I.tolist()
    out = []
    start = 0
    for n, off in zip(ns, plan.layout.offsets):
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
            row = off + h * (n + 1)  # cell [h, y] is row + y
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


def _arc_terms(
    xs: Sequence[Sentence], m: CmstModel
) -> tuple[ArcLayout, np.ndarray, np.ndarray, np.ndarray]:
    """The `ArcLayout` of xs and, flat in it, every cell's class
    (`_arc_classes`), its rule entry (`rule_vector`) and its sentence's
    length n, as a float: empty vectors for no sentences."""
    layout = ArcLayout(x.n for x in xs)
    cls = np.concatenate(
        [np.empty(0, np.intp)] + [_arc_classes(x, m.templates).ravel() for x in xs])
    v = np.concatenate([np.empty(0)] + [rule_vector(x, m.rules).ravel() for x in xs])
    n = np.repeat(np.array(layout.lengths, dtype=np.float64), np.diff(layout.offsets))
    return layout, cls, v, n


def arc_costs(xs: Sequence[Sentence], m: CmstModel) -> np.ndarray:
    """The per-arc linear cost of the discriminative objective over 0/1
    trees of every sentence of xs, flat in their `ArcLayout`:
    (1/2n)(1 - 2q[h, d]) - mu v[h, d] on the arc [h, d] of a sentence of
    length n with arc scores q and rule matrix v, 0 on non-arc cells."""
    _, cls, v, n = _arc_terms(xs, m)
    sums = m.templates.weight_sums(m.w)
    costs = (1.0 - 2.0 * sums[cls]) / (2.0 * n) - m.mu * v
    costs[cls == sums.size - 1] = 0.0  # the class of every non-arc cell
    return costs


# ---------------------------------------------------------------------------
# Frank-Wolfe training over relaxed per-sentence tree variables
# ---------------------------------------------------------------------------

def _spd_inverse(a: np.ndarray) -> np.ndarray:
    """The inverse of a symmetric positive definite matrix by elementwise
    Gauss-Jordan steps: LAPACK's splits its sums over BLAS threads from about
    160 rows (see `_NestedRidge`)."""
    n = len(a)
    a = np.hstack([a, np.eye(n)])
    for j in range(n):
        a[j] /= a[j, j]
        a -= np.outer(a[:, j] * (np.arange(n) != j), a[j])
    return a[:, n:]


class _NestedRidge:
    """The ridge system (sum_i (1/n_i) X_i'X_i + lam*I) w = X'z of a corpus's
    stacked arc features X, factored once and solved for any z from sums per
    arc class (`_arc_classes`): c, of 1/n, fixes the matrix and b, of z, X'z.
    Weights are solved out finest first: a pair + direction + bin weight is
    fired by one cell's arcs, so its block is diagonal; a tag pair's pair and
    pair + direction weights couple only to each other and to the global
    blocks (a batched (T*T, 3, 3) inverse); the 3T + 2B + 2 global weights
    are one dense system. Products are einsums: BLAS splits long sums over
    threads, and trained weights must not depend on the thread count."""

    def __init__(self, t: FeatureTemplate, lam: float, c: np.ndarray):
        T, blocks, axes = t.T, t._blocks, t._BLOCK_AXES
        pair = [i for i, a in enumerate(axes) if a[:2] == (True, True) and not a[3]]
        coarse = pair + [i for i, a in enumerate(axes) if a[:2] != (True, True)]
        # Every cell's weight index in every block. Root arcs fire the pair
        # + direction + bin weight of the cell [ROOT, d, right, bin].
        grid = np.indices((T, T, 2, _NUM_BINS)).reshape(4, -1).T
        idx = grid @ np.array([s for *_, s in blocks]).T + [off for _, off, _ in blocks]
        self._fine = idx[:, axes.index((True,) * 4)]
        self._root = np.flatnonzero((grid[:, 0] == 0) & (grid[:, 2] == 1))
        # Coarse weights in solve order: each tag pair's together, then the
        # global ones; `_pos` has each cell's place in it in every block.
        span = [off + np.arange(math.prod(shape)) for shape, off, _ in blocks]
        self._order = np.concatenate(
            [np.concatenate([span[i].reshape(T * T, -1) for i in pair], 1).ravel()]
            + [span[i] for i in coarse[len(pair):]])
        pos = np.empty(t.dimension, dtype=np.intp)
        pos[self._order] = np.arange(self._order.size)
        self._pos = pos[idx[:, coarse]].T
        # Per cell: C and R sum 1/n over all its arcs and its root arcs. All
        # fire its token-headed blocks and only root arcs the others, so g,
        # each block's coupling to the fine weight, is C or R.
        R = np.zeros(self._fine.size)
        R[self._root] = c[self._fine.size:-1]
        C = c[:self._fine.size] + R
        self._d = d = lam + C
        self._fires = fires = (np.array(coarse) < len(axes) - t._ROOT_BLOCKS)[:, None]
        self._g = g = np.where(fires, C, R)
        nP = sum(span[i].size for i in pair)
        k, nG, p = nP // (T * T), self._order.size - nP, len(pair)
        pp, cg = np.zeros(nP * k), np.zeros((nP + nG) * nG)
        for i, row in enumerate(self._pos):
            v = np.where(fires[i] & fires, C, R) - g[i] * g / d
            key = row * nG + self._pos[p:] - nP
            cg += np.bincount(key.ravel(), v[p:].ravel(), minlength=cg.size)
            if i < p:
                key = row * k + self._pos[:p] % k
                pp += np.bincount(key.ravel(), v[:p].ravel(), minlength=pp.size)
        cg = cg.reshape(nP + nG, nG)
        spg = cg[:nP].reshape(T * T, k, nG)
        self._A = np.linalg.inv(pp.reshape(T * T, k, k) + lam * np.eye(k))
        self._Q = np.einsum("pij,pjg->pig", self._A, spg)
        self._G = _spd_inverse(
            cg[nP:] + lam * np.eye(nG) - np.einsum("pki,pkj->ij", spg, self._Q))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """w, given b."""
        cells, (pairs, k, nG) = self._d.size, self._Q.shape
        bR = np.zeros(cells)
        bR[self._root] = b[cells:-1]
        bf = b[:cells] + bR
        # X'z less the fine weights' share, per block and cell.
        u = np.where(self._fires, bf, bR) - self._g * (bf / self._d)
        rhs = np.bincount(self._pos.ravel(), u.ravel(), minlength=pairs * k + nG)
        rp, rg = rhs[:-nG].reshape(pairs, k), rhs[-nG:]
        wg = np.einsum("ij,j", self._G, rg - np.einsum("pki,pk", self._Q, rp))
        wp = np.einsum("pij,pj->pi", self._A, rp)
        wp -= np.einsum("pki,i->pk", self._Q, wg)
        w = np.zeros(rhs.size + cells)
        w[self._order] = wc = np.concatenate([wp.ravel(), wg])
        w[self._fine] = (bf - (self._g * wc[self._pos]).sum(axis=0)) / self._d
        return w


class FrankWolfeOptimizer:
    """Block optimization of the discriminative clustering objective: exact
    ridge re-solve for w given the relaxed tree variables, then one
    Frank-Wolfe step (projective-tree linear minimization plus exact line
    search) on the relaxed variables jointly.

    The state is flat corpus vectors in the `ArcLayout` of the training
    sentences. The relaxed trees, the rule matrices and the gradient, vertex
    and residual buffers all take that layout, and `y` and `v` are
    per-sentence views into the first two. So a step's elementwise algebra
    runs once over the corpus; only the sums run per sentence, one `np.vdot`
    on each sentence's views, added in corpus order as a per-sentence loop
    over matrices adds them. Arc scores are gathered from the weight sums
    at each flat cell's class, and the ridge system is solved from sums
    over the classes (`_NestedRidge`), so no feature matrix is built."""

    def __init__(self, corpus: Corpus, model: CmstModel):
        check_weights(model.lam, model.mu, train=True)
        if corpus.N == 0:
            raise ValueError("cannot train on an empty corpus")
        self.model = model
        self.layout, self._cls, self._V, self._n = _arc_terms(corpus.sentences, model)
        layout = self.layout
        self._ridge = _NestedRidge(
            model.templates, model.lam, np.bincount(self._cls, 1.0 / self._n))
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

    def ridge_solve(self, z: np.ndarray) -> np.ndarray:
        """The w solving (sum_i (1/n_i) X_i'X_i + lam*I) w = X'z, for X the
        training sentences' stacked arc features and z a flat vector in
        their layout: at z = Y / n, the objective's minimizer at trees Y."""
        # Cell [0, 0] of every arc matrix has the last class.
        return self._ridge.solve(np.bincount(self._cls, z))

    def _solve_w(self) -> None:
        self.model.w = self.ridge_solve(self._Y / self._n)

    def _scores(self) -> np.ndarray:
        """The flat arc score vector at the current w."""
        return self.model.templates.weight_sums(self.model.w)[self._cls]

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
        vector at the current w, when the caller already has it.
        Each sentence's loss (1/2n)||y - q||^2 - mu * v.y is added to the
        w-regularizer (lam/2)||w||^2 in corpus order."""
        if q is None:
            q = self._scores()
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
        q = self._scores()
        g, s, diff = self._grad, self._vert, self._diff
        np.subtract(self._Y, q, out=g)
        g /= self._n
        g -= self.model.mu * self._V
        self._scatter(s, (heads for heads, _ in eisner_min(self.layout.lengths, g)))
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
