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
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import ArcLayout, Corpus, DepTree, Encoding, block_pairs
from .corpus import LineError, numbered_lines, read_records

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


def _arc_kinds(enc: Encoding) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kind of the head and of the dependent, and d - h, of every cell
    [h, d] of the arc matrices of `enc`'s rows, flat in their `ArcLayout`.
    A token's kind is its tag's index in `enc.tags`, and the root
    pseudo-node's is len(enc.tags)."""
    # Every row's root, then its tokens, laid end to end.
    kinds = np.insert(enc.ids, enc.offsets[:-1], len(enc.tags))
    h, d = block_pairs(np.add(enc.lengths, 1))
    return kinds[h], kinds[d], d - h


def _arc_classes(enc: Encoding, t: FeatureTemplate) -> np.ndarray:
    """The class of every cell [h, d] of the arc matrices of `enc`'s rows,
    flat in their `ArcLayout`, each an index into `t.weight_sums(w)`, so
    that the gather of those sums is bit for bit the rows' arc scores
    X @ w, with X never built."""
    kh, kd, dist = _arc_kinds(enc)
    root = len(enc.tags)
    ids = np.array([t.tag_id(tag) for tag in enc.tags + (ROOT_TAG,)])
    bins = np.searchsorted(_BIN_EDGES, np.abs(dist))
    cells = 2 * t.T * t.T * _NUM_BINS
    cls = bins + np.where(kh == root, cells + ids[kd] * _NUM_BINS,
                          ((ids[kh] * t.T + ids[kd]) * 2 + (dist > 0)) * _NUM_BINS)
    cls[(kd == root) | (dist == 0)] = cells + t.T * _NUM_BINS  # not arcs
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
            raise LineError(
                f"rule line must be 'HEADTAG DEPTAG': {raw.strip()!r}", line_no)
        rules.add((parts[0], parts[1]))
    return frozenset(rules)


def load_rules(path) -> RuleSet:
    return parse_rules(text for _, text in numbered_lines(path))


def default_rules() -> RuleSet:
    import importlib.resources

    return load_rules(importlib.resources.files("jointdep.data") / "universal_rules.txt")


def rule_vector(enc: Encoding, r: RuleSet) -> np.ndarray:
    """The arc matrices of `enc`'s rows, keyed [h, d] and flat in their
    `ArcLayout`: True on the arcs whose (head tag, dependent tag) pair is
    licensed, False elsewhere and on non-arc cells, a byte per cell. Read
    from one table over `enc`'s tags and the "ROOT" literal of the root
    pseudo-node, which a token tagged ROOT shares."""
    kh, kd, dist = _arc_kinds(enc)
    tags = enc.tags + ("ROOT",)
    licensed = np.array([[(h, d) in r for d in tags] for h in tags], dtype=bool)
    v = licensed[kh, kd]
    v[(kd == len(enc.tags)) | (dist == 0)] = False
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
        lines = numbered_lines(path)
        header = next(lines, (1, ""))[1].split()
        if header[:2] != ["cmstmodel", "1"]:
            raise LineError(f"unrecognized model header {header!r}", 1)
        read_once = {}  # lambda, mu and the feature template ("tags")
        weights = {}

        def read(kind, fields):
            try:
                if kind == "tags":
                    read_once[kind] = FeatureTemplate(tuple(fields))
                elif kind == "rule":
                    return tuple(fields)
                elif kind == "w":
                    value = float(fields[1])
                    if not math.isfinite(value):
                        raise ValueError(f"must be finite, got {value}")
                    i = int(fields[0])
                    weights[i] = value
                    return i
                else:
                    value = float(fields[0])
                    if not 0 <= value < math.inf:
                        raise ValueError(f"must be finite and >= 0, got {value}")
                    read_once[kind] = value
            except ValueError as exc:
                raise ValueError(f"{kind} record: {exc}") from None

        arity = {"lambda": 1, "mu": 1, "tags": None, "rule": 2, "w": 2}
        line_of = read_records(lines, arity, read)
        if len(read_once) < 3:
            raise ValueError("incomplete model file")
        t = read_once["tags"]
        w = np.zeros(t.dimension)
        for i, v in weights.items():
            if not 0 <= i < t.dimension:
                raise LineError(f"weight index {i} out of range for dimension "
                                f"{t.dimension}", line_of["w", i])
            w[i] = v
        rules = frozenset(key for kind, key in line_of if kind == "rule")
        return cls(w, read_once["lambda"], read_once["mu"], t, rules)


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
# A span (l, r) of width m = r - l has exactly m split candidates whatever n
# is, and its two arcs share them, and so their split point:
#   I[r, l], I[l, r] = min_k (C[l, k] + C[r, k + 1]) + cost[r, l], cost[l, r]
#   C[h, x] = min_c (I[h, c] + C[c, x])   (c = x..h-1 or h+1..x)
# with k = l..r-1, so the spans of one width from every sentence of a batch,
# of any lengths, stack into one (spans, m) candidate array with no padding.
#
# A plan takes about 7.6 bytes per n^3 of the sentences it covers, so a batch
# is decoded in passes of at most _PASS_CUBES: each pass's plan stays under
# about 2.0 MB (a longer sentence gets a pass of its own), and the 8 cached
# plans under about 16 MB, however large the corpus. Compiling a plan takes
# about twice as long as one pass over it, so passes that fall out of the
# cache still cost far less than a cell-by-cell chart.
_PASS_CUBES = 1 << 18


@dataclass(frozen=True)
class _EisnerPlan:
    """The chart layout of one tuple of sentence lengths."""

    layout: ArcLayout          # of the costs and of the charts
    # Per width m = 1, 2, ...: the (2, spans) target cells [r, l] and [l, r]
    # of every span, the (spans, m) candidate indices a and b of the two
    # operands of I, the (2, spans, m) ones of C's operand C[c, x] (its I[h,
    # c] are at b - 1 and a + 1), the flat index of each target's first
    # candidate, and its first split point or child: l for both I cells, l
    # for C[r, l] and l + 1 for C[l, r].
    widths: tuple[tuple[np.ndarray, ...], ...]
    root_cells: np.ndarray     # cost[0, c], C[c, 1], C[c, n], c = 1..n, per sentence


@functools.lru_cache(maxsize=8)
def _eisner_plan(ns: tuple[int, ...]) -> _EisnerPlan:
    """Compile the chart layout of a batch of sentences of lengths `ns`."""
    layout = ArcLayout(ns)
    lengths = np.array(ns)
    widths = []
    for m in range(1, max(ns)):
        # Every span (l, r), sentence by sentence, as columns.
        count = np.maximum(lengths - m, 0)
        before = np.repeat(np.cumsum(count) - count, count)  # earlier sentences' spans
        l = (np.arange(before.size) - before + 1)[:, None]
        off = np.repeat(layout.offsets[:-1], count)[:, None]
        s = np.repeat(lengths + 1, count)[:, None]
        r = l + m
        k = l + np.arange(m)  # split points
        tgt = (off + np.stack([r * s + l, l * s + r]))[..., 0]
        ib = off + np.stack([k * s + l, (k + 1) * s + r])  # C: C[c, x]
        first = np.arange(0, ib.size, m).reshape(tgt.shape)
        base = np.stack([l, l + 1])[..., 0]
        widths.append((tgt, off + l * s + k, off + r * s + k + 1, ib, first, base))
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
    I_pad = np.zeros(plan.layout.size + 1)
    I = I_pad[1:]  # so I[r, k] is I_pad[b] and I[l, k + 1] is I_pad[2:][a]
    back_C = np.zeros(plan.layout.size, dtype=np.int32)  # the child c of C[h, x]
    back_I = np.zeros(plan.layout.size, dtype=np.int32)  # the split point k of I[h, c]
    for tgt, a, b, ib, first, base in plan.widths:
        cand = C[a]
        cand += C[b]
        j = cand.argmin(axis=1)
        I[tgt] = cand.ravel()[first[0] + j] + costs[tgt]
        back_I[tgt] = base[0] + j
        cand = C[ib]
        cand[0] += I_pad[b]
        cand[1] += I_pad[2:][a]
        j = cand.argmin(axis=2)
        C[tgt] = cand.ravel()[first + j]
        back_C[tgt] = base + j
    # Each sentence's root is the first of its least root values.
    root_arc, left, right = plan.root_cells
    vals = (costs[root_arc] + C[left]) + C[right]
    n = np.array(ns)
    tok0 = np.cumsum(n) - n  # each sentence's first place in vals
    least = np.flatnonzero(vals == np.repeat(np.minimum.reduceat(vals, tok0), n))
    root = least[np.searchsorted(least, tok0)]
    # Backtrack every sentence in lockstep: each round expands every open
    # half-span [sentence, h, x] of the pass into its arc h -> c and the three
    # narrower half-spans it splits into, the left one of h and c reaching k
    # and the right one k + 1.
    heads = np.zeros(vals.size, dtype=np.intp)
    off, s = np.array(plan.layout.offsets[:-1]), n + 1
    dep = tok0 - 1  # token c of sentence i is heads[dep[i] + c]
    todo = np.array([np.arange(len(ns)), root - tok0 + 1, n]).repeat(2, axis=1)
    todo[2, ::2] = 1
    while (todo := todo[:, todo[1] != todo[2]]).size:
        i, h, x = todo
        row = off[i] + h * s[i]  # cell [h, y] is row + y
        c = back_C[row + x]
        k = back_I[row + c]
        heads[dep[i] + c] = h
        todo = np.array(
            [[i, i, i], [np.minimum(h, c), np.maximum(h, c), c], [k, k + 1, x]]
        ).reshape(3, -1)
    heads = heads.tolist()
    return [(tuple(heads[t:t + length]), best)
            for t, length, best in zip(tok0.tolist(), ns, vals[root].tolist())]


def _arc_terms(
    enc: Encoding, m: CmstModel
) -> tuple[ArcLayout, np.ndarray, np.ndarray, np.ndarray]:
    """The `ArcLayout` of `enc`'s rows and, flat in it, every cell's class
    (`_arc_classes`), its rule entry (`rule_vector`) and its row's length
    n, as a float: empty vectors for no rows."""
    layout = ArcLayout(enc.lengths)
    n = np.repeat(np.array(layout.lengths, dtype=np.float64), np.diff(layout.offsets))
    return layout, _arc_classes(enc, m.templates), rule_vector(enc, m.rules), n


def arc_costs(enc: Encoding, m: CmstModel) -> np.ndarray:
    """The per-arc linear cost of the discriminative objective over 0/1
    trees of every row of `enc`, flat in their `ArcLayout`:
    (1/2n)(1 - 2q[h, d]) - mu v[h, d] on the arc [h, d] of a sentence of
    length n with arc scores q and rule matrix v, 0 on non-arc cells."""
    _, cls, v, n = _arc_terms(enc, m)
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
        fires = (np.array(coarse) < len(axes) - t._ROOT_BLOCKS)[:, None]
        self._g = g = np.where(fires, C, R)
        # The root blocks come last and are 0.0 off the root cells.
        self._split = len(coarse) - t._ROOT_BLOCKS
        nP = sum(span[i].size for i in pair)
        k, nG, p = nP // (T * T), self._order.size - nP, len(pair)
        # An entry's row and column each belong to one block, so a small
        # bincount per block pair (i, j) sums its cells in the order of a
        # full-width one.
        pp, cg = np.zeros((nP, k)), np.zeros((nP + nG, nG))
        for i, row in enumerate(self._pos):
            for j in range(0 if i < p else p, len(coarse)):
                v = (C if fires[i] & fires[j] else R) - g[i] * g[j] / d
                out, col = (pp, self._pos[j] % k) if j < p else (cg, self._pos[j] - nP)
                r0, c0 = row.min(), col.min()
                h, wd = row.max() + 1 - r0, col.max() + 1 - c0
                sums = np.bincount((row - r0) * wd + col - c0, v, minlength=h * wd)
                out[r0:r0 + h, c0:c0 + wd] += sums.reshape(h, wd)
        spg = cg[:nP].reshape(T * T, k, nG)
        self._A = np.linalg.inv(pp.reshape(T * T, k, k) + lam * np.eye(k))
        self._Q = np.einsum("pij,pjg->pig", self._A, spg)
        self._G = _spd_inverse(
            cg[nP:] + lam * np.eye(nG) - np.einsum("pki,pkj->ij", spg, self._Q))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """w, given b."""
        cells, (pairs, k, nG) = self._d.size, self._Q.shape
        g, split = self._g, self._split
        bR = np.zeros(cells)
        bR[self._root] = b[cells:-1]
        bf = b[:cells] + bR
        # X'z less the fine weights' share, per block and cell, summed into
        # the block's positions.
        q = bf / self._d
        rhs = np.zeros(pairs * k + nG)
        for i, pos in enumerate(self._pos):
            at = slice(None) if i < split else self._root  # 0.0 off the root cells
            u = (bf if i < split else bR)[at] - g[i, at] * q[at]
            rhs += np.bincount(pos[at], u, minlength=rhs.size)
        rp, rg = rhs[:-nG].reshape(pairs, k), rhs[-nG:]
        wg = np.einsum("ij,j", self._G, rg - np.einsum("pki,pk", self._Q, rp))
        wp = np.einsum("pij,pj->pi", self._A, rp)
        wp -= np.einsum("pki,i->pk", self._Q, wg)
        w = np.zeros(rhs.size + cells)
        w[self._order] = wc = np.concatenate([wp.ravel(), wg])
        share = g[0] * wc[self._pos[0]]  # summed block by block, as sum(axis=0)
        for gi, pos in zip(g[1:], self._pos[1:]):
            share += gi * wc[pos]
        w[self._fine] = (bf - share) / self._d
        return w


class FrankWolfeOptimizer:
    """Block optimization of the discriminative clustering objective: exact
    ridge re-solve for w given the relaxed tree variables, then one
    Frank-Wolfe step (projective-tree linear minimization plus exact line
    search) on the relaxed variables jointly.

    The state is flat corpus vectors in the `ArcLayout` of the training
    sentences. The relaxed trees, the rule matrices and the gradient, vertex
    and residual buffers all take that layout, and `y` views the relaxed
    trees sentence by sentence. So a step's elementwise algebra runs once
    over the corpus; only the sums run per sentence, one dot product of its
    arc matrices each (`_dots`), added in corpus order as a per-sentence
    loop over matrices adds them. Arc scores are gathered from the weight
    sums at each flat cell's class, and the ridge system is solved from sums
    over the classes (`_NestedRidge`), so no feature matrix is built."""

    def __init__(self, corpus: Corpus, model: CmstModel):
        check_weights(model.lam, model.mu, train=True)
        if corpus.N == 0:
            raise ValueError("cannot train on an empty corpus")
        self.model = model
        self.layout, self._cls, self._V, self._n = _arc_terms(corpus.encoding, model)
        layout = self.layout
        self._ridge = _NestedRidge(
            model.templates, model.lam, np.bincount(self._cls, 1.0 / self._n))
        self._Y = np.zeros(layout.size)
        self._grad = np.empty(layout.size)
        self._diff = np.empty(layout.size)  # Y - S, then the residual Y - q
        self._vert = np.empty(layout.size)
        # Per length: its sentences, their arc matrices' first cells and the
        # cell offsets within a matrix, from which `_dots` gathers the
        # (sentences, (n+1)^2) rows on each call rather than keep them. The
        # lengths come from a bincount: np.unique's first call adds 1.6 MB to
        # a command's peak RSS.
        self._lengths = np.array(layout.lengths)
        starts = np.array(layout.offsets[:-1])
        self._blocks = []
        for n in np.flatnonzero(np.bincount(self._lengths)):
            rows = np.flatnonzero(self._lengths == n)
            self._blocks.append((rows, starts[rows, None], np.arange((n + 1) ** 2)))
        # Start from the chain trees: token 1 rooted, each next one chained.
        self._scatter(self._Y, [range(n) for n in layout.lengths])
        self.objective_history: list[float] = []
        self.gap_history: list[float] = []

    @property
    def y(self) -> list[np.ndarray]:
        """Every sentence's relaxed tree, an (n+1, n+1) view of the state."""
        return self.layout.views(self._Y)

    def _dots(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Every sentence's dot product of its arc matrices in the flat
        vectors `a` and `b`, in corpus order: one (k,1,L) @ (k,L,1) matmul
        per length, which sums each product as `np.vdot` does."""
        out = np.empty(self._lengths.size)
        for rows, starts, block in self._blocks:
            cells = starts + block
            a_rows = a[cells]
            b_rows = a_rows if b is a else b[cells]
            out[rows] = (a_rows[:, None, :] @ b_rows[:, :, None]).ravel()
        return out

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
        Y = self._Y
        if trees is not None:
            Y = self._vert
            self._scatter(Y, self._heads(trees))
        w, r = self.model.w, self._diff
        np.subtract(Y, q, out=r)
        loss = (self._dots(r, r) / (2.0 * self._lengths)
                - self.model.mu * self._dots(self._V, Y))
        total = self.model.lam / 2.0 * float(w @ w)
        return functools.reduce(float.__add__, loss.tolist(), total)

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
        gap = functools.reduce(float.__add__, self._dots(g, diff).tolist(), 0.0)
        denom = functools.reduce(
            float.__add__, (self._dots(diff, diff) / self._lengths).tolist(), 0.0)
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
