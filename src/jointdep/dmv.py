"""Valence-based generative dependency grammar with structural biases.

Implements the parameter tables (root / attach / stop), exact chart
inside-outside over split-head items, EM training, hard-count re-estimation,
and price-aware constrained Viterbi decoding.  Two structural biases are
supported: a hard cap on center-embedding depth (tracked as extra chart
state) and a soft per-arc length penalty.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, DepTree, Sentence

LEFT, RIGHT = 0, 1
NO_CHILD, HAS_CHILD = 0, 1
NEG_INF = float("-inf")

_LOG_FMT = "%.17e"


class InfeasibleParseError(RuntimeError):
    """No parse tree satisfies the active structural constraints."""


@dataclass(frozen=True)
class ConstraintConfig:
    """Structural-bias settings for the generative model.

    max_ce_depth: hard cap on center-embedding depth; None disables the cap.
    dep_len_beta: weight of the soft per-arc length penalty exp(-beta*(len-1));
        root arcs are never penalized.
    """

    max_ce_depth: int | None = 1
    dep_len_beta: float = 0.1

    def __post_init__(self):
        if self.max_ce_depth is not None and self.max_ce_depth < 0:
            raise ValueError("max_ce_depth must be >= 0 or None")
        if not (self.dep_len_beta >= 0.0 and math.isfinite(self.dep_len_beta)):
            raise ValueError("dep_len_beta must be finite and >= 0")


UNCONSTRAINED = ConstraintConfig(max_ce_depth=None, dep_len_beta=0.0)


class _WeightIndex:
    """Flat indexing of all log-weights used by the charts.

    Layout: root probs (V), attach probs (2*V*V), stop probs (4*V),
    continue probs (4*V).  Stop and continue are indexed separately so that
    expected counts for both outcomes of the stop decision come back from a
    single gradient-style accumulation.
    """

    def __init__(self, V: int):
        self.V = V
        self.attach_off = V
        self.stop_off = V + 2 * V * V
        self.cont_off = self.stop_off + 4 * V
        self.size = self.cont_off + 4 * V

    def root(self, p: int) -> int:
        return p

    def attach(self, h: int, direction: int, c: int) -> int:
        return self.attach_off + (h * 2 + direction) * self.V + c

    def stop(self, h: int, direction: int, adj: int) -> int:
        return self.stop_off + (h * 2 + direction) * 2 + adj

    def cont(self, h: int, direction: int, adj: int) -> int:
        return self.cont_off + (h * 2 + direction) * 2 + adj


@dataclass
class DmvParams:
    """Rule probabilities: root choice, directional attachment, stop decisions.

    attach[h, dir, c] is the probability that head tag h generates child tag c
    in direction dir; stop[h, dir, adj] is the probability of stopping, where
    adj is 0 before the first child in that direction and 1 afterwards.
    """

    vocab: tuple[str, ...]
    root: np.ndarray          # (V,)
    attach: np.ndarray        # (V, 2, V)
    stop: np.ndarray          # (V, 2, 2)
    _tag_index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self._tag_index = {t: i for i, t in enumerate(self.vocab)}

    @property
    def V(self) -> int:
        return len(self.vocab)

    def tag_ids(self, sentence: Sentence) -> tuple[int, ...]:
        try:
            return tuple(self._tag_index[t] for t in sentence.upos)
        except KeyError as exc:
            raise KeyError(f"UPOS tag {exc.args[0]!r} not in model vocabulary")

    def validate(self, tol: float = 1e-12) -> None:
        if not math.isclose(self.root.sum(), 1.0, abs_tol=tol):
            raise ValueError(f"root distribution sums to {self.root.sum()!r}")
        sums = self.attach.sum(axis=2)
        if not np.allclose(sums, 1.0, atol=tol, rtol=0.0):
            raise ValueError("attach distributions do not sum to one")
        for name, table in (
            ("root", self.root), ("attach", self.attach), ("stop", self.stop)
        ):
            if np.any(table < -tol) or np.any(table > 1.0 + tol):
                raise ValueError(f"{name} probabilities outside [0, 1]")

    def log_weights(self) -> np.ndarray:
        wi = _WeightIndex(self.V)
        w = np.empty(wi.size)
        with np.errstate(divide="ignore"):
            w[: wi.attach_off] = np.log(self.root)
            w[wi.attach_off : wi.stop_off] = np.log(self.attach).reshape(-1)
            w[wi.stop_off : wi.cont_off] = np.log(self.stop).reshape(-1)
            w[wi.cont_off :] = np.log(1.0 - self.stop).reshape(-1)
        return w

    # -- plain-text serialization (version-headed, 17 significant digits) --

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("dmvparams 1\n")
            f.write("vocab " + " ".join(self.vocab) + "\n")
            for p, tag in enumerate(self.vocab):
                f.write(f"root {tag} " + _LOG_FMT % self.root[p] + "\n")
            for h, ht in enumerate(self.vocab):
                for d, dname in ((LEFT, "left"), (RIGHT, "right")):
                    for c, ct in enumerate(self.vocab):
                        f.write(
                            f"attach {ht} {dname} {ct} "
                            + _LOG_FMT % self.attach[h, d, c] + "\n"
                        )
                    for adj in (NO_CHILD, HAS_CHILD):
                        f.write(
                            f"stop {ht} {dname} {adj} "
                            + _LOG_FMT % self.stop[h, d, adj] + "\n"
                        )

    @classmethod
    def load(cls, path) -> "DmvParams":
        """Read a saved parameter file; raises ValueError unless every record
        is present, well formed and the tables are normalized."""
        with open(path, encoding="utf-8") as f:
            header = f.readline().split()
            if header[:2] != ["dmvparams", "1"]:
                raise ValueError(f"unrecognized model header {header!r}")
            vocab_line = f.readline().split()
            if vocab_line[:1] != ["vocab"] or len(vocab_line) < 2:
                raise ValueError("missing or empty vocab line")
            vocab = tuple(vocab_line[1:])
            tag = {t: i for i, t in enumerate(vocab)}
            V = len(vocab)
            # NaN marks a record not read yet.
            tables = {
                "root": np.full(V, np.nan),
                "attach": np.full((V, 2, V), np.nan),
                "stop": np.full((V, 2, 2), np.nan),
            }
            direction = {"left": LEFT, "right": RIGHT}
            adj = {str(NO_CHILD): NO_CHILD, str(HAS_CHILD): HAS_CHILD}
            key_fields = {
                "root": (tag,), "attach": (tag, direction, tag),
                "stop": (tag, direction, adj),
            }
            for line_no, line in enumerate(f, start=3):
                parts = line.split()
                if not parts:
                    continue
                lookups = key_fields.get(parts[0])
                if lookups is None:
                    raise ValueError(
                        f"line {line_no}: unrecognized record {parts[0]!r}"
                    )
                if len(parts) != len(lookups) + 2:
                    raise ValueError(
                        f"line {line_no}: {parts[0]} record needs "
                        f"{len(lookups) + 1} fields, got {len(parts) - 1}"
                    )
                try:
                    key = tuple(t[v] for t, v in zip(lookups, parts[1:-1]))
                except KeyError as exc:
                    raise ValueError(
                        f"line {line_no}: unknown field {exc.args[0]!r}"
                    ) from None
                tables[parts[0]][key] = float(parts[-1])
            missing = sum(int(np.isnan(t).sum()) for t in tables.values())
            if missing:
                raise ValueError(f"incomplete model file: {missing} records missing")
            params = cls(vocab, tables["root"], tables["attach"], tables["stop"])
            params.validate()
            return params


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def init_params(c: Corpus, mode: str = "harmonic") -> DmvParams:
    """Uniform or harmonic (short-arc-biased) initializer; both are
    deterministic."""
    vocab = c.pos_vocab
    V = len(vocab)
    if V == 0:
        raise ValueError("corpus has an empty POS vocabulary")
    idx = {t: i for i, t in enumerate(vocab)}
    if mode == "uniform":
        root = np.full(V, 1.0 / V)
        attach = np.full((V, 2, V), 1.0 / V)
    elif mode == "harmonic":
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
    else:
        raise ValueError(f"unknown init mode {mode!r}")
    stop = np.full((V, 2, 2), 0.5)
    return DmvParams(vocab, root, attach, stop)


# ---------------------------------------------------------------------------
# Chart compilation.
#
# Split-head items over 1-based token positions:
#   LO[h][i]  h's left children cover [i, h-1], direction still open
#   LC[h][i]  as LO but the left stop decision has been applied
#   IL[c][h]  h has attached left child c; covers [c, h] minus c's left half
# and mirrored RO / RC / IR items.  The goal combines both closed halves of
# the single root-attached head.
#
# Center-embedding depth is threaded through the items as a pair (s, p):
# s is the settled maximum over children that already have an outer sibling
# (each such child's subtree value counts +1), and p is the subtree value of
# the currently outermost child (it gains +1 only if a further child is
# attached).  p = -1 encodes "no child yet".  Closed halves carry the
# resolved value v = max(s, p, 0); a full subtree's value is the max of its
# two halves.  Items whose settled value exceeds the cap are pruned.
#
# The items and edges depend only on the sentence length and the cap; the
# tags only choose which weights the edges read.  `_compile` therefore
# enumerates each (length, cap) once into flat arrays, and `_build_chart`
# maps one sentence's tags onto the weights with a gather.  Nodes are
# numbered by topological level (width, then incomplete / open / closed
# items), so every pass runs level by level: a level's nodes depend only on
# lower levels.
# ---------------------------------------------------------------------------

_LO, _LC, _RO, _RC, _IL, _IR, _GOAL = range(7)

# Edge record fields, in emission order.
_HEAD, _TAIL0, _TAIL1, _SLOT0, _SLOT1, _ARC_H, _ARC_D = range(7)


class _Structure:
    """Read-only compiled chart of one (length, depth cap) pair.

    Edge e derives node head[e] from nodes tail0[e] and tail1[e]; the
    sentinel node n_nodes, whose value is 0, fills unused tails.  It reads
    the weight slots slots[:, e], where slot 0 is the unit weight (log 1),
    then root(c), stop(h, dir, adj), continue(h, dir, adj) and attach(h, c)
    for 1-based tokens.  arc_d[e] > 0 marks the attachment of token arc_d[e]
    to arc_h[e] (0 for the root).  Edges are sorted by head, then by build
    order.  levels holds one tuple per topological level: its node range
    a, b; seg, the offset of each of those nodes' first edge within the
    level; the level's edge slice; and its views of head, tail0 and tail1.
    """

    def __init__(self, n: int, level: np.ndarray, rec: np.ndarray):
        order = np.argsort(level, kind="stable")
        n_nodes = len(level)
        renum = np.empty(n_nodes + 1, dtype=np.int32)
        renum[order] = np.arange(n_nodes, dtype=np.int32)
        renum[n_nodes] = n_nodes  # tail -1 is the sentinel
        head = renum[rec[:, _HEAD]]
        by_head = np.argsort(head, kind="stable")
        rec = rec[by_head]
        self.n = n
        self.n_nodes = n_nodes
        self.goal = n_nodes - 1  # the goal is the only top-level node
        self.head = head[by_head]
        self.tail0 = renum[rec[:, _TAIL0]]
        self.tail1 = renum[rec[:, _TAIL1]]
        self.slots = np.ascontiguousarray(rec[:, _SLOT0 : _SLOT1 + 1].T)
        self.arc_h = rec[:, _ARC_H].copy()
        self.arc_d = rec[:, _ARC_D].copy()
        self.arc_edges = np.flatnonzero(self.arc_d).astype(np.int32)
        self.arc_eh = self.arc_h[self.arc_edges]
        self.arc_ed = self.arc_d[self.arc_edges]
        # Length penalty units |h - d| - 1 per arc edge; root arcs are free.
        self.arc_pen = np.where(
            self.arc_eh > 0, np.abs(self.arc_eh - self.arc_ed) - 1, 0
        ).astype(np.int32)
        first = np.searchsorted(self.head, np.arange(n_nodes + 1))
        sorted_level = level[order]
        starts = np.flatnonzero(np.diff(sorted_level)) + 1
        bounds = [0, *starts.tolist(), n_nodes]
        for arr in (self.head, self.tail0, self.tail1, self.slots, self.arc_h,
                    self.arc_d, self.arc_edges, self.arc_eh, self.arc_ed,
                    self.arc_pen):
            arr.flags.writeable = False
        levels = []
        for a, b in zip(bounds, bounds[1:]):
            e0, e1 = int(first[a]), int(first[b])
            seg = first[a:b] - e0
            seg.flags.writeable = False
            levels.append((a, b, seg, slice(e0, e1), self.head[e0:e1],
                           self.tail0[e0:e1], self.tail1[e0:e1]))
        self.levels = tuple(levels)


@functools.lru_cache(maxsize=32)
def _compile(n: int, cap: int | None) -> _Structure:
    """Enumerate the chart of every length-n sentence under depth cap `cap`."""
    stop_base, cont_base, attach_base = 1 + n, 1 + 5 * n, 1 + 9 * n

    def stop(h, direction, adj):
        return stop_base + 4 * (h - 1) + 2 * direction + adj

    def cont(h, direction, adj):
        return cont_base + 4 * (h - 1) + 2 * direction + adj

    def attach(h, c):
        return attach_base + n * (h - 1) + c - 1

    index: dict[tuple, int] = {}
    level = array("i")
    # States present per (kind, a, b) cell in creation order, each followed
    # by its node id.
    cells: dict[tuple, list[tuple]] = {}
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

    goal = node((_GOAL, 0, 0), 3 * n - 1)
    for c in range(1, n + 1):
        for vl, t0 in cells.get((_LC, c, 1), ()):
            for vr, t1 in cells.get((_RC, c, n), ()):
                emit((goal, t0, t1, c, 0, 0, c))  # slot c is root(c)
    rec = np.frombuffer(records, dtype=np.int32).reshape(-1, 7)
    return _Structure(n, np.frombuffer(level, dtype=np.int32), rec)


def _slot_refs(pos: Sequence[int], V: int) -> np.ndarray:
    """Log-weight index of every weight slot (in `_Structure`'s slot
    order) of a sentence with tag ids `pos`; the unit slot maps to the
    extra entry appended after the weights."""
    wi = _WeightIndex(V)
    ids = np.asarray(pos, dtype=np.int64)
    n = ids.size
    hda = (4 * ids[:, None] + np.arange(4)).ravel()  # (h * 2 + dir) * 2 + adj
    right = np.arange(n)[None, :] > np.arange(n)[:, None]  # c after h
    att = wi.attach_off + (2 * ids[:, None] + right) * V + ids[None, :]
    return np.concatenate(
        ([wi.size], ids, wi.stop_off + hda, wi.cont_off + hda, att.ravel())
    )


class _Chart(NamedTuple):
    """One sentence's chart: the shared structure, the log-weight index of
    each edge's two weight slots, and each edge's static score under the
    parameters and length penalty it was built with."""

    s: _Structure
    refs: np.ndarray    # (2, edges)
    score: np.ndarray   # (edges,)


def _build_chart(
    pos: Sequence[int], V: int, cap: int | None, wlog: np.ndarray, beta: float
) -> _Chart:
    """Chart of the sentence with tag ids `pos` under log-weights `wlog`."""
    s = _compile(len(pos), cap)
    refs = _slot_refs(pos, V)[s.slots]
    w = np.append(wlog, 0.0)
    score = (0.0 + w[refs[0]]) + w[refs[1]]
    if beta:
        score[s.arc_edges] -= beta * s.arc_pen
    return _Chart(s, refs, score)


def _inside(chart: _Chart) -> np.ndarray:
    """Inside log-values of every node (plus the zero sentinel)."""
    s, score = chart.s, chart.score
    vals = np.zeros(s.n_nodes + 1)
    with np.errstate(divide="ignore"):
        for a, b, seg, edges, head, t0, t1 in s.levels:
            sc = score[edges] + vals[t0] + vals[t1]
            m = np.maximum.reduceat(sc, seg)
            m[m == NEG_INF] = 0.0  # no support: exp gives 0 and log -inf
            vals[a:b] = m
            total = np.add.reduceat(np.exp(sc - vals[head]), seg)
            vals[a:b] = m + np.log(total)
    return vals


def _viterbi(chart: _Chart, prices: np.ndarray | None) -> tuple[DepTree, float]:
    s, score = chart.s, chart.score
    if prices is not None:
        score = score.copy()
        score[s.arc_edges] -= prices[s.arc_eh, s.arc_ed]
    vals = np.zeros(s.n_nodes + 1)
    best = np.empty(s.n_nodes, dtype=np.intp)
    for a, b, seg, edges, head, t0, t1 in s.levels:
        sc = score[edges] + vals[t0] + vals[t1]
        vals[a:b] = np.maximum.reduceat(sc, seg)
        # Ties keep the earliest-built derivation: each node takes the first
        # edge of its segment that reaches the maximum.
        hit = (sc == vals[head]).nonzero()[0]
        best[a:b] = hit[hit.searchsorted(seg)] + edges.start
    if vals[s.goal] == NEG_INF:
        raise InfeasibleParseError(
            "no parse satisfies the active structural constraints"
        )
    heads = [-1] * s.n
    stack = [s.goal]
    while stack:
        e = best[stack.pop()]
        d = s.arc_d[e]
        if d:
            heads[d - 1] = s.arc_h[e]
        for t in (s.tail0[e], s.tail1[e]):
            if t != s.n_nodes:
                stack.append(t)
    return DepTree(tuple(heads)), float(vals[s.goal])


def _expected_counts(
    chart: _Chart, vals: np.ndarray, logz: float, size: int
) -> np.ndarray:
    """Posterior mass of every log-weight index (the unit slot included)."""
    s, score = chart.s, chart.score
    out = np.full(s.n_nodes + 1, NEG_INF)
    out[s.goal] = 0.0
    post = np.empty(score.size)
    for a, b, seg, edges, head, t0, t1 in reversed(s.levels):
        c = out[head] + (score[edges] + vals[t0] + vals[t1])
        post[edges] = np.exp(c - logz)
        keep = (c > NEG_INF).nonzero()[0]
        c = c[keep]
        for t in (t0[keep], t1[keep]):
            np.logaddexp.at(out, t, c - vals[t])
    return np.bincount(chart.refs.ravel(), np.tile(post, 2), minlength=size)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _tree_events(pos: Sequence[int], y: DepTree, wi: _WeightIndex) -> list[int]:
    """Log-weight indices of the events that generate tree y over tag ids
    `pos`: the root choice, then per head and direction a continue and an
    attach for each child, and the stop."""
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


def tree_logprob(
    x: Sentence, y: DepTree, theta: DmvParams, cfg: ConstraintConfig
) -> float:
    """log P(x, y) plus the log constraint factor (soft penalty / hard cap)."""
    if y.n != x.n:
        raise ValueError(f"tree length {y.n} != sentence length {x.n}")
    if cfg.max_ce_depth is not None and ce_depth(y) > cfg.max_ce_depth:
        return NEG_INF
    events = _tree_events(theta.tag_ids(x), y, _WeightIndex(theta.V))
    lp = float(theta.log_weights()[events].sum())
    if cfg.dep_len_beta:
        for d, h in enumerate(y.heads, start=1):
            if h != 0:
                lp -= cfg.dep_len_beta * (abs(h - d) - 1)
    return lp


def inside_loglik(x: Sentence, theta: DmvParams, cfg: ConstraintConfig) -> float:
    """Log of the constrained marginal: sum over feasible trees of P(x, y)*f."""
    chart = _build_chart(
        theta.tag_ids(x), theta.V, cfg.max_ce_depth, theta.log_weights(),
        cfg.dep_len_beta,
    )
    return float(_inside(chart)[chart.s.goal])


def viterbi_decode(
    x: Sentence,
    theta: DmvParams,
    cfg: ConstraintConfig,
    u: np.ndarray | None = None,
    _chart: _Chart | None = None,
) -> tuple[DepTree, float]:
    """Best tree under -tree_logprob(x, y) + u.y, with the prices u an
    (n+1, n+1) matrix keyed [h, d]; returns (tree, minimum)."""
    chart = build_decode_chart(x, theta, cfg) if _chart is None else _chart
    tree, best = _viterbi(chart, u)
    return tree, -best


def build_decode_chart(x: Sentence, theta: DmvParams, cfg: ConstraintConfig) -> _Chart:
    """Prebuild a chart for repeated price-modified decodes of one sentence.

    The chart carries its edges' scores under `theta` and `cfg`, so decodes
    that pass it must use the same parameters.
    """
    return _build_chart(
        theta.tag_ids(x), theta.V, cfg.max_ce_depth, theta.log_weights(),
        cfg.dep_len_beta,
    )


def em_step(
    c: Corpus,
    theta: DmvParams,
    cfg: ConstraintConfig,
    smoothing: float = 0.0,
    diagnostics: dict | None = None,
) -> tuple[DmvParams, float]:
    """One EM iteration; returns new parameters and the pre-step log likelihood.

    Sentences whose constrained marginal is zero are skipped and tallied in
    `diagnostics["skipped"]` when a dict is supplied.
    """
    if smoothing < 0:
        raise ValueError("smoothing must be >= 0")
    wi = _WeightIndex(theta.V)
    wlog = theta.log_weights()
    counts = np.zeros(wi.size + 1)  # the last entry takes the unit slot's mass
    total = 0.0
    skipped = 0
    for sent in c:
        chart = _build_chart(
            theta.tag_ids(sent), theta.V, cfg.max_ce_depth, wlog,
            cfg.dep_len_beta,
        )
        vals = _inside(chart)
        logz = float(vals[chart.s.goal])
        if logz == NEG_INF:
            skipped += 1
            continue
        total += logz
        counts += _expected_counts(chart, vals, logz, counts.size)
    if diagnostics is not None:
        diagnostics["skipped"] = skipped
    new = _params_from_counts(theta, counts[:-1], smoothing)
    return new, total


def _params_from_counts(
    theta: DmvParams, counts: np.ndarray, eps: float
) -> DmvParams:
    wi = _WeightIndex(theta.V)
    V = theta.V
    root_c = counts[: wi.attach_off] + eps
    attach_c = counts[wi.attach_off : wi.stop_off].reshape(V, 2, V) + eps
    stop_c = counts[wi.stop_off : wi.cont_off].reshape(V, 2, 2) + eps
    cont_c = counts[wi.cont_off :].reshape(V, 2, 2) + eps

    root_tot = root_c.sum()
    root = root_c / root_tot if root_tot > 0 else theta.root.copy()
    attach = theta.attach.copy()
    tot = attach_c.sum(axis=2)
    nz = tot > 0
    attach[nz] = attach_c[nz] / tot[nz][:, None]
    stop = theta.stop.copy()
    denom = stop_c + cont_c
    nz = denom > 0
    stop[nz] = stop_c[nz] / denom[nz]
    return DmvParams(theta.vocab, root, attach, stop)


def mstep_from_trees(
    c: Corpus, trees: Sequence[DepTree], smoothing: float = 0.1
) -> DmvParams:
    """Re-estimate parameters from hard counts over fixed parse trees."""
    if len(trees) != c.N:
        raise ValueError(f"got {len(trees)} trees for {c.N} sentences")
    vocab = c.pos_vocab
    V = len(vocab)
    idx = {t: i for i, t in enumerate(vocab)}
    wi = _WeightIndex(V)
    events: list[int] = []
    for sent, tree in zip(c, trees):
        if tree.n != sent.n:
            raise ValueError(
                f"tree of length {tree.n} paired with sentence of length {sent.n}"
            )
        events += _tree_events([idx[t] for t in sent.upos], tree, wi)
    counts = np.bincount(np.asarray(events, dtype=np.intp), minlength=wi.size)
    base = DmvParams(
        vocab,
        np.full(V, 1.0 / V),
        np.full((V, 2, V), 1.0 / V),
        np.full((V, 2, 2), 0.5),
    )
    return _params_from_counts(base, counts, smoothing)


def ce_depth(y: DepTree) -> int:
    """Maximum nesting count of strictly-interior subtree spans.

    A token's span is strictly interior when neither of its endpoints is
    shared with its head's span; the depth of a tree is the largest number
    of strictly-interior links on any root-to-leaf path.
    """
    spans = y.spans()
    children = y.children()
    best = 0
    stack = [(y.root(), 0)]
    while stack:
        node, depth = stack.pop()
        best = max(best, depth)
        nl, nr = spans[node - 1]
        for ch in children[node]:
            cl, cr = spans[ch - 1]
            strict = nl < cl and cr < nr
            stack.append((ch, depth + (1 if strict else 0)))
    return best
