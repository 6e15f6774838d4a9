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
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import ArcLayout, Corpus, DepTree, Encoding, block_pairs, ranges

LEFT, RIGHT = 0, 1
NO_CHILD, HAS_CHILD = 0, 1
NEG_INF = float("-inf")

_LOG_FMT = "%.17e"


class InfeasibleParseError(RuntimeError):
    """No parse tree satisfies the active structural constraints."""

    def __init__(self, msg="no parse satisfies the active structural constraints"):
        super().__init__(msg)


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
    single gradient-style accumulation.  Within a block, root(p) is p,
    attach(h, dir, c) is (2h + dir) V + c, and stop and continue (h, dir,
    adj) are 2(2h + dir) + adj.
    """

    def __init__(self, V: int):
        self.V = V
        self.attach_off = V
        self.stop_off = V + 2 * V * V
        self.cont_off = self.stop_off + 4 * V
        self.size = self.cont_off + 4 * V


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

    @property
    def V(self) -> int:
        return len(self.vocab)

    def validate(self, tol: float = 1e-12) -> None:
        if not math.isclose(self.root.sum(), 1.0, abs_tol=tol):
            raise ValueError(f"root distribution sums to {float(self.root.sum())!r}")
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
        is present once, well formed and the tables are normalized."""
        with open(path, encoding="utf-8") as f:
            header = f.readline().split()
            if header[:2] != ["dmvparams", "1"]:
                raise ValueError(f"unrecognized model header {header!r}")
            vocab_line = f.readline().split()
            if vocab_line[:1] != ["vocab"] or len(vocab_line) < 2:
                raise ValueError("missing or empty vocab line")
            vocab = tuple(vocab_line[1:])
            tag = {t: i for i, t in enumerate(vocab)}
            if len(tag) < len(vocab):
                dup = next(t for i, t in enumerate(vocab) if tag[t] != i)
                raise ValueError(f"line 2: vocab tag {dup!r} appears more than once")
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
            seen: dict[tuple, int] = {}  # the line of every record read
            for line_no, line in enumerate(f, start=3):
                parts = line.split()
                if not parts:
                    continue
                try:
                    lookups = key_fields.get(parts[0])
                    if lookups is None:
                        raise ValueError(f"unrecognized record {parts[0]!r}")
                    if len(parts) != len(lookups) + 2:
                        raise ValueError(
                            f"{parts[0]} record needs {len(lookups) + 1} fields, "
                            f"got {len(parts) - 1}"
                        )
                    key = tuple(t[v] for t, v in zip(lookups, parts[1:-1]))
                    first = seen.setdefault((parts[0], *key), line_no)
                    if first != line_no:
                        raise ValueError(
                            f"repeats the {parts[0]} record of line {first}")
                    value = float(parts[-1])
                    if not math.isfinite(value):
                        raise ValueError(
                            f"{parts[0]} probability {parts[-1]!r} is not finite"
                        )
                except KeyError as exc:
                    raise ValueError(
                        f"line {line_no}: unknown field {exc.args[0]!r}"
                    ) from None
                except ValueError as exc:
                    raise ValueError(f"line {line_no}: {exc}") from None
                tables[parts[0]][key] = value
            missing = sum(int(np.isnan(t).sum()) for t in tables.values())
            if missing:
                raise ValueError(f"incomplete model file: {missing} records missing")
            params = cls(vocab, tables["root"], tables["attach"], tables["stop"])
            params.validate()
            return params


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

INITS = ("uniform", "harmonic")


def init_params(c: Corpus, mode: str = "harmonic") -> DmvParams:
    """Uniform or harmonic (short-arc-biased) initializer; both are
    deterministic. Harmonic counts are smoothed by 1, so every event keeps
    support."""
    if mode not in INITS:
        raise ValueError(f"init must be one of {INITS}, got {mode!r}")
    vocab = c.pos_vocab
    V = len(vocab)
    if V == 0:
        raise ValueError("corpus has an empty POS vocabulary")
    uniform = DmvParams(vocab, np.full(V, 1.0 / V), np.full((V, 2, V), 1.0 / V),
                        np.full((V, 2, 2), 0.5))
    if mode == "uniform":
        return uniform
    wi = _WeightIndex(V)
    enc = c.encoding
    ids = _tag_ids(enc, uniform)
    h, d = block_pairs(enc.lengths)  # head h, dependent d
    h, d = h[h != d], d[h != d]
    # Root and attach entries fill disjoint counts, each in corpus order.
    counts = np.zeros(wi.size)
    np.add.at(counts, ids, 1.0 / np.repeat(enc.lengths, enc.lengths))
    np.add.at(counts, wi.attach_off + (ids[h] * 2 + (d > h)) * V + ids[d],
              1.0 / (np.abs(h - d) + 1.0))
    return _params_from_counts(uniform, counts, 1.0)


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
# builds the charts of a group of lengths once into flat arrays, and
# `edge_scores` maps the group's tags onto the weights with a gather.  Nodes
# are numbered by topological level (width, then incomplete / open / closed
# items), so every pass runs level by level over the whole group: a level's
# nodes depend only on lower levels.
#
# The chart is translation-invariant.  A cell is one item kind at one width
# m, keyed by its head h (IL[h-m][h] and IR[h][h+m] too).  Its states, and
# the edges into each state in emission order, depend only on the kind, m
# and the cap, not on h or the length.  `_templates` enumerates each width
# once per cap, relative to h, and every length shares it; `_goal` makes a
# length's goal a cell too, keyed by head 0.  `_compile` tiles the templates
# over the charts and heads with a fixed number of numpy calls.  Level l of
# the group is level l of every chart in chart order.  Within a chart's
# level, cells come head by head, the left kind before the right one; the
# goal of a length-n chart is alone at its level 3n - 1.  A cell's states
# keep their template order, and a node's edges their emission order.  So
# each cell's first node and first edge are running sums of template sizes,
# and every edge field is a per-template-edge constant plus coefficients
# times the cell's head and its chart's length and offsets.
# ---------------------------------------------------------------------------

_LO, _LC, _RO, _RC, _IL, _IR = range(6)
_SIDE = (0, 0, 1, 1, 0, 1)  # left kinds come first in their level
_LEVEL_OFF = (0, 1, 0, 1, -1, -1)  # a cell's level is 3 * width + this

# Fields of a template edge, relative to the cell's head h: the head's state;
# per tail the level, side, head offset and state of the tail's cell, level
# -1 marking the sentinel; the weight slot k * n + off + b * h (unit, root,
# stop or continue); and att = 1 for the attachment of child h + dc, which
# also reads attach(h, h + dc).  A goal edge (h = 0, att = 0) attaches its
# root dc.
_ST, _T0, _T1, _SLOT_K, _SLOT_OFF, _SLOT_B, _ATT, _DC = 0, 1, 5, 9, 10, 11, 12, 13
_SENTINEL = (-1, 0, 0, 0)
_UNIT = (0, 0, 0)
_NO_ARC = (0, 0)


class _Template(NamedTuple):
    """The cells of one item kind at one width: their states in creation
    order, and the edges into them, one column of template fields each,
    sorted by head state and in emission order within a state."""

    states: tuple
    rows: np.ndarray  # (fields, edges) int32


def _template(edges) -> _Template:
    """Template of `edges`, (state, fields) pairs in emission order."""
    index: dict[tuple, int] = {}
    rows = [(index.setdefault(key, len(index)), *fields) for key, fields in edges]
    a = np.array(rows, dtype=np.int32).reshape(-1, _DC + 1).T
    return _Template(tuple(index), a[:, np.argsort(a[_ST], kind="stable")])


def _ref(kind, w, dh, i):
    """Tail fields of state i of the `kind` cell of width w keyed by h + dh."""
    return (3 * w + _LEVEL_OFF[kind], _SIDE[kind], dh, i)


# Unbounded, but it holds only the widths below the longest sentence seen
# under each cap: 0.95 MB for every width below 40 at cap 1.
@functools.lru_cache(maxsize=None)
def _templates(m: int, cap: int | None) -> tuple[_Template, ...]:
    """The templates of the six item kinds, in kind order, at width m under
    depth cap `cap`. Each width reads every lower one, so call with widths
    ascending: a cold call recurses once per width not yet cached."""
    low = [_templates(w, cap) for w in range(m)]
    cur: dict[int, _Template] = {}

    def cells(kind, w):
        return enumerate((cur[kind] if w == m else low[w][kind]).states)

    def stop(direction, adj):
        return (1, 2 * direction + adj - 3, 4)

    def cont(direction, adj):
        return (5, 2 * direction + adj - 3, 4)

    def settled(s, p):
        if cap is None:
            return 0
        s2 = max(s, p + 1)
        return None if s2 > cap else s2

    def child_val(vl, vr):
        if cap is None:
            return 0
        v = max(vl, vr)
        return None if v > cap else v

    # Incomplete items: h attaches c = h - m (IL) or c = h + m (IR) over the
    # split j, c's closed half taking j of the m - 1 inner tokens.
    cur[_IL] = _template(
        ((s2, vr), _ref(_RC, j, -m, i0) + _ref(_LO, m - 1 - j, 0, i1)
         + cont(LEFT, HAS_CHILD if j < m - 1 else NO_CHILD) + (1, -m))
        for j in range(m)
        for i0, (vr,) in cells(_RC, j)
        for i1, (s, p) in cells(_LO, m - 1 - j)
        if (s2 := settled(s, p)) is not None
    )
    cur[_IR] = _template(
        ((s2, vl), _ref(_LC, m - 1 - j, m, i0) + _ref(_RO, j, 0, i1)
         + cont(RIGHT, HAS_CHILD if j else NO_CHILD) + (1, m))
        for j in range(m)
        for i0, (vl,) in cells(_LC, m - 1 - j)
        for i1, (s, p) in cells(_RO, j)
        if (s2 := settled(s, p)) is not None
    )
    # Open halves: width 0 is the axiom; otherwise an attachment of width w,
    # children nearest h first, and the child's own outer half.
    if m == 0:
        cur[_LO] = cur[_RO] = _template(
            [((0, -1), _SENTINEL + _SENTINEL + _UNIT + _NO_ARC)]
        )
    else:
        cur[_LO] = _template(
            ((s2, v), _ref(_IL, w, 0, i0) + _ref(_LC, m - w, -w, i1) + _UNIT + _NO_ARC)
            for w in range(m, 0, -1)
            for i0, (s2, vr) in cells(_IL, w)
            for i1, (vl,) in cells(_LC, m - w)
            if (v := child_val(vl, vr)) is not None
        )
        cur[_RO] = _template(
            ((s2, v), _ref(_IR, w, 0, i0) + _ref(_RC, m - w, w, i1) + _UNIT + _NO_ARC)
            for w in range(1, m + 1)
            for i0, (s2, vl) in cells(_IR, w)
            for i1, (vr,) in cells(_RC, m - w)
            if (v := child_val(vl, vr)) is not None
        )
    # Closed halves: the stop decision, resolving the open half's value.
    adj = HAS_CHILD if m else NO_CHILD
    for open_kind, closed_kind, direction in ((_LO, _LC, LEFT), (_RO, _RC, RIGHT)):
        cur[closed_kind] = _template(
            ((0 if cap is None else max(s, p, 0),),
             _ref(open_kind, m, 0, i) + _SENTINEL + stop(direction, adj) + _NO_ARC)
            for i, (s, p) in cells(open_kind, m)
        )
    return tuple(cur[kind] for kind in range(6))


def _goal(n: int, cap: int | None) -> _Template:
    """The goal of a length-n chart as a cell keyed by head 0: per root c,
    one edge for each pair of states of its closed halves, LC of width c - 1
    and RC of width n - c keyed at c, reading root(c), slot c."""
    return _template(
        ((), _ref(_LC, c - 1, c, i0) + _ref(_RC, n - c, c, i1) + (0, c, 0, 0, c))
        for c in range(1, n + 1)
        for i0 in range(len(_templates(c - 1, cap)[_LC].states))
        for i1 in range(len(_templates(n - c, cap)[_RC].states))
    )


def _template_tables(n: int, cap: int | None):
    """The templates of every width below n, and their state and edge
    counts as (n, 6) int32 tables keyed [width, kind]."""
    ts = [_templates(m, cap) for m in range(n)]
    states = np.array([[len(t.states) for t in w] for w in ts], dtype=np.int32)
    edges = np.array([[t.rows.shape[1] for t in w] for w in ts], dtype=np.int32)
    return ts, states, edges


class _Structure:
    """Read-only compiled charts of sentences of the given lengths under one
    depth cap.

    Nodes are numbered by topological level, and edges sorted by the node
    they derive, then by build order.  Edge e reads nodes tail0[e] and
    tail1[e] (the sentinel n_nodes, of value 0, fills unused tails) and slot
    slot[e] of the sentences' weight slots laid end to end (see
    `_slot_refs`): a sentence's slot 0 is the unit weight (log 1), then come
    root(c), stop(h, dir, adj), continue(h, dir, adj) and attach(h, c) for
    1-based tokens.  Arc edge arc_edges[i] attaches a token d to h (0 for the
    root): it also reads slot arc_slot[i], attach(h, d) or the unit slot, and
    price arc_price[i], h (n + 1) + d into its chart's block of a flat price
    vector in the `ArcLayout` of `lengths`, and has arc_pen[i] length penalty
    units.  goals[i] is chart i's goal.  levels holds one tuple per level:
    its node range a, b; seg, each node's first edge offset within the
    level; count, each node's edge count; the level's edge slice; and its
    views of tail0 and tail1.
    """

    def __init__(self, lengths: tuple[int, ...], goals: np.ndarray, edges: np.ndarray,
                 arcs: np.ndarray, node_edges: np.ndarray, level_nodes: np.ndarray):
        """Structure of the int32 blocks `edges` (rows tail0, tail1, slot) and
        `arcs` (arc_edges, arc_slot, arc_price, arc_pen), given the goals,
        every node's edge count and every level's node count."""
        bounds = [0, *np.cumsum(level_nodes).tolist()]
        first = np.append(0, np.cumsum(node_edges))
        seg = first[:-1] - np.repeat(first[bounds[:-1]], level_nodes)
        for arr in (goals, edges, arcs, node_edges, seg):
            arr.flags.writeable = False
        self.lengths, self.n_nodes, self.goals = lengths, bounds[-1], goals
        self.tail0, self.tail1, self.slot = edges
        self.arc_edges, self.arc_slot, self.arc_price, self.arc_pen = arcs
        e = first[bounds].tolist()
        self.levels = tuple(
            (a, b, seg[a:b], node_edges[a:b], slice(e0, e1), self.tail0[e0:e1],
             self.tail1[e0:e1]) for a, b, e0, e1 in zip(bounds, bounds[1:], e, e[1:]))


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Where each block of `sizes` starts when the blocks are laid end to end."""
    out = np.zeros_like(sizes)
    np.cumsum(sizes[:-1], out=out[1:])
    return out


# 32 group layouts of about 20 bytes per edge, each at most 0.7 MB
# (`_GROUP_EDGES`) unless it holds one long sentence (4.1 MB at n = 40, cap 1).
# 2000 sentences of lengths 1-15 fall into 19 distinct groups, whose layouts
# stay cached, about 9 MB at cap 1; lengths 1-40 give 43, and the cache
# cycles.
@functools.lru_cache(maxsize=32)
def _compile(lengths: tuple[int, ...], cap: int | None) -> _Structure:
    """The charts of sentences of `lengths` under depth cap `cap`, tiled
    from the templates of widths below the longest and the goals."""
    n = np.array(lengths, dtype=np.int32)
    top, sizes = int(n.max()), sorted(set(lengths))
    ts, states, counts = _template_tables(top, cap)
    goals = [_goal(m, cap) for m in sizes]
    rows = np.concatenate([t.rows for w in ts for t in w] + [g.rows for g in goals],
                          axis=1)
    # Template ids: 6 * width + kind, then the goal of each distinct length;
    # id -1 has no states or edges.
    t_nodes = np.append(states.ravel(), [1] * len(goals) + [0]).astype(np.int32)
    t_edges = np.append(counts.ravel(),
                        [g.rows.shape[1] for g in goals] + [0]).astype(np.int32)
    # The cells in node order, as a (level, position) grid of template ids.
    # Chart i takes 2 n_i + 1 positions of every level: the cell of head h
    # and side `side` at 2(h - 1) + side, then the goal, given head 0. A left
    # cell of width m exists for h > m, a right one for h <= n_i - m, and the
    # goal at level 3 n_i - 1.
    chart = np.repeat(np.arange(n.size, dtype=np.int32), 2 * n + 1)
    first = _starts(2 * n + 1)
    pos = np.arange(chart.size, dtype=np.int32) - first[chart]
    side, nc = pos % 2, n[chart]
    h = np.where(pos < 2 * nc, pos // 2 + 1, 0)
    lv = np.arange(3 * top, dtype=np.int32)[:, None]
    width = (lv + 1) // 3
    kind = np.array([[_IL, _IR], [_LO, _RO], [_LC, _RC]])[lv - 3 * width + 1, side]
    exists = np.where(h > 0, np.where(side == 1, h <= nc - width, h > width),
                      lv == 3 * nc - 1)
    tmpl = np.where(h > 0, 6 * width + kind, 6 * top + np.searchsorted(sizes, nc))
    tmpl = np.where(exists, tmpl, -1).astype(np.int32).ravel()
    cell_nodes, cell_edges = t_nodes[tmpl], t_edges[tmpl]
    cell_pos = np.tile(np.arange(chart.size, dtype=np.int32), 3 * top)
    level_nodes = cell_nodes.reshape(3 * top, -1).sum(axis=1)
    # Node ids: each cell's first, then the sentinel's, n_nodes, once per
    # position of a row past the last level. A node has the edge count of
    # its template state.
    base = _starts(np.append(cell_nodes, np.zeros(chart.size, dtype=np.int32)))
    t_first = _starts(t_nodes)
    state_edges = np.bincount(rows[_ST] + np.repeat(t_first[:-1], t_edges[:-1]),
                              minlength=int(t_nodes.sum()))
    node_edges = state_edges[ranges(t_first[tmpl], cell_nodes)]
    # A tail is state i of grid cell g: its level's row, then its head's
    # position in the edge's chart (the sentinel's row is past the last
    # level). g is tail_at[row] plus the position of the head of the edge's
    # own cell, and the tail is node base[g] + i.
    tail_at = [
        (np.where(lvl >= 0, lvl * chart.size + 2 * (dh - 1) + sd, tmpl.size)
         .astype(np.intp), st)
        for lvl, sd, dh, st in (rows[_T0 : _T0 + 4], rows[_T1 : _T1 + 4])
    ]
    # A template's edges read one kind of slot and are all arcs or none, as
    # its first edge says. Chart c's slots follow those of the charts before
    # it, and an edge reads slot k n + off + b h of its chart.
    k_of, b_of, att_of, arc_of = rows[[_SLOT_K, _SLOT_B, _ATT, _DC]][
        :, np.minimum(_starts(t_edges), rows.shape[1] - 1)]
    slot_base = _starts(1 + 9 * n + n * n)[chart]
    cell_slot = (k_of[tmpl] * nc[cell_pos] + b_of[tmpl] * h[cell_pos]
                 + slot_base[cell_pos])
    off, dc = rows[[_SLOT_OFF, _DC]]
    del rows
    # Every edge is template edge `row` tiled at its cell.
    row = np.repeat((_starts(t_edges)[tmpl] - _starts(cell_edges)).astype(np.intp),
                    cell_edges)
    row += np.arange(row.size)
    block = np.empty((3, row.size), dtype=np.int32)
    at = np.repeat((first[chart] + 2 * h)[cell_pos], cell_edges)
    for out, (g, state) in zip(block, tail_at):
        tail = g[row]
        tail += at
        np.take(base, tail, out=out)
        del tail  # before the next one is gathered
        out += state[row]
    del at
    np.take(off, row, out=block[2])
    block[2] += np.repeat(cell_slot, cell_edges)
    # Arc edges: those of cells that attach child h + dc (att = 1), and of
    # goals (root dc).
    arc_cells = np.flatnonzero(arc_of[tmpl])
    k, p = cell_edges[arc_cells], cell_pos[arc_cells]
    arcs = np.empty((4, k.sum()), dtype=np.int32)
    arcs[0] = np.flatnonzero(np.repeat(arc_of[tmpl] != 0, cell_edges))
    dc = dc[row[arcs[0]]]
    del row
    att, ns = np.repeat(att_of[tmpl[arc_cells]], k), np.repeat(nc[p], k)
    hs = att * np.repeat(h[p], k)
    arcs[1] = att * (8 * ns + (ns + 1) * hs + dc) + np.repeat(slot_base[p], k)
    arcs[2] = hs * (ns + 1) + hs + dc + np.repeat(_starts((n + 1) ** 2)[chart][p], k)
    arcs[3] = att * (np.abs(dc) - 1)  # length penalty units; root arcs are free
    return _Structure(lengths, base[(3 * n - 1) * chart.size + first + 2 * n], block,
                      arcs, node_edges, level_nodes[level_nodes > 0])


def _tag_ids(enc: Encoding, theta: DmvParams) -> np.ndarray:
    """Every token's tag id in `theta`'s vocabulary, through one table over
    `enc`'s tags; raises ValueError on the first tag that is not in it."""
    index = {t: i for i, t in enumerate(theta.vocab)}
    try:
        table = np.array([index[t] for t in enc.tags], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"UPOS tag {exc.args[0]!r} not in model vocabulary") from None
    return table[enc.ids]


def _slot_refs(ids: np.ndarray, lengths: Sequence[int], V: int) -> np.ndarray:
    """Log-weight index of every weight slot (in `_Structure`'s slot order)
    of sentences of the given lengths whose tokens have the tag ids `ids`;
    the unit slot maps to the extra entry appended after the weights. The
    refs are built part by part over the group (unit, root, stop, continue
    and attach), then gathered sentence by sentence."""
    wi = _WeightIndex(V)
    ids, n = np.asarray(ids, dtype=np.intp), np.asarray(lengths, dtype=np.intp)
    hda = (4 * ids[:, None] + np.arange(4)).ravel()  # (h * 2 + dir) * 2 + adj
    h, c = block_pairs(n)
    att = wi.attach_off + (2 * ids[h] + (c > h)) * V + ids[c]  # c > h: right
    refs = np.concatenate(
        (np.full(n.size, wi.size), ids, wi.stop_off + hda, wi.cont_off + hda, att))
    sizes = np.stack([np.ones_like(n), n, 4 * n, 4 * n, n * n])  # (parts, sentences)
    starts = _starts(sizes.ravel()).reshape(sizes.shape)
    return refs[ranges(starts.T.ravel(), sizes.T.ravel())]


def edge_scores(
    s: _Structure, slot_refs: np.ndarray, wlog: np.ndarray, beta: float,
    prices: np.ndarray | None = None,
) -> np.ndarray:
    """Every edge's score in `s`: the log-weights of its weight slots, read
    from `wlog` through `slot_refs`, minus `beta` per length penalty unit
    and minus its arc's price in the flat vector `prices`, if any."""
    w = np.append(wlog, 0.0)[slot_refs]  # the weight of every slot
    score = 0.0 + w[s.slot]
    arc = score[s.arc_edges] + w[s.arc_slot]
    if beta:
        arc -= beta * s.arc_pen
    if prices is not None:
        arc -= prices[s.arc_price]
    score[s.arc_edges] = arc
    return score


def _charts(enc: Encoding, theta: DmvParams, cap: int | None, beta: float,
            prices: np.ndarray | None = None):
    """The compiled charts of `enc`'s rows under depth cap `cap`, their
    slot refs laid end to end, and their `edge_scores`."""
    s = _compile(enc.lengths, cap)
    slot_refs = _slot_refs(_tag_ids(enc, theta), enc.lengths, theta.V)
    return s, slot_refs, edge_scores(s, slot_refs, theta.log_weights(), beta, prices)


def viterbi_batch(
    s: _Structure, score: np.ndarray
) -> list[tuple[tuple[int, ...] | None, float]]:
    """Best tree of each chart of `s` under the edge scores `score`: the
    heads, or None where no tree is feasible, and the best score."""
    vals = np.zeros(s.n_nodes + 1)
    best = np.empty(s.n_nodes, dtype=np.intp)
    for a, b, seg, count, edges, t0, t1 in s.levels:
        sc = score[edges] + vals[t0] + vals[t1]
        m = vals[a:b] = np.maximum.reduceat(sc, seg)
        # Ties keep the earliest-built derivation: each node takes the first
        # edge of its segment that reaches the maximum.
        hit = (sc == m.repeat(count)).nonzero()[0]
        best[a:b] = hit[hit.searchsorted(seg)] + edges.start
    used = []  # the edges of every tree
    best_of, tail0, tail1, sentinel = best.item, s.tail0.item, s.tail1.item, s.n_nodes
    stack = s.goals[vals[s.goals] > NEG_INF].tolist()
    while stack:
        v = stack.pop()
        if v != sentinel:
            e = best_of(v)
            used.append(e)
            stack += tail0(e), tail1(e)
    # A tree's arc edges give its arcs h -> d, at price h (n + 1) + d.
    on = np.zeros(score.size, dtype=bool)
    on[used] = True
    price = s.arc_price[on[s.arc_edges]]
    n = np.array(s.lengths)
    block = _starts((n + 1) ** 2)
    chart = block.searchsorted(price, "right") - 1
    h, d = np.divmod(price - block[chart], n[chart] + 1)
    heads = np.empty(n.sum(), dtype=np.intp)
    heads[_starts(n)[chart] + d - 1] = h
    return [(tuple(t.tolist()), float(v)) if v > NEG_INF else (None, NEG_INF)
            for t, v in zip(np.split(heads, np.cumsum(n)[:-1]), vals[s.goals].tolist())]


def _inside(s: _Structure, score: np.ndarray) -> np.ndarray:
    """Inside log-values of every node of `s` under the edge scores `score`
    (plus the zero sentinel)."""
    vals = np.zeros(s.n_nodes + 1)
    with np.errstate(divide="ignore"):
        for a, b, seg, count, edges, t0, t1 in s.levels:
            sc = score[edges] + vals[t0] + vals[t1]
            m = np.maximum.reduceat(sc, seg)
            m[m == NEG_INF] = 0.0  # no support: exp gives 0 and log -inf
            total = np.add.reduceat(np.exp(sc - m.repeat(count)), seg)
            vals[a:b] = m + np.log(total)
    return vals


def _expected_counts(s: _Structure, score: np.ndarray, slot_refs: np.ndarray,
                     vals: np.ndarray, size: int) -> np.ndarray:
    """Posterior mass of every log-weight index (the unit slot included) over
    `s` under the edge scores `score`, each edge's mass going to the weight
    refs `slot_refs` of the slots it reads; each goal's outside value is
    -log Z, or -inf if it has no tree."""
    out = np.full(s.n_nodes + 1, NEG_INF)
    logz = vals[s.goals]
    out[s.goals] = np.where(logz > NEG_INF, -logz, NEG_INF)
    post = np.empty(score.size)
    for a, b, seg, count, edges, t0, t1 in reversed(s.levels):
        c = out[a:b].repeat(count) + (score[edges] + vals[t0] + vals[t1])
        post[edges] = np.exp(c)
        keep = (c > NEG_INF).nonzero()[0]
        c = c[keep]
        for t in (t0[keep], t1[keep]):
            np.logaddexp.at(out, t, c - vals[t])
    # Every edge's slot, then every arc edge's second, each in edge order.
    refs = np.concatenate((slot_refs[s.slot], slot_refs[s.arc_slot]))
    return np.bincount(refs, np.concatenate((post, post[s.arc_edges])), minlength=size)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def chart_edges(n: int, cap: int | None) -> int:
    """Edges of the compiled chart of a length-n sentence under depth cap
    `cap`, counted from the templates without compiling the chart: width m
    has n - m cells of each kind, and the goal one edge per root and pair of
    its closed halves' states."""
    _, states, edges = _template_tables(n, cap)
    return int(
        (n - np.arange(n)) @ edges.sum(axis=1)
        + states[:, _LC] @ states[::-1, _RC]
    )


# Sentences are decoded, and run through EM, in groups of similar length whose
# charts hold at most this many edges under the depth cap. Compiling a group's
# layout peaks at 48-83 bytes per edge, the layout included; a decode pass
# then takes 16-22 more and EM 42-50 (weight refs and edge posteriors), as
# tracemalloc measured on the benchmark corpora's groups at cap 1. So the bound
# keeps a group under about 3 MB whatever the corpus.
_GROUP_EDGES = 1 << 15


def length_groups(lengths: Sequence[int], cap: int | None) -> Iterator[list[int]]:
    """Indices of `lengths`, longest first (stably), cut into groups under
    `_GROUP_EDGES`; a larger sentence is a group of its own. Edges are
    counted from the chart templates, once per distinct length, so cutting
    the groups compiles no chart: each group is compiled where it runs.
    Longest first, the largest group is compiled while the fewest others
    are cached."""
    chart_size = {n: chart_edges(n, cap) for n in set(lengths)}
    group: list[int] = []
    edges = 0
    for i in sorted(range(len(lengths)), key=lambda i: -lengths[i]):
        e = chart_size[lengths[i]]
        if group and edges + e > _GROUP_EDGES:
            yield group
            group, edges = [], 0
        group.append(i)
        edges += e
    if group:
        yield group


def decode_group(
    enc: Encoding,
    theta: DmvParams,
    cfg: ConstraintConfig,
    prices: np.ndarray | None = None,
) -> tuple[list[DepTree], list[bool]]:
    """Best tree of each row of `enc` under the grammar's score minus the
    `prices` of its arcs, flat in the `ArcLayout` of the rows (none: zero),
    as decoded alone, and whether its depth cap was lifted: the rows with
    no tree under the cap are decoded again without it, as a group of their
    own, since finite prices cannot make them feasible."""
    s, _, score = _charts(enc, theta, cfg.max_ce_depth, cfg.dep_len_beta, prices)
    trees = viterbi_batch(s, score)
    lifted = [heads is None for heads, _ in trees]
    if any(lifted) and cfg.max_ce_depth is not None:
        rows = [i for i, lift in enumerate(lifted) if lift]
        if prices is not None:
            offsets = ArcLayout(enc.lengths).offsets
            prices = np.concatenate([prices[offsets[i]:offsets[i + 1]] for i in rows])
        s, _, score = _charts(enc.rows(rows), theta, None, cfg.dep_len_beta, prices)
        for i, tree in zip(rows, viterbi_batch(s, score)):
            trees[i] = tree
    if any(heads is None for heads, _ in trees):
        raise InfeasibleParseError()
    return [DepTree(heads) for heads, _ in trees], lifted


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
    # The last entry takes the unit slot's mass.
    counts = np.zeros(_WeightIndex(theta.V).size + 1)
    enc, cap = c.encoding, cfg.max_ce_depth
    logz = np.empty(c.N)
    for group in length_groups(enc.lengths, cap):
        s, slot_refs, score = _charts(enc.rows(group), theta, cap, cfg.dep_len_beta)
        vals = _inside(s, score)
        logz[group] = vals[s.goals]
        counts += _expected_counts(s, score, slot_refs, vals, counts.size)
    # Added in corpus order, so that the grouping cannot move its bits.
    total = functools.reduce(float.__add__, logz[logz > NEG_INF].tolist(), 0.0)
    if diagnostics is not None:
        diagnostics["skipped"] = int((logz == NEG_INF).sum())
    new = _params_from_counts(theta, counts[:-1], smoothing)
    return new, total


def _params_from_counts(
    theta: DmvParams, counts: np.ndarray, eps: float
) -> DmvParams:
    """Tables of the `_WeightIndex` event counts `counts`, each smoothed by
    `eps`; a distribution with no mass keeps its table from `theta`."""
    if eps < 0:
        raise ValueError("smoothing must be >= 0")
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


def _tokens(c: Corpus, trees: Sequence[DepTree], theta: DmvParams):
    """The tag id, head and 1-based position of every token of `c`, laid
    end to end, under `trees`, one tree per sentence."""
    enc = c.encoding
    for y, n in zip(trees, enc.lengths, strict=True):
        if y.n != n:
            raise ValueError(f"tree of length {y.n} for a sentence of length {n}")
    heads = np.array([h for y in trees for h in y.heads], dtype=np.intp)
    pos = np.arange(heads.size) - np.repeat(enc.offsets[:-1], enc.lengths) + 1
    return _tag_ids(enc, theta), heads, pos


def tree_counts(c: Corpus, trees: Sequence[DepTree], theta: DmvParams) -> np.ndarray:
    """How often each event of `theta`'s `_WeightIndex` generates `trees`
    over `c`, one tree per sentence; the depth cap plays no part. A root
    arc is a root event and any other arc an attach. A head side with k
    children continues once with no child yet (if k > 0), k - 1 times with
    one, and stops once, after a child iff k > 0; so child order plays no
    part."""
    wi = _WeightIndex(theta.V)
    tag, head, pos = _tokens(c, trees, theta)
    arc = head > 0
    # Each arc's head side 2t + dir, t the head's index in the corpus's
    # token order, and each token side's row 2 tag + dir of the blocks.
    side = 2 * (np.arange(tag.size) - pos + head)[arc] + (pos > head)[arc]
    block = (2 * tag[:, None] + (LEFT, RIGHT)).ravel()
    k = np.bincount(side, minlength=block.size)
    first = np.minimum(k, 1)
    events = np.concatenate((
        tag[~arc],
        wi.attach_off + block[side] * wi.V + tag[arc],
        wi.stop_off + 2 * block + first,
        np.repeat(wi.cont_off + 2 * block + NO_CHILD, first),
        np.repeat(wi.cont_off + 2 * block + HAS_CHILD, k - first),
    ))
    return np.bincount(events, minlength=wi.size)


def tree_cost(c: Corpus, trees: Sequence[DepTree], theta: DmvParams, eps: float,
              beta: float) -> float:
    """The grammar's cost of `trees` over `c`: -(counts + eps) . log theta,
    with `counts` their `tree_counts`, plus `beta` per length penalty unit
    |h - d| - 1 of every arc but the root's; the depth cap plays no part.
    Under the Dirichlet prior eps the smoothed `mstep_from_trees` minimizes
    it. Events of weight 0 are left out, so 0 * log 0 never enters."""
    counts = tree_counts(c, trees, theta) + eps
    used = counts > 0
    _, head, pos = _tokens(c, trees, theta)
    penalty = (np.abs(head - pos) - 1)[head > 0].sum()
    return float(-(counts[used] @ theta.log_weights()[used]) + beta * penalty)


def mstep_from_trees(
    c: Corpus, trees: Sequence[DepTree], smoothing: float = 0.1
) -> DmvParams:
    """Re-estimate parameters from hard counts over fixed parse trees."""
    base = init_params(c, "uniform")
    return _params_from_counts(base, tree_counts(c, trees, base), smoothing)


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
