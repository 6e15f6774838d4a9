"""Joint decoding of the two models by dual decomposition.

Iterates the two price-modified subproblem decoders and updates the per-arc
prices by Polyak steps toward the best primal cost found. A sentence is
certified once its two trees agree or its dual gap closes; otherwise it ends,
uncertified, on the grammar tree of least joint cost the iterations found. A
group of sentences iterates in lockstep, each iteration one batched pass of
each decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cmst, dmv
from .corpus import ArcLayout, DepTree, Sentence

# A sentence is certified once its dual gap is at most _GAP_TOL * (1 + |L|),
# L the dual value: the rounding of sums of a few dozen terms stays far below.
_GAP_TOL = 1e-9


@dataclass(frozen=True)
class DDResult:
    tree: DepTree
    converged: bool
    iterations: int
    final_gap: float  # best primal cost minus dual value; 0.0 on agreement
    relaxed_depth_cap: bool


def dd_decode_group(
    xs: Sequence[Sentence],
    theta: dmv.DmvParams,
    cfg_f: dmv.ConstraintConfig,
    m: cmst.CmstModel,
    max_iters: int,
    g_weight: float = 1.0,
) -> list[DDResult]:
    """Agreement decoding of every sentence of `xs`: minimize F(x, y) +
    G(x, y) over projective trees.

    The sentences iterate in lockstep, and each iteration makes one batched
    Viterbi pass and one `eisner_min` call over the sentences still planned.
    Their scores bound each sentence's optimum from both sides: below by the
    dual value L = eis - vit, above by the joint cost P = (base - u).Y - vit
    of the grammar's tree y (F + G but for a term shared by every tree). A
    sentence leaves, certified, once its two trees agree, or once its lowest
    P so far is within `_GAP_TOL` * (1 + |L|) of L, with the tree that first
    reached that P.
    Otherwise its prices take the Polyak step u + (min P - L) / |Y - Z|^2 *
    (Y - Z). A sentence still uncertified after `max_iters` iterations
    leaves the same way, with the same tree, but flagged uncertified. Every
    result equals what the sentence gives decoded alone.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    base = [
        cmst.arc_costs(q, v, m) * g_weight for q, v in cmst.sentence_terms(xs, m)
    ]
    # Every sentence's prices u and arc costs, in the `ArcLayout` of `xs`;
    # the grammar's plans read their prices in that layout too.
    layout = ArcLayout(x.n for x in xs)
    u = np.zeros(layout.size)
    flat_base = np.concatenate([c.ravel() for c in base])
    prices = layout.views(u)
    # Iteration 1 is at zero prices, the depth cap lifted where it leaves no tree.
    charts, vit, ys, relaxed = dmv.decode_group(xs, theta, cfg_f)
    results: list[DDResult | None] = [None] * len(xs)
    best_cost = np.full(len(xs), np.inf)  # each sentence's lowest P so far
    best_heads: list[tuple[int, ...] | None] = [None] * len(xs)

    # `planned` are the rows the chart passes run over; `active` those not yet
    # decided. The plan is rebuilt only when half of its rows have left.
    planned = active = list(range(len(xs)))
    for k in range(1, max_iters + 1):
        at = {i: j for j, i in enumerate(planned)}
        if k > 1:
            ys = dmv.viterbi_batch(vit, u, [at[i] for i in active])
        zs = cmst.eisner_min([base[i] - prices[i] for i in planned])
        left = []
        for i, (y, y_score) in zip(active, ys):
            z, z_cost = zs[at[i]]
            if y == z:
                results[i] = DDResult(DepTree(y), True, k, 0.0, relaxed[i])
            else:
                left.append((i, y, z, y_score, z_cost))
        if not left:
            break
        rows = np.array([t[0] for t in left])
        token_row = np.repeat(np.arange(len(left)), [xs[i].n for i in rows])
        y_at, z_at = (layout.arcs((t[side] for t in left), rows) for side in (1, 2))
        y_score, z_cost = (np.array([t[side] for t in left]) for side in (3, 4))
        # Per-row sums are bincounts, which add a row's cells in order from
        # 0.0: a row gets the same bits alone or in any group.
        cost = np.bincount(token_row, flat_base[y_at] - u[y_at], len(left))
        cost -= y_score
        dual = z_cost - y_score
        lower = (cost < best_cost[rows]).nonzero()[0]
        best_cost[rows[lower]] = cost[lower]
        for j in lower:
            best_heads[left[j][0]] = left[j][1]
        gap = best_cost[rows] - dual
        closed = gap <= _GAP_TOL * (1.0 + np.abs(dual))
        for j, i in enumerate(rows.tolist()):
            if closed[j] or k == max_iters:
                results[i] = DDResult(
                    DepTree(best_heads[i]), bool(closed[j]), k, float(gap[j]),
                    relaxed[i],
                )
        active = rows[~closed].tolist()
        if not active or k == max_iters:
            break
        # The Polyak step on each open row, over the cells where Y - Z is
        # +1 (y's arcs) or -1 (z's); |Y - Z|^2 is twice the tokens whose
        # heads differ.
        moved = y_at != z_at
        tau = gap / (2 * np.bincount(token_row[moved], minlength=len(left)))
        moved &= ~closed[token_row]
        step = tau[token_row[moved]]
        u[y_at[moved]] += step
        u[z_at[moved]] -= step
        if 2 * len(active) <= len(planned):
            planned = active
            vit = dmv.chart_plan(
                [charts[i] for i in planned], [layout.offsets[i] for i in planned]
            )
    return results
