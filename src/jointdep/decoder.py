"""Joint decoding of the two models by dual decomposition.

Iterates the two price-modified subproblem decoders, updates the per-arc
prices on disagreement, and returns a certified optimum on agreement or a
deterministic fallback otherwise. A group of sentences iterates in lockstep,
each iteration one batched pass of each decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Sequence

import numpy as np

from . import cmst, dmv
from .corpus import DepTree, Sentence, tree_matrix

_STEP_RULES = ("constant", "inv", "invsqrt")
_FALLBACKS = ("generative", "discriminative", "better-objective")


@dataclass(frozen=True)
class DDConfig:
    tau0: float = 1.0
    step_rule: str = "invsqrt"
    max_iters: int = 50
    fallback: str = "better-objective"

    def __post_init__(self):
        if not 0 < self.tau0 < math.inf:
            raise ValueError(f"tau0 must be finite and > 0, got {self.tau0}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.step_rule not in _STEP_RULES:
            raise ValueError(f"step_rule must be one of {_STEP_RULES}")
        if self.fallback not in _FALLBACKS:
            raise ValueError(f"fallback must be one of {_FALLBACKS}")

    def step_size(self, k: int) -> float:
        if self.step_rule == "constant":
            return self.tau0
        if self.step_rule == "inv":
            return self.tau0 / k
        return self.tau0 / math.sqrt(k)


@dataclass(frozen=True)
class DDResult:
    tree: DepTree
    converged: bool
    iterations: int
    final_gap: int  # number of disagreeing arc cells
    relaxed_depth_cap: bool = False


def _joint_cost(x, tree, theta, cfg_f, model, q, v, g_weight):
    """F + G at a tree (w-regularizer omitted: constant across trees)."""
    g_val = cmst.tree_loss(tree_matrix(tree), q, v, model.mu)
    return -dmv.tree_logprob(x, tree, theta, cfg_f) + g_weight * g_val


def dd_decode(
    x: Sentence,
    theta: dmv.DmvParams,
    cfg_f: dmv.ConstraintConfig,
    m: cmst.CmstModel,
    dd: DDConfig,
    g_weight: float = 1.0,
) -> DDResult:
    """Agreement decoding of one sentence: `dd_decode_group` of a group of
    one."""
    [result] = dd_decode_group([x], theta, cfg_f, m, dd, g_weight)
    return result


def dd_decode_group(
    xs: Sequence[Sentence],
    theta: dmv.DmvParams,
    cfg_f: dmv.ConstraintConfig,
    m: cmst.CmstModel,
    dd: DDConfig,
    g_weight: float = 1.0,
) -> list[DDResult]:
    """Agreement decoding of every sentence of `xs`: minimize F(x, y) +
    G(x, y) over projective trees.

    The sentences iterate in lockstep, and each iteration makes one batched
    Viterbi pass and one `eisner_min` call over the sentences still planned.
    A sentence leaves once its two trees agree; its result is then a
    certified optimum of the joint objective. A sentence still disagreeing
    after `dd.max_iters` iterations gets one of its two final trees, picked
    by the fallback policy. Every result equals what the sentence gives
    decoded alone.
    """
    terms = list(cmst.sentence_terms(xs, m))
    base = [cmst.arc_costs(q, v, m) * g_weight for q, v in terms]
    sizes = [c.size for c in base]
    offsets = np.cumsum([0] + sizes[:-1]).tolist()
    # Every sentence's prices u, (n+1, n+1) keyed [h, d], in one flat vector.
    u = np.zeros(sum(sizes))
    prices = [u[o:o + c.size].reshape(c.shape) for o, c in zip(offsets, base)]
    cols = [o + np.arange(1, x.n + 1) for o, x in zip(offsets, xs)]
    cfgs = [cfg_f] * len(xs)
    charts = [dmv.build_decode_chart(x, theta, cfg_f) for x in xs]
    results: list[DDResult | None] = [None] * len(xs)

    def plan(rows):
        return dmv.viterbi_plan(
            [charts[i] for i in rows], [offsets[i] for i in rows]
        )

    # `planned` are the rows the chart passes run over; `active` those not yet
    # decided. The plan is rebuilt only when half of its rows have left.
    planned = active = list(range(len(xs)))
    vit = plan(planned)
    for k in range(1, dd.max_iters + 1):
        at = {i: j for j, i in enumerate(planned)}
        ys = dmv.viterbi_batch(vit, u, [at[i] for i in active])
        if k == 1:
            # Finite prices cannot change feasibility, so a sentence
            # infeasible under the depth cap shows here, at zero prices; its
            # cap is relaxed for it alone.
            stuck = [i for i, (y, _) in zip(active, ys) if y is None]
            if stuck:
                if cfg_f.max_ce_depth is None:
                    raise dmv.InfeasibleParseError()
                relaxed = replace(cfg_f, max_ce_depth=None)
                for i in stuck:
                    cfgs[i] = relaxed
                    charts[i] = dmv.build_decode_chart(xs[i], theta, relaxed)
                vit = plan(planned)
                ys = dmv.viterbi_batch(vit, u, [at[i] for i in active])
                if any(y is None for y, _ in ys):
                    raise dmv.InfeasibleParseError()
        zs = cmst.eisner_min([base[i] - prices[i] for i in planned])
        left = []
        for i, (y, _) in zip(active, ys):
            z = zs[at[i]][0]
            if y == z:
                results[i] = DDResult(
                    DepTree(y), True, k, 0, cfgs[i] is not cfg_f
                )
            else:
                left.append((i, y, z))
        if k == dd.max_iters:
            for i, y, z in left:
                results[i] = _fallback(
                    xs[i], y, z, theta, cfgs[i], cfgs[i] is not cfg_f, m,
                    terms[i], dd, g_weight,
                )
            break
        if not left:
            break
        # u + tau * (Y - Z) for each disagreeing sentence, with Y and Z its
        # two trees' 0/1 arc matrices: cell [h, d] of a sentence's prices
        # sits at its offset + h * (n+1) + d.
        cell = np.concatenate([cols[i] for i, _, _ in left])
        stride = np.concatenate([np.full(xs[i].n, xs[i].n + 1) for i, _, _ in left])
        diff = np.zeros(u.size)
        for side, sign in ((1, 1.0), (2, -1.0)):  # y, then z
            heads = np.fromiter(chain.from_iterable(t[side] for t in left), np.intp)
            diff[heads * stride + cell] += sign
        u += dd.step_size(k) * diff
        active = [i for i, _, _ in left]
        if 2 * len(active) <= len(planned):
            planned = active
            vit = plan(planned)
    return results


def _fallback(x, y, z, theta, cfg_f, relaxed, m, terms, dd, g_weight) -> DDResult:
    """The result of a sentence whose trees y and z still disagree at the
    iteration budget."""
    y_tree, z_tree = DepTree(y), DepTree(z)
    gap = sum(a != b for a, b in zip(y, z)) * 2
    if dd.fallback == "generative":
        tree = y_tree
    elif dd.fallback == "discriminative":
        tree = z_tree
    else:
        q, v = terms
        cy = _joint_cost(x, y_tree, theta, cfg_f, m, q, v, g_weight)
        cz = _joint_cost(x, z_tree, theta, cfg_f, m, q, v, g_weight)
        tree = y_tree if cy <= cz else z_tree
    return DDResult(tree, False, dd.max_iters, gap, relaxed)
