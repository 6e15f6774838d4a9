"""Joint decoding of the two models by dual decomposition.

Iterates the two price-modified subproblem decoders, updates the per-arc
prices on disagreement, and returns a certified optimum on agreement or a
deterministic fallback otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        if self.tau0 <= 0:
            raise ValueError("tau0 must be > 0")
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
    y = tree_matrix(tree)
    resid = y - q
    g_val = (
        float(np.vdot(resid, resid)) / (2.0 * x.n)
        - model.mu * float(np.vdot(v, y))
    )
    return -dmv.tree_logprob(x, tree, theta, cfg_f) + g_weight * g_val


def dd_decode(
    x: Sentence,
    theta: dmv.DmvParams,
    cfg_f: dmv.ConstraintConfig,
    m: cmst.CmstModel,
    dd: DDConfig,
    features=None,
    g_weight: float = 1.0,
) -> DDResult:
    """Agreement decoding: minimize F(x, y) + G(x, y) over projective trees.

    On agreement within the iteration budget the returned tree is a certified
    optimum of the joint objective; otherwise the configured fallback policy
    picks between the two final subproblem trees.
    """
    n = x.n
    if features is None:
        features = cmst.extract_features(x, m.templates)
    base_costs = cmst.arc_costs(x, m, features=features) * g_weight
    v = cmst.rule_vector(x, m.rules)
    q = (features @ m.w).reshape(n + 1, n + 1)
    u = np.zeros((n + 1, n + 1))
    relaxed = False
    chart = None
    y_tree = z_tree = None
    for k in range(1, dd.max_iters + 1):
        # Generative side: argmin F + u.y.  Infeasibility under the depth cap
        # is handled by relaxing the cap for this sentence only.
        while True:
            if chart is None:
                chart = dmv.build_decode_chart(x, theta, cfg_f)
            try:
                y_tree, _ = dmv.viterbi_decode(x, theta, cfg_f, u, _chart=chart)
                break
            except dmv.InfeasibleParseError:
                if relaxed or cfg_f.max_ce_depth is None:
                    raise
                relaxed = True
                cfg_f = replace(cfg_f, max_ce_depth=None)
                chart = None
        # Discriminative side: argmin G - u.z (same price matrix).
        heads, _ = cmst.eisner_min(base_costs - u)
        z_tree = DepTree(heads)
        if y_tree.heads == z_tree.heads:
            return DDResult(y_tree, True, k, 0, relaxed)
        u = u + dd.step_size(k) * (tree_matrix(y_tree) - tree_matrix(z_tree))
    gap = int(sum(a != b for a, b in zip(y_tree.heads, z_tree.heads))) * 2
    if dd.fallback == "generative":
        tree = y_tree
    elif dd.fallback == "discriminative":
        tree = z_tree
    else:
        cy = _joint_cost(x, y_tree, theta, cfg_f, m, q, v, g_weight)
        cz = _joint_cost(x, z_tree, theta, cfg_f, m, q, v, g_weight)
        tree = y_tree if cy <= cz else z_tree
    return DDResult(tree, False, dd.max_iters, gap, relaxed)
