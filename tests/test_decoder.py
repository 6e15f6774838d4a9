"""The exact joint decode behind `parse --decoder dd` and joint training,
checked against brute force and against the paper's dual decomposition,
which `oracles.dd_decode_reference` runs sentence by sentence."""

import math

import numpy as np
import pytest

import oracles
from oracles import (
    DD_GAP_TOL,
    all_projective_trees,
    dd_decode_reference,
    extract_features,
    make_sentence,
    random_corpus,
    random_dmv_params,
    rule_matrix,
    tree_logprob,
    tree_matrix,
    viterbi_decode,
    UNCONSTRAINED,
)

from jointdep import cmst, dmv, trainer
from jointdep.cmst import CmstModel
from jointdep.corpus import Corpus, DepTree
from jointdep.dmv import ConstraintConfig


def _joint_objective(x, tree, theta, cfg, m, g_weight=1.0):
    y = tree_matrix(tree)
    X = extract_features([x], m.templates)
    v = rule_matrix(x, m.rules)
    resid = y.ravel() - X @ m.w
    g = float(resid @ resid) / (2 * x.n) - m.mu * float(np.vdot(v, y))
    return -tree_logprob(x, tree, theta, cfg) + g_weight * g


def _decode(xs, theta, cfg, m, g_weight=1.0):
    """The tree of each sentence of `xs` by the exact joint decode, in the
    trainer's length groups, as training and `parse --decoder dd` run it."""
    state = trainer.TrainState(theta, m)
    tcfg = trainer.TrainConfig(constraint=cfg, g_weight=g_weight)
    return trainer.decode_corpus(Corpus(tuple(xs), theta.vocab), state, tcfg)


def test_single_token_converges_immediately(rng):
    vocab = ("NOUN",)
    x = make_sentence(["NOUN"])
    theta = random_dmv_params(rng, vocab)
    m = CmstModel.create(vocab)
    assert _decode([x], theta, UNCONSTRAINED, m) == [DepTree((0,))]
    res = dd_decode_reference(x, theta, UNCONSTRAINED, m, 50)
    assert res.converged
    assert res.iterations == 1
    assert res.final_gap == 0
    assert res.tree.heads == (0,)


@pytest.mark.parametrize("cap", [None, 1])
@pytest.mark.parametrize("g_weight", [0.0, 1.0])
def test_certified_tree_is_a_brute_force_optimum(rng, cap, g_weight):
    # The exact decode's tree is a least F + G over all projective trees,
    # ties allowed, within rounding. So is every tree the paper's DD
    # certifies, whether its trees agreed or its dual gap closed, within its
    # gap, and its gap is within tolerance. DD's bounds leave out the term
    # g_weight * ||q||^2 / 2n that G gives every tree alike, so its dual
    # value is about `best - shared`.
    vocab = ("DET", "NOUN", "VERB")
    cfg = ConstraintConfig(cap, 0.1)
    certified = 0
    for _ in range(25):
        n = int(rng.integers(1, 7))
        x = make_sentence([vocab[i] for i in rng.integers(0, 3, size=n)])
        theta = random_dmv_params(rng, vocab)
        m = CmstModel.create(vocab, mu=float(rng.uniform(0, 1)))
        m.w = rng.normal(scale=1.0, size=m.w.shape)
        [tree] = _decode([x], theta, cfg, m, g_weight)
        res = dd_decode_reference(x, theta, cfg, m, 50, g_weight)
        assert not res.relaxed_depth_cap
        v = oracles.rule_vector_reference(x, m.rules)
        q = oracles.extract_features_reference(x, m.templates) @ m.w
        q = q.reshape(v.shape)

        def cost(tree):
            g = oracles.tree_loss(tree_matrix(tree), q, v, m.mu)
            return -tree_logprob(x, tree, theta, cfg) + g_weight * g

        best = min(c for c in map(cost, all_projective_trees(n)) if math.isfinite(c))
        shared = g_weight * float(np.vdot(q, q)) / (2 * n)
        rounding = 1e-12 * (1 + abs(best))
        assert cost(tree) - best <= rounding
        if not res.converged:
            continue
        certified += 1
        assert cost(res.tree) - best <= res.final_gap + rounding
        assert res.final_gap <= DD_GAP_TOL * (1 + abs(best - shared)) + rounding
    assert certified >= 20


def test_uncertified_tree_is_the_best_grammar_tree_visited(rng, monkeypatch):
    # The paper's DD, still uncertified at its iteration budget, ends on the
    # grammar tree of least F + G among those its iterations visited, which
    # the reference records as it goes. The exact decode's tree costs no
    # more.
    vocab = ("DET", "NOUN", "VERB")
    cfg = ConstraintConfig(None, 0.1)
    visited, viterbi = [], oracles.scalar_viterbi

    def recording_viterbi(*args):
        heads, score = viterbi(*args)
        visited.append(heads)
        return heads, score

    monkeypatch.setattr(oracles, "scalar_viterbi", recording_viterbi)
    uncertified = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        x = make_sentence([vocab[i] for i in rng.integers(0, 3, size=n)])
        theta = random_dmv_params(rng, vocab)
        m = CmstModel.create(vocab, mu=float(rng.uniform(0, 1)))
        m.w = rng.normal(scale=1.0, size=m.w.shape)
        k = int(rng.integers(2, 4))
        visited.clear()
        res = dd_decode_reference(x, theta, cfg, m, k)
        if res.converged:
            continue
        uncertified += 1
        assert res.iterations == k and res.final_gap > 0
        assert len(visited) == k
        best = min(_joint_objective(x, DepTree(h), theta, cfg, m) for h in visited)
        assert _joint_objective(x, res.tree, theta, cfg, m) == best
        [tree] = _decode([x], theta, cfg, m)
        rounding = 1e-12 * (1 + abs(best))
        assert _joint_objective(x, tree, theta, cfg, m) <= best + rounding
    assert uncertified >= 10


@pytest.mark.parametrize("kind", ["capped", "uncapped"])
def test_no_dual_value_exceeds_the_exact_cost(rng, kind):
    # On 0/1 trees G is linear, so the grammar's Viterbi priced by g_weight
    # times `cmst.arc_costs` minimizes F + G exactly: no dual value of the
    # paper's DD exceeds the exact tree's cost P, and every tree DD
    # certifies costs the same, within its gap. P, like the reference's
    # bounds, leaves out the term G gives every tree alike, and scores
    # through per-arc features.
    vocab = ("DET", "NOUN", "VERB")
    checked = certified = 0
    for g_weight in (0.5, 1.0, 3.0):
        for random_w in (False, True):
            for _ in range(8):
                n = int(rng.integers(1, 7))
                x = make_sentence([vocab[i] for i in rng.integers(0, 3, size=n)])
                theta = random_dmv_params(rng, vocab)
                cap = int(rng.integers(0, 2)) if kind == "capped" else None
                cfg = ConstraintConfig(cap, 0.1)
                m = CmstModel.create(vocab, mu=float(rng.uniform(0, 1)))
                if random_w:
                    m.w = rng.normal(scale=1.0, size=m.w.shape)
                [tree] = _decode([x], theta, cfg, m, g_weight)
                res = dd_decode_reference(x, theta, cfg, m, 50, g_weight)
                assert not res.relaxed_depth_cap
                v = oracles.rule_vector_reference(x, m.rules)
                q = oracles.extract_features_reference(x, m.templates) @ m.w
                q = q.reshape(v.shape)
                base = oracles.arc_costs_reference(q, v, m.mu) * g_weight

                def cost(t):
                    return (float(np.vdot(base, tree_matrix(t)))
                            - tree_logprob(x, t, theta, cfg))

                exact = cost(tree)
                rounding = 1e-12 * (1 + abs(res.dual))
                assert res.dual <= exact + rounding
                checked += 1
                if res.converged:
                    certified += 1
                    assert exact - rounding <= cost(res.tree) <= (
                        exact + res.final_gap + rounding
                    )
    assert checked == 48 and certified >= 40


def test_g_weight_zero_reduces_to_viterbi(rng):
    vocab = ("DET", "NOUN", "VERB")
    for _ in range(10):
        n = int(rng.integers(1, 5))
        x = make_sentence([vocab[i] for i in rng.integers(0, 3, size=n)])
        theta = random_dmv_params(rng, vocab)
        m = CmstModel.create(vocab)
        m.w = rng.normal(size=m.w.shape)
        [tree] = _decode([x], theta, UNCONSTRAINED, m, 0.0)
        y_tree, _ = viterbi_decode(x, theta, UNCONSTRAINED)
        assert tree == y_tree


def test_deterministic(rng):
    vocab = ("DET", "NOUN", "VERB")
    x = make_sentence(["DET", "NOUN", "VERB", "NOUN"])
    theta = random_dmv_params(rng, vocab)
    m = CmstModel.create(vocab)
    m.w = rng.normal(scale=0.5, size=m.w.shape)
    cfg = ConstraintConfig(max_ce_depth=1, dep_len_beta=0.1)
    assert _decode([x], theta, cfg, m) == _decode([x], theta, cfg, m)


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------

GROUP_VOCAB = ("A", "B", "C")


def _group_case(rng, case):
    """(sentences, grammar, constraints, model, the reference DD's iteration
    budget, g_weight)."""
    m = CmstModel.create(GROUP_VOCAB, mu=float(rng.uniform(0, 1)))
    m.w = rng.normal(scale=1.0, size=m.w.shape)
    xs = list(random_corpus(rng, GROUP_VOCAB, 10, max_len=6).sentences)
    theta = random_dmv_params(rng, GROUP_VOCAB)
    cfg = ConstraintConfig(1, 0.1)
    if case == "converging":
        return xs, theta, cfg, m, 50, 1.0
    if case == "g_weight_zero":
        return xs, theta, cfg, m, 6, 0.0
    # The uncertified cases stop some sentences at the iteration budget. In
    # "discriminative" the CMST side outweighs the grammar, and some of its
    # trees break cap 0.
    if case == "discriminative":
        return xs, theta, ConstraintConfig(0, 0.1), m, 3, 4.0
    return xs, theta, cfg, m, 3, 1.0


@pytest.mark.parametrize("case", [
    "converging", "generative", "discriminative", "better-objective",
    "g_weight_zero",
])
def test_group_results_equal_decoding_alone(rng, monkeypatch, case):
    # Every sentence gets the same tree decoded alone, in a mixed group, in
    # a permuted group, and with an edge budget that makes each sentence a
    # group of its own. The paper's DD, run sentence by sentence by the
    # reference with the case's iteration budget, lifts no cap and ends no
    # sentence on a tree of lower F + G.
    xs, theta, cfg, m, k, g = _group_case(rng, case)
    alone = [_decode([x], theta, cfg, m, g)[0] for x in xs]
    assert _decode(xs, theta, cfg, m, g) == alone
    perm = rng.permutation(len(xs))
    assert _decode([xs[i] for i in perm], theta, cfg, m, g) == [alone[i] for i in perm]
    monkeypatch.setattr(dmv, "_GROUP_EDGES", 1)
    assert _decode(xs, theta, cfg, m, g) == alone
    refs = [dd_decode_reference(x, theta, cfg, m, k, g) for x in xs]
    assert not any(r.relaxed_depth_cap for r in refs)
    costs = []
    for x, tree, r in zip(xs, alone, refs):
        exact, dd = (_joint_objective(x, t, theta, cfg, m, g) for t in (tree, r.tree))
        rounding = 1e-12 * (1 + abs(exact))
        assert exact <= dd + rounding
        if r.converged:
            assert dd - exact <= r.final_gap + rounding
        costs.append((exact, rounding))
    # The case covers what it is named for.
    converged = [r.converged for r in refs]
    if case == "converging":
        assert any(converged) and max(r.iterations for r in refs) > 1
    if case in ("generative", "discriminative", "better-objective"):
        assert any(converged) and not all(converged)
    if case == "generative":
        # No sentence ends worse in F + G than the grammar's own tree, the
        # first tree DD's iterations visit.
        for x, (exact, rounding) in zip(xs, costs):
            y, _ = viterbi_decode(x, theta, cfg)
            assert exact <= _joint_objective(x, y, theta, cfg, m, g) + rounding
    if case == "discriminative":
        # However hard the CMST side pulls, each sentence ends on a tree the
        # grammar can generate under the cap.
        for x, tree in zip(xs, alone):
            assert tree_logprob(x, tree, theta, cfg) > -math.inf
    if case == "better-objective":
        # One more DD iteration only adds trees to choose from, so it never
        # ends a sentence on a tree of larger F + G.
        for x, r in zip(xs, refs):
            s = dd_decode_reference(x, theta, cfg, m, k - 1, g)
            assert _joint_objective(x, r.tree, theta, cfg, m, g) <= (
                _joint_objective(x, s.tree, theta, cfg, m, g)
            )
    if case == "g_weight_zero":
        # With G zero the joint decode is the grammar's Viterbi, and every
        # tree ties in DD's discriminative subproblem, so its dual gap
        # closes at once, whether the two trees agree or not.
        assert alone == [viterbi_decode(x, theta, cfg)[0] for x in xs]
        assert all(converged) and {r.iterations for r in refs} == {1}
        assert {r.final_gap for r in refs} == {0.0}
