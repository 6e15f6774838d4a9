import math

import numpy as np
import pytest

import oracles
from oracles import (
    all_projective_trees,
    dd_decode_reference,
    flat_grammar,
    make_sentence,
    random_corpus,
    random_dmv_params,
)

from jointdep import cmst, dmv, trainer
from jointdep.cmst import CmstModel
from jointdep.corpus import Corpus, DepTree, tree_matrix
from jointdep.decoder import _GAP_TOL, dd_decode_group
from jointdep.dmv import ConstraintConfig, UNCONSTRAINED


def _joint_objective(x, tree, theta, cfg, m, g_weight=1.0):
    y = tree_matrix(tree)
    X = cmst.extract_features([x], m.templates)
    v = cmst.rule_vector(x, m.rules)
    resid = y.ravel() - X @ m.w
    g = float(resid @ resid) / (2 * x.n) - m.mu * float(np.vdot(v, y))
    return -dmv.tree_logprob(x, tree, theta, cfg) + g_weight * g


def test_config_validation():
    with pytest.raises(ValueError, match="dd_max_iters"):
        trainer.TrainConfig(dd_max_iters=0)
    m = CmstModel.create(GROUP_VOCAB)
    with pytest.raises(ValueError, match="max_iters"):
        dd_decode_group([make_sentence(["C"])], flat_grammar(), UNCONSTRAINED, m, 0)


def test_single_token_converges_immediately(rng):
    vocab = ("NOUN",)
    x = make_sentence(["NOUN"])
    theta = random_dmv_params(rng, vocab)
    m = CmstModel.create(vocab)
    [res] = dd_decode_group([x], theta, UNCONSTRAINED, m, 50)
    assert res.converged
    assert res.iterations == 1
    assert res.final_gap == 0
    assert res.tree.heads == (0,)


@pytest.mark.parametrize("cap", [None, 1])
@pytest.mark.parametrize("g_weight", [0.0, 1.0])
def test_certified_tree_is_a_brute_force_optimum(rng, cap, g_weight):
    # Every certified result, whether its trees agreed or its dual gap
    # closed, is within its gap of the least F + G over all projective
    # trees, ties allowed, and its gap is within tolerance. The decoder's
    # bounds leave out the term g_weight * ||q||^2 / 2n that G gives every
    # tree alike, so its dual value is about `best - shared`.
    vocab = ("DET", "NOUN", "VERB")
    cfg = ConstraintConfig(cap, 0.1)
    certified = 0
    for _ in range(25):
        n = int(rng.integers(1, 7))
        x = make_sentence([vocab[i] for i in rng.integers(0, 3, size=n)])
        theta = random_dmv_params(rng, vocab)
        m = CmstModel.create(vocab, mu=float(rng.uniform(0, 1)))
        m.w = rng.normal(scale=1.0, size=m.w.shape)
        [res] = dd_decode_group([x], theta, cfg, m, 50, g_weight)
        if not res.converged:
            continue
        certified += 1
        cfg_x = ConstraintConfig(None, 0.1) if res.relaxed_depth_cap else cfg
        [(q, v)] = cmst.sentence_terms([x], m)

        def cost(tree):
            g = oracles.tree_loss(tree_matrix(tree), q, v, m.mu)
            return -dmv.tree_logprob(x, tree, theta, cfg_x) + g_weight * g

        best = min(c for c in map(cost, all_projective_trees(n)) if math.isfinite(c))
        shared = g_weight * float(np.vdot(q, q)) / (2 * n)
        rounding = 1e-12 * (1 + abs(best))
        assert cost(res.tree) - best <= res.final_gap + rounding
        assert res.final_gap <= _GAP_TOL * (1 + abs(best - shared)) + rounding
    assert certified >= 20


def test_uncertified_tree_is_the_best_grammar_tree_visited(rng, monkeypatch):
    # A sentence still uncertified at the iteration budget ends on the
    # grammar tree of least F + G among those its iterations visited, which
    # the reference loop records as it goes.
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
        dd_decode_reference(x, theta, cfg, m, k)
        [res] = dd_decode_group([x], theta, cfg, m, k)
        if res.converged:
            continue
        uncertified += 1
        assert res.iterations == k and res.final_gap > 0
        assert len(visited) == k
        assert _joint_objective(x, res.tree, theta, cfg, m) == min(
            _joint_objective(x, DepTree(h), theta, cfg, m) for h in visited
        )
    assert uncertified >= 10


def test_depth_cap_relaxation_flagged():
    # The only parse of "B B C" is the flat tree (3, 3, 0), of nesting depth
    # 1.  The decoder must relax cap 0 for this sentence and flag it.
    vocab = ("A", "B", "C")
    theta = flat_grammar()
    x = make_sentence(["B", "B", "C"])
    cfg = ConstraintConfig(max_ce_depth=0, dep_len_beta=0.0)
    assert dmv.inside_loglik(x, theta, cfg) == -math.inf
    m = CmstModel.create(vocab)
    [res] = dd_decode_group([x], theta, cfg, m, 50)
    assert res.relaxed_depth_cap
    assert res.tree.heads == (3, 3, 0)
    assert dmv.tree_logprob(x, res.tree, theta, UNCONSTRAINED) > -math.inf


def test_g_weight_zero_reduces_to_viterbi(rng):
    vocab = ("DET", "NOUN", "VERB")
    for _ in range(10):
        n = int(rng.integers(1, 5))
        x = make_sentence([vocab[i] for i in rng.integers(0, 3, size=n)])
        theta = random_dmv_params(rng, vocab)
        m = CmstModel.create(vocab)
        m.w = rng.normal(size=m.w.shape)
        [res] = dd_decode_group([x], theta, UNCONSTRAINED, m, 50, g_weight=0.0)
        y_tree, _ = dmv.viterbi_decode(x, theta, UNCONSTRAINED, np.zeros((n + 1, n + 1)))
        assert _joint_objective(
            x, res.tree, theta, UNCONSTRAINED, m, 0.0
        ) == pytest.approx(
            _joint_objective(x, y_tree, theta, UNCONSTRAINED, m, 0.0),
            abs=1e-9,
        )


def test_deterministic(rng):
    vocab = ("DET", "NOUN", "VERB")
    x = make_sentence(["DET", "NOUN", "VERB", "NOUN"])
    theta = random_dmv_params(rng, vocab)
    m = CmstModel.create(vocab)
    m.w = rng.normal(scale=0.5, size=m.w.shape)
    cfg = ConstraintConfig(max_ce_depth=1, dep_len_beta=0.1)
    a = dd_decode_group([x], theta, cfg, m, 50)
    b = dd_decode_group([x], theta, cfg, m, 50)
    assert a == b


# ---------------------------------------------------------------------------
# Lockstep groups
# ---------------------------------------------------------------------------

GROUP_VOCAB = ("A", "B", "C")


def _group_case(rng, case):
    """(sentences, grammar, constraints, model, DD iteration budget, g_weight)."""
    m = CmstModel.create(GROUP_VOCAB, mu=float(rng.uniform(0, 1)))
    m.w = rng.normal(scale=1.0, size=m.w.shape)
    if case.startswith("relaxed"):
        xs = [make_sentence(["B"] * k + ["C"]) for k in (1, 2, 3, 1, 2)]
        k = 1 if case == "relaxed-at-cap" else 4
        return xs, flat_grammar(), ConstraintConfig(0, 0.1), m, k, 1.0
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
    "g_weight_zero", "relaxed", "relaxed-at-cap",
])
def test_group_results_equal_decoding_alone(rng, monkeypatch, case):
    # Every sentence gets the same DDResult, every field, decoded alone, by
    # the per-sentence reference, in a mixed group, in a permuted group, and
    # through the trainer with an edge budget that makes each sentence a
    # group of its own.
    xs, theta, cfg, m, k, g = _group_case(rng, case)
    alone = [dd_decode_group([x], theta, cfg, m, k, g)[0] for x in xs]
    assert alone == [dd_decode_reference(x, theta, cfg, m, k, g) for x in xs]
    assert dd_decode_group(xs, theta, cfg, m, k, g) == alone
    perm = rng.permutation(len(xs))
    assert dd_decode_group([xs[i] for i in perm], theta, cfg, m, k, g) == [
        alone[i] for i in perm
    ]
    monkeypatch.setattr(dmv, "_GROUP_EDGES", 1)
    state = trainer.TrainState(theta, m)
    tcfg = trainer.TrainConfig(constraint=cfg, dd_max_iters=k, g_weight=g)
    assert trainer._decode_all(Corpus(tuple(xs), GROUP_VOCAB), state, tcfg) == alone
    # The case covers what it is named for.
    converged = [r.converged for r in alone]
    if case == "converging":
        assert any(converged) and max(r.iterations for r in alone) > 1
    if case in ("generative", "discriminative", "better-objective"):
        assert any(converged) and not all(converged)
    if case == "generative":
        # No sentence ends worse in F + G than the grammar's own tree, the
        # first tree its iterations visit.
        for x, r in zip(xs, alone):
            y, _ = dmv.viterbi_decode(x, theta, cfg)
            assert _joint_objective(x, r.tree, theta, cfg, m, g) <= (
                _joint_objective(x, y, theta, cfg, m, g)
            )
    if case == "discriminative":
        # However hard the CMST side pulls, each sentence ends on a tree the
        # grammar can generate under the cap.
        for x, r in zip(xs, alone):
            assert dmv.tree_logprob(x, r.tree, theta, cfg) > -math.inf
    if case == "better-objective":
        # One more iteration only adds trees to choose from, so it never
        # ends a sentence on a tree of larger F + G.
        for x, r in zip(xs, alone):
            [s] = dd_decode_group([x], theta, cfg, m, k - 1, g)
            assert _joint_objective(x, r.tree, theta, cfg, m, g) <= (
                _joint_objective(x, s.tree, theta, cfg, m, g)
            )
    if case == "g_weight_zero":
        # With G zero every tree ties in the discriminative subproblem, so
        # the dual gap closes at once, whether the two trees agree or not.
        assert all(converged) and {r.iterations for r in alone} == {1}
        assert {r.final_gap for r in alone} == {0.0}
    if case.startswith("relaxed"):
        relaxed = [r.relaxed_depth_cap for r in alone]
        assert any(relaxed) and not all(relaxed)
        assert any(converged) == (case == "relaxed")


def test_group_with_an_unparseable_sentence_raises(rng):
    m = CmstModel.create(GROUP_VOCAB)
    xs = [make_sentence(["B", "C"]), make_sentence(["A", "C"])]
    with pytest.raises(dmv.InfeasibleParseError):
        dd_decode_group(xs, flat_grammar(), ConstraintConfig(0, 0.1), m, 50)
