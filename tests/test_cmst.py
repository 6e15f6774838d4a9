import math

import numpy as np
import pytest

from oracles import (
    UPOS_TAGS,
    all_projective_trees,
    make_sentence,
    price_matrix,
    random_corpus,
)

from jointdep import cmst
from jointdep.corpus import Corpus, DepTree, tree_matrix
from jointdep.cmst import (
    CmstModel,
    FeatureTemplate,
    FrankWolfeOptimizer,
    arc_costs,
    default_rules,
    eisner_min,
    extract_features,
    lmo_decode,
    parse_rules,
    rule_vector,
    sentence_gradient,
    sentence_objective,
)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_single_token_features():
    t = FeatureTemplate.for_vocab(("NOUN",))
    x = make_sentence(["NOUN"])
    X = extract_features(x, t)
    assert X.shape == (4, t.dimension)
    row = X.getrow(1).indices  # cell [0, 1]: the root arc
    assert 0 in row  # bias always fires
    assert len(row) == 9  # all templates incl. both root templates


def test_direction_distinguishes_rows():
    t = FeatureTemplate.for_vocab(("DET", "NOUN"))
    x = make_sentence(["DET", "NOUN"])
    X = extract_features(x, t)
    n = 2
    left = set(X.getrow(2 * (n + 1) + 1).indices)
    right = set(X.getrow(1 * (n + 1) + 2).indices)
    assert left != right


def test_noun_det_arc_features_by_hand():
    t = FeatureTemplate.for_vocab(("DET", "NOUN"))
    x = make_sentence(["DET", "NOUN"])
    n = 2
    X = extract_features(x, t)
    active = set(X.getrow(2 * (n + 1) + 1).indices)
    # Hand-applied templates for head=NOUN, dep=DET, head follows dependent,
    # distance bin 1.
    expect = set(t.arc_features("NOUN", "DET", 2, 1))
    assert active == expect
    assert len(expect) == 7  # no root templates on a non-root arc


def test_unseen_tag_maps_to_unk():
    t = FeatureTemplate.for_vocab(("NOUN",))
    assert t.tag_id("XYZ") == t.tag_id(cmst.UNK_TAG)


def test_template_determinism():
    a = FeatureTemplate.for_vocab(("A", "B"))
    b = FeatureTemplate.for_vocab(("A", "B"))
    assert a.arc_features("A", "B", 1, 2) == b.arc_features("A", "B", 1, 2)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_non_arc_cells_are_empty(rng, n):
    # Column 0 and the diagonal of the arc matrix are not arcs: they get no
    # features, no rule credit and no cost, even when every pair is licensed.
    vocab = ("DET", "NOUN", "VERB")
    x = make_sentence([vocab[i % 3] for i in range(n)])
    everything = frozenset((h, d) for h in ("ROOT",) + vocab for d in vocab)
    arcs = np.ones((n + 1, n + 1), dtype=bool)
    arcs[:, 0] = False
    np.fill_diagonal(arcs, False)
    m = CmstModel.create(vocab, rules=everything)
    m.w = rng.normal(size=m.w.shape)
    row_nnz = np.diff(extract_features(x, m.templates).indptr)
    assert not row_nnz.reshape(n + 1, n + 1)[~arcs].any()
    assert row_nnz.reshape(n + 1, n + 1)[arcs].all()
    assert np.array_equal(rule_vector(x, everything), arcs.astype(float))
    costs = arc_costs(x, m, price_matrix(rng.normal(size=n * n), n))
    assert not costs[~arcs].any()
    assert costs[arcs].all()


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

def test_empty_ruleset_zero_vector():
    x = make_sentence(["DET", "NOUN", "VERB"])
    assert not rule_vector(x, frozenset()).any()


def test_default_rule_membership():
    rules = default_rules()
    x = make_sentence(["DET", "NOUN", "VERB"])
    v = rule_vector(x, rules)
    assert v[2, 1] == 1.0  # NOUN -> DET
    assert v[1, 3] == 0.0  # DET -> VERB unlicensed
    assert v[0, 3] == 1.0  # ROOT -> VERB


def test_rule_vector_permutation_equivariance(rng):
    rules = default_rules()
    tags = ["DET", "NOUN", "VERB", "NOUN"]
    x = rule_vector(make_sentence(tags), rules)
    perm = rng.permutation(4)
    y = rule_vector(make_sentence([tags[i] for i in perm]), rules)
    n = 4
    pos = {old + 1: int(np.where(perm == old)[0][0]) + 1 for old in range(n)}
    pos[0] = 0
    for h in range(n + 1):
        for d in range(1, n + 1):
            if h != d:
                assert y[pos[h], pos[d]] == x[h, d]


def test_parse_rules_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_rules(["NOUN"])


# ---------------------------------------------------------------------------
# sentence_objective
# ---------------------------------------------------------------------------

def test_objective_zero_weights():
    x = make_sentence(["NOUN", "VERB"])
    m = CmstModel.create(("NOUN", "VERB"), mu=0.0)
    y = tree_matrix(DepTree((2, 0)))
    assert sentence_objective(x, y, m, N=1) == pytest.approx(0.5)


def test_objective_vanishing_residual(rng):
    x = make_sentence(["NOUN", "VERB"])
    m = CmstModel.create(("NOUN", "VERB"), lam=0.0, mu=0.7)
    tree = DepTree((2, 0))
    y = tree_matrix(tree)
    X = extract_features(x, m.templates)
    # Least-squares fit so that Xw == y (the system is underdetermined).
    m.w = np.linalg.lstsq(X.toarray(), y.ravel(), rcond=None)[0]
    v = rule_vector(x, m.rules)
    assert sentence_objective(x, y, m, N=1) == pytest.approx(
        -0.7 * float(np.vdot(v, y)), abs=1e-9
    )


def test_objective_matches_naive_evaluation(rng):
    x = make_sentence(["DET", "NOUN", "VERB"])
    m = CmstModel.create(("DET", "NOUN", "VERB"), lam=0.3, mu=0.9)
    m.w = rng.normal(size=m.w.shape)
    tree = all_projective_trees(3)[4]
    y = tree_matrix(tree)
    N = 7
    # Naive re-evaluation with dense arithmetic.
    X = extract_features(x, m.templates).toarray()
    v = rule_vector(x, m.rules)
    naive = (
        float(np.sum((y.ravel() - X @ m.w) ** 2)) / (2 * 3)
        + m.lam / (2 * N) * float(np.sum(m.w**2))
        - m.mu * float(np.sum(v * y))
    )
    assert sentence_objective(x, y, m, N) == pytest.approx(naive, abs=1e-12)


# ---------------------------------------------------------------------------
# lmo_decode
# ---------------------------------------------------------------------------

def test_lmo_rule_dominated():
    x = make_sentence(["DET", "NOUN", "VERB"])
    m = CmstModel.create(("DET", "NOUN", "VERB"), mu=100.0)
    tree, _ = lmo_decode(x, m)
    v = rule_vector(x, m.rules)
    best_sat = max(
        float(np.vdot(v, tree_matrix(t))) for t in all_projective_trees(3)
    )
    assert float(np.vdot(v, tree_matrix(tree))) == best_sat


def test_lmo_matches_bruteforce(rng):
    vocab = ("DET", "NOUN", "VERB")
    for _ in range(25):
        n = int(rng.integers(1, 6))
        x = make_sentence([vocab[i] for i in rng.integers(0, 3, size=n)])
        m = CmstModel.create(vocab, mu=float(rng.uniform(0, 2)))
        m.w = rng.normal(scale=0.5, size=m.w.shape)
        u = (price_matrix(rng.normal(size=n * n), n)
             if rng.random() < 0.5 else None)
        tree, score = lmo_decode(x, m, u)
        costs = arc_costs(x, m, u)
        best = min(
            float(np.vdot(costs, tree_matrix(t))) for t in all_projective_trees(n)
        )
        assert score == pytest.approx(best, abs=1e-9)
        assert float(np.vdot(costs, tree_matrix(tree))) == pytest.approx(
            score, abs=1e-9
        )


def test_eisner_min_trivial():
    heads, score = eisner_min(np.zeros((2, 2)))
    assert heads == (0,)
    assert score == 0.0


# ---------------------------------------------------------------------------
# FrankWolfeOptimizer
# ---------------------------------------------------------------------------

def test_fw_objective_monotone(rng):
    c = random_corpus(rng, ("DET", "NOUN", "VERB"), 20, max_len=6, min_len=2)
    m = CmstModel.create(c.pos_vocab)
    opt = FrankWolfeOptimizer(c, m)
    opt.run(20)
    hist = opt.objective_history
    for a, b in zip(hist, hist[1:]):
        assert b <= a + 1e-10
    assert all(g >= -1e-9 for g in opt.gap_history)


def test_fw_large_lambda_kills_weights(rng):
    c = random_corpus(rng, ("DET", "NOUN", "VERB"), 10, max_len=5, min_len=2)
    m = CmstModel.create(c.pos_vocab, lam=1e9)
    FrankWolfeOptimizer(c, m).run(5)
    assert float(np.abs(m.w).max()) < 1e-6


def test_fw_toy_sentence_learns_rule_arcs():
    x = make_sentence(["DET", "NOUN", "VERB"])
    c = Corpus((x,), ("DET", "NOUN", "VERB"))
    m = CmstModel.create(c.pos_vocab, lam=1.0, mu=1.0)
    FrankWolfeOptimizer(c, m).run(60)
    tree, _ = lmo_decode(x, m)
    assert tree.heads == (2, 3, 0)
    # Brute-force check: the decoded tree minimizes the final objective.
    costs = arc_costs(x, m)
    best = min(
        float(np.vdot(costs, tree_matrix(t))) for t in all_projective_trees(3)
    )
    assert float(np.vdot(costs, tree_matrix(tree))) == pytest.approx(
        best, abs=1e-9
    )


def test_fw_rejects_bad_iters(toy_corpus):
    m = CmstModel.create(toy_corpus.pos_vocab)
    opt = FrankWolfeOptimizer(toy_corpus, m)
    with pytest.raises(ValueError):
        opt.run(0)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
def test_fw_rejects_nonpositive_lambda(toy_corpus, lam):
    # At lambda = 0 the ridge minimizer over w is not unique.
    m = CmstModel.create(toy_corpus.pos_vocab, lam=1.0)
    m.lam = lam
    with pytest.raises(ValueError, match="lambda must be > 0"):
        FrankWolfeOptimizer(toy_corpus, m)


@pytest.mark.parametrize("vocab", [("DET", "NOUN", "VERB"), UPOS_TAGS])
def test_fit_trees_solves_for_a_stationary_w(rng, vocab):
    # At fixed trees the solved w is where the summed per-sentence gradient
    # vanishes. Measured max |sum of gradients|: about 6e-14 with 3 tags and
    # 7e-13 with 17 (dimension 6210); the tolerance leaves two orders of
    # magnitude above that.
    c = random_corpus(rng, vocab, 40, max_len=7, min_len=1)
    m = CmstModel.create(c.pos_vocab, lam=0.7, mu=0.4)
    opt = FrankWolfeOptimizer(c, m)
    opt.run(2)
    trees = [
        DepTree(eisner_min(rng.normal(size=(s.n + 1, s.n + 1)))[0]) for s in c
    ]
    opt.fit_trees(trees)
    grad = sum(
        sentence_gradient(x, tree_matrix(t), m, c.N)
        for x, t in zip(c, trees)
    )
    assert float(np.abs(grad).max()) < 1e-10
    assert float(np.abs(m.w).max()) > 1e-3  # not vacuously at w = 0


# ---------------------------------------------------------------------------
# sentence_gradient
# ---------------------------------------------------------------------------

def test_sgd_gradient_matches_finite_differences(rng):
    x = make_sentence(["DET", "NOUN", "VERB"])
    m = CmstModel.create(("DET", "NOUN", "VERB"), lam=0.8, mu=0.3)
    m.w = rng.normal(scale=0.3, size=m.w.shape)
    y = tree_matrix(all_projective_trees(3)[2])
    N = 9
    g = sentence_gradient(x, y, m, N)
    h = 1e-5
    for j in rng.integers(0, m.w.size, size=20):
        w0 = m.w[j]
        m.w[j] = w0 + h
        fp = sentence_objective(x, y, m, N)
        m.w[j] = w0 - h
        fm = sentence_objective(x, y, m, N)
        m.w[j] = w0
        fd = (fp - fm) / (2 * h)
        assert abs(fd - g[j]) / max(1.0, abs(fd)) < 1e-6


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_roundtrip(rng, tmp_path):
    m = CmstModel.create(("DET", "NOUN"), lam=0.25, mu=0.75)
    m.w = rng.normal(size=m.w.shape)
    m.w[np.abs(m.w) < 0.5] = 0.0
    m.save(tmp_path / "cmst.txt")
    m2 = CmstModel.load(tmp_path / "cmst.txt")
    assert m2.lam == m.lam and m2.mu == m.mu
    assert m2.templates == m.templates
    assert m2.rules == m.rules
    assert np.array_equal(m2.w, m.w)
