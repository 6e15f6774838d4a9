import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import (
    UPOS_TAGS,
    all_projective_trees,
    arc_costs_reference,
    arc_features,
    dist_bin,
    eisner_min_reference,
    encode,
    extract_features,
    extract_features_reference,
    flat_costs,
    fw_run_reference,
    make_sentence,
    nested_ridge_reference,
    price_matrix,
    random_corpus,
    ridge_reference,
    rule_matrix,
    rule_vector_reference,
    sentence_gradient,
    tree_loss,
    tree_matrix,
)

from jointdep import cmst
from jointdep.corpus import Corpus, DepTree
from jointdep.cmst import (
    CmstModel,
    FeatureTemplate,
    FrankWolfeOptimizer,
    arc_costs,
    default_rules,
    eisner_min,
    parse_rules,
    rule_vector,
)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_single_token_features():
    t = FeatureTemplate.for_vocab(("NOUN",))
    x = make_sentence(["NOUN"])
    X = extract_features([x], t)
    assert X.shape == (4, t.dimension)
    row = X.getrow(1).indices  # cell [0, 1]: the root arc
    assert 0 in row  # bias always fires
    assert len(row) == 9  # all templates incl. both root templates


def test_direction_distinguishes_rows():
    t = FeatureTemplate.for_vocab(("DET", "NOUN"))
    x = make_sentence(["DET", "NOUN"])
    X = extract_features([x], t)
    n = 2
    left = set(X.getrow(2 * (n + 1) + 1).indices)
    right = set(X.getrow(1 * (n + 1) + 2).indices)
    assert left != right


def test_noun_det_arc_features_by_hand():
    t = FeatureTemplate.for_vocab(("DET", "NOUN"))
    x = make_sentence(["DET", "NOUN"])
    n = 2
    X = extract_features([x], t)
    active = set(X.getrow(2 * (n + 1) + 1).indices)
    # Hand-applied templates for head=NOUN, dep=DET, head follows dependent,
    # distance bin 1.
    expect = set(arc_features(t, "NOUN", "DET", 2, 1))
    assert active == expect
    assert len(expect) == 7  # no root templates on a non-root arc


def test_unseen_tag_maps_to_unk():
    t = FeatureTemplate.for_vocab(("NOUN",))
    assert t.tag_id("XYZ") == t.tag_id(cmst.UNK_TAG)


@pytest.mark.parametrize("vocab", [(cmst.UNK_TAG, "NOUN"), ("NOUN", cmst.ROOT_TAG)])
def test_corpus_tags_may_not_repeat_reserved_ones(vocab):
    # <ROOT> and <UNK> are the first two feature tags; a corpus tagged with
    # either would give one tag two rows of weights.
    with pytest.raises(ValueError, match="more than once"):
        CmstModel.create(vocab)


def test_template_determinism():
    a = FeatureTemplate.for_vocab(("A", "B"))
    b = FeatureTemplate.for_vocab(("A", "B"))
    assert arc_features(a, "A", "B", 1, 2) == arc_features(b, "A", "B", 1, 2)


def test_features_equal_per_arc_reference(rng):
    # The one-pass feature builder gives the CSR arrays of the arc-by-arc
    # reference, over root arcs, every distance bin and unseen (UNK) tags.
    t = FeatureTemplate.for_vocab(UPOS_TAGS[:4])
    tags = (*UPOS_TAGS[:6], cmst.UNK_TAG, cmst.ROOT_TAG)
    bins = set()
    for n in [1, 2, 3, 6, 11, 12, 17]:
        x = make_sentence([tags[i] for i in rng.integers(0, len(tags), size=n)])
        got, want = extract_features([x], t), extract_features_reference(x, t)
        assert got.shape == want.shape
        for name in ("indices", "indptr", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        bins |= {dist_bin(d) for d in range(1, n + 1)}
    assert bins == set(range(cmst._NUM_BINS))


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
    row_nnz = np.diff(extract_features([x], m.templates).indptr)
    assert not row_nnz.reshape(n + 1, n + 1)[~arcs].any()
    assert row_nnz.reshape(n + 1, n + 1)[arcs].all()
    assert np.array_equal(rule_matrix(x, everything), arcs.astype(float))
    costs = arc_costs(encode([x]), m).reshape(n + 1, n + 1)
    assert not costs[~arcs].any()
    assert costs[arcs].all()


@pytest.mark.parametrize("n", [1, 2, 11, 12, 40])
def test_arc_scores_equal_feature_matvec_in_bytes(rng, n):
    # Decoding reads arc scores from weight sums; they must be the very bits
    # of X @ w, since the decoded trees break ties on them. Weights span 16
    # orders of magnitude, so a sum in any other order rounds differently,
    # and hold exact zeros and -0.0. Tags include one unseen (UNK), UNK
    # itself and a token tagged <ROOT>; n >= 12 reaches distances above 10.
    vocab = UPOS_TAGS[:5]
    tags = (*vocab, "UNSEEN", cmst.UNK_TAG, cmst.ROOT_TAG)
    for _ in range(5):
        x = make_sentence([tags[i % len(tags)] for i in rng.permutation(n)])
        m = CmstModel.create(vocab)
        w = rng.normal(size=m.w.shape) * 10.0 ** rng.integers(-8, 8, size=m.w.size)
        w[rng.random(w.size) < 0.2] = 0.0
        w[rng.random(w.size) < 0.2] = -0.0
        m.w = w
        want = (extract_features([x], m.templates) @ m.w).reshape(n + 1, n + 1)
        cls = cmst._arc_classes(encode([x]), m.templates).reshape(n + 1, n + 1)
        got = m.templates.weight_sums(m.w)[cls]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_arc_costs_equal_reference_formula_in_bytes(rng):
    # A mixed-length batch's flat costs are, sentence by sentence and bit for
    # bit, the per-arc formula fed the scores X @ w and the per-arc rule
    # lookup, with the weights and tags of the test above; an empty batch
    # costs nothing. NOUN, outside the vocabulary but named by the rules,
    # shares UNK's features with UNSEEN but not its rule rows, and a token
    # tagged with the ROOT literal shares the root pseudo-node's.
    vocab = UPOS_TAGS[:5]
    tags = (*vocab, "UNSEEN", cmst.UNK_TAG, cmst.ROOT_TAG, "NOUN", "ROOT")
    for _ in range(5):
        xs = [make_sentence([tags[i % len(tags)] for i in rng.permutation(n)])
              for n in (1, 2, 11, 12)]
        m = CmstModel.create(vocab, mu=float(rng.uniform(0.1, 2.0)))
        w = rng.normal(size=m.w.shape) * 10.0 ** rng.integers(-8, 8, size=m.w.size)
        w[rng.random(w.size) < 0.2] = 0.0
        w[rng.random(w.size) < 0.2] = -0.0
        m.w = w
        want = []
        for x in xs:
            v = rule_vector_reference(x, m.rules)
            q = (extract_features_reference(x, m.templates) @ m.w).reshape(v.shape)
            want.append(arc_costs_reference(q, v, m.mu).ravel())
        assert rule_vector_reference(xs[-1], m.rules).any()
        got = arc_costs(encode(xs), m)
        assert got.dtype == np.float64
        assert got.tobytes() == np.concatenate(want).tobytes()
    assert arc_costs(encode([]), m).shape == (0,)


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

def test_empty_ruleset_zero_vector():
    x = make_sentence(["DET", "NOUN", "VERB"])
    assert not rule_matrix(x, frozenset()).any()


def test_default_rule_membership():
    rules = default_rules()
    x = make_sentence(["DET", "NOUN", "VERB"])
    v = rule_matrix(x, rules)
    assert v[2, 1] == 1.0  # NOUN -> DET
    assert v[1, 3] == 0.0  # DET -> VERB unlicensed
    assert v[0, 3] == 1.0  # ROOT -> VERB


def test_rule_vector_equals_per_arc_lookup(rng):
    # The tag-table build gives the entries of one rule lookup per arc, a
    # byte each, with repeated tags, a token tagged like the ROOT literal and
    # a rule set drawn over the tags.
    tags = ("DET", "NOUN", "VERB", "ADJ", "ROOT")
    pairs = [(h, d) for h in tags for d in tags]
    for _ in range(30):
        n = int(rng.integers(1, 9))
        x = make_sentence([tags[i] for i in rng.integers(0, len(tags), size=n)])
        rules = frozenset(p for p in pairs if rng.random() < 0.4)
        got, want = rule_matrix(x, rules), rule_vector_reference(x, rules)
        assert got.dtype == bool and got.tobytes() == want.astype(bool).tobytes()


def test_rule_vector_permutation_equivariance(rng):
    rules = default_rules()
    tags = ["DET", "NOUN", "VERB", "NOUN"]
    x = rule_matrix(make_sentence(tags), rules)
    perm = rng.permutation(4)
    y = rule_matrix(make_sentence([tags[i] for i in perm]), rules)
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
# FrankWolfeOptimizer.objective at fixed trees
# ---------------------------------------------------------------------------

def _copies_objective(x, m, N):
    """The objective at fixed trees of a corpus of N copies of x, as a
    function of the tree and divided by N: one sentence's loss plus its
    share (lam/2N)||w||^2 of the regularizer, at the current m.w."""
    opt = FrankWolfeOptimizer(Corpus((x,) * N, m.templates.tags[2:]), m)
    return lambda tree: opt.objective(trees=[tree] * N) / N


def test_objective_zero_weights():
    x = make_sentence(["NOUN", "VERB"])
    m = CmstModel.create(("NOUN", "VERB"), mu=0.0)
    got = _copies_objective(x, m, 1)(DepTree((2, 0)))
    assert got == pytest.approx(0.5)


def test_objective_vanishing_residual(rng):
    # A small lambda (Frank-Wolfe needs lambda > 0) adds (lam/2)||w||^2.
    x = make_sentence(["NOUN", "VERB"])
    m = CmstModel.create(("NOUN", "VERB"), lam=1e-3, mu=0.7)
    tree = DepTree((2, 0))
    y = tree_matrix(tree)
    X = extract_features([x], m.templates)
    # Least-squares fit so that Xw == y (the system is underdetermined).
    m.w = np.linalg.lstsq(X.toarray(), y.ravel(), rcond=None)[0]
    v = rule_matrix(x, m.rules)
    got = _copies_objective(x, m, 1)(tree)
    want = m.lam / 2.0 * float(m.w @ m.w) - 0.7 * float(np.vdot(v, y))
    assert got == pytest.approx(want, abs=1e-9)


def test_objective_matches_naive_evaluation(rng):
    x = make_sentence(["DET", "NOUN", "VERB"])
    m = CmstModel.create(("DET", "NOUN", "VERB"), lam=0.3, mu=0.9)
    m.w = rng.normal(size=m.w.shape)
    tree = all_projective_trees(3)[4]
    y = tree_matrix(tree)
    N = 7
    # Naive re-evaluation with dense arithmetic.
    X = extract_features([x], m.templates).toarray()
    v = rule_matrix(x, m.rules)
    naive = (
        float(np.sum((y.ravel() - X @ m.w) ** 2)) / (2 * 3)
        + m.lam / (2 * N) * float(np.sum(m.w**2))
        - m.mu * float(np.sum(v * y))
    )
    got = _copies_objective(x, m, N)(tree)
    assert got == pytest.approx(naive, abs=1e-12)


# ---------------------------------------------------------------------------
# eisner_min over arc_costs
# ---------------------------------------------------------------------------

def test_lmo_rule_dominated():
    x = make_sentence(["DET", "NOUN", "VERB"])
    m = CmstModel.create(("DET", "NOUN", "VERB"), mu=100.0)
    [(heads, _)] = eisner_min([x.n], arc_costs(encode([x]), m))
    tree = DepTree(heads)
    v = rule_matrix(x, m.rules)
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
        costs = arc_costs(encode([x]), m).reshape(n + 1, n + 1)
        if u is None:
            [(heads, score)] = eisner_min(*flat_costs([costs]))
            tree = DepTree(heads)
        else:
            costs = costs - u
            [(heads, score)] = eisner_min(*flat_costs([costs]))
            tree = DepTree(heads)
        best = min(
            float(np.vdot(costs, tree_matrix(t))) for t in all_projective_trees(n)
        )
        assert score == pytest.approx(best, abs=1e-9)
        assert float(np.vdot(costs, tree_matrix(tree))) == pytest.approx(
            score, abs=1e-9
        )


def test_eisner_min_trivial():
    assert eisner_min([1], np.zeros(4)) == [((0,), 0.0)]
    assert eisner_min([1], np.array([0.0, -1.5, 7.0, 0.0])) == [((0,), -1.5)]
    assert eisner_min([], np.zeros(0)) == []


def _random_cost_batch(rng, integer):
    """1-12 cost matrices of lengths 1-25; integer costs force ties."""
    ns = rng.integers(1, 26, size=int(rng.integers(1, 13)))
    if integer:
        return [rng.integers(-2, 3, size=(n + 1, n + 1)).astype(float) for n in ns]
    return [rng.normal(size=(n + 1, n + 1)) for n in ns]


def test_eisner_min_matches_reference(rng):
    # Same heads and the same score bit for bit as the cell-by-cell chart,
    # sentence by sentence, inside batches that mix lengths.
    sentences = 0
    for trial in range(60):
        costs = _random_cost_batch(rng, integer=trial % 3 == 0)
        got = eisner_min(*flat_costs(costs))
        for cost, (heads, score) in zip(costs, got, strict=True):
            ref_heads, ref_score = eisner_min_reference(cost)
            assert heads == ref_heads
            assert float(score).hex() == float(ref_score).hex()
            sentences += 1
    assert sentences > 300


@pytest.mark.parametrize("pass_cubes", [cmst._PASS_CUBES, 1, 3000])
def test_eisner_min_is_batch_invariant(rng, monkeypatch, pass_cubes):
    # A sentence decodes the same alone, inside any batch and at any place in
    # it, ties included, however the batch is split into chart passes.
    monkeypatch.setattr(cmst, "_PASS_CUBES", pass_cubes)
    for trial in range(20):
        costs = _random_cost_batch(rng, integer=trial % 2 == 0)
        alone = [eisner_min(*flat_costs([cost]))[0] for cost in costs]
        assert eisner_min(*flat_costs(costs)) == alone
        order = rng.permutation(len(costs))
        assert eisner_min(*flat_costs([costs[i] for i in order])) == [
            alone[i] for i in order]
        doubled = eisner_min(*flat_costs(costs + costs[::-1]))
        assert doubled == alone + alone[::-1]


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


def test_fw_stacked_scores_match_per_sentence(rng):
    # One stacked matvec scores every sentence exactly as its own X @ w does,
    # so the objective is the per-sentence sum bit for bit, over the relaxed
    # trees and, given `trees`, over their 0/1 arc matrices. The latter
    # leaves the relaxed trees, w and the objective over them as they were.
    c = random_corpus(rng, UPOS_TAGS, 30, max_len=9, min_len=1)
    m = CmstModel.create(c.pos_vocab, lam=0.6, mu=0.3)
    opt = FrankWolfeOptimizer(c, m)
    opt.run(3)
    trees = [
        DepTree(heads) for heads, _ in
        eisner_min(*flat_costs([rng.normal(size=(s.n + 1, s.n + 1)) for s in c]))
    ]
    want = want_at_trees = m.lam / 2.0 * float(m.w @ m.w)
    for x, y, t in zip(c, opt.y, trees):
        v = rule_matrix(x, m.rules)
        q = (extract_features([x], m.templates) @ m.w).reshape(y.shape)
        want += tree_loss(y, q, v, m.mu)
        want_at_trees += tree_loss(tree_matrix(t), q, v, m.mu)
    Y, w = opt._Y.copy(), m.w.copy()
    assert opt.objective(trees=trees) == want_at_trees
    assert opt._Y.tobytes() == Y.tobytes()
    assert m.w.tobytes() == w.tobytes()
    assert opt.objective() == want
    assert opt.objective_history[-1] == want
    with pytest.raises(ValueError, match="do not match"):
        opt.objective(trees=trees[1:])
    with pytest.raises(ValueError, match="do not match"):
        opt.objective(trees=trees[::-1])


def test_stacked_features_equal_per_sentence_matrices(rng):
    # `extract_features` of a corpus is the per-sentence matrices stacked in
    # corpus order, array for array, and Frank-Wolfe's flat score gather is
    # that stacked matrix times w, bit for bit, with weights over 16 orders
    # of magnitude.
    import scipy.sparse as sp

    c = random_corpus(rng, UPOS_TAGS, 12, max_len=13, min_len=1)
    m = CmstModel.create(c.pos_vocab)
    got = extract_features(c.sentences, m.templates)
    stacked = sp.vstack(
        [extract_features_reference(x, m.templates) for x in c], format="csr")
    assert got.shape == stacked.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(stacked, name)), name
    opt = FrankWolfeOptimizer(c, m)
    m.w = rng.normal(size=m.w.shape) * 10.0 ** rng.integers(-8, 8, size=m.w.size)
    assert opt._scores().tobytes() == (stacked @ m.w).tobytes()


@pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
def test_ridge_solve_equals_superlu_reference(rng, lam):
    # The nested solve gives SuperLU's w on the stacked feature design, for
    # random targets and at the trees `fit_trees` starts from. The corpus
    # has one-token sentences and a token tagged <ROOT>, whose arcs share
    # the cells of root arcs; the template maps two of its tags to UNK and
    # has nine tags, and so many cells, that it never uses.
    c = random_corpus(rng, UPOS_TAGS[:8], 30, max_len=12, min_len=1)
    c = Corpus(c.sentences + (make_sentence([cmst.ROOT_TAG, "NOUN"]),), c.pos_vocab)
    assert any(s.n == 1 for s in c)
    m = CmstModel.create(UPOS_TAGS[2:], lam=lam)
    opt = FrankWolfeOptimizer(c, m)
    trees = [
        DepTree(heads) for heads, _ in
        eisner_min(*flat_costs([rng.normal(size=(s.n + 1, s.n + 1)) for s in c]))
    ]
    z_trees = np.concatenate([tree_matrix(t).ravel() / t.n for t in trees])
    for z in (rng.normal(size=opt._Y.size), z_trees):
        w = opt.ridge_solve(z)
        want, gram, rhs = ridge_reference(c, m, z)
        assert np.abs(w - want).max() <= 1e-10 * np.abs(want).max()
        assert np.linalg.norm(gram @ w - rhs) <= 1e-10 * np.linalg.norm(rhs)
    opt.fit_trees(trees)
    assert m.w.tobytes() == w.tobytes()


@pytest.mark.parametrize("vocab_size", [1, 4, 9, 17])
def test_nested_ridge_equals_dense_reference_in_bytes(rng, vocab_size):
    # The block-by-block factor and solve give the bytes of the dense one
    # (`nested_ridge_reference`) at T = 3 to 19, for several lambda and for
    # right-hand sides of a corpus (zero on its unseen classes) and random
    # ones. The corpora draw from more tags than the template has, so cells
    # of UNK and unused cells are both present.
    vocab = UPOS_TAGS[:vocab_size]
    c = random_corpus(rng, UPOS_TAGS[:vocab_size + 2], 40, max_len=9, min_len=1)
    m = CmstModel.create(vocab)
    opt = FrankWolfeOptimizer(c, m)
    sums = np.bincount(opt._cls, 1.0 / opt._n)
    for lam in (1e-3, 0.7, 50.0):
        got = cmst._NestedRidge(m.templates, lam, sums)
        want = nested_ridge_reference(m.templates, lam, sums)
        for name in ("A", "Q", "G"):
            assert getattr(got, "_" + name).tobytes() == getattr(want, name).tobytes()
        for b in (np.bincount(opt._cls, rng.normal(size=opt._Y.size) / opt._n,
                              minlength=sums.size),
                  rng.normal(size=sums.size) * 10.0 ** rng.integers(-6, 6, sums.size)):
            assert got.solve(b).tobytes() == want.solve(b).tobytes()


def _traced(f):
    """f()'s result, the bytes it holds and its peak above what was held
    before the call, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        out = f()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def test_nested_ridge_builds_and_solves_block_by_block(rng):
    # At T = 19 (5,054 cells) the factor is built one block pair at a time
    # and the solve one block at a time. Measured: a build peaks at 3.16 MB
    # and a solve at 0.32 MB; the dense build and solve of
    # `nested_ridge_reference` peaked at 3.89 and 0.81 MB.
    c = random_corpus(rng, UPOS_TAGS, 40, max_len=9)
    m = CmstModel.create(UPOS_TAGS)
    opt = FrankWolfeOptimizer(c, m)
    sums = np.bincount(opt._cls, 1.0 / opt._n)
    b = np.bincount(opt._cls, opt._Y / opt._n, minlength=sums.size)
    assert m.templates.T == 19
    ridge, _, build = _traced(lambda: cmst._NestedRidge(m.templates, 1.0, sums))
    ridge.solve(b)
    _, _, solve = _traced(lambda: ridge.solve(b))
    assert build <= 3.4e6
    assert solve <= 0.45e6


def test_eisner_plan_holds_under_8_bytes_per_cube():
    # A plan of train-cmst's lengths (3-15, 12 each) holds 7.70 bytes per
    # n^3 of its sentences: C's I operands are read at the I candidates'
    # indices, which it keeps, rather than at indices of their own (10.35).
    ns = tuple(range(3, 16)) * 12
    cmst._eisner_plan(ns)
    plan, held, _ = _traced(lambda: cmst._eisner_plan(ns))
    assert len(plan.widths) == 14
    assert held <= 8.0 * sum(n**3 for n in ns)


def test_fw_state_bytes_per_arc_cell(rng):
    # After set-up, Frank-Wolfe holds 39.3 bytes per arc cell of 1,300
    # sentences of lengths 3-15, its ridge factor included: the relaxed
    # trees, a class and a length per cell, and a byte of rule entry. A step's
    # gradient, vertex and residual are made afresh (held, they added 24.0).
    c = random_corpus(rng, UPOS_TAGS, 1300, max_len=15, min_len=3)
    m = CmstModel.create(c.pos_vocab)
    FrankWolfeOptimizer(c, m)
    opt, held, _ = _traced(lambda: FrankWolfeOptimizer(c, m))
    assert opt._V.dtype == bool
    assert held <= 41.0 * opt.layout.size


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
    [(heads, _)] = eisner_min([x.n], arc_costs(encode([x]), m))
    tree = DepTree(heads)
    assert tree.heads == (2, 3, 0)
    # Brute-force check: the decoded tree minimizes the final objective.
    costs = arc_costs(encode([x]), m).reshape(x.n + 1, x.n + 1)
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
        DepTree(heads) for heads, _ in
        eisner_min(*flat_costs([rng.normal(size=(s.n + 1, s.n + 1)) for s in c]))
    ]
    opt.fit_trees(trees)
    grad = sum(
        sentence_gradient(
            extract_features([x], m.templates), tree_matrix(t), m, c.N
        )
        for x, t in zip(c, trees)
    )
    assert float(np.abs(grad).max()) < 1e-10
    assert float(np.abs(m.w).max()) > 1e-3  # not vacuously at w = 0


@pytest.mark.parametrize("from_trees", [False, True])
def test_fw_flat_state_equals_per_sentence_reference(rng, from_trees):
    # The flat-vector optimizer leaves w, every relaxed tree and both
    # histories bit for bit where the per-sentence matrix loop leaves them,
    # from the chain trees and after `fit_trees`. Corpora hold length-1
    # sentences and tags the template maps to UNK.
    vocab = UPOS_TAGS[:8]
    for _ in range(3):
        c = random_corpus(rng, vocab, 25, max_len=8, min_len=1)
        assert any(s.n == 1 for s in c)
        assert any(tag not in vocab[:6] for s in c for tag in s.upos)
        lam, mu = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.0, 1.5))
        trees = None
        if from_trees:
            trees = [
                DepTree(heads) for heads, _ in
                eisner_min(*flat_costs(
                    [rng.normal(size=(s.n + 1, s.n + 1)) for s in c]))
            ]
        ref = fw_run_reference(c, CmstModel.create(vocab[:6], lam, mu), 6, trees)
        m = CmstModel.create(vocab[:6], lam, mu)
        opt = FrankWolfeOptimizer(c, m)
        if from_trees:
            opt.fit_trees(trees)
        opt.run(6)
        assert m.w.tobytes() == ref.w.tobytes()
        assert len(opt.y) == len(ref.y)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(opt.y, ref.y))
        assert opt.objective_history == ref.objective_history
        assert opt.gap_history == ref.gap_history


def test_fw_run_does_not_depend_on_the_pass_budget(rng, monkeypatch):
    # A corpus of the benchmark's Frank-Wolfe shape (156 sentences of lengths
    # 3-15) fits one chart pass at the default budget; a run decoding every
    # sentence in a pass of its own leaves w and both histories bit for bit
    # where the one-pass run leaves them.
    lengths = rng.permutation(list(range(3, 16)) * 12)
    c = Corpus(tuple(make_sentence(rng.choice(UPOS_TAGS, size=n).tolist())
                     for n in lengths), UPOS_TAGS)
    assert sum(int(n) ** 3 for n in lengths) <= cmst._PASS_CUBES
    runs = []
    for pass_cubes in (cmst._PASS_CUBES, 1):
        monkeypatch.setattr(cmst, "_PASS_CUBES", pass_cubes)
        m = CmstModel.create(c.pos_vocab)
        opt = FrankWolfeOptimizer(c, m)
        opt.run(10)
        runs.append((m.w.tobytes(), opt.objective_history, opt.gap_history))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 10


def _plan_spy(monkeypatch):
    """Spy on `cmst._eisner_plan` from now on: the tuple of lengths of every
    plan it compiles, how many of the plans it compiled before are alive at
    that moment, and a weak reference to each plan."""
    compiled, alive, refs = [], [], []

    def spy(ns, _fn=cmst._eisner_plan):
        alive.append(sum(ref() is not None for ref in refs))
        compiled.append(ns)
        plan = _fn(ns)
        refs.append(weakref.ref(plan))
        return plan

    monkeypatch.setattr(cmst, "_eisner_plan", spy)
    return compiled, alive, refs


def test_fw_compiles_each_pass_plan_once_per_optimizer(rng, monkeypatch):
    # At a budget of 3,000 cubes, 156 shuffled sentences of lengths 3-15 need
    # more than 8 passes, so a bounded 8-plan cache would recompile each one
    # on every step, and a length-15 sentence (3,375 cubes) is a pass of its
    # own, so some pass tuples repeat within a step. The optimizer keeps every plan: its first
    # step compiles each distinct tuple once, and no later step compiles.
    lengths = rng.permutation(list(range(3, 16)) * 12)
    c = Corpus(tuple(make_sentence(rng.choice(UPOS_TAGS, size=n).tolist())
                     for n in lengths), UPOS_TAGS)
    monkeypatch.setattr(cmst, "_PASS_CUBES", 3000)
    passes = []

    def counted(ns, costs, plans, _fn=cmst._eisner_pass):
        passes.append(ns)
        return _fn(ns, costs, plans)

    monkeypatch.setattr(cmst, "_eisner_pass", counted)
    compiled, _, _ = _plan_spy(monkeypatch)
    opt = FrankWolfeOptimizer(c, CmstModel.create(c.pos_vocab))
    opt.step()
    step = passes.copy()
    assert len(set(step)) > 8
    assert len(step) > len(set(step))  # a repeated tuple
    assert sorted(compiled) == sorted(set(step))
    opt.run(4)
    assert passes == step * 5
    assert sorted(compiled) == sorted(set(step))


def test_one_shot_eisner_min_holds_one_plan_at_a_time(rng, monkeypatch):
    # With no plans dict, each pass compiles its plan and drops it when the
    # pass ends: no earlier plan is alive when the next one is compiled, and
    # none is kept after the call.
    monkeypatch.setattr(cmst, "_PASS_CUBES", 3000)
    compiled, alive, refs = _plan_spy(monkeypatch)
    lengths = rng.permutation(list(range(3, 16)) * 3)
    got = eisner_min(*flat_costs([rng.normal(size=(n + 1, n + 1)) for n in lengths]))
    assert len(got) == len(lengths)
    assert len(compiled) > 8
    assert alive == [0] * len(compiled)
    assert all(ref() is None for ref in refs)


def test_fit_trees_rejects_trees_of_other_lengths(toy_corpus):
    opt = FrankWolfeOptimizer(toy_corpus, CmstModel.create(toy_corpus.pos_vocab))
    trees = [DepTree(tuple(range(s.n + 1))) for s in toy_corpus]
    with pytest.raises(ValueError, match="do not match"):
        opt.fit_trees(trees)


# ---------------------------------------------------------------------------
# sentence_gradient
# ---------------------------------------------------------------------------

def test_sgd_gradient_matches_finite_differences(rng):
    x = make_sentence(["DET", "NOUN", "VERB"])
    m = CmstModel.create(("DET", "NOUN", "VERB"), lam=0.8, mu=0.3)
    m.w = rng.normal(scale=0.3, size=m.w.shape)
    tree = all_projective_trees(3)[2]
    N = 9
    g = sentence_gradient(extract_features([x], m.templates), tree_matrix(tree), m, N)
    f = _copies_objective(x, m, N)
    h = 1e-5
    for j in rng.integers(0, m.w.size, size=20):
        w0 = m.w[j]
        m.w[j] = w0 + h
        fp = f(tree)
        m.w[j] = w0 - h
        fm = f(tree)
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
