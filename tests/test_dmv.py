import math

import numpy as np
import pytest

from oracles import (
    all_projective_trees,
    logsumexp,
    make_sentence,
    price_matrix,
    random_corpus,
    random_dmv_params,
    scalar_expected_counts,
    scalar_viterbi,
    slot_weight_refs,
    span_nesting_depth,
)

from jointdep import dmv
from jointdep.corpus import Corpus, DepTree
from jointdep.dmv import (
    ConstraintConfig,
    UNCONSTRAINED,
    ce_depth,
    em_step,
    init_params,
    inside_loglik,
    mstep_from_trees,
    tree_logprob,
    viterbi_decode,
)


# ---------------------------------------------------------------------------
# init_params
# ---------------------------------------------------------------------------

def test_uniform_init_is_exactly_uniform(toy_corpus):
    p = init_params(toy_corpus, "uniform")
    assert np.allclose(p.attach, 1.0 / 3.0)
    assert np.allclose(p.root, 1.0 / 3.0)
    p.validate()


def test_harmonic_init_prefers_short_arcs():
    c = Corpus(
        (make_sentence(["A", "B"]), make_sentence(["A", "C", "B"])),
        ("A", "B", "C"),
    )
    p = init_params(c, "harmonic")
    p.validate()
    # B -> A adjacent in "A B" (weight 1/2) and distance 2 in "A C B"
    # (weight 1/3); B -> C only adjacent once.  Hand-aggregated weights:
    # attach[B][left][A] = 1/2 + 1/3 + 1 (smoothing), attach[B][left][C]
    # = 1/2 + 1, attach[B][left][B] = 1.
    b, a, cc = 1, 0, 2
    raw = np.array([1.0 / 2 + 1.0 / 3 + 1, 1.0, 1.0 / 2 + 1])
    expect = raw / raw.sum()
    assert np.allclose(p.attach[b, dmv.LEFT, [a, b, cc]], expect)


def test_init_empty_vocab_rejected():
    with pytest.raises(ValueError):
        init_params(Corpus((), ()), "uniform")


# ---------------------------------------------------------------------------
# tree_logprob
# ---------------------------------------------------------------------------

def test_single_token_logprob(rng):
    p = random_dmv_params(rng, ("A", "B"))
    x = make_sentence(["B"])
    got = tree_logprob(x, DepTree((0,)), p, UNCONSTRAINED)
    want = (
        math.log(p.root[1])
        + math.log(p.stop[1, dmv.LEFT, dmv.NO_CHILD])
        + math.log(p.stop[1, dmv.RIGHT, dmv.NO_CHILD])
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_beta_zero_depth_inf_is_plain_joint(rng):
    p = random_dmv_params(rng, ("A", "B"))
    x = make_sentence(["A", "B", "A"])
    for tree in all_projective_trees(3):
        plain = tree_logprob(x, tree, p, UNCONSTRAINED)
        biased = tree_logprob(x, tree, p, ConstraintConfig(None, 0.5))
        penalty = 0.5 * sum(
            abs(h - d) - 1 for d, h in enumerate(tree.heads, 1) if h != 0
        )
        assert biased == pytest.approx(plain - penalty, abs=1e-12)


def test_depth_cap_gives_minus_inf(rng):
    p = random_dmv_params(rng, ("A",))
    # Token 2 strictly inside token 3's span: depth 1.
    tree = DepTree((3, 3, 0))
    assert ce_depth(tree) == 1
    x = make_sentence(["A"] * 3)
    assert tree_logprob(x, tree, p, ConstraintConfig(0, 0.0)) == -math.inf
    assert tree_logprob(x, tree, p, ConstraintConfig(1, 0.0)) > -math.inf


# ---------------------------------------------------------------------------
# ce_depth
# ---------------------------------------------------------------------------

def test_ce_depth_chains_are_flat():
    assert ce_depth(DepTree((0, 1, 2, 3))) == 0
    assert ce_depth(DepTree((2, 3, 4, 0))) == 0


def test_ce_depth_single_nesting():
    assert ce_depth(DepTree((3, 3, 0))) == 1


def test_ce_depth_double_nesting():
    # 5 tokens: 3 inside [2,4] inside [1,5], interior on both sides twice.
    tree = DepTree((5, 4, 4, 5, 0))
    assert span_nesting_depth(tree.heads) == 2
    assert ce_depth(tree) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ce_depth_matches_span_oracle(n):
    for tree in all_projective_trees(n):
        assert ce_depth(tree) == span_nesting_depth(tree.heads)


# ---------------------------------------------------------------------------
# inside_loglik
# ---------------------------------------------------------------------------

def test_inside_single_token(rng):
    p = random_dmv_params(rng, ("A", "B"))
    x = make_sentence(["A"])
    assert inside_loglik(x, p, UNCONSTRAINED) == pytest.approx(
        tree_logprob(x, DepTree((0,)), p, UNCONSTRAINED), abs=1e-12
    )


@pytest.mark.parametrize("cfg", [
    UNCONSTRAINED,
    ConstraintConfig(None, 0.4),
    ConstraintConfig(1, 0.0),
    ConstraintConfig(0, 0.2),
])
def test_inside_matches_bruteforce(rng, cfg):
    vocab = ("A", "B", "C")
    for _ in range(15):
        n = int(rng.integers(1, 6))
        x = make_sentence([vocab[i] for i in rng.integers(0, 3, size=n)])
        p = random_dmv_params(rng, vocab)
        lps = [tree_logprob(x, t, p, cfg) for t in all_projective_trees(n)]
        want = logsumexp(lps)
        got = inside_loglik(x, p, cfg)
        if want == -math.inf:
            assert got == -math.inf
        else:
            assert got == pytest.approx(want, abs=1e-8)


def test_length_penalty_strictly_decreases_marginal(rng):
    p = random_dmv_params(rng, ("A", "B"))
    x = make_sentence(["A", "B", "A"])
    assert inside_loglik(x, p, ConstraintConfig(None, 0.5)) < inside_loglik(
        x, p, UNCONSTRAINED
    )


# ---------------------------------------------------------------------------
# viterbi_decode
# ---------------------------------------------------------------------------

def test_viterbi_single_token(rng):
    p = random_dmv_params(rng, ("A",))
    x = make_sentence(["A"])
    tree, score = viterbi_decode(x, p, UNCONSTRAINED)
    assert tree.heads == (0,)
    assert score == pytest.approx(-tree_logprob(x, tree, p, UNCONSTRAINED))


def test_viterbi_matches_bruteforce_with_prices(rng):
    vocab = ("A", "B")
    for trial in range(20):
        n = int(rng.integers(1, 5))
        x = make_sentence([vocab[i] for i in rng.integers(0, 2, size=n)])
        p = random_dmv_params(rng, vocab)
        cfg = [UNCONSTRAINED, ConstraintConfig(1, 0.2)][trial % 2]
        u = price_matrix(rng.normal(size=n * n), n)
        tree, score = viterbi_decode(x, p, cfg, u)
        best = math.inf
        for t in all_projective_trees(n):
            lp = tree_logprob(x, t, p, cfg)
            val = -lp + float(sum(u[h, d] for d, h in enumerate(t.heads, 1)))
            best = min(best, val)
        assert score == pytest.approx(best, abs=1e-9)
        assert ce_depth(tree) <= (cfg.max_ce_depth or n)


def test_viterbi_price_shift_invariance(rng):
    vocab = ("A", "B")
    n = 4
    x = make_sentence(["A", "B", "A", "B"])
    p = random_dmv_params(rng, vocab)
    u = price_matrix(rng.normal(size=n * n), n)
    tree1, s1 = viterbi_decode(x, p, UNCONSTRAINED, u)
    tree2, s2 = viterbi_decode(x, p, UNCONSTRAINED, u + 3.5)
    assert tree1 == tree2
    assert s2 - s1 == pytest.approx(n * 3.5, abs=1e-9)


def test_viterbi_infeasible_raises(rng):
    p = random_dmv_params(rng, ("A",))
    x = make_sentence(["A"] * 3)
    # Depth cap 0 still admits flat trees, so force infeasibility with a
    # zero-probability grammar event instead: all stops are certain.
    p.stop[:] = 1.0
    with pytest.raises(dmv.InfeasibleParseError):
        viterbi_decode(x, p, UNCONSTRAINED)


def test_viterbi_deterministic_tie_break(rng):
    p = init_params(
        Corpus((make_sentence(["A", "A", "A"]),), ("A",)), "uniform"
    )
    x = make_sentence(["A", "A", "A"])
    t1, _ = viterbi_decode(x, p, UNCONSTRAINED)
    t2, _ = viterbi_decode(x, p, UNCONSTRAINED)
    assert t1 == t2


# ---------------------------------------------------------------------------
# compiled chart passes against the scalar reference passes
# ---------------------------------------------------------------------------

# Inside and outside sum in another order than the scalar passes, so their
# results may differ in the last digits; Viterbi only takes maxima and must
# agree exactly.
ENGINE_RTOL = 1e-12
ENGINE_VOCAB = ("A", "B", "C")


def _impossible_events(p):
    """p with some events of zero probability (log weight -inf)."""
    root, attach, stop = p.root.copy(), p.attach.copy(), p.stop.copy()
    root[2] = 0.0
    root /= root.sum()
    attach[0, dmv.RIGHT, 1] = 0.0
    attach[2, dmv.LEFT, :2] = 0.0
    attach /= attach.sum(axis=2, keepdims=True)
    stop[1, dmv.LEFT, dmv.HAS_CHILD] = 1.0   # B takes at most one left child
    stop[0, dmv.RIGHT, dmv.NO_CHILD] = 0.0   # A must take a right child
    return dmv.DmvParams(p.vocab, root, attach, stop)


def _engine_params(rng, kind, corpus):
    if kind == "uniform":
        return init_params(corpus, "uniform")
    p = random_dmv_params(rng, ENGINE_VOCAB)
    return _impossible_events(p) if kind == "impossible" else p


@pytest.mark.parametrize("cap", [None, 0, 1, 2])
@pytest.mark.parametrize("beta", [0.0, 0.1])
@pytest.mark.parametrize("kind", ["random", "uniform", "impossible"])
def test_viterbi_matches_scalar_reference(rng, cap, beta, kind):
    cfg = ConstraintConfig(cap, beta)
    for trial in range(12):
        x = random_corpus(rng, ENGINE_VOCAB, 1, max_len=7).sentences[0]
        p = _engine_params(rng, kind, Corpus((x,), ENGINE_VOCAB))
        n = x.n
        u = (None, rng.integers(-2, 3, size=n * n).astype(float),
             rng.normal(size=n * n))[trial % 3]
        if u is not None:
            u = price_matrix(u, n)
        want_heads, want = scalar_viterbi(
            dmv._compile(n, cap), p.tag_ids(x), p.V, p.log_weights(), beta,
            u,
        )
        if want == -math.inf:
            with pytest.raises(dmv.InfeasibleParseError):
                viterbi_decode(x, p, cfg, u)
            continue
        tree, got = viterbi_decode(x, p, cfg, u)
        assert tree.heads == want_heads
        assert -got == want


@pytest.mark.parametrize("cap", [None, 0, 1, 2])
@pytest.mark.parametrize("beta", [0.0, 0.1])
@pytest.mark.parametrize("kind", ["random", "impossible"])
def test_inside_and_counts_match_scalar_reference(rng, cap, beta, kind):
    cfg = ConstraintConfig(cap, beta)
    c = random_corpus(rng, ENGINE_VOCAB, 8, max_len=7)
    p = _engine_params(rng, kind, c)
    wlog = p.log_weights()
    total = np.zeros(wlog.size + 1)
    loglik = 0.0
    for x in c:
        pos = p.tag_ids(x)
        want_vals, want_counts = scalar_expected_counts(
            dmv._compile(x.n, cap), pos, p.V, wlog, beta
        )
        chart = dmv._build_chart(pos, p.V, cap, wlog, beta)
        assert chart.refs.tolist() == [
            [slot_weight_refs(pos, p.V)[k] for k in row]
            for row in chart.s.slots
        ]
        vals = dmv._inside(chart)
        np.testing.assert_allclose(vals[:-1], want_vals, rtol=ENGINE_RTOL, atol=0)
        logz = want_vals[chart.s.goal]
        if logz == -math.inf:
            continue
        loglik += logz
        total += want_counts
        counts = dmv._expected_counts(chart, vals, vals[chart.s.goal], total.size)
        np.testing.assert_allclose(counts, want_counts, rtol=ENGINE_RTOL, atol=0)
    new, ll = em_step(c, p, cfg, 0.0)
    want = dmv._params_from_counts(p, total[:-1], 0.0)
    assert ll == pytest.approx(loglik, rel=ENGINE_RTOL, abs=0)
    for got_table, want_table in ((new.root, want.root),
                                  (new.attach, want.attach),
                                  (new.stop, want.stop)):
        np.testing.assert_allclose(got_table, want_table, rtol=ENGINE_RTOL, atol=0)


def test_chart_structure_is_shared_per_length_and_read_only(rng):
    p = random_dmv_params(rng, ENGINE_VOCAB)
    cfg = ConstraintConfig(1, 0.1)
    a = dmv.build_decode_chart(make_sentence(["A", "B", "C", "A"]), p, cfg)
    b = dmv.build_decode_chart(make_sentence(["C", "C", "B", "A"]), p, cfg)
    assert a.s is b.s
    assert not np.array_equal(a.refs, b.refs)
    arrays = [v for v in vars(a.s).values() if isinstance(v, np.ndarray)]
    arrays += [v for lv in a.s.levels for v in lv if isinstance(v, np.ndarray)]
    assert len(arrays) > 10
    assert not any(arr.flags.writeable for arr in arrays)
    with pytest.raises(ValueError):
        a.s.head[0] = 0
    uncapped = dmv.build_decode_chart(
        make_sentence(["A", "B", "C", "A"]), p, ConstraintConfig(None, 0.1)
    )
    assert uncapped.s is not a.s


# ---------------------------------------------------------------------------
# em_step
# ---------------------------------------------------------------------------

def test_em_monotone_loglik(rng):
    c = random_corpus(rng, ("A", "B", "C"), 30, max_len=6)
    p = init_params(c, "harmonic")
    prev = -math.inf
    for _ in range(10):
        p, ll = em_step(c, p, UNCONSTRAINED, 0.0)
        assert ll >= prev - 1e-10
        prev = ll
        p.validate()


def test_em_counts_match_bruteforce_posteriors(rng):
    # Counts are checked indirectly: one EM step from parameters whose
    # posterior is brute-force computable must reproduce the normalized
    # brute-force expected counts.
    vocab = ("A", "B")
    x = make_sentence(["A", "B", "A"])
    c = Corpus((x,), vocab)
    p = random_dmv_params(rng, vocab)
    newp, ll = em_step(c, p, UNCONSTRAINED, 0.0)
    trees = all_projective_trees(3)
    lps = np.array([tree_logprob(x, t, p, UNCONSTRAINED) for t in trees])
    post = np.exp(lps - logsumexp(list(lps)))
    assert ll == pytest.approx(logsumexp(list(lps)), abs=1e-10)
    # Brute-force root posterior: mass on trees rooted at each position.
    root_counts = np.zeros(2)
    ids = [0, 1, 0]
    for t, q in zip(trees, post):
        root_counts[ids[t.root() - 1]] += q
    assert np.allclose(newp.root, root_counts / root_counts.sum(), atol=1e-8)


def test_em_fixpoint_on_forced_tree(rng):
    # A one-sentence corpus where only one tree is feasible: beta 0 and a
    # grammar already concentrated on that tree is an EM fixpoint.
    vocab = ("A", "B")
    x = make_sentence(["A", "B"])
    c = Corpus((x,), vocab)
    tree = DepTree((2, 0))
    p = mstep_from_trees(c, [tree], smoothing=0.0)
    p2, _ = em_step(c, p, UNCONSTRAINED, 0.0)
    assert np.allclose(p2.root, p.root, atol=1e-12)
    assert np.allclose(p2.attach, p.attach, atol=1e-12)


def test_em_skips_impossible_sentences(rng):
    vocab = ("A",)
    c = Corpus((make_sentence(["A", "A"]),), vocab)
    p = random_dmv_params(rng, vocab)
    p.stop[:] = 1.0  # no attachments possible; n=2 needs one
    diag = {}
    _, ll = em_step(c, p, UNCONSTRAINED, 0.0, diag)
    assert diag["skipped"] == 1
    assert ll == 0.0


# ---------------------------------------------------------------------------
# mstep_from_trees
# ---------------------------------------------------------------------------

def test_mstep_single_event_counts():
    c = Corpus((make_sentence(["NOUN", "VERB"]),), ("NOUN", "VERB"))
    p = mstep_from_trees(c, [DepTree((2, 0))], smoothing=0.0)
    assert p.root[1] == 1.0
    assert p.attach[1, dmv.LEFT, 0] == 1.0
    p.validate()


def test_mstep_add_one_smoothing():
    c = Corpus((make_sentence(["NOUN", "VERB"]),), ("NOUN", "VERB"))
    p = mstep_from_trees(c, [DepTree((2, 0))], smoothing=1.0)
    assert p.root[0] == pytest.approx(1.0 / 3.0)
    assert p.root[1] == pytest.approx(2.0 / 3.0)


def test_mstep_alignment_mismatch(toy_corpus):
    with pytest.raises(ValueError):
        mstep_from_trees(toy_corpus, [DepTree((0,))], 0.1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_params_roundtrip_bit_exact(rng, tmp_path):
    p = random_dmv_params(rng, ("A", "B", "C"))
    path = tmp_path / "dmv.txt"
    p.save(path)
    q = dmv.DmvParams.load(path)
    assert q.vocab == p.vocab
    assert np.array_equal(q.root, p.root)
    assert np.array_equal(q.attach, p.attach)
    assert np.array_equal(q.stop, p.stop)
    q.save(tmp_path / "dmv2.txt")
    assert (tmp_path / "dmv.txt").read_bytes() == (tmp_path / "dmv2.txt").read_bytes()
