import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    all_projective_heads,
    all_projective_trees,
    compile_reference,
    encode,
    expand_structure,
    init_params_reference,
    inside_loglik,
    logsumexp,
    make_sentence,
    plan_reference,
    price_matrix,
    random_corpus,
    random_dmv_params,
    scalar_expected_counts,
    scalar_viterbi,
    slot_weight_refs,
    span_nesting_depth,
    tag_ids,
    tree_events_reference,
    tree_logprob,
    viterbi_decode,
    UNCONSTRAINED,
    WeightIndexReference,
)

from jointdep import dmv
from jointdep.corpus import ArcLayout, Corpus, DepTree
from jointdep.dmv import (
    ConstraintConfig,
    ce_depth,
    em_step,
    init_params,
    mstep_from_trees,
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


@pytest.mark.parametrize("mode", dmv.INITS)
def test_init_params_equals_the_table_loop_bit_for_bit(rng, mode):
    # The counts go through the M-step's normalisation, and are summed in
    # the table loop's order, so every probability keeps its bits.
    for vocab, n_sentences, max_len in (
        (("A",), 3, 4), (("DET", "NOUN", "VERB"), 12, 9),
        (tuple("ABCDEFG"), 30, 15), (("X", "Y"), 1, 1),
    ):
        c = random_corpus(rng, vocab, n_sentences, max_len=max_len)
        got, want = init_params(c, mode), init_params_reference(c, mode)
        assert got.vocab == want.vocab
        for table in ("root", "attach", "stop"):
            a, b = getattr(got, table), getattr(want, table)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), table


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
            dmv._compile((n,), cap), tag_ids(p, x), p.V, p.log_weights(), beta,
            u,
        )
        if want == -math.inf:
            with pytest.raises(dmv.InfeasibleParseError):
                viterbi_decode(x, p, cfg, u)
            continue
        tree, got = viterbi_decode(x, p, cfg, u)
        assert tree.heads == want_heads
        assert -got == want


def test_viterbi_batch_matches_scalar_reference(rng):
    # Groups of lengths 1-12 under one grammar (some with impossible
    # events), cap (None/0/1/2) and length penalty each read their prices
    # from one flat vector in the group's `ArcLayout`. Every row must give
    # the scalar pass's heads and score bits, or come back infeasible where
    # it has no tree.
    infeasible = feasible = 0
    for trial in range(24):
        xs = [make_sentence([ENGINE_VOCAB[i] for i in rng.integers(0, 3, size=n)])
              for n in rng.integers(1, 13, size=int(rng.integers(1, 6)))]
        cap = (None, 0, 1, 2)[int(rng.integers(0, 4))]
        beta = (0.0, 0.1)[int(rng.integers(0, 2))]
        p = random_dmv_params(rng, ENGINE_VOCAB)
        if rng.random() < 0.4:
            p = _impossible_events(p)
        mode = trial % 3  # no prices, integer prices (ties), real prices
        layout = ArcLayout(x.n for x in xs)
        prices = rng.integers(-2, 3, size=layout.size).astype(float)
        if mode == 2:
            prices = rng.normal(size=prices.size)
        prices = None if mode == 0 else prices
        s = dmv._compile(tuple(x.n for x in xs), cap)
        slot_refs = dmv._slot_refs(
            np.concatenate([tag_ids(p, x) for x in xs]), [x.n for x in xs], p.V)
        assert slot_refs.tolist() == [
            ref for x in xs for ref in slot_weight_refs(tag_ids(p, x), p.V)]
        got = dmv.viterbi_batch(
            s, dmv.edge_scores(s, slot_refs, p.log_weights(), beta, prices)
        )
        blocks = [None] * len(xs) if prices is None else layout.views(prices)
        for x, u, (heads, best) in zip(xs, blocks, got, strict=True):
            want_heads, want = scalar_viterbi(
                dmv._compile((x.n,), cap), tag_ids(p, x), p.V, p.log_weights(),
                beta, u,
            )
            if want == -math.inf:
                infeasible += 1
                assert heads is None and best == -math.inf
                continue
            feasible += 1
            assert heads == want_heads
            assert best.hex() == want.hex()
    assert infeasible >= 5 and feasible >= 40


def test_structure_of_one_is_its_chart(rng):
    # A sentence decoded alone runs on the structure of its length, which
    # the owner's layouts keep under that length and the cap. Its one goal
    # is its top node, and its scores are the edges' own.
    p = random_dmv_params(rng, ENGINE_VOCAB)
    x = make_sentence(["A", "B", "C", "A"])
    layouts = {}
    s, slot_refs, score = dmv._charts(encode([x]), p, 1, 0.1, layouts=layouts)
    assert layouts == {((4,), 1): s}
    _assert_same_structure(s, dmv._compile((4,), 1))
    assert s.lengths == (4,) and s.goals.tolist() == [s.n_nodes - 1]
    assert score.shape == s.tail0.shape
    assert slot_refs.tolist() == slot_weight_refs(tag_ids(p, x), p.V)


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
        pos = tag_ids(p, x)
        s = dmv._compile((x.n,), cap)
        want_vals, want_counts = scalar_expected_counts(s, pos, p.V, wlog, beta)
        slot_refs = dmv._slot_refs(pos, [x.n], p.V)
        slots = expand_structure(s).slots
        assert slot_refs[slots].tolist() == [
            [slot_weight_refs(pos, p.V)[k] for k in row] for row in slots
        ]
        score = dmv.edge_scores(s, slot_refs, wlog, beta)
        vals = dmv._inside(s, score)
        np.testing.assert_allclose(vals[:-1], want_vals, rtol=ENGINE_RTOL, atol=0)
        logz = want_vals[s.goals[0]]
        if logz == -math.inf:
            continue
        loglik += logz
        total += want_counts
        counts = dmv._expected_counts(s, score, slot_refs, vals, total.size)
        np.testing.assert_allclose(counts, want_counts, rtol=ENGINE_RTOL, atol=0)
    new, ll = em_step(c, p, cfg, 0.0)
    want = dmv._params_from_counts(p, total[:-1], 0.0)
    assert ll == pytest.approx(loglik, rel=ENGINE_RTOL, abs=0)
    for got_table, want_table in ((new.root, want.root),
                                  (new.attach, want.attach),
                                  (new.stop, want.stop)):
        np.testing.assert_allclose(got_table, want_table, rtol=ENGINE_RTOL, atol=0)


def test_plan_inside_and_counts_match_charts_alone(rng):
    # One structure over EM charts of mixed lengths, under one grammar with
    # impossible events and one cap and length penalty, with at least one
    # chart that has no tree: every goal keeps the inside bits of its chart
    # run alone, and the group's counts are the sum of the scalar counts of
    # the charts that have a tree.
    wlog_size = dmv._WeightIndex(len(ENGINE_VOCAB)).size + 1
    infeasible = 0
    for trial in range(8):
        rows = [[int(t) for t in rng.integers(0, 3, size=n)]
                for n in rng.integers(1, 10, size=int(rng.integers(2, 7)))]
        cap = (None, 0, 1, 2)[int(rng.integers(0, 4))]
        beta = (0.0, 0.1)[int(rng.integers(0, 2))]
        # A must take a right child, so a sentence ending in A has no tree.
        p = _impossible_events(random_dmv_params(rng, ENGINE_VOCAB))
        rows.insert(int(rng.integers(0, len(rows) + 1)), [1, 2, 0])
        wlog = p.log_weights()
        s = dmv._compile(tuple(len(pos) for pos in rows), cap)
        slot_refs = dmv._slot_refs(
            np.concatenate(rows), [len(pos) for pos in rows], p.V)
        score = dmv.edge_scores(s, slot_refs, wlog, beta)
        vals = dmv._inside(s, score)
        want = np.zeros(wlog_size)
        for pos, goal in zip(rows, s.goals, strict=True):
            alone = dmv._compile((len(pos),), cap)
            alone_refs = dmv._slot_refs(pos, [len(pos)], p.V)
            alone_score = dmv.edge_scores(alone, alone_refs, wlog, beta)
            alone_logz = dmv._inside(alone, alone_score)[alone.goals[0]]
            assert vals[goal].hex() == alone_logz.hex()
            want_vals, want_counts = scalar_expected_counts(
                alone, pos, p.V, wlog, beta
            )
            if want_vals[alone.goals[0]] == -math.inf:
                infeasible += 1
                assert alone_logz == -math.inf
                continue
            want += want_counts
        got = dmv._expected_counts(s, score, slot_refs, vals, wlog_size)
        np.testing.assert_allclose(got, want, rtol=ENGINE_RTOL, atol=0)
    assert infeasible >= 8


def test_em_step_does_not_depend_on_the_grouping(rng, monkeypatch):
    # Sentences one per group give the log likelihood's bits of the default
    # groups, the impossible sentences left out, and tables within
    # summation order; each group takes one inside and one outside pass.
    c = random_corpus(rng, ENGINE_VOCAB, 40, max_len=13)
    p = _impossible_events(random_dmv_params(rng, ENGINE_VOCAB))
    cfg = ConstraintConfig(1, 0.1)
    groups = list(dmv.length_groups([x.n for x in c], 1))
    assert len(groups) > 1 and any(len(g) > 1 for g in groups)
    passes = []

    def counted(name):
        fn = getattr(dmv, name)

        def run(s, *args):
            passes.append((name, len(s.goals)))
            return fn(s, *args)
        return run

    for name in ("_inside", "_expected_counts"):
        monkeypatch.setattr(dmv, name, counted(name))
    grouped, ll = em_step(c, p, cfg, 0.0)
    assert passes == [
        (name, len(g)) for g in groups for name in ("_inside", "_expected_counts")
    ]
    monkeypatch.setattr(dmv, "_GROUP_EDGES", 1)
    alone, ll_alone = em_step(c, p, cfg, 0.0)
    assert ll.hex() == ll_alone.hex()
    for got, want in ((grouped.root, alone.root), (grouped.attach, alone.attach),
                      (grouped.stop, alone.stop)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_chart_structure_is_shared_per_length_and_read_only(rng):
    # Within one owner's layouts, sentences of one length share one layout;
    # another tuple of lengths or another cap has its own. No layout
    # outlives its owner: without one, each call compiles its own.
    p = random_dmv_params(rng, ENGINE_VOCAB)
    xa, xb = make_sentence(["A", "B", "C", "A"]), make_sentence(["C", "C", "B", "A"])
    layouts = {}
    a, refs_a, score_a = dmv._charts(encode([xa]), p, 1, 0.1, layouts=layouts)
    b, refs_b, score_b = dmv._charts(encode([xb]), p, 1, 0.1, layouts=layouts)
    assert a is b
    # The tags choose the weights the shared edges read.
    assert not np.array_equal(refs_a, refs_b)
    assert not np.array_equal(score_a, score_b)
    group, _, _ = dmv._charts(encode([xa, xb]), p, 1, 0.1, layouts=layouts)
    uncapped, _, _ = dmv._charts(encode([xa]), p, None, 0.1, layouts=layouts)
    assert layouts == {((4,), 1): a, ((4, 4), 1): group, ((4,), None): uncapped}
    assert len({id(s) for s in layouts.values()}) == 3
    assert dmv._charts(encode([xa]), p, 1, 0.1)[0] is not a
    arrays = [v for v in vars(a).values() if isinstance(v, np.ndarray)]
    arrays += [v for lv in a.levels for v in lv if isinstance(v, np.ndarray)]
    assert len(arrays) > 10
    assert not any(arr.flags.writeable for arr in arrays)
    with pytest.raises(ValueError):
        a.tail0[0] = 0


@pytest.mark.parametrize("lengths", [(25,), (19, 16)])
def test_compiled_layout_is_lean_per_edge(lengths):
    # A layout keeps two tails and one weight slot per edge, plus the fields
    # of its arc edges and its nodes' edge counts and offsets: at most 24
    # bytes per edge, every buffer counted once. A compile (the templates
    # cached by a first one) peaks at most at 56 bytes per edge, layout
    # included.
    dmv._compile(lengths, 1)
    tracemalloc.start()
    try:
        s = dmv._compile(lengths, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = [v for v in vars(s).values() if isinstance(v, np.ndarray)]
    arrays += [v for lv in s.levels for v in lv if isinstance(v, np.ndarray)]
    buffers = {}
    for arr in arrays:
        while arr.base is not None:
            arr = arr.base
        buffers[id(arr)] = arr.nbytes
    edges = s.tail0.size
    assert sum(buffers.values()) <= 24 * edges
    assert peak <= 56 * edges


def _assert_same_structure(got, want):
    """Every attribute of the compiled chart `want` equals `got`'s: arrays
    in dtype, shape and values, `levels` element by element."""
    assert set(vars(got)) == set(vars(want))
    for name, w in vars(want).items():
        g = getattr(got, name)
        pairs = (
            [(gi, wi) for gl, wl in zip(g, w, strict=True)
             for gi, wi in zip(gl, wl, strict=True)]
            if name == "levels" else [(g, w)]
        )
        for gi, wi in pairs:
            assert type(gi) is type(wi), name
            if isinstance(wi, np.ndarray):
                assert gi.dtype == wi.dtype and gi.shape == wi.shape, name
                assert np.array_equal(gi, wi), name
            else:
                assert gi == wi, name


@pytest.mark.parametrize("cap", [None, 0, 1, 2, 3])
def test_compile_equals_cell_by_cell_reference(cap):
    # Node order and edge order within a head decide ties, so the tiled
    # chart must equal the cell-by-cell one array for array.
    for n in range(1, 17):
        _assert_same_structure(
            expand_structure(dmv._compile((n,), cap)), compile_reference(n, cap))


@pytest.mark.parametrize("n", [25, 40])
def test_compile_equals_cell_by_cell_reference_long(n):
    _assert_same_structure(
        expand_structure(dmv._compile((n,), 1)), compile_reference(n, 1))


@pytest.mark.parametrize("cap", [None, 0, 1, 2, 3])
def test_compile_lays_out_a_group_as_its_charts_level_by_level(cap):
    # A group's structure is its charts, each compiled alone, laid out level
    # by level and chart by chart within a level: lengths ascending,
    # descending, repeated and mixed, with n = 1 among them.
    alone = {}
    for lengths in [(1,), (1, 1), (2, 5), (5, 2), (3, 3, 3), (9, 4, 1),
                    (1, 4, 9), (6, 1, 6, 2, 2), (12, 7, 12, 1)]:
        for n in lengths:
            if n not in alone:
                alone[n] = compile_reference(n, cap)
        _assert_same_structure(
            expand_structure(dmv._compile(lengths, cap)),
            plan_reference([alone[n] for n in lengths]),
        )


def test_chart_edges_counts_without_compiling(monkeypatch):
    sizes = [(n, cap) for cap in (None, 0, 1, 2) for n in range(1, 31)]
    compile_ = dmv._compile

    def no_compile(*args):
        raise AssertionError("chart_edges compiled a chart")

    monkeypatch.setattr(dmv, "_compile", no_compile)
    counted = [dmv.chart_edges(n, cap) for n, cap in sizes]
    assert counted == [compile_((n,), cap).tail0.size for n, cap in sizes]


def test_length_groups_cut_longest_first_under_the_edge_budget(monkeypatch):
    lengths = [3, 9, 5, 9, 1, 30]
    counted = []

    def chart_edges(n, cap, _fn=dmv.chart_edges):
        counted.append(n)
        return _fn(n, cap)

    monkeypatch.setattr(dmv, "chart_edges", chart_edges)
    groups = list(dmv.length_groups(lengths, 1))
    # Each distinct length's edges are counted once.
    assert sorted(counted) == sorted(set(lengths))
    assert [i for g in groups for i in g] == [5, 1, 3, 2, 0, 4]
    edges = [sum(dmv.chart_edges(lengths[i], 1) for i in g) for g in groups]
    # A group is only over the budget when it holds one sentence, and no
    # group could take the next group's first sentence.
    assert all(e <= dmv._GROUP_EDGES or len(g) == 1 for g, e in zip(groups, edges))
    for e, nxt in zip(edges, groups[1:]):
        assert e + dmv.chart_edges(lengths[nxt[0]], 1) > dmv._GROUP_EDGES
    monkeypatch.setattr(dmv, "_GROUP_EDGES", 1)
    assert list(dmv.length_groups(lengths, 1)) == [[5], [1], [3], [2], [0], [4]]


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
    # A takes no dependents, so A A has no tree, while A, B A and A B A each
    # have some. Put among them, in the group of B A, A A adds nothing to the
    # log likelihood or to the counts: both keep their bits.
    vocab = ("A", "B")
    p = random_dmv_params(rng, vocab)
    p.stop[0] = 1.0
    possible = [make_sentence(tags) for tags in (["B", "A"], ["A"], ["A", "B", "A"])]
    impossible = make_sentence(["A", "A"])
    assert inside_loglik(impossible, p, UNCONSTRAINED) == -math.inf
    alone, ll_alone = em_step(Corpus(tuple(possible), vocab), p, UNCONSTRAINED, 0.0)
    c = Corpus((possible[0], impossible, *possible[1:]), vocab)
    assert len(list(dmv.length_groups(c.encoding.lengths, None))) == 1
    new, ll = em_step(c, p, UNCONSTRAINED, 0.0)
    assert math.isfinite(ll) and ll.hex() == ll_alone.hex()
    for got, want in ((new.root, alone.root), (new.attach, alone.attach),
                      (new.stop, alone.stop)):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# mstep_from_trees
# ---------------------------------------------------------------------------

def test_tree_counts_sum_the_per_tree_events(rng):
    # One bincount over the corpus is the per-tree event bincounts summed,
    # with the tags read through the model's own vocabulary order.
    c = random_corpus(rng, ("A", "B", "C"), 20, max_len=6)
    theta = random_dmv_params(rng, ("C", "A", "B"))
    trees = []
    for x in c:
        heads = all_projective_heads(x.n)
        trees.append(DepTree(heads[rng.integers(len(heads))]))
    wi = WeightIndexReference(theta.V)
    want = sum(
        np.bincount(tree_events_reference(tag_ids(theta, x), t, wi), minlength=wi.size)
        for x, t in zip(c, trees)
    )
    got = dmv.tree_counts(c, trees, theta)
    assert got.shape == (wi.size,)
    assert np.array_equal(got, want)
    # One root, a continue and an attach per other token, and a stop per
    # head and side.
    assert got.sum() == sum(1 + 2 * (x.n - 1) + 2 * x.n for x in c)
    with pytest.raises(ValueError):
        dmv.tree_counts(c, trees[:-1], theta)
    with pytest.raises(ValueError, match="tree of length"):
        dmv.tree_counts(c, trees[1:] + trees[:1], theta)


def test_mstep_single_event_counts():
    c = Corpus((make_sentence(["NOUN", "VERB"]),), ("NOUN", "VERB"))
    p = mstep_from_trees(c, [DepTree((2, 0))], smoothing=0.0)
    assert p.root[1] == 1.0
    assert p.attach[1, dmv.LEFT, 0] == 1.0
    # The tables sum to one, but unsmoothed, the events no tree uses get
    # probability 0, which a valid grammar may not hold.
    message = r"^root NOUN: probability 0\.0 outside \(0, 1\]$"
    with pytest.raises(ValueError, match=message):
        p.validate()


def test_mstep_add_one_smoothing():
    c = Corpus((make_sentence(["NOUN", "VERB"]),), ("NOUN", "VERB"))
    p = mstep_from_trees(c, [DepTree((2, 0))], smoothing=1.0)
    assert p.root[0] == pytest.approx(1.0 / 3.0)
    assert p.root[1] == pytest.approx(2.0 / 3.0)


def test_mstep_rejects_negative_smoothing():
    c = Corpus((make_sentence(["NOUN", "VERB"]),), ("NOUN", "VERB"))
    with pytest.raises(ValueError, match="smoothing"):
        mstep_from_trees(c, [DepTree((2, 0))], smoothing=-0.5)


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
