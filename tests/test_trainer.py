import collections
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import (
    all_projective_heads,
    all_projective_trees,
    inside_loglik,
    joint_objective_reference,
    make_sentence,
    random_corpus,
    random_dmv_params,
    tree_logprob,
    tree_logprob_reference,
    viterbi_decode,
)

from jointdep import cmst, dmv, trainer
from jointdep.corpus import Corpus, DepTree, read_conllu
from jointdep.dmv import ConstraintConfig
from jointdep.trainer import (
    TrainConfig,
    TrainState,
    decode_corpus,
    joint_objective,
    joint_train,
    pretrain,
    train,
)


@pytest.fixture
def small_corpus(rng):
    return random_corpus(rng, ("DET", "NOUN", "VERB"), 12, max_len=5, min_len=1)


def _fast_cfg(**kw):
    base = dict(
        mode="joint",
        outer_iters=2,
        extra_separate_iters=1,
        em_pretrain_iters=3,
        fw_pretrain_iters=5,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="bogus")
    with pytest.raises(ValueError):
        TrainConfig(outer_iters=0)
    with pytest.raises(ValueError):
        TrainConfig(extra_separate_iters=-1)
    for key, value in [
        ("em_pretrain_iters", -1), ("fw_pretrain_iters", -1),
        ("mstep_smoothing", -0.5), ("mstep_smoothing", 0.0),
        ("mstep_smoothing", math.inf),
        ("mstep_smoothing", math.nan), ("g_weight", math.nan),
        ("g_weight", -math.inf), ("workers", 0),
    ]:
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})


def test_discriminative_terms_are_built_once(small_corpus, monkeypatch):
    # The joint objective scores with the optimizer's terms and builds none;
    # joint decoding gathers its arc scores from the weight sums, and finds
    # each sentence's arc classes and builds its rule matrix exactly once.
    # Both run on a batch of rows at a time; the count is of rows.
    cfg = _fast_cfg()
    state = pretrain(small_corpus, cfg)
    calls = collections.Counter()
    for name in ("_arc_classes", "rule_vector"):
        def counted(enc, *args, _fn=getattr(cmst, name), _name=name):
            calls[_name] += len(enc.lengths)
            return _fn(enc, *args)
        monkeypatch.setattr(cmst, name, counted)
    trees = trainer._decode_all(small_corpus, state, cfg)
    assert calls == {"_arc_classes": small_corpus.N, "rule_vector": small_corpus.N}
    calls.clear()
    joint_objective(small_corpus, state, cfg, trees)
    assert not calls


def test_corpus_lmo_callers_make_one_engine_call(small_corpus, monkeypatch):
    # Each Frank-Wolfe step, `decode_corpus(..., "cmst")` and the
    # dmv-init-from-cmst baseline decode the whole corpus in one engine call,
    # with the trees that decoding each sentence alone gives.
    calls = []

    def counted(lengths, costs, _fn=cmst.eisner_min):
        calls.append(len(lengths))
        return _fn(lengths, costs)

    monkeypatch.setattr(cmst, "eisner_min", counted)
    N = small_corpus.N
    cfg = _fast_cfg(mode="dmv-init-from-cmst")
    state = train(small_corpus, cfg)
    assert calls == [N] * (cfg.fw_pretrain_iters + 1)
    calls.clear()
    trees = decode_corpus(small_corpus, state, cfg, decoder="cmst")
    assert calls == [N]
    assert trees == state.trees
    alone = [
        decode_corpus(Corpus((s,), small_corpus.pos_vocab), state, cfg, "cmst")[0]
        for s in small_corpus
    ]
    assert trees == alone


def test_pretrain_produces_valid_models(small_corpus):
    state = pretrain(small_corpus, _fast_cfg())
    state.theta.validate()
    assert state.model.w.shape == (state.model.templates.dimension,)
    assert np.isfinite(state.model.w).all()


def test_joint_train_runs_and_reports(small_corpus):
    state = joint_train(small_corpus, _fast_cfg())
    assert state.iteration >= 1
    assert len(state.trees) == small_corpus.N
    assert list(state.stats) == ["joint_objective"]
    assert math.isfinite(state.stats["joint_objective"])
    for sent, tree in zip(small_corpus, state.trees):
        assert len(tree.heads) == sent.n


def test_joint_train_is_deterministic(small_corpus, tmp_path):
    cfg = _fast_cfg()
    a = joint_train(small_corpus, cfg, tmp_path / "a")
    b = joint_train(small_corpus, cfg, tmp_path / "b")
    assert [t.heads for t in a.trees] == [t.heads for t in b.trees]
    for name in ("dmv.txt", "cmst.txt", "trees.conllu", "../metrics.csv"):
        fa = (tmp_path / "a" / f"iter{a.iteration:03d}" / name).resolve()
        fb = (tmp_path / "b" / f"iter{b.iteration:03d}" / name).resolve()
        assert fa.read_bytes() == fb.read_bytes()


def test_checkpoints_written_per_iteration(small_corpus, tmp_path):
    cfg = _fast_cfg(outer_iters=3)
    state = joint_train(small_corpus, cfg, tmp_path)
    for it in range(1, state.iteration + 1):
        d = tmp_path / f"iter{it:03d}"
        assert (d / "dmv.txt").exists()
        assert (d / "cmst.txt").exists()
        assert (d / "trees.conllu").exists()
    metrics = (tmp_path / "metrics.csv").read_bytes()
    assert b"\r" not in metrics  # lines end with \n, as in every other file
    lines = metrics.decode().splitlines()
    assert lines[0] == "iteration,joint_objective"
    assert len(lines) == state.iteration + 1


def test_joint_run_at_default_settings_keeps_every_grammar_positive(
    rng, tmp_path, monkeypatch
):
    # PUNCT only ever stands alone, so no tree attaches it: unsmoothed EM
    # would give it attach probability 0, and the joint objective, whose
    # Dirichlet prior reads every probability, would be +inf. MAP-EM and the
    # smoothed M-step leave no zero, so every checkpoint's grammar passes
    # the strict loader, and the objective is finite before every update and
    # recomputed from every checkpoint.
    small = random_corpus(rng, ("DET", "NOUN", "VERB"), 12, max_len=5)
    punct = make_sentence(["PUNCT"])
    c = Corpus((*small.sentences, punct, punct), ("DET", "NOUN", "PUNCT", "VERB"))
    cfg = TrainConfig()
    objectives = []

    def recorded(*args, _fn=trainer.joint_objective):
        objectives.append(_fn(*args))
        return objectives[-1]

    monkeypatch.setattr(trainer, "joint_objective", recorded)
    state = joint_train(c, cfg, tmp_path)
    j_before = objectives[::2]
    assert len(j_before) == state.iteration >= 2
    assert all(map(math.isfinite, objectives))
    for it in range(1, state.iteration + 1):
        d = tmp_path / f"iter{it:03d}"
        theta = dmv.DmvParams.load(d / "dmv.txt")
        model = cmst.CmstModel.load(d / "cmst.txt")
        trees = [DepTree(x.gold_heads()) for x in read_conllu(d / "trees.conllu")]
        again = TrainState(theta, model, optimizer=cmst.FrankWolfeOptimizer(c, model))
        assert math.isfinite(joint_objective(c, again, cfg, trees))


def _nudged(theta, t, ds):
    """theta mixed with the uniform tables by weight t, stop then shifted
    by ds."""
    V = theta.V
    return dmv.DmvParams(
        theta.vocab,
        (1 - t) * theta.root + t / V,
        (1 - t) * theta.attach + t / V,
        (1 - t) * theta.stop + t / 2 + ds,
    )


def test_parameter_update_does_not_increase_objective(small_corpus):
    # At fixed trees the smoothed M-step is the exact minimizer of the
    # grammar's part of the joint objective (its Dirichlet prior included)
    # and the ridge solve that of the discriminative part, so one block can
    # only lower the objective. Pretraining's MAP-EM leaves no zero, so the
    # objective before each update is finite.
    cfg = _fast_cfg()
    state = pretrain(small_corpus, cfg)
    opt = state.optimizer
    for _ in range(2):
        trees = trainer._decode_all(small_corpus, state, cfg)
        before = joint_objective(small_corpus, state, cfg, trees)
        assert math.isfinite(before)
        state.theta = dmv.mstep_from_trees(small_corpus, trees, cfg.mstep_smoothing)
        opt.fit_trees(trees)
        after = joint_objective(small_corpus, state, cfg, trees)
        assert math.isfinite(after)
        assert after <= before + 1e-9

    # Moving off the update raises the objective: w scaled either way;
    # theta toward and away from uniform, and with stop shifted either way.
    best_theta, best_w = state.theta, state.model.w
    for scale in (1.01, 0.99):
        state.model.w = best_w * scale
        again = joint_objective(small_corpus, state, cfg, trees)
        assert again > after
    state.model.w = best_w
    for t, ds in [(1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-4), (0.0, -1e-4)]:
        state.theta = _nudged(best_theta, t, ds)
        again = joint_objective(small_corpus, state, cfg, trees)
        assert again > after


@pytest.mark.parametrize("eps", [0.1, 1.0])
def test_joint_objective_equals_the_per_sentence_sum(small_corpus, eps):
    # Frank-Wolfe's objective at the decoded trees, added to the grammar's
    # terms, is the sum of each sentence's F + G, before and after the
    # parameter update.
    cfg = _fast_cfg(mstep_smoothing=eps, g_weight=0.7)
    state = pretrain(small_corpus, cfg)
    trees = trainer._decode_all(small_corpus, state, cfg)
    for _ in range(2):
        got = joint_objective(small_corpus, state, cfg, trees)
        want = joint_objective_reference(small_corpus, state, cfg, trees)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        state.theta = dmv.mstep_from_trees(small_corpus, trees, eps)
        state.optimizer.fit_trees(trees)
    assert math.isfinite(got)

    def check(theta, trees):
        state.theta = theta
        got = joint_objective(small_corpus, state, cfg, trees)
        want = joint_objective_reference(small_corpus, state, cfg, trees)
        if math.isinf(want):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        return got

    # Trees deeper than the depth cap, under a grammar with no zero: the
    # counts carry no cap.
    theta = dmv.mstep_from_trees(small_corpus, trees, 0.1)
    deep = [max(map(DepTree, all_projective_heads(x.n)), key=dmv.ce_depth)
            for x in small_corpus]
    assert max(map(dmv.ce_depth, deep)) > cfg.constraint.max_ce_depth
    assert math.isfinite(check(theta, deep))

    # A zero probability that the trees use gives +inf on both sides, and
    # so do zero probabilities that no tree uses, through the prior.
    counts = dmv.tree_counts(small_corpus, trees, theta)
    wi = dmv._WeightIndex(theta.V)
    root = theta.root.copy()
    root[counts[: wi.attach_off] > 0] = 0.0
    assert check(dmv.DmvParams(theta.vocab, root, theta.attach, theta.stop),
                 trees) == math.inf
    unused = counts[wi.attach_off : wi.stop_off] == 0
    assert unused.any()
    attach = theta.attach.copy()
    attach.reshape(-1)[unused] = 0.0
    got = check(dmv.DmvParams(theta.vocab, theta.root, attach, theta.stop), trees)
    assert got == math.inf


@pytest.mark.parametrize("beta", [0.0, 0.3])
@pytest.mark.parametrize("cap", [None, 0, 1])
def test_fixed_tree_scores_under_impossible_events(rng, cap, beta):
    # A grammar with zero attach, stop and continue probabilities: A never
    # takes B as a right child, B never stops after a left child and A never
    # takes a second right child. Over every projective tree, tree_logprob
    # is the reference walker's score, and -inf (not NaN) where a used event
    # is impossible; the unsmoothed grammar cost `dmv.tree_cost`, which
    # knows no cap, is +inf exactly there. Any 0 * log 0 would raise a
    # RuntimeWarning.
    vocab = ("A", "B")
    theta = random_dmv_params(rng, vocab)
    attach, stop = theta.attach.copy(), theta.stop.copy()
    attach[0, dmv.RIGHT, 1] = 0.0
    attach /= attach.sum(axis=2, keepdims=True)
    stop[1, dmv.LEFT, dmv.HAS_CHILD] = 0.0
    stop[0, dmv.RIGHT, dmv.HAS_CHILD] = 1.0
    theta = dmv.DmvParams(vocab, theta.root, attach, stop)
    cfg, lifted = ConstraintConfig(cap, beta), ConstraintConfig(None, beta)
    impossible = []
    for tags in (["B"], ["A", "B"], ["B", "A", "B"], ["A", "A", "B", "A"]):
        x = make_sentence(tags)
        c = Corpus((x,), vocab)
        for tree in all_projective_trees(x.n):
            got = tree_logprob(x, tree, theta, cfg)
            want = tree_logprob_reference(x, tree, theta, cfg)
            if want == -math.inf:
                assert got == -math.inf
            else:
                assert got == pytest.approx(want, rel=0.0, abs=1e-12)
            uncapped = tree_logprob_reference(x, tree, theta, lifted)
            impossible.append(uncapped == -math.inf)
            cost = dmv.tree_cost(c, [tree], theta, 0.0, beta)
            assert (cost == math.inf) == impossible[-1]
            assert math.isfinite(cost) == (not impossible[-1])
    assert any(impossible) and not all(impossible)


def test_joint_weights_leave_the_separate_path(small_corpus):
    # Joint training re-solves w from the agreement-decoded trees, so its
    # weights differ from those of the same number of plain Frank-Wolfe
    # steps after the same pretraining.
    cfg = _fast_cfg(extra_separate_iters=1)
    joint = joint_train(small_corpus, cfg)
    separate = train(small_corpus, _fast_cfg(
        mode="cmst-only",
        fw_pretrain_iters=cfg.fw_pretrain_iters + joint.iteration,
    ))
    assert float(np.abs(joint.model.w - separate.model.w).max()) > 1e-6


def test_mode_dispatch(small_corpus):
    s = train(small_corpus, _fast_cfg(mode="dmv-only", outer_iters=1))
    assert s.theta is not None and s.model is None
    s = train(small_corpus, _fast_cfg(mode="cmst-only"))
    assert s.theta is None and s.model is not None
    s = train(small_corpus, _fast_cfg(mode="dmv-init-from-cmst", outer_iters=1))
    assert s.theta is not None and s.model is not None
    assert len(s.trees) == small_corpus.N


def test_mode_mismatch_raises(small_corpus):
    with pytest.raises(ValueError):
        joint_train(small_corpus, _fast_cfg(mode="dmv-only"))
    with pytest.raises(ValueError):
        trainer.train_baseline_d_init(small_corpus, _fast_cfg(mode="joint"))


def test_decode_corpus_decoders(small_corpus):
    state = pretrain(small_corpus, _fast_cfg())
    cfg = _fast_cfg()
    for decoder in ("dmv", "cmst", "dd"):
        trees = decode_corpus(small_corpus, state, cfg, decoder=decoder)
        assert len(trees) == small_corpus.N
        for sent, tree in zip(small_corpus, trees):
            assert len(tree.heads) == sent.n
    with pytest.raises(ValueError):
        decode_corpus(small_corpus, state, cfg, decoder="bogus")


def test_decode_corpus_dmv_decodes_groups(rng, monkeypatch):
    # One batched Viterbi pass per length group, with the trees of decoding
    # each sentence alone. Under a strictly positive grammar every sentence
    # has a tree under the depth cap, so no group takes a second pass.
    c = Corpus(
        tuple(make_sentence(["B"] * k + ["C"]) for k in (2, 1, 3, 1)),
        ("A", "B", "C"),
    )
    state = TrainState(random_dmv_params(rng, c.pos_vocab), None)
    cfg = _fast_cfg(constraint=ConstraintConfig(0, 0.1))
    alone = [viterbi_decode(x, state.theta, cfg.constraint)[0] for x in c]
    passes = []

    def counted(s, *args, _fn=dmv.viterbi_batch):
        passes.append(len(s.goals))
        return _fn(s, *args)

    monkeypatch.setattr(dmv, "viterbi_batch", counted)
    assert decode_corpus(c, state, cfg, decoder="dmv") == alone
    assert passes == [4]
    passes.clear()
    monkeypatch.setattr(dmv, "_GROUP_EDGES", 1)
    assert decode_corpus(c, state, cfg, decoder="dmv") == alone
    assert passes == [1, 1, 1, 1]


def test_parallel_decode_matches_serial(small_corpus):
    # Joint decoding and the grammar alone, as `parse --decoder dmv`
    # decodes: the same trees on two workers as on one; the
    # grammar's trees are those of decoding each sentence alone.
    cfg = _fast_cfg()
    state = pretrain(small_corpus, cfg)
    for decoder in ("dd", "dmv"):
        serial = trainer._decode_all(small_corpus, state, cfg, decoder)
        assert serial == trainer._decode_all(
            small_corpus, state, _fast_cfg(workers=2), decoder
        )
    assert serial == [
        viterbi_decode(x, state.theta, cfg.constraint)[0] for x in small_corpus
    ]


def test_dmv_only_improves_likelihood(small_corpus):
    cfg = _fast_cfg(mode="dmv-only", em_pretrain_iters=0, outer_iters=5)
    theta0 = dmv.init_params(small_corpus, cfg.init)
    ll0 = sum(
        inside_loglik(s, theta0, cfg.constraint) for s in small_corpus
    )
    state = train(small_corpus, cfg)
    ll1 = sum(
        inside_loglik(s, state.theta, cfg.constraint) for s in small_corpus
    )
    assert ll1 >= ll0 - 1e-9


def test_state_save_without_trees(small_corpus, tmp_path):
    state = TrainState(None, cmst.CmstModel.create(small_corpus.pos_vocab))
    state.save(tmp_path)
    assert (tmp_path / "cmst.txt").exists()
    assert not (tmp_path / "dmv.txt").exists()


def _counted_compiles(monkeypatch):
    """Patch `dmv._compile` to record each call's key and a weak reference
    to the layout it returns."""
    compile_, calls = dmv._compile, []

    def counted(lengths, cap):
        s = compile_(lengths, cap)
        calls.append(((lengths, cap), weakref.ref(s)))
        return s

    monkeypatch.setattr(dmv, "_compile", counted)
    return calls


def _sentences(rng, lengths, vocab=("DET", "NOUN", "VERB")):
    return Corpus(tuple(make_sentence([vocab[i] for i in rng.integers(0, 3, size=n)])
                        for n in lengths), vocab)


def test_one_shot_decode_keeps_one_layout_at_a_time(rng, monkeypatch):
    # Three groups, 25, 22 and 19 + 16, and each group's layout is dropped
    # before the next is compiled: when the decode returns, no layout is
    # reachable, and decoding all four peaks about as high as decoding the
    # longest alone (whose templates a first decode cached).
    c = _sentences(rng, (25, 22, 19, 16))
    longest = Corpus(c.sentences[:1], c.pos_vocab)
    state = TrainState(random_dmv_params(rng, c.pos_vocab),
                       cmst.CmstModel.create(c.pos_vocab))
    cfg = TrainConfig()
    decode_corpus(longest, state, cfg, "dd")
    calls = _counted_compiles(monkeypatch)
    peaks = []
    for corpus in (longest, c):
        gc.collect()
        tracemalloc.start()
        try:
            decode_corpus(corpus, state, cfg, "dd")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert [key for key, _ in calls] == [
        ((25,), 1), ((25,), 1), ((22,), 1), ((19, 16), 1)]
    gc.collect()
    assert all(ref() is None for _, ref in calls)
    assert not any(isinstance(o, dmv._Structure) for o in gc.get_objects())
    assert peaks[1] <= 1.1 * peaks[0]


def test_one_shot_decode_compiles_a_shared_layout_once(rng, monkeypatch):
    # 60 sentences of length 25 are 60 groups of one layout.
    c = _sentences(rng, [25] * 60)
    state = TrainState(random_dmv_params(rng, c.pos_vocab), None)
    calls = _counted_compiles(monkeypatch)
    trees = decode_corpus(c, state, TrainConfig(), "dmv")
    assert [key for key, _ in calls] == [((25,), 1)]
    assert [t.n for t in trees] == [25] * 60


def test_joint_run_compiles_each_group_layout_once(rng, monkeypatch):
    # EM pretraining, then two outer iterations of joint decoding and EM,
    # all on the run's layouts: one compile per distinct group, and two
    # groups of one sentence of length 20 share one.
    c = random_corpus(rng, ("DET", "NOUN", "VERB"), 50, max_len=20)
    cfg = _fast_cfg(fw_pretrain_iters=2)
    n = c.encoding.lengths
    groups = [(tuple(n[i] for i in g), 1) for g in dmv.length_groups(n, 1)]
    keys = set(groups)
    assert len(keys) > 5 and groups.count(((20,), 1)) == 2
    calls = _counted_compiles(monkeypatch)
    state = joint_train(c, cfg)
    assert state.iteration == 2
    assert sorted(key for key, _ in calls) == sorted(keys)
