"""End-to-end acceptance gate.

Each numbered test checks one release criterion against independent
brute-force oracles and prints a single PASS/FAIL line.  Criteria 9 and 10
need real treebank data and are skipped unless JOINTDEP_UD_ENGLISH points
at a directory containing train.conllu and test.conllu.
"""

import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    all_projective_trees,
    encode,
    extract_features,
    flat_costs,
    inside_loglik,
    logsumexp,
    make_sentence,
    price_matrix,
    random_corpus,
    random_dmv_params,
    rule_matrix,
    sentence_gradient,
    span_nesting_depth,
    tree_logprob,
    tree_matrix,
    viterbi_decode,
    UNCONSTRAINED,
)

from jointdep import cmst, dmv, evaluation, trainer
from jointdep.cli import EXIT_OK, run
from jointdep.cmst import CmstModel
from jointdep.corpus import (
    Corpus,
    DepTree,
    filter_corpus,
    read_conllu,
    write_conllu_file,
)
from jointdep.dmv import ConstraintConfig

VOCAB = ("DET", "NOUN", "VERB", "ADJ")

CONFIGS = (
    UNCONSTRAINED,
    ConstraintConfig(max_ce_depth=None, dep_len_beta=0.1),
    ConstraintConfig(max_ce_depth=1, dep_len_beta=0.0),
    ConstraintConfig(max_ce_depth=1, dep_len_beta=0.1),
)


# One line per criterion, echoed into the terminal summary by conftest.
RESULT_LINES: list[str] = []


def _report(num: int, ok: bool, detail: str):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULT_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


def _random_instance(rng, lo=1, hi=5):
    n = int(rng.integers(lo, hi + 1))
    tags = [VOCAB[i] for i in rng.integers(0, len(VOCAB), size=n)]
    return make_sentence(tags)


def test_criterion_1_chart_vs_oracle(rng):
    start = time.monotonic()
    worst_v = worst_i = 0.0
    for trial in range(200):
        x = _random_instance(rng)
        theta = random_dmv_params(rng, VOCAB)
        cfg = CONFIGS[trial % len(CONFIGS)]
        scores = [
            tree_logprob(x, t, theta, cfg)
            for t in all_projective_trees(x.n)
        ]
        finite = [s for s in scores if s > -math.inf]
        if finite:
            tree, score = viterbi_decode(x, theta, cfg)
            # viterbi_decode returns min over trees of -logprob + u.y (u = 0).
            worst_v = max(worst_v, abs(score - -max(finite)))
            assert tree_logprob(x, tree, theta, cfg) == pytest.approx(
                max(finite), abs=1e-9
            )
        else:
            with pytest.raises(dmv.InfeasibleParseError):
                viterbi_decode(x, theta, cfg)
        want = logsumexp(scores)
        got = inside_loglik(x, theta, cfg)
        if want == -math.inf:
            assert got == -math.inf
        else:
            worst_i = max(worst_i, abs(got - want))
    elapsed = time.monotonic() - start
    ok = worst_v < 1e-9 and worst_i < 1e-8 and elapsed < 120
    _report(1, ok, f"200 instances, viterbi err {worst_v:.2e}, "
                   f"inside err {worst_i:.2e}, {elapsed:.1f}s")


def test_criterion_2_lmo_vs_oracle(rng):
    worst = 0.0
    for _ in range(200):
        x = _random_instance(rng)
        m = CmstModel.create(VOCAB, mu=float(rng.uniform(0.0, 2.0)))
        m.w = rng.normal(scale=0.7, size=m.w.shape)
        u = (price_matrix(rng.normal(size=x.n * x.n), x.n)
             if rng.random() < 0.5 else None)
        costs = cmst.arc_costs(encode([x]), m).reshape(x.n + 1, x.n + 1)
        if u is None:
            [(heads, score)] = cmst.eisner_min(*flat_costs([costs]))
            tree = DepTree(heads)
        else:
            costs = costs - u
            [(heads, score)] = cmst.eisner_min(*flat_costs([costs]))
            tree = DepTree(heads)
        best = min(
            float(np.vdot(costs, tree_matrix(t)))
            for t in all_projective_trees(x.n)
        )
        worst = max(worst, abs(score - best),
                    abs(float(np.vdot(costs, tree_matrix(tree))) - best))
    _report(2, worst < 1e-9, f"200 instances, max err {worst:.2e}")


def _joint_cost(x, tree, theta, cfg, m):
    y = tree_matrix(tree)
    X = extract_features([x], m.templates)
    v = rule_matrix(x, m.rules)
    resid = y.ravel() - X @ m.w
    g = float(resid @ resid) / (2 * x.n) - m.mu * float(np.vdot(v, y))
    return -tree_logprob(x, tree, theta, cfg) + g


def test_criterion_3_dd_certificate(rng):
    worst = 0.0
    for _ in range(100):
        x = _random_instance(rng, 1, 4)
        theta = random_dmv_params(rng, VOCAB)
        m = CmstModel.create(VOCAB, mu=float(rng.uniform(0.0, 1.0)))
        m.w = rng.normal(scale=0.4, size=m.w.shape)
        [tree] = trainer.decode_corpus(
            Corpus((x,), VOCAB), trainer.TrainState(theta, m),
            trainer.TrainConfig(constraint=UNCONSTRAINED),
        )
        best = min(
            c for c in (
                _joint_cost(x, t, theta, UNCONSTRAINED, m)
                for t in all_projective_trees(x.n)
            ) if math.isfinite(c)
        )
        got = _joint_cost(x, tree, theta, UNCONSTRAINED, m)
        worst = max(worst, abs(got - best))
    _report(3, worst < 1e-9, f"100 instances, 100 checked, max err {worst:.2e}")


def test_criterion_4_em_monotone(rng):
    c = random_corpus(rng, VOCAB, 100, max_len=7, min_len=1)
    theta = dmv.init_params(c, "harmonic")
    prev = None
    worst = 0.0
    for _ in range(20):
        theta, ll = dmv.em_step(c, theta, UNCONSTRAINED, 0.0)
        if prev is not None:
            worst = min(worst, ll - prev)
        prev = ll
    _report(4, worst >= -1e-10, f"20 iterations, worst delta {worst:.2e}")


def test_criterion_5_fw_monotone_and_gap(rng):
    c = random_corpus(rng, VOCAB, 100, max_len=7, min_len=1)
    m = CmstModel.create(c.pos_vocab)
    opt = cmst.FrankWolfeOptimizer(c, m)
    opt.run(50)
    hist = opt.objective_history
    worst = min(b - a for a, b in zip(hist[1:], hist))
    first_gap, last_gap = opt.gap_history[0], opt.gap_history[-1]
    ok = (worst >= -1e-10 and last_gap >= 0
          and last_gap < 0.1 * first_gap)
    _report(5, ok, f"50 iterations, worst rise {max(0.0, -worst):.2e}, "
                   f"gap {first_gap:.4g} -> {last_gap:.4g}")


def test_criterion_6_gradient_check(rng):
    worst = 0.0
    h = 1e-5
    for _ in range(50):
        x = _random_instance(rng, 2, 5)
        m = CmstModel.create(
            VOCAB, lam=float(rng.uniform(0.1, 2.0)),
            mu=float(rng.uniform(0.0, 1.0)),
        )
        m.w = rng.normal(scale=0.4, size=m.w.shape)
        trees = all_projective_trees(x.n)
        tree = trees[int(rng.integers(len(trees)))]
        N = int(rng.integers(1, 20))
        g = sentence_gradient(
            extract_features([x], m.templates), tree_matrix(tree), m, N
        )
        # The objective Frank-Wolfe trains, at N copies of the tree, over N:
        # the sentence's loss plus its share (lam/2N)||w||^2 of the ridge.
        opt = cmst.FrankWolfeOptimizer(Corpus((x,) * N, VOCAB), m)
        for j in rng.integers(0, m.w.size, size=10):
            w0 = m.w[j]
            m.w[j] = w0 + h
            fp = opt.objective(trees=[tree] * N) / N
            m.w[j] = w0 - h
            fm = opt.objective(trees=[tree] * N) / N
            m.w[j] = w0
            fd = (fp - fm) / (2 * h)
            worst = max(worst, abs(fd - g[j]) / max(1.0, abs(fd)))
    _report(6, worst < 1e-6, f"50 instances, max rel err {worst:.2e}")


def test_criterion_7_normalization_and_structure(rng):
    c = random_corpus(rng, VOCAB, 30, max_len=6, min_len=1)
    theta = dmv.init_params(c, "harmonic")
    # Every emitted parameter set stays normalized.
    norm_err = 0.0

    def check_norm(p):
        nonlocal norm_err
        norm_err = max(
            norm_err,
            abs(p.root.sum() - 1.0),
            float(np.abs(p.attach.sum(axis=2) - 1.0).max()),
        )

    check_norm(theta)
    for _ in range(3):
        theta, _ = dmv.em_step(c, theta, UNCONSTRAINED, 0.0)
        check_norm(theta)
    for eps in (0.0, 0.1):
        trees = [viterbi_decode(s, theta, UNCONSTRAINED)[0] for s in c]
        check_norm(dmv.mstep_from_trees(c, trees, eps))

    # Fuzz decodes: projectivity, single-rootedness, and the depth cap.
    decodes = 0
    cap_violations = 0
    m = CmstModel.create(VOCAB)
    m.w = rng.normal(scale=0.3, size=m.w.shape)
    while decodes < 1000:
        x = _random_instance(rng, 1, 6)
        theta_i = random_dmv_params(rng, VOCAB)
        cap = [None, 0, 1][decodes % 3]
        cfg = ConstraintConfig(cap, 0.1 * (decodes % 2))
        try:
            tree, _ = viterbi_decode(x, theta_i, cfg)
        except dmv.InfeasibleParseError:
            continue
        # DepTree construction validates projectivity and single-rootedness;
        # re-derive the depth with the independent oracle.
        if cap is not None and span_nesting_depth(tree.heads) > cap:
            cap_violations += 1
        decodes += 1
        if decodes % 4 == 0:
            [tree] = trainer.decode_corpus(
                Corpus((x,), VOCAB), trainer.TrainState(theta_i, m),
                trainer.TrainConfig(constraint=cfg),
            )
            d = span_nesting_depth(tree.heads)
            if cap is not None and d > cap:
                cap_violations += 1
            decodes += 1
    ok = norm_err < 1e-12 and cap_violations == 0
    _report(7, ok, f"norm err {norm_err:.2e}, {decodes} decodes, "
                   f"{cap_violations} cap violations")


def test_criterion_8_determinism(tmp_path, rng):
    c = random_corpus(rng, ("DET", "NOUN", "VERB"), 10, max_len=6, min_len=1)
    train_file = tmp_path / "toy.conllu"
    trees = [
        DepTree(tuple(0 if i == 0 else 1 for i in range(s.n))) for s in c
    ]
    write_conllu_file(c, trees, train_file)
    flags = [
        "--mode", "joint", "--outer-iters", "3",
        "--em-pretrain-iters", "3", "--fw-pretrain-iters", "10",
        "--extra-separate-iters", "1",
    ]
    for out in ("a", "b"):
        rc = run(["train", "--train", str(train_file),
                  "--out", str(tmp_path / out)] + flags)
        assert rc == EXIT_OK
    identical = True
    names_a = sorted(
        p.relative_to(tmp_path / "a")
        for p in (tmp_path / "a").rglob("*") if p.is_file()
    )
    names_b = sorted(
        p.relative_to(tmp_path / "b")
        for p in (tmp_path / "b").rglob("*") if p.is_file()
    )
    identical = names_a == names_b and all(
        (tmp_path / "a" / rel).read_bytes()
        == (tmp_path / "b" / rel).read_bytes()
        for rel in names_a
    )
    _report(8, identical,
            f"{len(names_a)} checkpoint files byte-compared")


# ---------------------------------------------------------------------------
# Desk-scale quantitative criteria (need real treebank data).
# ---------------------------------------------------------------------------

_UD_DIR = os.environ.get("JOINTDEP_UD_ENGLISH")
_ud = pytest.mark.skipif(
    not _UD_DIR,
    reason="set JOINTDEP_UD_ENGLISH to a directory with train.conllu and "
    "test.conllu to run the treebank criteria",
)
if not _UD_DIR:
    RESULT_LINES.append("CRITERION 9: SKIP (needs JOINTDEP_UD_ENGLISH data)")
    RESULT_LINES.append("CRITERION 10: SKIP (needs JOINTDEP_UD_ENGLISH data)")


def _ud_models(tmp_path_factory):
    base = tmp_path_factory.getbasetemp() / "ud"
    train = Path(_UD_DIR) / "train.conllu"
    c = filter_corpus(read_conllu(train), 15, count_punct=True)
    assert c.N >= 2000, f"need >= 2000 training sentences, got {c.N}"
    cfg_d = trainer.TrainConfig(mode="dmv-only")
    cfg_j = trainer.TrainConfig(mode="joint", workers=os.cpu_count() or 1)
    state_d = trainer.train(c, cfg_d, base / "d")
    state_j = trainer.train(c, cfg_j, base / "j")
    return c, cfg_j, state_d, state_j


@pytest.fixture(scope="module")
def ud_run(tmp_path_factory):
    return _ud_models(tmp_path_factory)


@_ud
def test_criterion_9_joint_beats_separate(ud_run):
    _, cfg, state_d, state_j = ud_run
    test_c = read_conllu(Path(_UD_DIR) / "test.conllu")
    pred_d = trainer.decode_corpus(test_c, state_d, cfg, decoder="dmv")
    pred_j = trainer.decode_corpus(test_c, state_j, cfg, decoder="dmv")
    acc_d = evaluation.directed_accuracy(test_c, pred_d, 40).dda_all
    acc_j = evaluation.directed_accuracy(test_c, pred_j, 40).dda_all
    delta = 100 * (acc_j - acc_d)
    _report(9, delta >= 2.0,
            f"directed accuracy {100 * acc_d:.1f} -> {100 * acc_j:.1f}")


@_ud
def test_criterion_10_structural_directions(ud_run):
    c, cfg, state_d, state_j = ud_run
    cfg_m = trainer.TrainConfig(mode="cmst-only")
    state_m = trainer.train(c, cfg_m)
    pred_m = trainer.decode_corpus(c, state_m, cfg_m, decoder="cmst")
    pred_mj = trainer.decode_corpus(c, state_j, cfg, decoder="cmst")
    len_sep = evaluation.avg_dep_length(pred_m)
    len_joint = evaluation.avg_dep_length(pred_mj)

    rules = cmst.default_rules()
    pred_d = trainer.decode_corpus(c, state_d, cfg, decoder="dmv")
    pred_dj = trainer.decode_corpus(c, state_j, cfg, decoder="dmv")
    sat_sep = evaluation.rule_satisfaction(pred_d, c, rules)[0]
    sat_joint = evaluation.rule_satisfaction(pred_dj, c, rules)[0]
    ok = len_joint < len_sep and sat_joint > sat_sep
    _report(10, ok,
            f"dep length {len_sep:.3f} -> {len_joint:.3f}, "
            f"rule satisfaction {sat_sep:.3f} -> {sat_joint:.3f}")
