"""Training orchestration: pretraining, coordinate-descent joint training,
and the separately trained baseline modes."""

from __future__ import annotations

import csv
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import cmst, dmv
from .corpus import Corpus, DepTree, Sentence, tree_matrix, write_conllu_file
from .decoder import DDConfig, DDResult, dd_decode

log = logging.getLogger(__name__)

MODES = ("dmv-only", "cmst-only", "dmv-init-from-cmst", "joint")


@dataclass
class TrainConfig:
    mode: str = "joint"
    outer_iters: int = 10
    extra_separate_iters: int = 3
    em_pretrain_iters: int = 10
    fw_pretrain_iters: int = 50
    init: str = "harmonic"
    constraint: dmv.ConstraintConfig = field(default_factory=dmv.ConstraintConfig)
    lam: float = 1.0
    mu: float = 0.5
    dd: DDConfig = field(default_factory=DDConfig)
    mstep_smoothing: float = 0.1
    g_weight: float = 1.0
    rules: cmst.RuleSet | None = None
    workers: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be >= 1")
        if self.extra_separate_iters < 0:
            raise ValueError("extra_separate_iters must be >= 0")


@dataclass
class TrainState:
    theta: dmv.DmvParams | None
    model: cmst.CmstModel | None
    trees: list[DepTree] | None = None
    iteration: int = 0
    stats: dict = field(default_factory=dict)
    # The Frank-Wolfe optimizer that trains `model`, kept so that joint
    # training continues from its features and factored ridge matrix.
    optimizer: cmst.FrankWolfeOptimizer | None = field(default=None, repr=False)

    def save(self, out_dir, corpus: Corpus | None = None) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if self.theta is not None:
            self.theta.save(out / "dmv.txt")
        if self.model is not None:
            self.model.save(out / "cmst.txt")
        if self.trees is not None and corpus is not None:
            write_conllu_file(corpus, self.trees, out / "trees.conllu")


# ---------------------------------------------------------------------------
# Pretraining and baselines
# ---------------------------------------------------------------------------

def _pretrain_dmv(c: Corpus, cfg: TrainConfig) -> dmv.DmvParams:
    theta = dmv.init_params(c, cfg.init)
    diag: dict = {}
    for i in range(cfg.em_pretrain_iters):
        theta, ll = dmv.em_step(c, theta, cfg.constraint, 0.0, diag)
        if diag.get("skipped"):
            log.info("EM iter %d: skipped %d infeasible sentences", i, diag["skipped"])
    return theta


def _pretrain_cmst(c: Corpus, cfg: TrainConfig) -> cmst.FrankWolfeOptimizer:
    model = cmst.CmstModel.create(c.pos_vocab, cfg.lam, cfg.mu, cfg.rules)
    opt = cmst.FrankWolfeOptimizer(c, model)
    if cfg.fw_pretrain_iters > 0:
        opt.run(cfg.fw_pretrain_iters)
    return opt


def pretrain(c: Corpus, cfg: TrainConfig) -> TrainState:
    """Train both models separately with their own algorithms."""
    theta = _pretrain_dmv(c, cfg)
    opt = _pretrain_cmst(c, cfg)
    return TrainState(theta, opt.model, optimizer=opt)


def train_baseline_d_init(c: Corpus, cfg: TrainConfig) -> TrainState:
    """Train the discriminative model, parse the training data with it, use
    the parses to initialize the generative model, then train with EM."""
    if cfg.mode != "dmv-init-from-cmst":
        raise ValueError(f"expected mode dmv-init-from-cmst, got {cfg.mode!r}")
    opt = _pretrain_cmst(c, cfg)
    model = opt.model
    trees = [cmst.lmo_decode(s, model, features=f)[0] for s, f in zip(c, opt.X)]
    theta = dmv.mstep_from_trees(c, trees, cfg.mstep_smoothing)
    for _ in range(cfg.outer_iters):
        theta, _ = dmv.em_step(c, theta, cfg.constraint, 0.0)
    return TrainState(theta, model, trees)


# ---------------------------------------------------------------------------
# Joint training (coordinate descent with agreement decoding)
# ---------------------------------------------------------------------------

_WORKER = {}


def _decode_worker_init(theta, constraint, model, dd, g_weight):
    _WORKER["args"] = (theta, constraint, model, dd, g_weight)


def _decode_worker(sent: Sentence) -> DDResult:
    theta, constraint, model, dd, g_weight = _WORKER["args"]
    return dd_decode(sent, theta, constraint, model, dd, g_weight=g_weight)


def _decode_all(c: Corpus, state: TrainState, cfg: TrainConfig) -> list[DDResult]:
    args = (state.theta, cfg.constraint, state.model, cfg.dd, cfg.g_weight)
    if cfg.workers > 1:
        with ProcessPoolExecutor(
            max_workers=cfg.workers,
            initializer=_decode_worker_init,
            initargs=args,
        ) as pool:
            return list(pool.map(_decode_worker, c.sentences, chunksize=8))
    _decode_worker_init(*args)
    return [_decode_worker(s) for s in c]


def joint_objective(
    c: Corpus,
    state: TrainState,
    cfg: TrainConfig,
    trees: Sequence[DepTree],
    features=None,
) -> float:
    """Sum over sentences of F + G at fixed trees (w-regularizer included),
    plus the Dirichlet prior -eps * sum(log theta) over the root, attach,
    stop and continue probabilities, eps = cfg.mstep_smoothing, under which
    the smoothed `mstep_from_trees` is the exact minimizer over theta.

    The depth cap is a tree-only constant at fixed parses, so it is dropped
    here to keep the objective finite for cap-relaxed sentences.
    """
    cfg_eval = replace(cfg.constraint, max_ce_depth=None)
    total = 0.0
    for i, (sent, tree) in enumerate(zip(c, trees)):
        f = features[i] if features is not None else None
        total += -dmv.tree_logprob(sent, tree, state.theta, cfg_eval)
        total += cfg.g_weight * cmst.sentence_objective(
            sent, tree_matrix(tree), state.model, c.N, f
        )
    if cfg.mstep_smoothing:
        theta = state.theta
        with np.errstate(divide="ignore"):
            total -= cfg.mstep_smoothing * sum(
                float(np.log(p).sum())
                for p in (theta.root, theta.attach, theta.stop, 1.0 - theta.stop)
            )
    return total


def joint_train(
    c: Corpus, cfg: TrainConfig, checkpoint_dir=None
) -> TrainState:
    """Coordinate descent: agreement-decode all sentences, then minimize the
    joint objective at the decoded trees exactly (the smoothed M-step for the
    grammar, the ridge solve for the weights), then give each model a few
    separate training iterations, the Frank-Wolfe ones starting from the
    decoded trees."""
    if cfg.mode != "joint":
        raise ValueError(f"expected mode joint, got {cfg.mode!r}")
    state = pretrain(c, cfg)
    opt = state.optimizer
    prev_heads = None
    metrics_rows = []
    for it in range(1, cfg.outer_iters + 1):
        results = _decode_all(c, state, cfg)
        trees = [r.tree for r in results]
        converged = sum(r.converged for r in results)
        j_before = joint_objective(c, state, cfg, trees, opt.X)

        state.theta = dmv.mstep_from_trees(c, trees, cfg.mstep_smoothing)
        opt.fit_trees(trees)
        j_after = joint_objective(c, state, cfg, trees, opt.X)
        if j_after > j_before + 1e-9:
            log.warning(
                "parameter update increased the joint objective "
                "(%.6f -> %.6f)", j_before, j_after,
            )

        for _ in range(cfg.extra_separate_iters):
            state.theta, _ = dmv.em_step(c, state.theta, cfg.constraint, 0.0)
        if cfg.extra_separate_iters > 0:
            opt.run(cfg.extra_separate_iters)

        state.trees = trees
        state.iteration = it
        state.stats = {
            "dd_converged": converged,
            "dd_rate": converged / c.N if c.N else 0.0,
            "joint_objective": j_after,
        }
        metrics_rows.append(
            (it, j_after, state.stats["dd_rate"], sum(r.iterations for r in results))
        )
        if checkpoint_dir is not None:
            ckpt = Path(checkpoint_dir) / f"iter{it:03d}"
            state.save(ckpt, c)
            with open(Path(checkpoint_dir) / "metrics.csv", "w", newline="") as f:
                wr = csv.writer(f)
                wr.writerow(["iteration", "joint_objective", "dd_rate", "dd_iters"])
                for row in metrics_rows:
                    wr.writerow([row[0], "%.12g" % row[1], "%.6f" % row[2], row[3]])
        heads = tuple(t.heads for t in trees)
        if heads == prev_heads:
            log.info("decoded trees unchanged at iteration %d; stopping", it)
            break
        prev_heads = heads
    return state


def train(c: Corpus, cfg: TrainConfig, checkpoint_dir=None) -> TrainState:
    """Dispatch on the configured training mode."""
    if cfg.mode == "joint":
        return joint_train(c, cfg, checkpoint_dir)
    if cfg.mode == "dmv-only":
        theta = dmv.init_params(c, cfg.init)
        for _ in range(cfg.em_pretrain_iters + cfg.outer_iters):
            theta, _ = dmv.em_step(c, theta, cfg.constraint, 0.0)
        state = TrainState(theta, None)
    elif cfg.mode == "cmst-only":
        state = TrainState(None, _pretrain_cmst(c, cfg).model)
    else:
        state = train_baseline_d_init(c, cfg)
    if checkpoint_dir is not None:
        state.save(checkpoint_dir, c)
    return state


def decode_corpus(
    c: Corpus,
    state: TrainState,
    cfg: TrainConfig | None = None,
    decoder: str = "dd",
) -> list[DepTree]:
    """Parse a corpus with one model or with agreement decoding; agreement
    decoding runs on `cfg.workers` processes."""
    cfg = cfg or TrainConfig()
    if decoder == "dd":
        return [r.tree for r in _decode_all(c, state, cfg)]
    trees = []
    for sent in c:
        if decoder == "dmv":
            constraint = cfg.constraint
            try:
                tree, _ = dmv.viterbi_decode(sent, state.theta, constraint)
            except dmv.InfeasibleParseError:
                tree, _ = dmv.viterbi_decode(
                    sent, state.theta, replace(constraint, max_ce_depth=None)
                )
        elif decoder == "cmst":
            tree, _ = cmst.lmo_decode(sent, state.model)
        else:
            raise ValueError(f"unknown decoder {decoder!r}")
        trees.append(tree)
    return trees
