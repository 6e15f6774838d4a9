"""Training orchestration: pretraining, coordinate-descent joint training,
and the separately trained baseline modes."""

from __future__ import annotations

import csv
import itertools
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import cmst, dmv
from .corpus import Corpus, DepTree, write_conllu_file

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
    mstep_smoothing: float = 0.1
    g_weight: float = 1.0
    rules: cmst.RuleSet | None = None
    workers: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.init not in dmv.INITS:
            raise ValueError(f"init must be one of {dmv.INITS}, got {self.init!r}")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be >= 1")
        if self.extra_separate_iters < 0:
            raise ValueError("extra_separate_iters must be >= 0")
        if self.em_pretrain_iters < 0 or self.fw_pretrain_iters < 0:
            raise ValueError("em_pretrain_iters and fw_pretrain_iters must be >= 0")
        # Above 0 every EM and tree M-step gives every event some probability.
        if not 0 < self.mstep_smoothing < math.inf:
            raise ValueError(
                f"mstep_smoothing must be finite and > 0, got {self.mstep_smoothing}"
            )
        # Below 0 the ridge re-solve would raise g * G at the decoded trees.
        if not 0 <= self.g_weight < math.inf:
            raise ValueError(f"g_weight must be finite and >= 0, got {self.g_weight}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class TrainState:
    theta: dmv.DmvParams | None
    model: cmst.CmstModel | None
    trees: list[DepTree] | None = None
    iteration: int = 0
    stats: dict = field(default_factory=dict)
    # The Frank-Wolfe optimizer that trains `model`, kept so that joint
    # training continues from its arc classes and factored ridge system.
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

def _em(c: Corpus, theta: dmv.DmvParams, cfg: TrainConfig, iters: int,
        layouts: dict | None = None) -> dmv.DmvParams:
    """`iters` MAP-EM iterations from `theta`, smoothed by cfg.mstep_smoothing,
    on the run's chart `layouts` (see `dmv._charts`), or on their own."""
    layouts = {} if layouts is None else layouts
    for _ in range(iters):
        theta, _ = dmv.em_step(c, theta, cfg.constraint, cfg.mstep_smoothing, layouts)
    return theta


def _pretrain_cmst(c: Corpus, cfg: TrainConfig) -> cmst.FrankWolfeOptimizer:
    model = cmst.CmstModel.create(c.pos_vocab, cfg.lam, cfg.mu, cfg.rules)
    opt = cmst.FrankWolfeOptimizer(c, model)
    if cfg.fw_pretrain_iters > 0:
        opt.run(cfg.fw_pretrain_iters)
    return opt


def pretrain(c: Corpus, cfg: TrainConfig, layouts: dict | None = None) -> TrainState:
    """Train both models separately with their own algorithms: Frank-Wolfe
    first, whose set-up checks the weights and the corpus tags, then EM."""
    opt = _pretrain_cmst(c, cfg)
    theta = _em(c, dmv.init_params(c, cfg.init), cfg, cfg.em_pretrain_iters, layouts)
    return TrainState(theta, opt.model, optimizer=opt)


def train_baseline_d_init(c: Corpus, cfg: TrainConfig) -> TrainState:
    """Train the discriminative model, parse the training data with it, use
    the parses to initialize the generative model, then train with EM."""
    if cfg.mode != "dmv-init-from-cmst":
        raise ValueError(f"expected mode dmv-init-from-cmst, got {cfg.mode!r}")
    model = _pretrain_cmst(c, cfg).model
    trees = decode_corpus(c, TrainState(None, model), cfg, "cmst")
    theta = _em(c, dmv.mstep_from_trees(c, trees, cfg.mstep_smoothing), cfg,
                cfg.outer_iters)
    return TrainState(theta, model, trees)


# ---------------------------------------------------------------------------
# Joint training (coordinate descent with joint decoding)
# ---------------------------------------------------------------------------

def _decode_worker(args, batch: list[list[int]], layouts: dict | None = None) -> list:
    """(sentence, tree) of each sentence of the groups of `batch` under
    `args`, on the charts `layouts` (see `dmv._charts`), or on the batch's
    own. G is linear on 0/1 trees, so `cmst.arc_costs` price arcs."""
    enc, theta, constraint, model, g_weight = args
    layouts = {} if layouts is None else layouts
    out = []
    for group in batch:
        xs = enc.rows(group)
        prices = None if model is None else g_weight * cmst.arc_costs(xs, model)
        out += zip(group, dmv.decode_group(xs, theta, constraint, prices, layouts))
    return out


def _decode_all(
    c: Corpus, state: TrainState, cfg: TrainConfig, decoder: str = "dd",
    layouts: dict | None = None,
) -> list[DepTree]:
    """Each sentence of `c`'s tree, decoded one `dmv.length_groups` group
    per call: jointly ("dd"), the grammar's Viterbi priced by g_weight times
    `cmst.arc_costs`, which is the exact minimum of F + G, or by the grammar
    alone ("dmv"). A sentence's result does not depend on its group, so
    neither the grouping nor `cfg.workers` can change it. The charts are the
    run's `layouts` on one worker. Otherwise a run of groups of equal
    lengths is cut into a batch per worker, which compiles their layout and
    drops it at its end."""
    model = state.model if decoder == "dd" else None
    args = (c.encoding, state.theta, cfg.constraint, model, cfg.g_weight)
    n, w = c.encoding.lengths, cfg.workers
    runs = [list(run) for _, run in itertools.groupby(
        dmv.length_groups(n, cfg.constraint.max_ce_depth), lambda g: [n[i] for i in g])]
    batches = [run[i::w] for run in runs for i in range(min(w, len(run)))]
    if w > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=w) as pool:
            decoded = list(pool.map(_decode_worker, itertools.repeat(args), batches))
    else:
        decoded = [_decode_worker(args, batch, layouts) for batch in batches]
    trees: list = [None] * c.N
    for i, tree in itertools.chain(*decoded):
        trees[i] = tree
    return trees


def joint_objective(
    c: Corpus,
    state: TrainState,
    cfg: TrainConfig,
    trees: Sequence[DepTree],
) -> float:
    """F + G at fixed trees: the grammar's `dmv.tree_cost` under the
    Dirichlet prior eps = cfg.mstep_smoothing, plus g_weight times
    `state.optimizer`'s objective at the trees (w-regularizer included)."""
    return cfg.g_weight * state.optimizer.objective(trees=trees) + dmv.tree_cost(
        c, trees, state.theta, cfg.mstep_smoothing, cfg.constraint.dep_len_beta
    )


def joint_train(c: Corpus, cfg: TrainConfig, checkpoint_dir=None) -> TrainState:
    """Coordinate descent: decode all sentences jointly, then minimize the
    joint objective at the decoded trees exactly (the smoothed M-step for the
    grammar, the ridge solve for the weights), then give each model a few
    separate training iterations, the Frank-Wolfe ones starting from the
    decoded trees."""
    if cfg.mode != "joint":
        raise ValueError(f"expected mode joint, got {cfg.mode!r}")
    layouts: dict = {}  # the corpus's chart layouts, kept for the whole run
    state = pretrain(c, cfg, layouts)
    opt = state.optimizer
    prev_heads = None
    for it in range(1, cfg.outer_iters + 1):
        trees = _decode_all(c, state, cfg, layouts=layouts)
        j_before = joint_objective(c, state, cfg, trees)

        state.theta = dmv.mstep_from_trees(c, trees, cfg.mstep_smoothing)
        opt.fit_trees(trees)
        j_after = joint_objective(c, state, cfg, trees)
        if j_after > j_before + 1e-9:
            log.warning(
                "parameter update increased the joint objective "
                "(%.6f -> %.6f)", j_before, j_after,
            )

        state.theta = _em(c, state.theta, cfg, cfg.extra_separate_iters, layouts)
        if cfg.extra_separate_iters > 0:
            opt.run(cfg.extra_separate_iters)

        state.trees = trees
        state.iteration = it
        state.stats = {"joint_objective": j_after}
        if checkpoint_dir is not None:
            state.save(Path(checkpoint_dir) / f"iter{it:03d}", c)
            # The header comes with the first row; each iteration appends one.
            with open(Path(checkpoint_dir) / "metrics.csv", "a" if it > 1 else "w",
                      newline="") as f:
                wr = csv.writer(f, lineterminator="\n")
                if it == 1:
                    wr.writerow(["iteration", "joint_objective"])
                wr.writerow([it, "%.12g" % j_after])
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
        iters = cfg.em_pretrain_iters + cfg.outer_iters
        state = TrainState(_em(c, dmv.init_params(c, cfg.init), cfg, iters), None)
    elif cfg.mode == "cmst-only":
        state = TrainState(None, _pretrain_cmst(c, cfg).model)
    else:
        state = train_baseline_d_init(c, cfg)
    if checkpoint_dir is not None:
        state.save(checkpoint_dir, c)
    return state


def decode_corpus(c: Corpus, state: TrainState, cfg: TrainConfig | None = None,
                  decoder: str = "dd") -> list[DepTree]:
    """Parse a corpus with one model or with both jointly ("dd"); the
    grammar's decoders run on `cfg.workers` processes, on one layout at a time."""
    cfg = cfg or TrainConfig()
    if decoder == "cmst":
        enc = c.encoding
        trees = cmst.eisner_min(enc.lengths, cmst.arc_costs(enc, state.model))
        return [DepTree(heads) for heads, _ in trees]
    if decoder in ("dmv", "dd"):
        return _decode_all(c, state, cfg, decoder)
    raise ValueError(f"unknown decoder {decoder!r}")
