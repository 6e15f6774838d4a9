"""Command-line entry point: train, parse, eval, and analyze subcommands
driven by a flat key=value config file with flag overrides."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import cmst, dmv, evaluation, trainer
from .corpus import (
    ConlluParseError,
    DepTree,
    filter_corpus,
    read_conllu,
    write_conllu_file,
)
from .decoder import DDConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_DEFAULTS = {
    "mode": "joint",
    "max_len": 15,
    "count_punct": True,
    "outer_iters": 10,
    "extra_separate_iters": 3,
    "em_pretrain_iters": 10,
    "fw_pretrain_iters": 50,
    "init": "harmonic",
    "max_ce_depth": "1",       # integer or 'inf'
    "dep_len_beta": 0.1,
    "lambda": 1.0,
    "mu": 0.5,
    "dd_max_iters": 50,
    "mstep_smoothing": 0.1,
    "g_weight": 1.0,
    "rules": "",
    "workers": 1,
}

_BOOL_KEYS = {"count_punct"}
_INT_KEYS = {
    "max_len", "outer_iters", "extra_separate_iters", "em_pretrain_iters",
    "fw_pretrain_iters", "dd_max_iters", "workers",
}
_FLOAT_KEYS = {
    "dep_len_beta", "lambda", "mu", "mstep_smoothing", "g_weight",
}


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _coerce(key: str, value):
    if isinstance(value, str):
        if key in _BOOL_KEYS:
            if value.lower() in ("1", "true", "yes"):
                return True
            if value.lower() in ("0", "false", "no"):
                return False
            raise UsageError(f"invalid boolean for {key}: {value!r}")
        try:
            if key in _INT_KEYS:
                return int(value)
            if key in _FLOAT_KEYS:
                return float(value)
        except ValueError:
            raise UsageError(f"invalid value for {key}: {value!r}")
    return value


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = dict(_DEFAULTS)
    if path:
        p = Path(path)
        if not p.is_file():
            raise DataError(f"config file not found: {path}")
        for line_no, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
            cfg[key] = value
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    return {k: _coerce(k, v) for k, v in cfg.items()}


def _train_config(cfg: dict) -> trainer.TrainConfig:
    depth = cfg["max_ce_depth"]
    cap = None if str(depth).lower() in ("inf", "none") else int(depth)
    rules = cmst.load_rules(cfg["rules"]) if cfg["rules"] else None
    workers = os.environ.get("JOINTDEP_WORKERS", cfg["workers"])
    try:
        workers = int(workers)
    except ValueError:
        raise DataError(f"JOINTDEP_WORKERS must be an integer, got {workers!r}")
    return trainer.TrainConfig(
        mode=cfg["mode"],
        outer_iters=cfg["outer_iters"],
        extra_separate_iters=cfg["extra_separate_iters"],
        em_pretrain_iters=cfg["em_pretrain_iters"],
        fw_pretrain_iters=cfg["fw_pretrain_iters"],
        init=cfg["init"],
        constraint=dmv.ConstraintConfig(cap, cfg["dep_len_beta"]),
        lam=cfg["lambda"],
        mu=cfg["mu"],
        dd=DDConfig(cfg["dd_max_iters"]),
        mstep_smoothing=cfg["mstep_smoothing"],
        g_weight=cfg["g_weight"],
        rules=rules,
        workers=workers,
    )


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{what} not found: {path}")
    return p


def _read_corpus(path):
    try:
        return read_conllu(_require_file(path, "input file"))
    except ConlluParseError as exc:
        raise DataError(f"{path}: {exc}")


def _cmd_train(args) -> int:
    overrides = {
        k: getattr(args, k.replace("-", "_"), None)
        for k in _DEFAULTS
        if hasattr(args, k.replace("-", "_"))
    }
    overrides["lambda"] = getattr(args, "lam", None)
    cfg = load_config(args.config, overrides)
    if args.dump_config:
        for key in sorted(cfg):
            print(f"{key}={cfg[key]}")
        return EXIT_OK
    if not args.train:
        raise UsageError("--train is required")
    if cfg["rules"]:
        _require_file(cfg["rules"], "rules file")
    corpus = _read_corpus(args.train)
    corpus = filter_corpus(corpus, cfg["max_len"], cfg["count_punct"])
    if corpus.N == 0:
        raise DataError(f"no sentences of length <= {cfg['max_len']} in {args.train}")
    tcfg = _train_config(cfg)
    trainer.train(corpus, tcfg, args.out)
    return EXIT_OK


def _load_models(model_dir, decoder: str) -> trainer.TrainState:
    d = Path(model_dir)
    if not d.is_dir():
        raise DataError(f"model directory not found: {model_dir}")
    theta = model = None
    if decoder in ("dmv", "dd"):
        theta = dmv.DmvParams.load(_require_file(d / "dmv.txt", "generative model"))
    if decoder in ("cmst", "dd"):
        model = cmst.CmstModel.load(
            _require_file(d / "cmst.txt", "discriminative model")
        )
    return trainer.TrainState(theta, model)


def _cmd_parse(args) -> int:
    cfg = load_config(args.config, {
        "max_ce_depth": args.max_ce_depth, "dep_len_beta": args.dep_len_beta,
    })
    state = _load_models(args.model, args.decoder)
    corpus = _read_corpus(args.input)
    tcfg = _train_config(cfg)
    trees = trainer.decode_corpus(corpus, state, tcfg, args.decoder)
    write_conllu_file(corpus, trees, args.output)
    return EXIT_OK


def _pred_trees(path):
    pred = _read_corpus(path)
    trees = []
    for i, sent in enumerate(pred):
        heads = sent.gold_heads()
        if heads is None:
            raise DataError(f"{path}: sentence {i} has no predicted heads")
        try:
            trees.append(DepTree(heads))
        except ValueError as exc:
            raise DataError(f"{path}: sentence {i}: {exc}")
    return pred, trees


def _emit_report(rows, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            evaluation.write_csv(rows, f)
    sys.stdout.write(evaluation.format_table(rows))


def _cmd_eval(args) -> int:
    gold = _read_corpus(args.gold)
    pred_corpus, trees = _pred_trees(args.pred)
    if pred_corpus.N != gold.N:
        raise DataError(
            f"gold has {gold.N} sentences but predictions have {pred_corpus.N}"
        )
    report = evaluation.directed_accuracy(
        gold, trees, args.max_len, not args.include_punct
    )
    _emit_report(report.rows(), args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    rules = cmst.load_rules(_require_file(args.rules, "rules file")) \
        if args.rules else cmst.default_rules()
    pred_corpus, trees = _pred_trees(args.pred)
    report = evaluation.analyze(trees, pred_corpus, rules)
    _emit_report(report.rows(), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointdep",
        description="Unsupervised dependency parsing with jointly trained "
        "generative and discriminative models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="train models and write checkpoints")
    tr.add_argument("--config", help="key=value config file")
    tr.add_argument("--train", help="training CoNLL-U file")
    tr.add_argument("--out", help="checkpoint directory")
    tr.add_argument("--mode", choices=trainer.MODES)
    tr.add_argument("--max-len", dest="max_len", type=int)
    tr.add_argument("--outer-iters", dest="outer_iters", type=int)
    tr.add_argument("--em-pretrain-iters", dest="em_pretrain_iters", type=int)
    tr.add_argument("--fw-pretrain-iters", dest="fw_pretrain_iters", type=int)
    tr.add_argument("--extra-separate-iters", dest="extra_separate_iters", type=int)
    tr.add_argument("--init", choices=("uniform", "harmonic"))
    tr.add_argument("--max-ce-depth", dest="max_ce_depth")
    tr.add_argument("--dep-len-beta", dest="dep_len_beta", type=float)
    tr.add_argument("--lambda", dest="lam", type=float)
    tr.add_argument("--mu", type=float)
    tr.add_argument("--g-weight", dest="g_weight", type=float)
    tr.add_argument("--rules")
    tr.add_argument("--workers", type=int)
    tr.add_argument("--dump-config", action="store_true",
                    help="print the merged configuration and exit")
    tr.set_defaults(func=_cmd_train)

    pa = sub.add_parser("parse", help="parse a corpus with trained models")
    pa.add_argument("--config", help="key=value config file")
    pa.add_argument("--model", required=True, help="model directory")
    pa.add_argument("--decoder", choices=("dmv", "cmst", "dd"), default="dd")
    pa.add_argument("--input", required=True, help="input CoNLL-U file")
    pa.add_argument("--output", required=True, help="output CoNLL-U file")
    pa.add_argument("--max-ce-depth", dest="max_ce_depth")
    pa.add_argument("--dep-len-beta", dest="dep_len_beta", type=float)
    pa.set_defaults(func=_cmd_parse)

    ev = sub.add_parser("eval", help="directed dependency accuracy")
    ev.add_argument("--gold", required=True)
    ev.add_argument("--pred", required=True)
    ev.add_argument("--max-len", dest="max_len", type=int, default=40)
    ev.add_argument("--include-punct", action="store_true")
    ev.add_argument("--out", help="CSV output path")
    ev.set_defaults(func=_cmd_eval)

    an = sub.add_parser("analyze", help="rule satisfaction and length stats")
    an.add_argument("--pred", required=True)
    an.add_argument("--rules", help="rules file (defaults to the shipped set)")
    an.add_argument("--out", help="CSV output path")
    an.set_defaults(func=_cmd_analyze)
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, KeyError, OSError, dmv.InfeasibleParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
