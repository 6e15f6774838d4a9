"""Command-line entry point: train, parse, eval, and analyze subcommands
driven by a flat key=value config file with flag overrides."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import cmst, dmv, trainer
from .corpus import DepTree, LineError, filter_corpus, numbered_lines, read_conllu
from .corpus import write_conllu_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


def _bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes"):
        return True
    if text.lower() in ("0", "false", "no"):
        return False
    raise ValueError(text)


def _depth(text: str) -> int | None:
    return None if text.lower() in ("inf", "none") else int(text)


# Every setting, keyed by its config-file key, as (reader of its text,
# default). Each key is also a `train` flag, `--key-with-dashes`; the
# defaults of the training settings are those of `TrainConfig`.
_T = trainer.TrainConfig()
SETTINGS = {
    "mode": (str, _T.mode),
    "max_len": (int, 15),
    "count_punct": (_bool, True),
    "outer_iters": (int, _T.outer_iters),
    "extra_separate_iters": (int, _T.extra_separate_iters),
    "em_pretrain_iters": (int, _T.em_pretrain_iters),
    "fw_pretrain_iters": (int, _T.fw_pretrain_iters),
    "init": (str, _T.init),
    "max_ce_depth": (_depth, _T.constraint.max_ce_depth),
    "dep_len_beta": (float, _T.constraint.dep_len_beta),
    "lambda": (float, _T.lam),
    "mu": (float, _T.mu),
    "mstep_smoothing": (float, _T.mstep_smoothing),
    "g_weight": (float, _T.g_weight),
    "rules": (str, ""),
    "workers": (int, _T.workers),
}
_CHOICES = {"mode": trainer.MODES, "init": dmv.INITS}


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def load_config(path: str | None, overrides: dict) -> dict:
    """The defaults, overridden by the key=value lines of the file at `path`
    and then by the `overrides` that name a setting and are not None; each
    text is read by its key's reader. A malformed file is a DataError that
    names it and its line, and an override its key cannot read a UsageError."""
    cfg = {key: default for key, (_, default) in SETTINGS.items()}
    if path:
        cfg.update(_read(path, "config file", _read_settings))
    for key, value in overrides.items():
        if key in SETTINGS and value is not None:
            try:
                cfg[key] = SETTINGS[key][0](value)
            except ValueError:
                raise UsageError(f"invalid value for {key}: {value!r}")
    return cfg


def _read_settings(path) -> dict:
    """The settings of the key=value lines of the file at `path`, each text
    read by its key's reader; a malformed line raises LineError."""
    cfg = {}
    for line_no, raw in numbered_lines(path):
        key, eq, value = (s.strip() for s in raw.split("#", 1)[0].partition("="))
        if not (key or eq):
            continue
        if not eq:
            raise LineError("expected key=value", line_no)
        if key not in SETTINGS:
            raise LineError(f"unknown config key {key!r}", line_no)
        try:
            cfg[key] = SETTINGS[key][0](value)
        except ValueError:
            raise LineError(f"invalid value for {key}: {value!r}", line_no) from None
    return cfg


def _decode_settings(cfg: dict) -> dict:
    """The `TrainConfig` fields that decoding reads."""
    constraint = dmv.ConstraintConfig(cfg["max_ce_depth"], cfg["dep_len_beta"])
    return dict(constraint=constraint, g_weight=cfg["g_weight"],
                workers=cfg["workers"])


def _train_config(cfg: dict, rules: cmst.RuleSet | None) -> trainer.TrainConfig:
    kw = {f.name: cfg[f.name] for f in fields(trainer.TrainConfig) if f.name in cfg}
    kw.update(_decode_settings(cfg), lam=cfg["lambda"], rules=rules)
    return trainer.TrainConfig(**kw)


def _read(path, what: str, reader):
    """`reader` run on the file at `path`, which must exist. A ValueError it
    raises becomes a DataError that names the file: `FILE: line N: message`
    for a LineError, and `FILE: message` for a fault of the whole file."""
    if not Path(path).is_file():
        raise DataError(f"{what} not found: {path}")
    try:
        return reader(Path(path))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _check_output(flag: str, path, is_dir: bool = False) -> None:
    """Refuse, before any work, an output `path` (if given) that could not be
    written at the end: a file's directory must exist, and a directory, which
    is made with its parents (`is_dir`), must have one as its first existing
    ancestor. A file's path must not name a directory."""
    if not path:
        return
    p = Path(path)
    first = next(a for a in (p, *p.parents) if a.exists()) if is_dir else p.parent
    if not first.exists():
        raise DataError(f"{flag} {path}: directory {first} does not exist")
    if not first.is_dir():
        raise DataError(f"{flag} {path}: {first} is not a directory")
    if not is_dir and p.is_dir():
        raise DataError(f"{flag} {path}: is a directory")


def _cmd_train(args) -> int:
    cfg = load_config(args.config, vars(args))
    if args.dump_config:
        for key, value in sorted(cfg.items()):
            print(f"{key}={'inf' if value is None else value}")
        return EXIT_OK
    if not args.train:
        raise UsageError("--train is required")
    rules = _read(cfg["rules"], "rules file", cmst.load_rules) if cfg["rules"] else None
    _check_output("--out", args.out, is_dir=True)
    if args.out and Path(args.out).is_dir() and any(Path(args.out).iterdir()):
        # An earlier run's checkpoints would sit beside this run's.
        raise DataError(f"--out {args.out}: directory is not empty")
    corpus = filter_corpus(_read(args.train, "input file", read_conllu),
                           cfg["max_len"], cfg["count_punct"])
    if corpus.N == 0:
        raise DataError(f"no sentences of length <= {cfg['max_len']} in {args.train}")
    trainer.train(corpus, _train_config(cfg, rules), args.out)
    return EXIT_OK


def _load_models(model_dir, decoder: str) -> trainer.TrainState:
    d = Path(model_dir)
    if not d.is_dir():
        raise DataError(f"model directory not found: {model_dir}")
    theta = model = None
    if decoder in ("dmv", "dd"):
        theta = _read(d / "dmv.txt", "generative model", dmv.DmvParams.load)
    if decoder in ("cmst", "dd"):
        model = _read(d / "cmst.txt", "discriminative model", cmst.CmstModel.load)
    return trainer.TrainState(theta, model)


def _cmd_parse(args) -> int:
    cfg = load_config(args.config, vars(args))
    _check_output("--output", args.output)
    state = _load_models(args.model, args.decoder)
    corpus = _read(args.input, "input file", read_conllu)
    if state.theta is not None:
        # The grammar reads no tag outside its vocabulary; the first one in
        # the file is refused at the line of its sentence.
        tag = next((t for t in corpus.pos_vocab if t not in state.theta.vocab), None)
        if tag is not None:
            line = next(x.line for x in corpus if tag in x.upos)
            raise DataError(f"{args.input}: line {line}: UPOS tag {tag!r} not in "
                            "model vocabulary")
    tcfg = trainer.TrainConfig(**_decode_settings(cfg))
    trees = trainer.decode_corpus(corpus, state, tcfg, args.decoder)
    write_conllu_file(corpus, trees, args.output)
    return EXIT_OK


def _pred_trees(path):
    pred = _read(path, "input file", read_conllu)
    trees = []
    for sent in pred:
        heads = sent.gold_heads()
        if heads is None:
            raise DataError(f"{path}: line {sent.line}: no predicted heads")
        try:
            trees.append(DepTree(heads))
        except ValueError as exc:
            raise DataError(f"{path}: line {sent.line}: {exc}")
    return pred, trees


def _emit_report(rows, out_path) -> None:
    from . import evaluation

    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            evaluation.write_csv(rows, f)
    sys.stdout.write(evaluation.format_table(rows))


def _cmd_eval(args) -> int:
    from . import evaluation

    _check_output("--out", args.out)
    gold = _read(args.gold, "input file", read_conllu)
    pred_corpus, trees = _pred_trees(args.pred)
    if pred_corpus.N != gold.N:
        raise DataError(f"{args.pred}: has {pred_corpus.N} sentences, {args.gold} "
                        f"has {gold.N}")
    for sent, pred, tree in zip(gold, pred_corpus, trees):
        if tree.n != sent.n:
            raise DataError(f"{args.pred}: line {pred.line}: tree length {tree.n} "
                            f"!= gold sentence length {sent.n}")
    try:
        report = evaluation.directed_accuracy(
            gold, trees, args.max_len, not args.include_punct
        )
    except LineError as exc:  # a gold sentence with no heads
        raise DataError(f"{args.gold}: {exc}") from None
    _emit_report(report.rows(), args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from . import evaluation

    _check_output("--out", args.out)
    rules = _read(args.rules, "rules file", cmst.load_rules) \
        if args.rules else cmst.default_rules()
    pred_corpus, trees = _pred_trees(args.pred)
    _emit_report(evaluation.analyze(trees, pred_corpus, rules), args.out)
    return EXIT_OK


def _add_setting_flags(parser, keys) -> None:
    for key in keys:
        parser.add_argument(
            "--" + key.replace("_", "-"), dest=key, choices=_CHOICES.get(key)
        )


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
    _add_setting_flags(tr, SETTINGS)
    tr.add_argument("--dump-config", action="store_true",
                    help="print the merged configuration and exit")
    tr.set_defaults(func=_cmd_train)

    pa = sub.add_parser("parse", help="parse a corpus with trained models")
    pa.add_argument("--config", help="key=value config file")
    pa.add_argument("--model", required=True, help="model directory")
    pa.add_argument("--decoder", choices=("dmv", "cmst", "dd"), default="dd")
    pa.add_argument("--input", required=True, help="input CoNLL-U file")
    pa.add_argument("--output", required=True, help="output CoNLL-U file")
    _add_setting_flags(pa, ("max_ce_depth", "dep_len_beta", "workers"))
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
    except (DataError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
