import codecs
import concurrent.futures
import functools
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONLLU_SAMPLE
from oracles import UPOS_TAGS, random_corpus, random_dmv_params

import jointdep
from jointdep import cli, cmst, trainer
from jointdep.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, load_config, run
from jointdep.corpus import DepTree, parse_conllu, read_conllu, write_conllu_file
from jointdep.cmst import CmstModel
from jointdep.dmv import DmvParams


@pytest.fixture
def train_file(tmp_path, rng):
    c = random_corpus(rng, ("DET", "NOUN", "VERB"), 8, max_len=5, min_len=1)
    # Attach flat gold heads so the file is also usable as an eval gold file.
    trees = [
        DepTree(tuple(0 if i == 0 else 1 for i in range(s.n))) for s in c
    ]
    path = tmp_path / "train.conllu"
    write_conllu_file(c, trees, path)
    return path


@pytest.fixture
def fast_args():
    return [
        "--outer-iters", "2", "--em-pretrain-iters", "2",
        "--fw-pretrain-iters", "3", "--extra-separate-iters", "1",
    ]


def test_load_config_defaults():
    cfg = load_config(None, {})
    assert cfg["mode"] == "joint"
    assert cfg["max_len"] == 15
    assert cfg["lambda"] == 1.0


def test_load_config_file_and_overrides(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("mode = dmv-only  # comment\nmax_len=10\n\n")
    cfg = load_config(str(p), {"max_len": "12"})
    assert cfg["mode"] == "dmv-only"
    assert cfg["max_len"] == 12


def test_load_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "cfg"
    for line in ("bogus=1\n", "seed=0\n"):
        p.write_text(line)
        with pytest.raises(Exception):
            load_config(str(p), {})


def test_dump_config(capsys):
    assert run(["train", "--dump-config", "--mu", "0.25"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "mu=0.25" in out
    assert "mode=joint" in out
    assert "dd_fallback" not in out


def test_dump_config_prints_every_default(capsys):
    assert run(["train", "--dump-config"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "count_punct=True\n"
        "dep_len_beta=0.1\n"
        "em_pretrain_iters=10\n"
        "extra_separate_iters=3\n"
        "fw_pretrain_iters=50\n"
        "g_weight=1.0\n"
        "init=harmonic\n"
        "lambda=1.0\n"
        "max_ce_depth=1\n"
        "max_len=15\n"
        "mode=joint\n"
        "mstep_smoothing=0.1\n"
        "mu=0.5\n"
        "outer_iters=10\n"
        "rules=\n"
        "workers=1\n"
    )


def test_every_setting_reads_alike_from_config_file_and_flag(
    tmp_path, train_file, monkeypatch
):
    rules = tmp_path / "rules.txt"
    rules.write_text("VERB NOUN\n")
    values = {
        "mode": "dmv-only", "max_len": "20", "count_punct": "no",
        "outer_iters": "3", "extra_separate_iters": "1",
        "em_pretrain_iters": "2", "fw_pretrain_iters": "4", "init": "uniform",
        "max_ce_depth": "inf", "dep_len_beta": "0.3", "lambda": "2.5",
        "mu": "0.25", "mstep_smoothing": "0.2",
        "g_weight": "0.5", "rules": str(rules), "workers": "2",
    }
    assert values.keys() == cli.SETTINGS.keys()
    config = tmp_path / "train.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    flags = [a for k, v in values.items() for a in ("--" + k.replace("_", "-"), v)]
    parser = cli._build_parser()
    from_file = load_config(str(config), {})
    from_flags = load_config(None, vars(parser.parse_args(["train", *flags])))
    defaults = load_config(None, {})
    assert all(from_file[k] != defaults[k] for k in values)
    assert from_flags == from_file
    # Both forms reach training alike, the rules file read into its rule set.
    trained = []
    monkeypatch.setattr(trainer, "train", lambda *args: trained.append(args))
    base = ["train", "--train", str(train_file), "--out", str(tmp_path / "m")]
    assert run([*base, "--config", str(config)]) == EXIT_OK
    assert run([*base, *flags]) == EXIT_OK
    (_, from_file_cfg, _), (_, from_flags_cfg, _) = trained
    assert from_flags_cfg == from_file_cfg
    assert from_file_cfg.rules == frozenset({("VERB", "NOUN")})


@pytest.mark.parametrize("setting", ["lambda=0", "lambda=inf", "mu=nan", "mu=-1"])
def test_joint_train_checks_weights_before_em(
    tmp_path, train_file, capsys, monkeypatch, setting
):
    em_calls = []
    monkeypatch.setattr(
        trainer.dmv, "em_step", lambda *args, **kw: em_calls.append(args)
    )
    key, value = setting.split("=")
    rc = run(["train", "--train", str(train_file), "--out", str(tmp_path / "m"),
              "--mode", "joint", "--em-pretrain-iters", "30", f"--{key}", value])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert err.startswith("error: lambda") and err.count("\n") == 1
    assert em_calls == []
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("tag", ["<UNK>", "<ROOT>"])
def test_joint_train_checks_corpus_tags_before_em(
    tmp_path, train_file, capsys, monkeypatch, tag
):
    # The feature tags start with <ROOT> <UNK>, so a corpus tagged with
    # either is refused before the first EM iteration, not after the last.
    em_calls = []
    monkeypatch.setattr(
        trainer.dmv, "em_step", lambda *args, **kw: em_calls.append(args)
    )
    src = tmp_path / "reserved.conllu"
    src.write_text(train_file.read_text().replace("\tNOUN\t", f"\t{tag}\t"))
    rc = run(["train", "--train", str(src), "--out", str(tmp_path / "m"),
              "--mode", "joint", "--em-pretrain-iters", "30"])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert err.startswith(f"error: feature tag '{tag}'") and err.count("\n") == 1
    assert em_calls == []
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("mode", ["joint", "cmst-only"])
def test_train_out_naming_a_file_is_refused_before_training(
    tmp_path, train_file, capsys, monkeypatch, mode
):
    trained = []
    monkeypatch.setattr(trainer, "train", lambda *args: trained.append(args))
    out = tmp_path / "out"
    out.write_text("keep\n")
    for target in (out, out / "sub"):
        rc = run(["train", "--train", str(train_file), "--out", str(target),
                  "--mode", mode])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err == f"error: --out {target}: {out} is not a directory\n"
    assert trained == []
    assert out.read_text() == "keep\n"
    # An existing directory is still a checkpoint directory.
    out.unlink()
    out.mkdir()
    rc = run(["train", "--train", str(train_file), "--out", str(out), "--mode", mode])
    assert rc == EXIT_OK and len(trained) == 1


def test_output_in_a_missing_directory_is_refused_before_any_work(
    tmp_path, train_file, model_dir, capsys, monkeypatch
):
    # An output path whose directory does not exist, or that names a
    # directory, is refused with exit code 2 before the corpus is decoded or
    # scored, and nothing is written.
    decoded = []
    monkeypatch.setattr(trainer, "decode_corpus", lambda *args: decoded.append(args))
    missing = tmp_path / "nodir" / "o.conllu"
    assert _parse(model_dir, train_file, missing) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: --output {missing}: directory {missing.parent} does not exist\n"
    )
    assert _parse(model_dir, train_file, tmp_path) == EXIT_DATA
    assert capsys.readouterr().err == f"error: --output {tmp_path}: is a directory\n"
    assert decoded == []
    for command in (["eval", "--gold", str(train_file)], ["analyze"]):
        rc = run([*command, "--pred", str(train_file), "--out", str(missing)])
        assert rc == EXIT_DATA
        assert capsys.readouterr() == (
            "", f"error: --out {missing}: directory {missing.parent} does not exist\n")
    assert not missing.parent.exists()


def test_train_into_a_used_out_is_refused_before_training(
    tmp_path, train_file, fast_args, capsys, monkeypatch
):
    out = tmp_path / "model"
    args = ["train", "--train", str(train_file), "--out", str(out)] + fast_args
    assert run(args) == EXIT_OK
    capsys.readouterr()
    written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert any(p.parent.name == "iter001" for p in written)
    trained = []
    monkeypatch.setattr(trainer, "train", lambda *args: trained.append(args))
    rc = run(args)
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == f"error: --out {out}: directory is not empty\n"
    assert trained == []
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written


def test_missing_subcommand_is_usage_error():
    assert run([]) == EXIT_USAGE
    assert run(["train"]) == EXIT_USAGE  # --train missing


def test_missing_input_file_is_data_error(tmp_path):
    assert run(["train", "--train", str(tmp_path / "nope.conllu")]) == EXIT_DATA


def test_malformed_conllu_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.conllu"
    bad.write_text("1\tonly\tthree\n")
    rc = run(["train", "--train", str(bad)])
    assert rc == EXIT_DATA
    assert "bad.conllu" in capsys.readouterr().err


def test_train_parse_eval_analyze_pipeline(
    tmp_path, train_file, fast_args, capsys
):
    out_dir = tmp_path / "model"
    rc = run(
        ["train", "--train", str(train_file), "--out", str(out_dir)]
        + fast_args
    )
    assert rc == EXIT_OK
    ckpts = sorted(p.name for p in out_dir.iterdir() if p.is_dir())
    assert ckpts and ckpts[0] == "iter001"
    last = out_dir / ckpts[-1]
    assert (last / "dmv.txt").exists() and (last / "cmst.txt").exists()

    parsed = tmp_path / "pred.conllu"
    for decoder in ("dmv", "cmst", "dd"):
        rc = run([
            "parse", "--model", str(last), "--decoder", decoder,
            "--input", str(train_file), "--output", str(parsed),
        ])
        assert rc == EXIT_OK
        pred = read_conllu(parsed)
        assert pred.N == read_conllu(train_file).N

    rc = run(["eval", "--gold", str(train_file), "--pred", str(parsed),
              "--out", str(tmp_path / "eval.csv")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "dda_all" in out
    csv_text = (tmp_path / "eval.csv").read_text()
    assert csv_text.startswith("metric,value\n")

    rc = run(["analyze", "--pred", str(parsed),
              "--out", str(tmp_path / "analysis.csv")])
    assert rc == EXIT_OK
    assert "rule_satisfaction_overall" in capsys.readouterr().out


def test_train_mode_flag(tmp_path, train_file, fast_args):
    out_dir = tmp_path / "dmv-model"
    rc = run(
        ["train", "--train", str(train_file), "--out", str(out_dir),
         "--mode", "dmv-only"] + fast_args
    )
    assert rc == EXIT_OK
    assert (out_dir / "dmv.txt").exists()
    assert not (out_dir / "cmst.txt").exists()
    DmvParams.load(out_dir / "dmv.txt").validate()


def test_parse_missing_model_file(tmp_path, train_file, fast_args, capsys):
    out_dir = tmp_path / "dmv-model"
    run(["train", "--train", str(train_file), "--out", str(out_dir),
         "--mode", "dmv-only"] + fast_args)
    rc = run([
        "parse", "--model", str(out_dir), "--decoder", "dd",
        "--input", str(train_file), "--output", str(tmp_path / "o.conllu"),
    ])
    assert rc == EXIT_DATA
    assert "cmst.txt" in capsys.readouterr().err


def test_eval_sentence_count_mismatch(tmp_path, train_file, capsys):
    gold = read_conllu(train_file)
    short = tmp_path / "short.conllu"
    trees = [DepTree(gold.sentences[0].gold_heads())]
    from jointdep.corpus import Corpus
    write_conllu_file(Corpus(gold.sentences[:1], gold.pos_vocab), trees, short)
    rc = run(["eval", "--gold", str(train_file), "--pred", str(short)])
    assert rc == EXIT_DATA


def test_eval_max_len_below_one_is_refused(tmp_path, train_file, capsys):
    # With no sentence scored, the accuracy would read 0.000000, as for a
    # parser that is always wrong.
    rc = run(["eval", "--gold", str(train_file), "--pred", str(train_file),
              "--max-len", "0"])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == "error: max_len must be >= 1, got 0\n"


def test_eval_rejects_invalid_predicted_tree(tmp_path, train_file, capsys):
    bad = tmp_path / "badpred.conllu"
    bad.write_text(
        "1\tw\tw\tNOUN\t_\t_\t0\t_\t_\t_\n"
        "2\tw\tw\tNOUN\t_\t_\t0\t_\t_\t_\n"
    )
    rc = run(["eval", "--gold", str(bad), "--pred", str(bad)])
    assert rc == EXIT_DATA  # two roots is not a valid tree
    assert capsys.readouterr().err == (
        f"error: {bad}: line 1: invalid dependency tree (0, 0): expected exactly "
        "one root, found 2\n"
    )


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_predicted_tree_faults_name_the_line_of_their_sentence(
    tmp_path, capsys, command
):
    # Each sentence is named by its first token's line: the second sentence
    # of `pred` starts on line 5, after a blank line and a comment, and the
    # third, whose heads are missing, on line 8.
    good = "1\tw\tw\tNOUN\t_\t_\t0\t_\t_\t_\n2\tw\tw\tNOUN\t_\t_\t1\t_\t_\t_\n"
    two_roots = good.replace("\t1\t_", "\t0\t_")
    headless = good.replace("\t1\t_", "\t_\t_")
    pred = tmp_path / "pred.conllu"
    for text, line, fault in [
        (good + "\n# sent_id = 2\n" + two_roots, 5,
         "invalid dependency tree (0, 0): expected exactly one root, found 2"),
        (good + "\n# sent_id = 2\n" + good + "\n" + headless, 8, "no predicted heads"),
    ]:
        pred.write_text(text)
        gold = ["--gold", str(pred)] if command == "eval" else []
        assert run([command, *gold, "--pred", str(pred)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {pred}: line {line}: {fault}\n"


def test_gold_and_pairing_faults_name_their_file(tmp_path, capsys):
    # A gold sentence without heads is named by its first token's line in
    # the gold file; a predicted tree of another length, or another number
    # of sentences, by the predictions file.
    one = "1\tw\tw\tNOUN\t_\t_\t0\t_\t_\t_\n"
    two = one + "2\tw\tw\tNOUN\t_\t_\t1\t_\t_\t_\n"
    gold, pred = tmp_path / "gold.conllu", tmp_path / "pred.conllu"
    for gold_text, pred_text, fault in [
        (two + "\n# sent_id = 2\n" + two.replace("\t1\t_", "\t_\t_"), two + "\n" + two,
         f"{gold}: line 5: no gold heads"),
        (two + "\n" + two, two + "\n# sent_id = 2\n" + one,
         f"{pred}: line 5: tree length 1 != gold sentence length 2"),
        (two + "\n" + two, two, f"{pred}: has 1 sentences, {gold} has 2"),
    ]:
        gold.write_text(gold_text)
        pred.write_text(pred_text)
        assert run(["eval", "--gold", str(gold), "--pred", str(pred)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {fault}\n"


def test_max_ce_depth_inf_accepted(tmp_path, train_file, fast_args):
    out_dir = tmp_path / "m"
    rc = run(
        ["train", "--train", str(train_file), "--out", str(out_dir),
         "--max-ce-depth", "inf"] + fast_args
    )
    assert rc == EXIT_OK


def test_train_rejects_nonpositive_lambda(tmp_path, train_file, capsys):
    rc = run(["train", "--train", str(train_file), "--out", str(tmp_path / "m"),
              "--mode", "cmst-only", "--lambda", "0"])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert err.startswith("error: lambda must be > 0") and err.count("\n") == 1


@pytest.mark.parametrize("setting", [
    "g_weight=nan", "g_weight=inf", "g_weight=-1", "mstep_smoothing=-0.5",
    "mstep_smoothing=0",
    "em_pretrain_iters=-1", "fw_pretrain_iters=-1",
    "workers=0",
])
def test_train_rejects_out_of_range_setting(tmp_path, train_file, capsys, setting):
    config = tmp_path / "train.cfg"
    config.write_text(setting + "\n")
    rc = run(["train", "--config", str(config), "--train", str(train_file),
              "--out", str(tmp_path / "m")])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    key = setting.split("=")[0]
    assert err.startswith("error: ") and key in err and err.count("\n") == 1
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("mode", trainer.MODES)
def test_train_rejects_unknown_init_in_every_mode(
    tmp_path, train_file, capsys, mode
):
    # The initialiser is checked with the other settings, before training,
    # also in the mode that never initialises the grammar.
    config = tmp_path / "train.cfg"
    config.write_text("init=bogus\n")
    rc = run(["train", "--config", str(config), "--train", str(train_file),
              "--mode", mode, "--out", str(tmp_path / "m")])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert err.startswith("error: init must be one of") and err.count("\n") == 1
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize(
    "setting", ["dd_step_rule=invsqrt", "dd_tau0=1.0", "dd_fallback=generative"]
)
def test_train_rejects_removed_step_settings(tmp_path, train_file, capsys, setting):
    # Agreement decoding takes Polyak steps only and ends on the best tree it
    # found: the step schedule and fallback settings are gone, and a config
    # file naming one is a data error on its line.
    config = tmp_path / "train.cfg"
    config.write_text(setting + "\n")
    rc = run(["train", "--config", str(config), "--train", str(train_file),
              "--out", str(tmp_path / "m")])
    err = capsys.readouterr().err
    key = setting.split("=")[0]
    assert rc == EXIT_DATA
    assert err == f"error: {config}: line 1: unknown config key {key!r}\n"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("command", ["train", "parse"])
def test_config_naming_dd_max_iters_is_refused(
    tmp_path, train_file, model_dir, capsys, command
):
    # Joint decoding is exact and runs no iterations, so the setting of the
    # old iteration budget is gone, and a config file that still names it
    # is a data error on its line.
    config = tmp_path / "old.cfg"
    config.write_text("g_weight=1.0\ndd_max_iters=50\n")
    out = tmp_path / "out"
    args = {
        "train": ["train", "--train", str(train_file), "--out", str(out)],
        "parse": ["parse", "--model", str(model_dir), "--input", str(train_file),
                  "--output", str(out)],
    }[command]
    rc = run([*args, "--config", str(config)])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {config}: line 2: unknown config key 'dd_max_iters'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_rejects_non_integer_workers(tmp_path, train_file, model_dir, capsys, value):
    for command in (
        ["train", "--train", str(train_file), "--out", str(tmp_path / "m")],
        ["parse", "--model", str(model_dir), "--input", str(train_file),
         "--output", str(tmp_path / "m")],
    ):
        rc = run(command + ["--workers", value])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err == f"error: invalid value for workers: {value!r}\n"
        assert not (tmp_path / "m").exists()


def test_cmst_weights_do_not_depend_on_blas_threads(tmp_path):
    # 120 sentences of length 2-15 over the 17 UPOS tags: a stacked design of
    # about 9000 rows, long enough for OpenBLAS to split its reductions over
    # threads when it may use more than one.
    c = random_corpus(
        np.random.default_rng(7), UPOS_TAGS, 120, max_len=15, min_len=2
    )
    train = tmp_path / "train.conllu"
    write_conllu_file(
        c, [DepTree((0,) + (1,) * (s.n - 1)) for s in c], train
    )
    src = str(Path(jointdep.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join([src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        subprocess.run(
            [sys.executable, "-m", "jointdep.cli", "train", "--mode",
             "cmst-only", "--train", str(train), "--out", str(out),
             "--fw-pretrain-iters", "2"],
            env=env, check=True,
        )
        written.append((out / "cmst.txt").read_bytes())
    assert written[0] == written[1]


_SCIPY_PROBE = """
import json, sys
import jointdep.cli

def scipy_loaded():
    return any(name.split(".")[0] == "scipy" for name in sys.modules)

print(scipy_loaded())
for argv in json.loads(sys.argv[1]):
    sys.argv = ["jointdep", *argv]
    try:
        jointdep.cli.main()
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
    print(scipy_loaded())
"""


def test_cli_import_leaves_sparse_solver_unloaded(tmp_path, model_dir, train_file):
    # No command builds sparse features or factors a sparse matrix: importing
    # the CLI, every parse decoder, eval, analyze and Frank-Wolfe training,
    # cmst-only or joint, must not import scipy at all.
    pred = tmp_path / "pred.conllu"
    commands = [
        ["parse", "--model", str(model_dir), "--decoder", decoder,
         "--input", str(train_file), "--output", str(pred)]
        for decoder in ("dd", "dmv", "cmst")
    ] + [
        ["eval", "--gold", str(train_file), "--pred", str(pred)],
        ["analyze", "--pred", str(pred)],
        ["train", "--mode", "cmst-only", "--fw-pretrain-iters", "1",
         "--train", str(train_file), "--out", str(tmp_path / "cmst")],
        ["train", "--mode", "joint", "--em-pretrain-iters", "1",
         "--fw-pretrain-iters", "1", "--outer-iters", "1",
         "--train", str(train_file), "--out", str(tmp_path / "joint")],
    ]
    src = str(Path(jointdep.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True,
        text=True,
    )
    loaded = [line for line in out.stdout.splitlines() if line in ("True", "False")]
    assert loaded == ["False"] * 8


def test_cli_import_leaves_pool_and_evaluation_unloaded():
    # Only a run at --workers above 1 starts a process pool, and only eval
    # and analyze score trees: importing the CLI loads neither module.
    src = str(Path(jointdep.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, jointdep.cli; print(sorted({"
         "'concurrent.futures', 'jointdep.evaluation'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True,
        text=True,
    )
    assert out.stdout == "[]\n"


def test_submodule_import_loads_no_other_package_module():
    # The package root imports nothing, so a caller of one submodule loads
    # that module and the modules it imports itself, and `corpus` imports none.
    src = str(Path(jointdep.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, jointdep.corpus; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'jointdep'))"],
        env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True,
        text=True,
    )
    assert out.stdout == "['jointdep', 'jointdep.corpus']\n"


def test_train_determinism_via_cli(tmp_path, train_file, fast_args):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(
            ["train", "--train", str(train_file), "--out", str(out)]
            + fast_args
        ) == EXIT_OK
    iters = sorted(p.name for p in a.iterdir() if p.is_dir())
    last = iters[-1]
    for name in ("dmv.txt", "cmst.txt", "trees.conllu"):
        assert (a / last / name).read_bytes() == (b / last / name).read_bytes()


@pytest.fixture
def model_dir(tmp_path, rng):
    """Untrained models over the train_file vocabulary."""
    vocab = ("DET", "NOUN", "VERB")
    d = tmp_path / "models"
    d.mkdir()
    random_dmv_params(rng, vocab).save(d / "dmv.txt")
    model = CmstModel.create(vocab)
    model.w[:: 97] = 0.25
    model.save(d / "cmst.txt")
    return d


def _parse(model, input_file, output, decoder="dd", *flags):
    return run([
        "parse", "--model", str(model), "--decoder", decoder,
        "--input", str(input_file), "--output", str(output), *flags,
    ])


def _values(prefix, *values):
    """Damage to dmv.txt: the first records that start with `prefix` given
    `values`, in file order."""
    def damage(lines):
        new = iter(values)
        return [
            f"{line.rsplit(' ', 1)[0]} {v}"
            if line.startswith(prefix) and (v := next(new, None)) is not None
            else line
            for line in lines
        ]
    return damage


def _tags(tags):
    """Damage to cmst.txt: its tags line replaced and its weight records
    dropped, so that nothing but the tags line can reject the file."""
    return lambda lines: [
        "tags " + tags if line.startswith("tags ") else line
        for line in lines if not line.startswith("w ")
    ]


@pytest.mark.parametrize("name, damage, message", [
    pytest.param(
        "dmv.txt", lambda lines: [], "line 1: unrecognized model header []",
        id="dmv-empty",
    ),
    pytest.param(
        "dmv.txt", lambda lines: lines[:1], "line 2: missing or empty vocab line",
        id="dmv-header-only",
    ),
    pytest.param("dmv.txt", lambda lines: lines[:30], None, id="dmv-head-30"),
    pytest.param("dmv.txt", lambda lines: lines[:-1], None, id="dmv-last-missing"),
    pytest.param(
        "dmv.txt", lambda lines: lines[:-1] + [lines[-1].rsplit(" ", 1)[0]],
        None, id="dmv-short-record",
    ),
    pytest.param(
        "dmv.txt", lambda lines: lines[:-1] + [lines[-1].replace("VERB", "ADJ")],
        None, id="dmv-unknown-tag",
    ),
    # Root probabilities -1, 1, 1: they sum to one, but one is negative.
    pytest.param("dmv.txt", _values("root ", "-1", "1", "1"), None,
                 id="dmv-negative-root"),
    # A strictly positive grammar only: no probability 0, and no stop
    # probability 1, whose continuing probability is 0.
    pytest.param("dmv.txt", _values("root ", "0", "0.5", "0.5"),
                 "root DET: probability 0.0 outside (0, 1]", id="dmv-root-zero"),
    pytest.param("dmv.txt", _values("attach NOUN right ", "0.5", "0.5", "0"),
                 "attach NOUN right VERB: probability 0.0 outside (0, 1]",
                 id="dmv-attach-zero"),
    pytest.param("dmv.txt", _values("stop VERB left 1 ", "0"),
                 "stop VERB left 1: probability 0.0 outside (0, 1)",
                 id="dmv-stop-zero"),
    pytest.param("dmv.txt", _values("stop DET right 0 ", "1"),
                 "stop DET right 0: probability 1.0 outside (0, 1)",
                 id="dmv-stop-one"),
    pytest.param("dmv.txt", _values("attach VERB left ", "0.5", "0.5", "0.5"),
                 "attach distribution of VERB left sums to 1.5",
                 id="dmv-attach-sum"),
    pytest.param("cmst.txt", lambda lines: lines[:1], "incomplete model file",
                 id="cmst-header-only"),
    pytest.param("cmst.txt", lambda lines: lines[:3], "incomplete model file",
                 id="cmst-truncated"),
    pytest.param("cmst.txt", lambda lines: lines + ["w 3"], None, id="cmst-short-w"),
    pytest.param(
        "cmst.txt", lambda lines: lines + ["w 99999999 1.0"],
        None, id="cmst-w-out-of-range",
    ),
    pytest.param(
        "cmst.txt", lambda lines: lines + ["w 0 nan"], None, id="cmst-nan-weight"
    ),
    pytest.param(
        "cmst.txt",
        lambda lines: ["mu nan" if line.startswith("mu ") else line for line in lines],
        None, id="cmst-nan-mu",
    ),
    pytest.param("cmst.txt", _tags("<ROOT>"), None, id="cmst-tags-root-only"),
    pytest.param(
        "cmst.txt", _tags("DET NOUN VERB <ROOT> <UNK>"), None,
        id="cmst-tags-reserved-last",
    ),
    pytest.param(
        "cmst.txt", _tags("<ROOT> <UNK> DET NOUN VERB NOUN"), None,
        id="cmst-tags-repeated",
    ),
    pytest.param(
        "dmv.txt", lambda lines: lines[:2] + ["root DET abc"] + lines[3:],
        "line 3: could not convert string to float: 'abc'",
        id="dmv-root-not-a-number",
    ),
    pytest.param(
        "dmv.txt", lambda lines: [lines[0], "vocab DET NOUN DET"] + lines[2:],
        "line 2: vocab tag 'DET' appears more than once", id="dmv-vocab-repeated",
    ),
])
def test_damaged_model_file_is_data_error(
    tmp_path, train_file, model_dir, capsys, name, damage, message
):
    path = model_dir / name
    path.write_text("".join(
        line + "\n" for line in damage(path.read_text().splitlines())
    ))
    # The dd decoder reads both files, a single-model decoder only its own.
    for decoder in ("dd", name.removesuffix(".txt")):
        rc = _parse(model_dir, train_file, tmp_path / "o.conllu", decoder)
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        if message is not None:
            assert err == f"error: {path}: {message}\n"


def test_non_finite_probability_is_refused_on_its_line(
    tmp_path, train_file, model_dir, capsys
):
    # NaN marks a record the loader has not read yet, so a nan value is
    # refused where it is read, not counted as a missing record.
    path = model_dir / "dmv.txt"
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("stop "))
    lines[i] = lines[i].rsplit(" ", 1)[0] + " nan"
    path.write_text("".join(line + "\n" for line in lines))
    assert _parse(model_dir, train_file, tmp_path / "o.conllu", "dmv") == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {path}: line {i + 1}: stop probability 'nan' is not finite\n"
    )


@pytest.mark.parametrize("prefix, record, message", [
    pytest.param(
        "lambda ", "lambda abc",
        "lambda record: could not convert string to float: 'abc'", id="lambda",
    ),
    pytest.param(
        "mu ", "mu 0,5", "mu record: could not convert string to float: '0,5'",
        id="mu",
    ),
    pytest.param(
        "w ", "w x 1.0", "w record: invalid literal for int() with base 10: 'x'",
        id="w-index",
    ),
    pytest.param(
        "w ", "w 99999999 1.0",
        "weight index 99999999 out of range for dimension {dimension}",
        id="w-index-out-of-range",
    ),
    pytest.param(
        "w ", "w 3 1.0e", "w record: could not convert string to float: '1.0e'",
        id="w-value",
    ),
    pytest.param("rule ", "bogus 1", "unrecognized record 'bogus'", id="unknown"),
    pytest.param(
        "mu ", "mu nan", "mu record: must be finite and >= 0, got nan", id="mu-nan"
    ),
    pytest.param("w ", "w 0 nan", "w record: must be finite, got nan", id="w-nan"),
    pytest.param(
        "tags ", "tags <ROOT> <UNK> DET NOUN VERB NOUN",
        "tags record: feature tag 'NOUN' appears more than once "
        "(<ROOT> and <UNK> are reserved)",
        id="tags-repeated",
    ),
])
def test_malformed_cmst_record_is_refused_on_its_line(
    tmp_path, train_file, model_dir, capsys, prefix, record, message
):
    path = model_dir / "cmst.txt"
    dimension = CmstModel.load(path).templates.dimension
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = record
    path.write_text("".join(line + "\n" for line in lines))
    assert _parse(model_dir, train_file, tmp_path / "o.conllu", "cmst") == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {path}: line {i + 1}: {message.format(dimension=dimension)}\n"
    )


@pytest.mark.parametrize("name, prefix, record", [
    pytest.param("cmst.txt", "w ", None, id="cmst-w"),
    pytest.param("cmst.txt", "lambda ", "lambda 2.5", id="cmst-lambda"),
    pytest.param("cmst.txt", "rule ", None, id="cmst-rule"),
    pytest.param("dmv.txt", "root ", None, id="dmv-root"),
    pytest.param("dmv.txt", "stop ", None, id="dmv-stop"),
])
def test_repeated_model_record_is_refused_on_its_line(
    tmp_path, train_file, model_dir, capsys, name, prefix, record
):
    # Read twice, a record would load with its last value, so a second one
    # is refused even when it repeats the first (record None) word for word.
    path = model_dir / name
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines.append(record or lines[i])
    path.write_text("".join(line + "\n" for line in lines))
    decoder = "cmst" if name == "cmst.txt" else "dmv"
    assert _parse(model_dir, train_file, tmp_path / "o.conllu", decoder) == EXIT_DATA
    kind = prefix.strip()
    assert capsys.readouterr().err == (
        f"error: {path}: line {len(lines)}: repeats the {kind} record of line {i + 1}\n"
    )


def test_root_distribution_sum_is_reported_as_a_plain_number(
    tmp_path, train_file, model_dir, capsys
):
    path = model_dir / "dmv.txt"
    path.write_text("".join(
        ("root " + line.split()[1] + " 0.5" if line.startswith("root ") else line)
        + "\n" for line in path.read_text().splitlines()
    ))
    assert _parse(model_dir, train_file, tmp_path / "o.conllu", "dmv") == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: root distribution sums to 1.5\n"


# A sentence with a tag, ZZZ, outside the models' vocabulary.
UNSEEN_TAG_CONLLU = (
    "1\tw\tw\tNOUN\t_\t_\t0\t_\t_\t_\n"
    "2\tw\tw\tZZZ\t_\t_\t1\t_\t_\t_\n\n"
)


@pytest.mark.parametrize("decoder", ["dmv", "dd"])
def test_unknown_upos_is_data_error(tmp_path, model_dir, capsys, monkeypatch, decoder):
    # The first unknown tag of the file is named at the line of its
    # sentence's first token (line 4 in the second file, after a comment),
    # before the corpus is decoded.
    decoded = []
    monkeypatch.setattr(trainer, "decode_corpus", lambda *args: decoded.append(args))
    src = tmp_path / "zzz.conllu"
    later = ("1\tw\tw\tNOUN\t_\t_\t0\t_\t_\t_\n\n# sent_id = 2\n"
             + UNSEEN_TAG_CONLLU + UNSEEN_TAG_CONLLU.replace("ZZZ", "YYY"))
    for text, line in [(UNSEEN_TAG_CONLLU, 1), (later, 4)]:
        src.write_text(text)
        assert _parse(model_dir, src, tmp_path / "o.conllu", decoder) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {src}: line {line}: UPOS tag 'ZZZ' not in model vocabulary\n"
        )
    assert decoded == []
    assert not (tmp_path / "o.conllu").exists()


def test_unknown_upos_parses_as_unk_with_the_cmst_decoder(
    tmp_path, model_dir, capsys
):
    # The discriminative features read an unseen tag as <UNK>, so the cmst
    # decoder parses the file that the grammar refuses.
    src, out = tmp_path / "zzz.conllu", tmp_path / "o.conllu"
    src.write_text(UNSEEN_TAG_CONLLU)
    assert _parse(model_dir, src, out, "cmst") == EXIT_OK
    assert capsys.readouterr().err == ""
    [sent] = read_conllu(out).sentences
    assert [t.upos for t in sent.tokens] == ["NOUN", "ZZZ"]
    DepTree(sent.gold_heads())  # a complete, valid tree


@pytest.mark.parametrize("upos", ["VE RB", "", " NOUN"])
def test_upos_that_is_not_one_word_is_refused_on_its_line(
    tmp_path, train_file, model_dir, capsys, upos
):
    # CoNLL-U forbids an empty UPOS or one with a space, and model files
    # list tags split on whitespace: a model trained on one would not load.
    bad = tmp_path / "bad.conllu"
    bad.write_text(
        "# text\n"
        "1\tw\tw\tNOUN\t_\t_\t0\t_\t_\t_\n"
        f"2\tw\tw\t{upos}\t_\t_\t1\t_\t_\t_\n\n"
    )
    out, pred = tmp_path / "out", tmp_path / "pred.conllu"
    for args in (
        ["train", "--train", str(bad), "--out", str(out)],
        ["parse", "--model", str(model_dir), "--input", str(bad),
         "--output", str(pred)],
        ["eval", "--gold", str(bad), "--pred", str(train_file)],
        ["eval", "--gold", str(train_file), "--pred", str(bad)],
        ["analyze", "--pred", str(bad)],
    ):
        assert run(args) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {bad}: line 3: UPOS tag {upos!r} is empty or holds whitespace\n"
        )
    assert not out.exists() and not pred.exists()


@pytest.mark.parametrize("decoder", ["dd", "dmv", "cmst"])
def test_parse_of_an_empty_input_writes_an_empty_file(tmp_path, model_dir, decoder):
    empty = tmp_path / "empty.conllu"
    empty.write_text("")
    out = tmp_path / "out.conllu"
    assert _parse(model_dir, empty, out, decoder) == EXIT_OK
    assert out.read_bytes() == b""


@pytest.mark.parametrize("decoder", ["dmv", "dd"])
def test_parse_reads_only_the_decode_settings(
    tmp_path, train_file, model_dir, capsys, decoder
):
    # Settings that only training reads do not stop a parse: neither an
    # out-of-range iteration count nor a rules file that does not exist.
    plain = tmp_path / "plain.conllu"
    assert _parse(model_dir, train_file, plain, decoder) == EXIT_OK
    for i, setting in enumerate(["outer_iters=0", "rules=no-such-rules.txt"]):
        config = tmp_path / f"{i}.cfg"
        config.write_text(setting + "\n")
        pred = tmp_path / f"pred{i}.conllu"
        rc = _parse(model_dir, train_file, pred, decoder, "--config", str(config))
        assert rc == EXIT_OK
        assert pred.read_bytes() == plain.read_bytes()
    # A decode setting out of range still fails with one line.
    for setting in ("dep_len_beta=-1", "g_weight=-1"):
        config = tmp_path / "bad.cfg"
        config.write_text(setting + "\n")
        capsys.readouterr()
        rc = _parse(model_dir, train_file, tmp_path / "o.conllu", decoder,
                    "--config", str(config))
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        key = setting.split("=")[0]
        assert err.startswith(f"error: {key}") and err.count("\n") == 1


def test_malformed_rule_is_refused_on_its_line(tmp_path, train_file, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("VERB NOUN\n# a comment\n\n  VERB NOUN ADJ  # three\n")
    rc = run(["train", "--mode", "cmst-only", "--rules", str(rules),
              "--train", str(train_file), "--out", str(tmp_path / "out")])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {rules}: line 4: rule line must be 'HEADTAG DEPTAG': "
        "'VERB NOUN ADJ  # three'\n"
    )


def test_unparseable_sentence_is_data_error(tmp_path, model_dir, capsys):
    theta = DmvParams.load(model_dir / "dmv.txt")
    theta.stop[:] = 1.0  # no token may take a dependent
    theta.save(model_dir / "dmv.txt")
    src = tmp_path / "two.conllu"
    src.write_text(
        "1\tw\tw\tNOUN\t_\t_\t0\t_\t_\t_\n"
        "2\tw\tw\tVERB\t_\t_\t1\t_\t_\t_\n\n"
    )
    assert _parse(model_dir, src, tmp_path / "o.conllu", "dmv") == EXIT_DATA
    assert capsys.readouterr().err.count("\n") == 1


def test_parse_workers_write_identical_trees(
    tmp_path, train_file, model_dir, monkeypatch
):
    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def spy_pool(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy_pool)
    # Agreement decoding and the grammar alone both run on the workers.
    for decoder in ("dd", "dmv"):
        outputs = []
        for workers in ("1", "2"):
            pred = tmp_path / f"pred-{decoder}{workers}.conllu"
            rc = _parse(model_dir, train_file, pred, decoder, "--workers", workers)
            assert rc == EXIT_OK
            outputs.append(pred.read_bytes())
        assert outputs[0] == outputs[1]
    assert pools == [2, 2]


def test_joint_train_workers_write_identical_files(tmp_path, train_file, fast_args):
    written = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert run(
            ["train", "--train", str(train_file), "--out", str(out),
             "--workers", workers] + fast_args
        ) == EXIT_OK
        written.append({
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        })
    assert len(written[0]) > 3
    assert written[0] == written[1]


# ---------------------------------------------------------------------------
# Loader fuzz: any text either loads or raises ValueError, which the command
# line reports as a one-line data error (exit 2).
# ---------------------------------------------------------------------------

_FUZZ_TOKENS = st.sampled_from((
    "", "0", "1", "-1", "2", "0.5", "1e400", "nan", "inf", "-inf",
    "99999999", "x", "_", "VERB", "left", "right", "vocab", "root",
    "attach", "stop", "tags", "rule", "w", "lambda", "mu",
)) | st.text(max_size=6)


@st.composite
def _damaged(draw, text, sep):
    """`text` with a few lines dropped, tokens replaced or lines inserted."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(("drop", "token", "insert")))
        if op == "insert" or i == len(lines):
            lines.insert(i, sep.join(draw(st.lists(_FUZZ_TOKENS, max_size=6))))
        elif op == "drop":
            del lines[i]
        else:
            parts = lines[i].split(sep)
            parts[draw(st.integers(0, len(parts) - 1))] = draw(_FUZZ_TOKENS)
            lines[i] = sep.join(parts)
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _fuzz_base(kind):
    """A valid file of each kind, for the fuzz to damage."""
    if kind == "conllu":
        return CONLLU_SAMPLE
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.txt"
        if kind == "dmv":
            random_dmv_params(np.random.default_rng(5), ("DET", "NOUN")).save(path)
        else:
            model = CmstModel.create(
                ("DET", "NOUN"), rules=frozenset({("NOUN", "DET")})
            )
            model.w[:: 41] = 0.5
            model.save(path)
        return path.read_text()


_LOADERS = {"dmv": DmvParams.load, "cmst": CmstModel.load, "conllu": read_conllu}


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loaders_load_or_raise_value_error(kind, data):
    sep = "\t" if kind == "conllu" else " "
    text = data.draw(st.text() | _damaged(_fuzz_base(kind), sep))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.txt"
        path.write_text(text, encoding="utf-8")
        try:
            _LOADERS[kind](path)
        except ValueError:
            pass


# ---------------------------------------------------------------------------
# Malformed input through the command line: a fixed, seeded set of damages
# to each kind of input file. Every run ends with exit 0, or with one
# `error:` line and exit 2, never with a traceback.
# ---------------------------------------------------------------------------

_DAMAGES = ("cut", "field", "text", "repeat", "byte", "blank")


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _damaged_copies(text, sep, seed):
    """`text` with each of `_DAMAGES` done to one line drawn by `seed`: the
    line cut short, one of its `sep`-separated fields dropped, a number in it
    replaced by text (its last field if it has none), the line repeated, a
    byte that is not UTF-8 put into it, and its last number (a CoNLL-U head)
    replaced by `_`. Comment and blank lines are left."""
    rnd = random.Random(seed)
    lines = text.splitlines()
    chosen = [i for i, line in enumerate(lines) if line.strip() and line[0] != "#"]
    out = []
    for damage in _DAMAGES:
        i = rnd.choice(chosen)
        line, fields = lines[i], lines[i].split(sep)
        if damage == "cut":
            new = [line[:rnd.randrange(len(line))]]
        elif damage == "field":
            del fields[rnd.randrange(len(fields))]
            new = [sep.join(fields)]
        elif damage == "text":
            numbers = [k for k, f in enumerate(fields) if _is_number(f)]
            fields[rnd.choice(numbers or [len(fields) - 1])] = "abc"
            new = [sep.join(fields)]
        elif damage == "repeat":
            new = [line, line]
        elif damage == "byte":
            k = rnd.randrange(len(line) + 1)
            new = [line[:k] + "\udcff" + line[k:]]  # the byte 0xff
        else:
            numbers = [k for k, f in enumerate(fields) if _is_number(f)]
            fields[(numbers or [len(fields) - 1])[-1]] = "_"
            new = [sep.join(fields)]
        damaged = lines[:i] + new + lines[i + 1:]
        out.append((damage, "".join(x + "\n" for x in damaged).encode(
            "utf-8", "surrogateescape")))
    return out


@pytest.mark.parametrize(
    "kind", ["dmv", "cmst", "rules", "config", "conllu", "gold", "pred"])
def test_malformed_input_gives_one_error_line(
    tmp_path, train_file, model_dir, capsys, kind
):
    # Every refusal is one line of one form: `error: FILE: ` and, for a fault
    # of one line, `line N: `, FILE the damaged file; and for an output path
    # that could not be written, `error: --output PATH: ` (`--out` for eval
    # and analyze).
    models, out = tmp_path / "damaged-models", tmp_path / "report"
    shutil.copytree(model_dir, models)
    path, sep = {
        "dmv": (models / "dmv.txt", " "), "cmst": (models / "cmst.txt", " "),
        "rules": (tmp_path / "rules.txt", " "),
        "config": (tmp_path / "parse.cfg", "="),
        "conllu": (tmp_path / "input.conllu", "\t"),
        "gold": (tmp_path / "gold.conllu", "\t"),
        "pred": (tmp_path / "pred.conllu", "\t"),
    }[kind]
    base = {
        "rules": "# head dependent\nNOUN DET\nVERB NOUN\nROOT VERB\n",
        "config": "max_ce_depth=1\ndep_len_beta=0.1\ng_weight=1.0\nworkers=1\n",
    }.get(kind) or (train_file if sep == "\t" else path).read_text()
    parse = ["parse", "--model", str(models), "--input", str(train_file),
             "--output", str(out)]
    argv = {
        "dmv": parse + ["--decoder", "dmv"],
        "cmst": parse + ["--decoder", "cmst"],
        "rules": ["analyze", "--pred", str(train_file), "--rules", str(path),
                  "--out", str(out)],
        "config": ["parse", "--model", str(model_dir), "--config", str(path),
                   "--input", str(train_file), "--output", str(out)],
        "conllu": ["parse", "--model", str(model_dir), "--input", str(path),
                   "--output", str(out)],
        "gold": ["eval", "--gold", str(path), "--pred", str(train_file),
                 "--out", str(out)],
        "pred": ["eval", "--gold", str(train_file), "--pred", str(path),
                 "--out", str(out)],
    }[kind]
    file_fault = re.compile(rf"error: {re.escape(str(path))}: (line [1-9]\d*: )?\S")
    outcomes = set()
    for seed in range(3):
        for damage, data in _damaged_copies(base, sep, seed):
            path.write_bytes(data)
            rc = run(argv)
            err = capsys.readouterr().err
            assert "Traceback" not in err, (damage, seed)
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(errors) <= 1, (damage, seed, err)
            assert rc == EXIT_OK or (rc == EXIT_DATA and errors), (
                damage, seed, rc, err)
            if rc == EXIT_DATA:
                assert file_fault.match(errors[0]), (damage, seed, err)
            outcomes.add(rc)
    # The damages reach the loaders' refusals, not only harmless lines.
    assert outcomes - {EXIT_OK}
    # With the file mended, an output in a missing directory is refused.
    path.write_text(base)
    flag = argv[argv.index(str(out)) - 1]
    nodir = tmp_path / "nodir" / "report"
    assert run([str(nodir) if a == str(out) else a for a in argv]) == EXIT_DATA
    assert re.fullmatch(rf"error: {flag} {re.escape(str(nodir))}: \S.*\n",
                        capsys.readouterr().err)


_KINDS = ["dmv", "cmst", "rules", "config", "conllu"]


def _text_inputs(tmp_path, train_file, model_dir):
    """One file of each kind that the command line reads, with the argv of a
    run that reads it."""
    rules, config = tmp_path / "rules.txt", tmp_path / "parse.cfg"
    conllu, out = tmp_path / "input.conllu", tmp_path / "out"
    rules.write_text("# head dependent\nNOUN DET\n\nVERB NOUN\nROOT VERB\n")
    config.write_text("max_ce_depth=1\n\ng_weight = 0.5  # a comment\nworkers=1\n")
    shutil.copy(train_file, conllu)
    parse = ["parse", "--model", str(model_dir), "--input", str(train_file),
             "--output", str(out)]
    return {
        "dmv": (model_dir / "dmv.txt", [*parse, "--decoder", "dmv"]),
        "cmst": (model_dir / "cmst.txt", [*parse, "--decoder", "cmst"]),
        "rules": (rules, ["train", "--mode", "cmst-only", "--rules", str(rules),
                          "--train", str(train_file), "--out", str(out)]),
        "config": (config, [*parse, "--config", str(config)]),
        "conllu": (conllu, [*parse[:3], "--input", str(conllu), *parse[5:]]),
    }


@pytest.mark.parametrize("kind", _KINDS)
def test_non_utf8_byte_is_refused_on_its_line(
    tmp_path, train_file, model_dir, capsys, kind
):
    # Every reader decodes line by line, so a byte that is not UTF-8 is
    # named by its file and line, as every other refusal of a file is.
    path, argv = _text_inputs(tmp_path, train_file, model_dir)[kind]
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:2] + b"\xff" + lines[2][2:]
    path.write_bytes(b"\n".join(lines))
    assert run(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: line 3: not UTF-8 text\n"
    assert not (tmp_path / "out").exists()


def _assert_loads_as_before(tmp_path, train_file, model_dir, kind, edit):
    """The file of `kind`, its bytes edited by `edit`, loads to the same
    corpus, tables, weights, rules or settings, and the run that reads it
    writes the same bytes."""
    path, argv = _text_inputs(tmp_path, train_file, model_dir)[kind]
    load = {
        "dmv": DmvParams.load, "cmst": CmstModel.load,
        "rules": cmst.load_rules, "config": lambda p: load_config(str(p), {}),
        "conllu": read_conllu,
    }[kind]

    def loaded():
        value = load(path)
        if kind in ("dmv", "cmst"):
            return {k: v.tolist() if isinstance(v, np.ndarray) else v
                    for k, v in vars(value).items()}
        return value

    def written():
        assert run(argv) == EXIT_OK
        out = tmp_path / "out"
        files = sorted(out.rglob("*")) if out.is_dir() else [out]
        data = {p.relative_to(out): p.read_bytes() for p in files if p.is_file()}
        if out.is_dir():
            shutil.rmtree(out)
        else:
            out.unlink()
        return data

    before = loaded(), written()
    path.write_bytes(edit(path.read_bytes()))
    assert (loaded(), written()) == before


@pytest.mark.parametrize("kind", _KINDS)
def test_crlf_file_loads_as_its_lf_copy(tmp_path, train_file, model_dir, kind):
    # "\r\n" line endings read as "\n".
    def crlf(text):
        assert b"\r" not in text
        return text.replace(b"\n", b"\r\n")

    _assert_loads_as_before(tmp_path, train_file, model_dir, kind, crlf)


@pytest.mark.parametrize("kind", _KINDS)
def test_bom_file_reads_as_unmarked(tmp_path, train_file, model_dir, kind):
    # A leading UTF-8 byte-order mark, as some editors write, is not read as
    # part of the first line.
    def bom(text):
        assert not text.startswith(codecs.BOM_UTF8)
        return codecs.BOM_UTF8 + text

    _assert_loads_as_before(tmp_path, train_file, model_dir, kind, bom)
