import functools
import io
import os
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
from jointdep import trainer
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


def test_eval_rejects_invalid_predicted_tree(tmp_path, train_file, capsys):
    bad = tmp_path / "badpred.conllu"
    bad.write_text(
        "1\tw\tw\tNOUN\t_\t_\t0\t_\t_\t_\n"
        "2\tw\tw\tNOUN\t_\t_\t0\t_\t_\t_\n"
    )
    rc = run(["eval", "--gold", str(bad), "--pred", str(bad)])
    assert rc == EXIT_DATA  # two roots is not a valid tree
    assert "sentence 0" in capsys.readouterr().err


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


def _parse(model, input_file, output, decoder="dd"):
    return run([
        "parse", "--model", str(model), "--decoder", decoder,
        "--input", str(input_file), "--output", str(output),
    ])


def _negative_root(lines):
    """Root probabilities -1, 1, 1: they sum to one, but one is negative."""
    values = iter(("-1", "1", "1"))
    return [
        f"root {line.split()[1]} {next(values)}" if line.startswith("root ")
        else line
        for line in lines
    ]


@pytest.mark.parametrize("name, damage", [
    pytest.param("dmv.txt", lambda lines: [], id="dmv-empty"),
    pytest.param("dmv.txt", lambda lines: lines[:1], id="dmv-header-only"),
    pytest.param("dmv.txt", lambda lines: lines[:30], id="dmv-head-30"),
    pytest.param("dmv.txt", lambda lines: lines[:-1], id="dmv-last-missing"),
    pytest.param(
        "dmv.txt", lambda lines: lines[:-1] + [lines[-1].rsplit(" ", 1)[0]],
        id="dmv-short-record",
    ),
    pytest.param(
        "dmv.txt", lambda lines: lines[:-1] + [lines[-1].replace("VERB", "ADJ")],
        id="dmv-unknown-tag",
    ),
    pytest.param("dmv.txt", _negative_root, id="dmv-negative-root"),
    pytest.param("cmst.txt", lambda lines: lines[:1], id="cmst-header-only"),
    pytest.param("cmst.txt", lambda lines: lines + ["w 3"], id="cmst-short-w"),
    pytest.param(
        "cmst.txt", lambda lines: lines + ["w 99999999 1.0"],
        id="cmst-w-out-of-range",
    ),
])
def test_damaged_model_file_is_data_error(
    tmp_path, train_file, model_dir, capsys, name, damage
):
    path = model_dir / name
    path.write_text("".join(
        line + "\n" for line in damage(path.read_text().splitlines())
    ))
    rc = _parse(model_dir, train_file, tmp_path / "o.conllu")
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert err.startswith("error: ") and err.count("\n") == 1


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
    real_pool = trainer.ProcessPoolExecutor

    def spy_pool(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(trainer, "ProcessPoolExecutor", spy_pool)
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("JOINTDEP_WORKERS", workers)
        pred = tmp_path / f"pred{workers}.conllu"
        assert _parse(model_dir, train_file, pred) == EXIT_OK
        outputs.append(pred.read_bytes())
    assert pools == [2]
    assert outputs[0] == outputs[1]


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
