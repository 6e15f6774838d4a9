"""Output checks of one benchmark command, and the record of digests and work
counts that every run of the same code must repeat.

A command's output is its trees (the parse output, the last joint checkpoint's
trees.conllu, or for cmst-only training a `parse --decoder cmst` of the
training file with the trained model) and its checkpoint files. The trees
must read back as one valid projective tree per input sentence with the
input's tokens, and the checkpoints must load. The digest covers the trees,
in the planted order so that it does not depend on `--seed`'s permutation,
and the checkpoint bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from jointdep.cmst import CmstModel
from jointdep.corpus import Corpus, ConlluParseError, DepTree, read_conllu
from jointdep.dmv import DmvParams
from jointdep.evaluation import directed_accuracy


def check_trees(gold: Corpus, path: Path) -> tuple[list, list[str]]:
    """Trees read back from `path`, one per gold sentence (None where the
    sentence is missing or its heads are not a valid projective tree)."""
    try:
        pred = read_conllu(path)
    except (OSError, ConlluParseError) as exc:
        return [None] * gold.N, [f"{path.name}: {exc}"]
    problems = []
    if pred.N != gold.N:
        problems.append(f"{pred.N} sentences for {gold.N}")
    trees = []
    for i, want in enumerate(gold):
        got = pred.sentences[i] if i < pred.N else None
        tree = None
        if got is not None and got.upos == want.upos \
                and [t.form for t in got.tokens] == [t.form for t in want.tokens]:
            try:
                tree = DepTree(got.gold_heads())
            except (TypeError, ValueError) as exc:
                problems.append(f"sentence {i}: {exc}")
        elif got is not None:
            problems.append(f"sentence {i} has other tokens")
        trees.append(tree)
    return trees, problems


def check_checkpoints(paths: list[Path]) -> list[str]:
    problems = []
    for p in paths:
        try:
            if p.name == "dmv.txt":
                DmvParams.load(p).validate(tol=1e-9)
            else:
                CmstModel.load(p)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"{p.name} does not load: {exc!r}")
    return problems


def digest(trees: list, order: list[int], checkpoints: list[Path]) -> str:
    h = hashlib.sha256()
    planted = sorted(range(len(trees)), key=lambda i: order[i])
    for i in planted:
        h.update(repr(trees[i].heads).encode())
    for p in checkpoints:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def dda(gold: Corpus, trees: list) -> float:
    """Directed accuracy with `jointdep eval`'s defaults."""
    return directed_accuracy(gold, trees).dda_all


def tree_hash(root: Path, dirs: tuple[str, ...]) -> str:
    """Content hash of the files under `dirs`, naming one version of the code."""
    h = hashlib.sha256()
    for d in dirs:
        for p in sorted((root / d).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


class Record:
    """Values every run of one version of the code must repeat, kept in a
    JSON file across runs in the same checkout."""

    def __init__(self, path: Path):
        self.path = path

    def _load(self) -> dict:
        try:
            return json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}

    def agree(self, key: str, value) -> bool:
        """False if another run stored a different value under `key`."""
        data = self._load()
        if key in data:
            return data[key] == value
        data[key] = value
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
        return True
