"""Write one workload's inputs into a directory.

    python3 perfbench/make_inputs.py --workload parse-dd --seed 1 --out DIR

Writes DIR/gold.conllu (the planted corpus with its gold trees, sentences in
the order `--seed` draws), DIR/order.json (the planted index of each
sentence in the file), DIR/env.json (library versions) and, for parse
workloads, the model directory DIR/model with the planted grammar as dmv.txt
and the untrained rules-prior discriminative model as cmst.txt. Needs
`src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from jointdep.cmst import CmstModel
from jointdep.corpus import Corpus, write_conllu_file

sys.path.insert(0, str(Path(__file__).resolve().parent))
from plant import plant_grammar, sample_corpus  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def make_inputs(name: str, seed: int, out: Path) -> None:
    spec = WORKLOADS[name]
    rng = np.random.default_rng(spec.planted_seed)
    theta = plant_grammar(rng)
    corpus, trees = sample_corpus(theta, rng, list(spec.lengths))
    order = np.random.default_rng(seed).permutation(corpus.N).tolist()
    out.mkdir(parents=True, exist_ok=True)
    write_conllu_file(
        Corpus(tuple(corpus.sentences[i] for i in order), corpus.pos_vocab),
        [trees[i] for i in order],
        out / "gold.conllu",
    )
    (out / "order.json").write_text(json.dumps(order))
    if spec.kind == "parse":
        (out / "model").mkdir(exist_ok=True)
        theta.save(out / "model" / "dmv.txt")
        CmstModel.create(theta.vocab).save(out / "model" / "cmst.txt")
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **{k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }
    (out / "env.json").write_text(json.dumps(env, sort_keys=True))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    make_inputs(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
