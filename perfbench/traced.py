"""Run one jointdep command with spans recorded around its layers.

    python3 perfbench/traced.py SPANS.json train --mode joint ...

Wraps the public functions of the layers (and FrankWolfeOptimizer's
constructor, step and objective) before calling `jointdep.cli.run` with the remaining
arguments, keeps each call as a span (name, start, end, parent, info) in
memory, and writes the spans to SPANS.json when the command ends. Exits with
the command's exit code. Needs `src` on PYTHONPATH. `layer_metrics` turns the
spans of one command into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

# (module, attribute, span name). Several attributes may share a span name
# when a module imported the function under its own name.
SPAN_TARGETS = (
    ("jointdep.cli", "run", "cli.run"),
    ("jointdep.cli", "read_conllu", "corpus.read_conllu"),
    ("jointdep.cli", "write_conllu_file", "corpus.write_conllu_file"),
    ("jointdep.trainer", "write_conllu_file", "corpus.write_conllu_file"),
    ("jointdep.trainer", "train", "trainer.train"),
    ("jointdep.trainer", "pretrain", "trainer.pretrain"),
    ("jointdep.trainer", "joint_objective", "trainer.joint_objective"),
    ("jointdep.trainer", "decode_corpus", "trainer.decode_corpus"),
    ("jointdep.trainer", "dd_decode", "decoder.dd_decode"),
    ("jointdep.decoder", "dd_decode", "decoder.dd_decode"),
    ("jointdep.dmv", "em_step", "dmv.em_step"),
    ("jointdep.dmv", "build_decode_chart", "dmv.build_decode_chart"),
    ("jointdep.dmv", "viterbi_decode", "dmv.viterbi_decode"),
    ("jointdep.dmv", "mstep_from_trees", "dmv.mstep_from_trees"),
    ("jointdep.dmv", "tree_logprob", "dmv.tree_logprob"),
    ("jointdep.cmst", "extract_features", "cmst.extract_features"),
    ("jointdep.cmst", "eisner_min", "cmst.eisner_min"),
    ("jointdep.cmst", "sgd_update", "cmst.sgd_update"),
    ("jointdep.cmst.FrankWolfeOptimizer", "__init__", "cmst.fw_init"),
    ("jointdep.cmst.FrankWolfeOptimizer", "step", "cmst.fw_step"),
    ("jointdep.cmst.FrankWolfeOptimizer", "objective", "cmst.fw_objective"),
)

# The one private function wrapped: every chart the grammar builds, whichever
# public call built it, goes through it. It is counted (sum of n**3), not
# timed, so that chart reuse shows as fewer cells.
CHART_COMPILER = ("jointdep.dmv", "_build_chart")


def _span_info(name, args, result):
    """Work counts kept with a span: what the call processed or returned."""
    if name == "dmv.em_step":
        return len(args[0].sentences)
    if name == "decoder.dd_decode":
        return [result.iterations, result.converged, result.relaxed_depth_cap]
    if name == "cmst.fw_step":
        return result
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, info]
        self.chart_cells = 0
        self._open: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1, None])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
                spans[idx][4] = _span_info(name, args, result)
                return result
            finally:
                open_.pop()
                spans[idx][2] = clock()

        return wrapper

    def _count_cells(self, fn):
        def wrapper(pos, *args, **kwargs):
            self.chart_cells += len(pos) ** 3
            return fn(pos, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        wrapped = {}
        for path, attr, name in SPAN_TARGETS:
            owner = _resolve(path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{path}.{attr}")
                continue
            key = (name, fn)
            if key not in wrapped:
                wrapped[key] = self._wrap(name, fn)
            setattr(owner, attr, wrapped[key])
        owner = _resolve(CHART_COMPILER[0])
        fn = getattr(owner, CHART_COMPILER[1], None)
        if fn is None:
            self.missing.append(".".join(CHART_COMPILER))
        else:
            setattr(owner, CHART_COMPILER[1], self._count_cells(fn))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "chart_cells": self.chart_cells,
                       "missing": self.missing}, f)


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one command
# ---------------------------------------------------------------------------

LAYERS = ("cli", "trainer", "dmv", "cmst", "decoder", "corpus")

# DD iteration histogram buckets (inclusive bounds); the last one holds the
# default iteration cap of 50.
DD_BUCKETS = ((1, 1), (2, 4), (5, 9), (10, 19), (20, 49), (50, 50))


def _pct(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command. Times are seconds unless the
    name says ms; `self_s` is a span's duration minus its child spans."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, list] = {}
    for i, (name, start, end, _, info) in enumerate(spans):
        by_name.setdefault(name, []).append(
            (end - start, end - start - child_time[i], info))

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, part=0):
        return sum(s[part] for s in by_name.get(name, ()))

    def ms(name):
        return [s[0] * 1e3 for s in by_name.get(name, ())]

    m: dict[str, float] = {}
    sent = sum(s[2] for s in by_name.get("dmv.em_step", ()))
    m["dmv.em_step.calls"] = calls("dmv.em_step")
    m["dmv.em_step.s"] = total("dmv.em_step")
    m["dmv.em_step.sent"] = sent
    m["dmv.em_step.ms_per_sent"] = 1e3 * total("dmv.em_step") / sent if sent else 0.0
    m["dmv.build_decode_chart.calls"] = calls("dmv.build_decode_chart")
    m["dmv.build_decode_chart.s"] = total("dmv.build_decode_chart")
    m["dmv.chart_cells"] = trace["chart_cells"]
    m["dmv.viterbi_decode.calls"] = calls("dmv.viterbi_decode")
    m["dmv.viterbi_decode.s"] = total("dmv.viterbi_decode")
    m["dmv.viterbi_decode.p50_ms"] = _pct(ms("dmv.viterbi_decode"), 0.5)
    m["dmv.viterbi_decode.p90_ms"] = _pct(ms("dmv.viterbi_decode"), 0.9)
    m["dmv.mstep_from_trees.s"] = total("dmv.mstep_from_trees")
    m["dmv.tree_logprob.s"] = total("dmv.tree_logprob")
    m["cmst.sgd_update.calls"] = calls("cmst.sgd_update")
    m["cmst.sgd_update.s"] = total("cmst.sgd_update")
    m["trainer.joint_objective.calls"] = calls("trainer.joint_objective")
    m["trainer.joint_objective.s"] = total("trainer.joint_objective")
    m["trainer.pretrain.s"] = total("trainer.pretrain")
    m["cmst.eisner_min.calls"] = calls("cmst.eisner_min")
    m["cmst.eisner_min.s"] = total("cmst.eisner_min")
    m["cmst.fw_init.s"] = total("cmst.fw_init")
    m["cmst.fw_step.calls"] = calls("cmst.fw_step")
    m["cmst.fw_step.s"] = total("cmst.fw_step")
    # What a step spends outside eisner_min and the objective: the ridge
    # solve, which is private, and the line search.
    m["cmst.fw_step.self_s"] = total("cmst.fw_step", 1)
    m["cmst.fw_objective.s"] = total("cmst.fw_objective")
    gaps = [s[2] for s in by_name.get("cmst.fw_step", ())]
    m["cmst.fw_gap_final"] = gaps[-1] if gaps else 0.0
    m["cmst.extract_features.calls"] = calls("cmst.extract_features")
    m["cmst.extract_features.s"] = total("cmst.extract_features")
    dd = [s[2] for s in by_name.get("decoder.dd_decode", ())]
    iters = [d[0] for d in dd]
    m["decoder.dd_decode.calls"] = len(dd)
    m["decoder.dd_decode.s"] = total("decoder.dd_decode")
    m["decoder.dd_decode.self_s"] = total("decoder.dd_decode", 1)
    m["decoder.dd_decode.p50_ms"] = _pct(ms("decoder.dd_decode"), 0.5)
    m["decoder.dd_decode.p90_ms"] = _pct(ms("decoder.dd_decode"), 0.9)
    m["decoder.dd_iters.total"] = sum(iters)
    m["decoder.dd_iters.mean"] = statistics.fmean(iters) if iters else 0.0
    m["decoder.dd_iters.p90"] = _pct(iters, 0.9)
    for lo, hi in DD_BUCKETS:
        key = f"decoder.dd_iters.h{lo}" if lo == hi else f"decoder.dd_iters.h{lo}_{hi}"
        m[key] = sum(lo <= k <= hi for k in iters)
    m["decoder.agree_rate"] = sum(d[1] for d in dd) / len(dd) if dd else 0.0
    m["decoder.at_cap"] = sum(not d[1] for d in dd)
    m["decoder.relaxed"] = sum(d[2] for d in dd)
    m["corpus.read_conllu.s"] = total("corpus.read_conllu")
    m["corpus.write_conllu_file.s"] = total("corpus.write_conllu_file")
    wall = total("cli.run")
    for layer in LAYERS:
        own = sum(s[1] for name, rows in by_name.items()
                  if name.split(".")[0] == layer for s in rows)
        m[f"share.{layer}"] = own / wall if wall else 0.0
    return m


# Metrics that count work or report results: they must repeat exactly
# between runs of the same code on the same input.
EXACT = (
    "dmv.em_step.calls", "dmv.em_step.sent", "dmv.build_decode_chart.calls",
    "dmv.chart_cells", "dmv.viterbi_decode.calls", "cmst.sgd_update.calls",
    "trainer.joint_objective.calls", "cmst.eisner_min.calls",
    "cmst.fw_step.calls", "cmst.fw_gap_final", "cmst.extract_features.calls",
    "decoder.dd_decode.calls", "decoder.dd_iters.total",
    "decoder.dd_iters.mean", "decoder.dd_iters.p90", "decoder.agree_rate",
    "decoder.at_cap", "decoder.relaxed",
) + tuple(
    f"decoder.dd_iters.h{lo}" if lo == hi else f"decoder.dd_iters.h{lo}_{hi}"
    for lo, hi in DD_BUCKETS
)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from jointdep import cli

    try:
        return cli.run(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
