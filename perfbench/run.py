"""The jointdep benchmark.

    python3 perfbench/run.py --workload parse-dd --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout of the repository; it imports the package
from `src` and writes only under `.perfbench_work`. It sets up the workload's
inputs (see workloads.py) three times in fresh interpreters, then runs the
workload's jointdep command, each time in a new process through the CLI
entry, until `--seconds` are used (at least three times), and checks every
command's output. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
library versions, BLAS settings and CPU count, every sample behind the
medians, and any problem the checks found.

With `--trace 0` the metrics are the end-to-end ones, measured with no
tracing. With `--trace 1` untraced and traced commands alternate; the traced
ones run under traced.py, and the metrics are the per-layer ones from their
spans, plus the traced wall time against the untraced one.

The BLAS thread count of every process is pinned to one: lsqr reductions
change with it, and Frank-Wolfe's discrete step amplifies the difference, so
the trained weights would otherwise depend on the machine.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SET_UPS = 3
MIN_COMMANDS = 3
# Every process the benchmark starts must have ended by then.
HARD_LIMIT_S = 165.0

sys.path[:0] = [str(HERE), str(SRC)]
from workloads import WORKLOADS  # noqa: E402

try:
    import checks  # noqa: E402
except ImportError as exc:
    sys.exit(f"error: {exc}: run from the root of a checkout of the repository")
import traced  # noqa: E402
from jointdep.corpus import read_conllu  # noqa: E402

# A fixed pure-Python loop that looks up and rebuilds tuples in a dict-indexed
# table, as the chart passes do, timed before the first command and after
# each one. On the shared 2-vCPU machine the benchmark was written on,
# identical commands ran 25% faster or slower from one run to the next, a
# minute apart, so no median of wall times held a bound of 0.25 over ten
# runs. `cmd_norm`, the median command time over the median loop time of the
# same run, cancels part of that drift. Wall times are still reported: by the
# traced run (`cli.cmd_s`) and in the line before every result.
REFERENCE_STEPS = 1_600_000


def reference_s() -> float:
    t0 = time.perf_counter()
    index: dict[tuple, int] = {}
    cells: list[tuple] = []
    for i in range(REFERENCE_STEPS):
        key = (i % 211, (i * 7) % 13, i & 3)
        j = index.get(key)
        if j is None:
            index[key] = len(cells)
            cells.append((i, 0.5))
        else:
            cells[j] = (i, cells[j][1] + 0.25)
    best = float("-inf")
    for _, v in cells:
        if v > best:
            best = v
    return time.perf_counter() - t0


E2E_UNITS = {
    "setup_s": "s",
    "cmd_norm": "ref",
    "dda": "ratio",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def per_layer_unit(name: str) -> str:
    if name.endswith(("_ms", "ms_per_sent")):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name == "dmv.chart_cells":
        return "cells"
    if name.startswith("share.") or name.endswith(("agree_rate", "overhead_frac")):
        return "ratio"
    if name == "cmst.fw_gap_final":
        return "1"
    return "count"


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        start = time.monotonic()
        self.deadline = start + seconds
        self.hard_deadline = start + HARD_LIMIT_S
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.log = self.dir / "children.log"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first = None            # (digest, trees) of the first command
        self.reparsed: dict[str, Path] = {}

    # -- child processes -------------------------------------------------

    def child(self, argv: list[str]) -> tuple[int, float, float]:
        """Exit code, wall seconds and peak RSS in MB of one command, run
        through launch.py in a process group of its own, which is killed
        when the launcher ends or the benchmark's hard deadline passes."""
        result = self.dir / "launch.json"
        result.unlink(missing_ok=True)
        t0 = time.perf_counter()
        with open(self.log, "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, "-S", str(HERE / "launch.py"), str(result),
                 *argv],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        try:
            proc.wait(timeout=max(0.0, self.hard_deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0 or not result.is_file():
            return proc.returncode or 1, time.perf_counter() - t0, 0.0
        r = json.loads(result.read_text())
        return r["rc"], r["wall_s"], r["peak_rss_mb"]

    def set_up(self) -> float:
        """Writes the inputs SET_UPS times; returns the median wall time."""
        walls, hashes = [], set()
        for i in range(SET_UPS):
            out = self.dir / f"inputs{i}"
            rc, wall, _ = self.child([
                sys.executable, str(HERE / "make_inputs.py"), "--workload",
                self.name, "--seed", str(self.seed), "--out", str(out)])
            if rc != 0:
                raise BenchError(f"set-up exited with {rc}")
            walls.append(wall)
            hashes.add(checks.tree_hash(out, (".",)))
        if len(hashes) != 1:
            raise BenchError("set-ups of one seed wrote different inputs")
        self.inputs = self.dir / "inputs0"
        return statistics.median(walls)

    def argv(self, out: Path, spans: Path | None = None) -> list[str]:
        inputs = self.inputs
        out.mkdir()
        if self.spec.kind == "parse":
            args = ["parse", "--model", str(inputs / "model"), "--input",
                    str(inputs / "gold.conllu"), "--output",
                    str(out / "pred.conllu")]
        else:
            args = ["train", "--train", str(inputs / "gold.conllu"), "--out",
                    str(out)]
        args += self.spec.args
        if spans is None:
            return [sys.executable, "-m", "jointdep.cli", *args]
        return [sys.executable, str(HERE / "traced.py"), str(spans), *args]

    # -- output checks -----------------------------------------------------

    def check(self, out: Path, rc: int) -> None:
        """Checks one command's output and adds it to the operation counts."""
        ops = self.gold.N if self.spec.kind == "parse" else 1
        self.attempted += ops
        problems = [f"exit code {rc}"] if rc else []
        trees: list = []
        if not problems:
            trees_path, checkpoints = self.outputs(out)
            problems = checks.check_checkpoints(checkpoints)
            if trees_path is None and not problems:
                trees_path = self.reparse(out, checkpoints)
            if trees_path is not None:
                trees, tree_problems = checks.check_trees(self.gold, trees_path)
                problems += tree_problems
        if not problems:
            digest = checks.digest(trees, self.order, checkpoints)
            if self.first is None:
                self.first = (digest, trees)
            elif digest != self.first[0]:
                problems.append("output differs from the first command's")
        if problems:
            # A parse fails sentence by sentence when only some trees are
            # bad; any other problem fails every operation of the command.
            bad = sum(t is None for t in trees)
            self.failed += bad if self.spec.kind == "parse" and bad else ops
            self.problems += [f"{out.name}: {p}" for p in problems]

    def outputs(self, out: Path) -> tuple[Path | None, list[Path]]:
        """The trees file and checkpoints a command wrote; the trees file is
        None when the command writes no trees (cmst-only training)."""
        if self.spec.kind == "parse":
            return out / "pred.conllu", []
        iters = sorted(out.glob("iter*"))
        if iters:
            return iters[-1] / "trees.conllu", [iters[-1] / "dmv.txt",
                                                 iters[-1] / "cmst.txt"]
        return None, [out / "cmst.txt"]

    def reparse(self, out: Path, checkpoints: list[Path]) -> Path:
        """Parses the training file with a trained discriminative model, once
        per distinct checkpoint, to get the trees it would output."""
        key = checks.digest([], [], checkpoints)
        if key not in self.reparsed:
            pred = out / "pred.conllu"
            rc, _, _ = self.child([
                sys.executable, "-m", "jointdep.cli", "parse", "--model",
                str(out), "--decoder", "cmst", "--input",
                str(self.inputs / "gold.conllu"), "--output", str(pred)])
            if rc != 0:
                self.problems.append(f"{out.name}: cmst parse exited with {rc}")
            self.reparsed[key] = pred
        return self.reparsed[key]

    # -- runs ----------------------------------------------------------------

    def commands_left(self, walls: list[float], done: int, minimum: int) -> bool:
        now = time.monotonic()
        if now + 2 * max(walls) > self.hard_deadline:
            return False
        return done < minimum or now + statistics.median(walls) <= self.deadline

    def timed(self) -> dict[str, float]:
        walls, refs, rss = [], [reference_s()], []
        i = 0
        while not walls or self.commands_left(walls, i, MIN_COMMANDS):
            out = self.dir / f"cmd{i}"
            rc, wall, mb = self.child(self.argv(out))
            refs.append(reference_s())
            self.check(out, rc)
            walls.append(wall)
            rss.append(mb)
            i += 1
        self.samples = {"cmd_s": walls, "ref_s": refs, "peak_rss_mb": rss}
        return {
            "cmd_norm": statistics.median(walls) / statistics.median(refs),
            "dda": self.dda(),
            "peak_rss_mb": statistics.median(rss),
            "ok_rate": (self.attempted - self.failed) / self.attempted,
        }

    def traced(self) -> dict[str, float]:
        plain, walls, layers, missing = [], [], [], set()
        i = 0
        while not walls or self.commands_left(
                [a + b for a, b in zip(plain, walls)], i, 2):
            order = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
            for which in order:
                out = self.dir / f"cmd{i}-{which}"
                spans = out.with_suffix(".spans.json") if which == "traced" else None
                rc, wall, _ = self.child(self.argv(out, spans))
                self.check(out, rc)
                if spans is None:
                    plain.append(wall)
                    continue
                walls.append(wall)
                if rc == 0:
                    trace = json.loads(spans.read_text())
                    missing.update(trace["missing"])
                    layers.append(traced.layer_metrics(trace))
            i += 1
        if not layers:   # every traced command failed: report zeros
            layers.append(traced.layer_metrics({"spans": [], "chart_cells": 0}))
        self.exact = {k: layers[0][k] for k in traced.EXACT}
        if any({k: m[k] for k in traced.EXACT} != self.exact for m in layers):
            self.problems.append("work counts differ between traced commands")
        # A target the code no longer has is reported, and its metrics read 0.
        self.samples = {"traced_s": walls, "plain_s": plain,
                        "not_traced": sorted(missing)}
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["cli.cmd_s"] = statistics.median(plain)
        # Each traced command against the untraced one next to it, so that
        # both saw the machine at about the same speed.
        metrics["trace.overhead_frac"] = statistics.median(
            t / p for t, p in zip(walls, plain)) - 1.0
        return metrics

    def dda(self) -> float:
        if self.first is None:
            return 0.0
        return checks.dda(self.gold, self.first[1])

    def run(self, trace: bool) -> dict:
        self.dir.mkdir(parents=True)
        setup_s = self.set_up()
        self.gold = read_conllu(self.inputs / "gold.conllu")
        self.order = json.loads((self.inputs / "order.json").read_text())
        metrics = self.traced() if trace else self.timed()
        if not trace:
            metrics["setup_s"] = setup_s
            self.samples["setup_s"] = setup_s
        # Results repeat across runs of one version of the code: for parse
        # workloads whatever the seed, for training on the seed's order.
        code = checks.tree_hash(ROOT, ("src", "perfbench"))
        seed_key = "*" if self.spec.kind == "parse" else str(self.seed)
        record = checks.Record(WORK / "record.json")
        key = f"{self.name}|{seed_key}|{code}"
        if self.first is not None and not record.agree(key + "|digest", self.first[0]):
            self.problems.append("output differs from an earlier run of this code")
        if trace and not record.agree(key + "|counts", self.exact):
            self.problems.append("work counts differ from an earlier run of this code")
        info = {
            "workload": self.name,
            "seed": self.seed,
            "env": json.loads((self.inputs / "env.json").read_text()),
            "samples": self.samples,
            "problems": self.problems[:20],
        }
        print(json.dumps(info))
        units = E2E_UNITS if not trace else {k: per_layer_unit(k) for k in metrics}
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in sorted(units)},
        }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Stopped from outside, still stop the running child and clean up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    WORK.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        result = runner.run(bool(args.trace))
    except BenchError as exc:
        if runner.log.is_file():
            sys.stderr.write(runner.log.read_text(errors="replace")[-4000:])
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
