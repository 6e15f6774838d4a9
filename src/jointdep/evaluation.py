"""Directed accuracy and analysis statistics over predicted parses."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from . import dmv
from .corpus import Corpus, DepTree
from .cmst import RuleSet


@dataclass
class EvalReport:
    dda_all: float
    dda_le15: float
    tokens_scored: int
    tokens_scored_le15: int
    sentences_scored: int

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("dda_all", "%.6f" % self.dda_all),
            ("dda_le15", "%.6f" % self.dda_le15),
            ("tokens_scored", str(self.tokens_scored)),
            ("tokens_scored_le15", str(self.tokens_scored_le15)),
            ("sentences_scored", str(self.sentences_scored)),
        ]


@dataclass
class AnalysisReport:
    rule_satisfaction_overall: float
    rule_satisfaction_by_head_tag: dict[str, float]
    arcs_total: int
    avg_dep_length: float | None
    ce_depth_histogram: dict[int, int]

    def rows(self) -> list[tuple[str, str]]:
        out = [
            ("rule_satisfaction_overall", "%.6f" % self.rule_satisfaction_overall),
        ]
        for tag in sorted(self.rule_satisfaction_by_head_tag):
            out.append(
                (f"rule_satisfaction[{tag}]",
                 "%.6f" % self.rule_satisfaction_by_head_tag[tag])
            )
        if self.avg_dep_length is not None:
            out.append(("avg_dep_length", "%.6f" % self.avg_dep_length))
        for depth in sorted(self.ce_depth_histogram):
            out.append((f"ce_depth[{depth}]", str(self.ce_depth_histogram[depth])))
        return out


def directed_accuracy(
    gold: Corpus,
    pred: Sequence[DepTree],
    max_len: int = 40,
    exclude_punct: bool = True,
) -> EvalReport:
    """Fraction of scored tokens whose predicted head matches the gold head.

    Punctuation tokens are not scored when exclude_punct; sentences longer
    than max_len are left out.  Both the max_len slice and the <=15 slice are
    reported.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if len(pred) != gold.N:
        raise ValueError(f"got {len(pred)} trees for {gold.N} sentences")
    correct = scored = 0
    correct15 = scored15 = 0
    n_sent = 0
    for i, (sent, tree) in enumerate(zip(gold, pred)):
        if sent.n > max_len:
            continue
        heads = sent.gold_heads()
        if heads is None:
            raise ValueError(f"sentence {i} is missing gold heads")
        if tree.n != sent.n:
            raise ValueError(
                f"sentence {i}: tree length {tree.n} != sentence length {sent.n}"
            )
        c = s = 0
        for tok, g, p in zip(sent.tokens, heads, tree.heads):
            if exclude_punct and tok.is_punct:
                continue
            s += 1
            if g == p:
                c += 1
        n_sent += 1
        correct += c
        scored += s
        if sent.n <= 15:
            correct15 += c
            scored15 += s
    return EvalReport(
        dda_all=correct / scored if scored else 0.0,
        dda_le15=correct15 / scored15 if scored15 else 0.0,
        tokens_scored=scored,
        tokens_scored_le15=scored15,
        sentences_scored=n_sent,
    )


def rule_satisfaction(
    pred: Sequence[DepTree], c: Corpus, r: RuleSet
) -> tuple[float, dict[str, float], int]:
    """Fraction of predicted arcs licensed by the rule set, overall and
    grouped by head tag (root arcs grouped under ROOT)."""
    if len(pred) != c.N:
        raise ValueError(f"got {len(pred)} trees for {c.N} sentences")
    sat = Counter()
    tot = Counter()
    for sent, tree in zip(c, pred):
        tags = sent.upos
        for d, h in enumerate(tree.heads, start=1):
            head_tag = "ROOT" if h == 0 else tags[h - 1]
            tot[head_tag] += 1
            if (head_tag, tags[d - 1]) in r:
                sat[head_tag] += 1
    total = sum(tot.values())
    overall = sum(sat.values()) / total if total else 0.0
    by_tag = {tag: sat[tag] / tot[tag] for tag in tot}
    return overall, by_tag, total


def avg_dep_length(pred: Sequence[DepTree]) -> float:
    """Mean absolute head-dependent distance over non-root arcs."""
    total = 0
    count = 0
    for tree in pred:
        for d, h in enumerate(tree.heads, start=1):
            if h != 0:
                total += abs(h - d)
                count += 1
    if count == 0:
        raise ValueError("no non-root arcs to measure")
    return total / count


def ce_depth_histogram(pred: Sequence[DepTree]) -> dict[int, int]:
    hist = Counter(dmv.ce_depth(t) for t in pred)
    return dict(hist)


def analyze(
    pred: Sequence[DepTree], c: Corpus, r: RuleSet
) -> AnalysisReport:
    overall, by_tag, total = rule_satisfaction(pred, c, r)
    try:
        adl = avg_dep_length(pred)
    except ValueError:
        adl = None
    return AnalysisReport(
        rule_satisfaction_overall=overall,
        rule_satisfaction_by_head_tag=by_tag,
        arcs_total=total,
        avg_dep_length=adl,
        ce_depth_histogram=ce_depth_histogram(pred),
    )


def write_csv(rows: Sequence[tuple[str, str]], sink) -> None:
    sink.write("metric,value\n")
    for name, value in rows:
        sink.write(f"{name},{value}\n")


def format_table(rows: Sequence[tuple[str, str]]) -> str:
    width = max(len(name) for name, _ in rows) if rows else 0
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows) + "\n"
