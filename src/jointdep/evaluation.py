"""Directed accuracy and analysis statistics over predicted parses."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from . import dmv
from .corpus import Corpus, DepTree, LineError
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
            if sent.line is None:
                raise ValueError(f"sentence {i}: no gold heads")
            raise LineError("no gold heads", sent.line)
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
) -> tuple[float, dict[str, float]]:
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
    return overall, by_tag


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


def analyze(
    pred: Sequence[DepTree], c: Corpus, r: RuleSet
) -> list[tuple[str, str]]:
    """The (name, value) rows of `jointdep analyze`: rule satisfaction,
    overall and by head tag, the mean dependency length when there is a
    non-root arc, and how many trees have each center-embedding depth."""
    overall, by_tag = rule_satisfaction(pred, c, r)
    rows = [("rule_satisfaction_overall", "%.6f" % overall)]
    rows += [(f"rule_satisfaction[{t}]", "%.6f" % by_tag[t]) for t in sorted(by_tag)]
    try:
        rows.append(("avg_dep_length", "%.6f" % avg_dep_length(pred)))
    except ValueError:
        pass
    depths = Counter(dmv.ce_depth(t) for t in pred)
    return rows + [(f"ce_depth[{d}]", str(depths[d])) for d in sorted(depths)]


def write_csv(rows: Sequence[tuple[str, str]], sink) -> None:
    sink.write("metric,value\n")
    for name, value in rows:
        sink.write(f"{name},{value}\n")


def format_table(rows: Sequence[tuple[str, str]]) -> str:
    width = max(len(name) for name, _ in rows) if rows else 0
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows) + "\n"
