import io

import pytest

from oracles import make_sentence

from jointdep.cmst import default_rules, parse_rules
from jointdep.corpus import Corpus, DepTree, Sentence, Token, parse_conllu
from jointdep.evaluation import (
    analyze,
    avg_dep_length,
    directed_accuracy,
    format_table,
    rule_satisfaction,
    write_csv,
)


def _gold_corpus():
    text = (
        "1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_\n"
        "2\tdog\tdog\tNOUN\t_\t_\t3\tnsubj\t_\t_\n"
        "3\tbarks\tbark\tVERB\t_\t_\t0\troot\t_\t_\n"
        "4\t.\t.\tPUNCT\t_\t_\t3\tpunct\t_\t_\n"
        "\n"
        "1\tDogs\tdog\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tbark\tbark\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    return parse_conllu(io.StringIO(text))


def test_perfect_predictions():
    gold = _gold_corpus()
    pred = [DepTree(s.gold_heads()) for s in gold]
    rep = directed_accuracy(gold, pred)
    assert rep.dda_all == 1.0
    assert rep.dda_le15 == 1.0
    assert rep.tokens_scored == 5  # punctuation excluded
    assert rep.sentences_scored == 2


def test_partial_accuracy_by_hand():
    gold = _gold_corpus()
    pred = [DepTree((2, 3, 0, 3)), DepTree((0, 1))]  # second tree inverted
    rep = directed_accuracy(gold, pred)
    # First sentence: 3/3 scored tokens correct; second: 0/2.
    assert rep.dda_all == pytest.approx(3 / 5)
    assert rep.dda_le15 == pytest.approx(3 / 5)
    assert (rep.tokens_scored, rep.sentences_scored) == (5, 2)


def test_punctuation_included_when_asked():
    gold = _gold_corpus()
    pred = [DepTree(s.gold_heads()) for s in gold]
    rep = directed_accuracy(gold, pred, exclude_punct=False)
    assert rep.tokens_scored == 6


def test_long_sentences_skipped():
    gold = _gold_corpus()
    pred = [DepTree(s.gold_heads()) for s in gold]
    rep = directed_accuracy(gold, pred, max_len=3)
    assert rep.sentences_scored == 1
    assert rep.tokens_scored == 2


def test_le15_slice_differs():
    lines = []
    for i in range(1, 21):
        head = 0 if i == 1 else 1
        lines.append(f"{i}\tw\tw\tNOUN\t_\t_\t{head}\t_\t_\t_\n")
    lines.append("\n")
    lines.append("1\tw\tw\tNOUN\t_\t_\t0\t_\t_\t_\n")
    gold = parse_conllu(lines)
    pred = [DepTree(s.gold_heads()) for s in gold]
    rep = directed_accuracy(gold, pred, max_len=40)
    assert rep.tokens_scored == 21
    assert rep.tokens_scored_le15 == 1


def test_missing_gold_heads_is_an_error():
    gold = Corpus((make_sentence(["NOUN"]),), ("NOUN",))
    with pytest.raises(ValueError, match="no gold heads") as err:
        directed_accuracy(gold, [DepTree((0,))])
    # A sentence built in code has no line, so it is named by its index.
    assert str(err.value) == "sentence 0: no gold heads"


def test_length_mismatch_is_an_error():
    gold = _gold_corpus()
    with pytest.raises(ValueError):
        directed_accuracy(gold, [DepTree((0,))])


def test_rule_satisfaction_by_hand():
    rules = parse_rules(["ROOT VERB", "VERB NOUN", "NOUN DET"])
    c = Corpus(
        (make_sentence(["DET", "NOUN", "VERB"]),), ("DET", "NOUN", "VERB")
    )
    overall, by_tag = rule_satisfaction([DepTree((2, 3, 0))], c, rules)
    assert overall == 1.0
    assert by_tag == {"NOUN": 1.0, "VERB": 1.0, "ROOT": 1.0}
    # Flip the root to the DET: ROOT->DET and DET->VERB are unlicensed.
    overall2, by_tag2 = rule_satisfaction([DepTree((0, 1, 2))], c, rules)
    assert overall2 == pytest.approx(0.0)
    assert by_tag2["ROOT"] == 0.0


def test_avg_dep_length_by_hand():
    trees = [DepTree((2, 0, 2)), DepTree((0,))]
    # Non-root arcs: 2->1 (len 1) and 2->3 (len 1).
    assert avg_dep_length(trees) == 1.0
    with pytest.raises(ValueError):
        avg_dep_length([DepTree((0,))])


def test_ce_depth_histogram():
    sents = [make_sentence(["NOUN"] * n) for n in (1, 3, 3)]
    trees = [DepTree((0,)), DepTree((2, 0, 2)), DepTree((3, 3, 0))]
    rows = dict(analyze(trees, Corpus(tuple(sents), ("NOUN",)), default_rules()))
    assert {k: v for k, v in rows.items() if k.startswith("ce_depth")} == {
        "ce_depth[0]": "2", "ce_depth[1]": "1"}


def test_analyze_combines_everything():
    c = Corpus(
        (make_sentence(["DET", "NOUN", "VERB"]),), ("DET", "NOUN", "VERB")
    )
    rows = dict(analyze([DepTree((2, 3, 0))], c, default_rules()))
    assert rows["avg_dep_length"] == "1.000000"
    assert rows["ce_depth[0]"] == "1"
    assert 0.0 <= float(rows["rule_satisfaction_overall"]) <= 1.0
    assert {"rule_satisfaction[NOUN]", "rule_satisfaction[VERB]",
            "rule_satisfaction[ROOT]"} <= set(rows)


def test_analyze_single_token_has_no_dep_length():
    c = Corpus((make_sentence(["VERB"]),), ("VERB",))
    assert "avg_dep_length" not in dict(analyze([DepTree((0,))], c, default_rules()))


def test_csv_and_table_formatting():
    gold = _gold_corpus()
    pred = [DepTree(s.gold_heads()) for s in gold]
    rep = directed_accuracy(gold, pred)
    buf = io.StringIO()
    write_csv(rep.rows(), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "metric,value"
    assert lines[1] == "dda_all,1.000000"
    table = format_table(rep.rows())
    assert "dda_all" in table and table.endswith("\n")
