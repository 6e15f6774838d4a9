import io

import numpy as np
import pytest

from oracles import all_projective_heads

from jointdep.corpus import (
    ConlluParseError,
    Corpus,
    DepTree,
    filter_corpus,
    parse_conllu,
    tree_matrix,
    write_conllu,
)


def test_parse_empty_stream():
    c = parse_conllu([])
    assert c.N == 0
    assert c.pos_vocab == ()


def test_parse_two_token_block():
    text = (
        "1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_\n"
        "2\tdog\tdog\tNOUN\t_\t_\t0\troot\t_\t_\n"
    )
    c = parse_conllu(io.StringIO(text))
    assert c.N == 1
    sent = c.sentences[0]
    assert sent.n == 2
    assert sent.gold_heads() == (2, 0)
    assert c.pos_vocab == ("DET", "NOUN")


def test_parse_skips_ranges_and_empty_nodes(conllu_sample):
    c = parse_conllu(io.StringIO(conllu_sample))
    assert c.N == 2
    assert c.sentences[0].n == 4
    assert c.sentences[1].n == 2  # range and empty-node lines skipped
    assert c.sentences[1].gold_heads() == (2, 0)


def test_parse_error_carries_line_number():
    with pytest.raises(ConlluParseError) as exc:
        parse_conllu(["1\tonly\tthree\tcolumns\n"])
    assert exc.value.line_no == 1
    with pytest.raises(ConlluParseError):
        parse_conllu(["x\tw\tw\tNOUN\t_\t_\t0\t_\t_\t_\n"])


def test_parse_head_out_of_range():
    with pytest.raises(ConlluParseError):
        parse_conllu(["1\tw\tw\tNOUN\t_\t_\t5\t_\t_\t_\n"])


def test_punct_flag(conllu_sample):
    c = parse_conllu(io.StringIO(conllu_sample))
    assert c.sentences[0].tokens[3].is_punct
    assert not c.sentences[0].tokens[0].is_punct


def test_filter_corpus_thresholds(toy_corpus):
    lens = [3, 15, 16]
    sents = []
    for n in lens:
        sents.append(
            parse_conllu(
                "".join(
                    f"{i}\tw\tw\tNOUN\t_\t_\t0\t_\t_\t_\n" if i == 1 else
                    f"{i}\tw\tw\tNOUN\t_\t_\t1\t_\t_\t_\n"
                    for i in range(1, n + 1)
                ).splitlines(keepends=True)
            ).sentences[0]
        )
    c = Corpus(tuple(sents), ("NOUN",))
    kept = filter_corpus(c, 15, count_punct=True)
    assert [s.n for s in kept] == [3, 15]


def test_filter_excluding_punct():
    lines = []
    for i in range(1, 17):
        upos = "PUNCT" if i > 14 else "NOUN"
        head = 0 if i == 1 else 1
        lines.append(f"{i}\tw\tw\t{upos}\t_\t_\t{head}\t_\t_\t_\n")
    c = parse_conllu(lines)
    assert filter_corpus(c, 15, count_punct=False).N == 1
    assert filter_corpus(c, 15, count_punct=True).N == 0


def test_filter_monotone(toy_corpus):
    kept10 = {id(s) for s in filter_corpus(toy_corpus, 2).sentences}
    kept15 = {id(s) for s in filter_corpus(toy_corpus, 3).sentences}
    assert kept10 <= kept15


def test_filter_rejects_bad_max_len(toy_corpus):
    with pytest.raises(ValueError):
        filter_corpus(toy_corpus, 0)


def test_write_roundtrip(conllu_sample):
    c = parse_conllu(io.StringIO(conllu_sample))
    trees = [DepTree(s.gold_heads()) for s in c]
    buf = io.StringIO()
    write_conllu(c, trees, buf)
    c2 = parse_conllu(io.StringIO(buf.getvalue()))
    assert c2 == c
    # Idempotence: writing again produces identical bytes.
    buf2 = io.StringIO()
    write_conllu(c2, trees, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_write_single_token():
    c = parse_conllu(["1\tw\tw\tNOUN\t_\t_\t0\t_\t_\t_\n"])
    buf = io.StringIO()
    write_conllu(c, [DepTree((0,))], buf)
    assert buf.getvalue().splitlines()[0].split("\t")[6] == "0"


def test_write_length_mismatch(conllu_sample):
    c = parse_conllu(io.StringIO(conllu_sample))
    with pytest.raises(ValueError):
        write_conllu(c, [DepTree((0,))], io.StringIO())


def test_deptree_validation():
    DepTree((2, 0, 2))
    with pytest.raises(ValueError):
        DepTree((0, 0))  # two roots
    with pytest.raises(ValueError):
        DepTree((2, 1))  # mutual heads, no root
    with pytest.raises(ValueError):
        DepTree((2, 4, 0, 3))  # crossing arcs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tree_matrix_exhaustive(n):
    for heads in all_projective_heads(n):
        mat = tree_matrix(DepTree(heads))
        assert mat.shape == (n + 1, n + 1)
        assert not mat[:, 0].any()
        assert not np.diag(mat).any()
        for d in range(1, n + 1):
            want = np.zeros(n + 1)
            want[heads[d - 1]] = 1.0
            assert np.array_equal(mat[:, d], want)
