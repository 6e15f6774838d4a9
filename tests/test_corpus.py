import io
import itertools

import numpy as np
import pytest

from oracles import all_projective_heads, random_corpus, tree_matrix

from jointdep.corpus import (
    ArcLayout,
    ConlluParseError,
    Corpus,
    DepTree,
    block_pairs,
    filter_corpus,
    parse_conllu,
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


@pytest.mark.parametrize("head, line_no", [("x", 1), ("1", 1), ("5", 2)])
def test_parse_reports_the_first_fault_in_file_order(head, line_no):
    # Each line is checked as it is read. Only a head's range waits for the
    # end of its sentence, which fixes n, so a later short line comes first.
    lines = ["1\tw\tw\tNOUN\t_\t_\t%s\t_\t_\t_\n" % head,
             "2\tw\tw\tNOUN\t_\t_\t1\t_\t_\n"]
    with pytest.raises(ConlluParseError) as exc:
        parse_conllu(lines)
    assert exc.value.line_no == line_no


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
    with pytest.raises(ValueError, match="one root"):
        DepTree((0, 0))  # two roots
    with pytest.raises(ValueError, match="one root"):
        DepTree((2, 1))  # mutual heads, no root
    with pytest.raises(ValueError, match="not projective"):
        DepTree((2, 4, 0, 3))  # crossing arcs
    with pytest.raises(ValueError, match="cycle"):
        DepTree((0, 3, 2))  # mutual heads beside the root
    with pytest.raises(ValueError, match="own head"):
        DepTree((0, 2))
    with pytest.raises(ValueError, match="out of range"):
        DepTree((0, 3))


@pytest.mark.parametrize("n", range(7))
def test_deptree_accepts_exactly_the_projective_trees(n):
    # Every head array over {0..n}^n: DepTree must accept exactly those the
    # oracle finds single-rooted, acyclic and projective.
    valid = set(all_projective_heads(n))
    for heads in itertools.product(range(n + 1), repeat=n):
        try:
            DepTree(heads)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == (heads in valid), heads


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


def _random_projective_heads(rng, n):
    """A random single-rooted projective head array of length n; every such
    array has a chance. Each span of tokens hanging from one head is cut
    into contiguous subtrees, and each subtree picks its own head."""
    heads = [0] * n

    def hang(a, b, h):  # tokens a..b are subtrees whose heads attach to h
        while a <= b:
            e = int(rng.integers(a, b + 1))
            c = int(rng.integers(a, e + 1))
            heads[c - 1] = h
            hang(a, c - 1, c)
            hang(c + 1, e, c)
            a = e + 1

    root = int(rng.integers(1, n + 1))
    hang(1, root - 1, root)
    hang(root + 1, n, root)
    return tuple(heads)


def test_arc_layout_agrees_with_tree_matrix(rng):
    lengths = rng.permutation(list(range(1, 9)) * 3).tolist()
    trees = [DepTree(_random_projective_heads(rng, n)) for n in lengths]
    layout = ArcLayout(lengths)
    assert layout.lengths == lengths
    assert len(layout.offsets) == len(lengths) + 1
    assert layout.offsets[-1] == layout.size == sum((n + 1) ** 2 for n in lengths)

    flat = np.zeros(layout.size)
    flat[layout.arcs(t.heads for t in trees)] = 1.0
    views = layout.views(flat)
    assert len(views) == len(trees)
    for view, tree in zip(views, trees):
        assert np.array_equal(view, tree_matrix(tree))
        assert np.shares_memory(view, flat)


def test_encoding_is_flat_tag_ids_and_a_row_gather(rng):
    # A corpus is encoded once: its distinct tags in order of first
    # appearance, whatever the vocabulary says, and every token's index into
    # them. A group of rows, in any order, is a gather over the flat ids.
    c = random_corpus(rng, ("DET", "NOUN", "VERB", "ADJ"), 30, max_len=6)
    c = Corpus(c.sentences, ("ADJ", "VERB", "NOUN", "DET", "X"))
    enc = c.encoding
    assert enc is c.encoding
    tokens = [t.upos for x in c for t in x.tokens]
    assert enc.tags == tuple(dict.fromkeys(tokens))
    assert [enc.tags[i] for i in enc.ids] == tokens
    assert enc.lengths == tuple(x.n for x in c)
    assert enc.offsets.tolist() == np.cumsum([0] + [x.n for x in c]).tolist()
    rows = rng.permutation(c.N)[:12].tolist()
    sub = enc.rows(rows)
    assert sub.tags == enc.tags and sub.lengths == tuple(c.sentences[i].n for i in rows)
    assert [enc.tags[i] for i in sub.ids] == [
        t.upos for i in rows for t in c.sentences[i].tokens]
    assert enc.rows([]).ids.size == 0


def test_block_pairs_are_each_blocks_matrix_cells_in_row_major_order():
    a, b = block_pairs([2, 1, 3])
    want = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
    want += [(3 + i, 3 + j) for i in range(3) for j in range(3)]
    assert list(zip(a.tolist(), b.tolist())) == want
    assert all(v.size == 0 for v in block_pairs([]))
