"""CoNLL-U corpus handling, dependency trees, and the arc-matrix layout."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

_NUM_COLUMNS = 10


class ConlluParseError(ValueError):
    """Malformed CoNLL-U input; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Token:
    form: str
    upos: str
    gold_head: int | None = None
    # Original 10-column CoNLL-U fields, kept so files can be re-emitted
    # with only the head column rewritten.
    fields: tuple[str, ...] | None = None

    @property
    def is_punct(self) -> bool:
        return self.upos == "PUNCT"


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")

    @property
    def n(self) -> int:
        return len(self.tokens)

    @property
    def upos(self) -> tuple[str, ...]:
        return tuple(t.upos for t in self.tokens)

    def length(self, count_punct: bool = True) -> int:
        if count_punct:
            return self.n
        return sum(1 for t in self.tokens if not t.is_punct)

    def gold_heads(self) -> tuple[int, ...] | None:
        """Gold head array, or None if any head is missing."""
        heads = tuple(t.gold_head for t in self.tokens)
        if any(h is None for h in heads):
            return None
        return heads


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...]
    pos_vocab: tuple[str, ...]

    @property
    def N(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)


def _tree_spans(heads: Sequence[int]) -> list[tuple[int, int]]:
    """Span [l, r] (1-based, inclusive) of each token's subtree, found in one
    walk down from the root. Raises ValueError unless `heads` is a
    single-rooted projective tree: heads in range, no self-heads, one root,
    every token reachable from it (no cycles), every subtree contiguous."""
    n = len(heads)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for d, h in enumerate(heads, start=1):
        if not 0 <= h <= n:
            raise ValueError(f"head {h} of token {d} out of range")
        if h == d:
            raise ValueError(f"token {d} is its own head")
        children[h].append(d)
    if len(children[0]) != 1:
        raise ValueError(f"expected exactly one root, found {len(children[0])}")
    # Breadth-first order from the root. Each token has one head, so it is
    # listed at most once; a token left out sits on or under a cycle.
    order = list(children[0])
    for j in order:
        order.extend(children[j])
    if len(order) != n:
        unreached = min(set(range(1, n + 1)).difference(order))
        raise ValueError(f"token {unreached} is on or under a cycle")
    lo = list(range(n + 1))
    hi = list(range(n + 1))
    size = [1] * (n + 1)
    for j in reversed(order):  # children before their heads
        if hi[j] - lo[j] + 1 != size[j]:
            raise ValueError("tree is not projective")
        h = heads[j - 1]
        lo[h] = min(lo[h], lo[j])
        hi[h] = max(hi[h], hi[j])
        size[h] += size[j]
    return list(zip(lo[1:], hi[1:]))


@dataclass(frozen=True)
class DepTree:
    """A projective, single-rooted dependency parse as a head array.

    heads[j] is the head of token j+1; 0 denotes the root pseudo-node.
    """

    heads: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "heads", tuple(int(h) for h in self.heads))
        try:
            _tree_spans(self.heads)
        except ValueError as exc:
            raise ValueError(f"invalid dependency tree {self.heads}: {exc}") from None

    @property
    def n(self) -> int:
        return len(self.heads)

    def root(self) -> int:
        return self.heads.index(0) + 1

    def children(self) -> list[list[int]]:
        """Children of each node; index 0 is the root pseudo-node."""
        out: list[list[int]] = [[] for _ in range(self.n + 1)]
        for d, h in enumerate(self.heads, start=1):
            out[h].append(d)
        return out

    def spans(self) -> list[tuple[int, int]]:
        return _tree_spans(self.heads)


# ---------------------------------------------------------------------------
# Arc layout: an (n+1, n+1) matrix keyed [h, d], with h the head (0 for the
# root pseudo-node) and d the dependent. Column 0 and the diagonal are not
# arcs and stay 0.
# ---------------------------------------------------------------------------

def tree_matrix(tree: DepTree) -> np.ndarray:
    """0/1 arc matrix of a tree: 1.0 at [heads[d-1], d] for d in 1..n."""
    mat = np.zeros((tree.n + 1, tree.n + 1))
    mat[tree.heads, np.arange(1, tree.n + 1)] = 1.0
    return mat


class ArcLayout:
    """Arc matrices of sentences of the given lengths in one flat vector: row
    i's fills (n+1)^2 cells in row-major order from offsets[i], so cell [h, d]
    is at offsets[i] + h * (n+1) + d. The last of the N+1 offsets is `size`."""

    def __init__(self, lengths: Iterable[int]):
        self.lengths = list(lengths)
        self.offsets = np.cumsum([0] + [(n + 1) ** 2 for n in self.lengths]).tolist()
        self.size = self.offsets[-1]
        # Every token's cell [0, d] and its row's stride n + 1, row by row.
        n = np.array(self.lengths, dtype=np.intp)
        self._dep = _ranges(np.array(self.offsets[:-1], dtype=np.intp) + 1, n)
        self._stride = np.repeat(n + 1, n)

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Every row's (n+1, n+1) arc matrix, as a view into `flat`."""
        return [flat[a:b].reshape(n + 1, n + 1) for a, b, n
                in zip(self.offsets, self.offsets[1:], self.lengths)]

    def arcs(self, heads: Iterable[Iterable[int]]) -> np.ndarray:
        """The flat index of every token's arc [head, d], row by row, given
        one head sequence per row."""
        h = np.fromiter(itertools.chain.from_iterable(heads), np.intp, self._dep.size)
        return self._dep + h * self._stride


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [start, start + count) laid end to end."""
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return shift + np.arange(shift.size)


# ---------------------------------------------------------------------------
# CoNLL-U reading and writing
# ---------------------------------------------------------------------------

def parse_conllu(stream: Iterable[str]) -> Corpus:
    """Parse CoNLL-U text into a Corpus.

    Multiword-token ranges ("1-2") and empty nodes ("1.1") are skipped.
    Column 4 supplies the UPOS tag, which must be one non-empty word, and
    column 7 the gold head when numeric.
    """
    sentences: list[Sentence] = []
    vocab: list[str] = []
    seen = set()
    block: list[tuple[tuple[str, ...], int]] = []  # (fields, line number)

    def flush():
        if not block:
            return
        tokens = []
        n = len(block)
        for fields, line_no in block:
            head_field = fields[6]
            gold_head: int | None = None
            if head_field not in ("_", ""):
                try:
                    gold_head = int(head_field)
                except ValueError as exc:
                    raise ConlluParseError(
                        f"non-integer head {head_field!r}", line_no
                    ) from exc
                if not 0 <= gold_head <= n:
                    raise ConlluParseError(
                        f"head index {gold_head} out of range for length {n}",
                        line_no,
                    )
            upos = fields[3]
            if upos.split() != [upos]:  # model files are split on whitespace
                raise ConlluParseError(
                    f"UPOS tag {upos!r} is empty or holds whitespace", line_no)
            tokens.append(Token(fields[1], upos, gold_head, fields))
            if upos not in seen:
                seen.add(upos)
                vocab.append(upos)
        for i, tok in enumerate(tokens):
            if tok.gold_head == i + 1:
                raise ConlluParseError(
                    f"token {i + 1} is its own head", block[i][1]
                )
        sentences.append(Sentence(tuple(tokens)))
        block.clear()

    expected_id = 1
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if line == "":
            flush()
            expected_id = 1
            continue
        if line.startswith("#"):
            continue
        fields = tuple(line.split("\t"))
        if len(fields) != _NUM_COLUMNS:
            raise ConlluParseError(
                f"expected {_NUM_COLUMNS} tab-separated columns, got {len(fields)}",
                line_no,
            )
        tok_id = fields[0]
        if "-" in tok_id or "." in tok_id:
            continue  # multiword range or empty node
        try:
            parsed_id = int(tok_id)
        except ValueError as exc:
            raise ConlluParseError(f"non-integer token ID {tok_id!r}", line_no) from exc
        if parsed_id != expected_id:
            raise ConlluParseError(
                f"token ID {parsed_id} out of sequence (expected {expected_id})",
                line_no,
            )
        expected_id += 1
        block.append((fields, line_no))
    flush()
    return Corpus(tuple(sentences), tuple(vocab))


def read_conllu(path) -> Corpus:
    with open(path, encoding="utf-8") as f:
        return parse_conllu(f)


def filter_corpus(c: Corpus, max_len: int, count_punct: bool = True) -> Corpus:
    """Keep sentences of length <= max_len, preserving order and vocabulary."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    kept = tuple(s for s in c.sentences if s.length(count_punct) <= max_len)
    return Corpus(kept, c.pos_vocab)


def _default_fields(i: int, tok: Token) -> tuple[str, ...]:
    return (str(i), tok.form, "_", tok.upos, "_", "_", "_", "_", "_", "_")


def write_conllu(c: Corpus, predicted: Sequence[DepTree], sink) -> None:
    """Emit CoNLL-U with the head column replaced by predicted heads."""
    if len(predicted) != c.N:
        raise ValueError(
            f"got {len(predicted)} trees for {c.N} sentences"
        )
    for sent, tree in zip(c.sentences, predicted):
        if tree.n != sent.n:
            raise ValueError(
                f"tree of length {tree.n} paired with sentence of length {sent.n}"
            )
        for i, tok in enumerate(sent.tokens, start=1):
            fields = list(tok.fields or _default_fields(i, tok))
            fields[0] = str(i)
            fields[6] = str(tree.heads[i - 1])
            sink.write("\t".join(fields) + "\n")
        sink.write("\n")


def write_conllu_file(c: Corpus, predicted: Sequence[DepTree], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        write_conllu(c, predicted, f)
