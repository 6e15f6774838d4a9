"""CoNLL-U corpus handling, dependency trees, and the arc-matrix layout."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

_NUM_COLUMNS = 10


class LineError(ValueError):
    """Malformed text input: `message`, on the 1-based line `line_no`."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.message, self.line_no = message, line_no


ConlluParseError = LineError  # the name that CoNLL-U readers catch


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

    @functools.cached_property
    def encoding(self) -> "Encoding":
        """The sentences' tags as integers, encoded on first use."""
        index: dict[str, int] = {}
        ids = [index.setdefault(t.upos, len(index)) for x in self for t in x.tokens]
        lengths = tuple(x.n for x in self)
        return Encoding(tuple(index), np.array(ids, dtype=np.intp), lengths)


class Encoding(NamedTuple):
    """The tags of sentences as integers: their distinct tags in order of
    first appearance, every token's index into them, sentence by sentence,
    and the sentences' lengths. A model maps `tags` to its own ids through
    one small table, so that its per-token lookups are gathers over `ids`."""

    tags: tuple[str, ...]
    ids: np.ndarray
    lengths: tuple[int, ...]

    @property
    def offsets(self) -> np.ndarray:
        """Where each sentence's tokens start in `ids`, then the token count."""
        return np.cumsum([0, *self.lengths], dtype=np.intp)

    def rows(self, rows: Sequence[int]) -> "Encoding":
        """The encoding of the given rows, in that order, over the same tags."""
        n = np.array([self.lengths[i] for i in rows], dtype=np.intp)
        starts = self.offsets[np.asarray(rows, dtype=np.intp)]
        return Encoding(self.tags, self.ids[ranges(starts, n)], tuple(n.tolist()))


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
        self._dep = ranges(np.array(self.offsets[:-1], dtype=np.intp) + 1, n)
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


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [start, start + count) laid end to end."""
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return shift + np.arange(shift.size)


def block_pairs(lengths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (a, b) of places in one block, for blocks of the given
    lengths laid end to end: block by block, and within a block in the
    row-major order of its (n, n) matrix [a, b]."""
    n = np.asarray(lengths, dtype=np.intp)
    per_place = np.repeat(n, n)  # each place's block length
    a = np.repeat(np.arange(per_place.size), per_place)
    return a, ranges(np.repeat(np.cumsum(n) - n, n), per_place)


# ---------------------------------------------------------------------------
# Text input (UTF-8 lines, each error on its line), CoNLL-U reading and writing
# ---------------------------------------------------------------------------

def numbered_lines(path) -> Iterator[tuple[int, str]]:
    """Every line of the text file at `path`, numbered from 1, less its "\\n",
    "\\r\\n" or "\\r" ending, and the file less a leading byte-order mark. A
    line that is not UTF-8 raises LineError: its undecodable bytes read as
    lone surrogates, which UTF-8 text never holds."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as f:
        for line_no, line in enumerate(f, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise LineError("not UTF-8 text", line_no) from None
            yield line_no, line.rstrip("\n")


def read_records(lines: Iterable[tuple[int, str]], arity: dict, read) -> dict:
    """Read the records of `lines`, (line number, text) pairs, blank ones
    ignored: a kind and `arity[kind]` fields (None: any), split on
    whitespace. read(kind, fields) reads one and returns its key, and each
    (kind, key) may be read once. Returns the line of each (kind, key).
    Every error, a ValueError or KeyError (an unknown field) from `read`
    included, is raised as a LineError on its line."""
    first: dict[tuple, int] = {}
    for line_no, text in lines:
        parts = text.split()
        if not parts:
            continue
        kind, *fields = parts
        try:
            if kind not in arity:
                raise ValueError(f"unrecognized record {kind!r}")
            if arity[kind] not in (None, len(fields)):
                raise ValueError(
                    f"{kind} record needs {arity[kind]} fields, got {len(fields)}")
            key = (kind, read(kind, fields))
            if first.setdefault(key, line_no) != line_no:
                raise ValueError(f"repeats the {kind} record of line {first[key]}")
        except KeyError as exc:
            raise LineError(f"unknown field {exc.args[0]!r}", line_no) from None
        except ValueError as exc:
            raise LineError(str(exc), line_no) from None
    return first


def parse_conllu(stream: Iterable[str]) -> Corpus:
    """Parse CoNLL-U text into a Corpus, checking each line as it is read, so
    that the first fault in the text is the one raised: only a head's range
    waits for the end of its sentence, which fixes n.

    Multiword-token ranges ("1-2") and empty nodes ("1.1") are ignored.
    Column 4 supplies the UPOS tag, which must be one non-empty word, and
    column 7 the gold head when numeric.
    """
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    heads: list[tuple[int, int]] = []  # the sentence's (numeric head, line number)

    def flush():
        n = len(tokens)
        for head, line_no in heads:
            if not 0 <= head <= n:
                raise LineError(f"head index {head} out of range for length {n}",
                                line_no)
        if tokens:
            sentences.append(Sentence(tuple(tokens)))
        tokens.clear()
        heads.clear()

    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if line == "":
            flush()
            continue
        if line.startswith("#"):
            continue
        fields = tuple(line.split("\t"))
        if len(fields) != _NUM_COLUMNS:
            raise LineError(
                f"expected {_NUM_COLUMNS} tab-separated columns, got {len(fields)}",
                line_no,
            )
        tok_id = fields[0]
        if "-" in tok_id or "." in tok_id:
            continue  # multiword range or empty node
        try:
            parsed_id = int(tok_id)
        except ValueError:
            raise LineError(f"non-integer token ID {tok_id!r}", line_no) from None
        if parsed_id != len(tokens) + 1:
            raise LineError(
                f"token ID {parsed_id} out of sequence (expected {len(tokens) + 1})",
                line_no,
            )
        head_field = fields[6]
        gold_head: int | None = None
        if head_field not in ("_", ""):
            try:
                gold_head = int(head_field)
            except ValueError:
                raise LineError(f"non-integer head {head_field!r}", line_no) from None
            if gold_head == parsed_id:
                raise LineError(f"token {parsed_id} is its own head", line_no)
            heads.append((gold_head, line_no))
        upos = fields[3]
        if upos.split() != [upos]:  # model files are split on whitespace
            raise LineError(f"UPOS tag {upos!r} is empty or holds whitespace", line_no)
        tokens.append(Token(fields[1], upos, gold_head, fields))
    flush()
    vocab = dict.fromkeys(t.upos for x in sentences for t in x.tokens)
    return Corpus(tuple(sentences), tuple(vocab))


def read_conllu(path) -> Corpus:
    return parse_conllu(text for _, text in numbered_lines(path))


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
