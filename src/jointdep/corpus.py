"""CoNLL-U corpus handling, dependency trees, and arc-vector indexing."""

from __future__ import annotations

import functools
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


def _check_tree_heads(heads: Sequence[int]) -> str | None:
    """Return an error message if `heads` is not a single-rooted tree."""
    n = len(heads)
    roots = [i for i, h in enumerate(heads) if h == 0]
    if len(roots) != 1:
        return f"expected exactly one root, found {len(roots)}"
    for i, h in enumerate(heads):
        if not 0 <= h <= n:
            return f"head {h} of token {i + 1} out of range"
        if h == i + 1:
            return f"token {i + 1} is its own head"
    # Cycle check: walk up from every token.
    for i in range(n):
        seen = set()
        j = i + 1
        while j != 0:
            if j in seen:
                return f"cycle through token {j}"
            seen.add(j)
            j = heads[j - 1]
    return None


def _subtree_spans(heads: Sequence[int]) -> list[tuple[int, int]]:
    """Span [l, r] (1-based, inclusive) of each token's subtree."""
    n = len(heads)
    lo = list(range(1, n + 1))
    hi = list(range(1, n + 1))
    size = [1] * n
    # Propagate bottom-up; order children before parents by repeated sweeps
    # over a topological order obtained from depth.
    order = sorted(range(n), key=lambda i: -_depth_of(heads, i))
    for i in order:
        h = heads[i]
        if h != 0:
            lo[h - 1] = min(lo[h - 1], lo[i])
            hi[h - 1] = max(hi[h - 1], hi[i])
            size[h - 1] += size[i]
    return [(lo[i], hi[i]) for i in range(n)], size


def _depth_of(heads: Sequence[int], i: int) -> int:
    d = 0
    j = i + 1
    while heads[j - 1] != 0:
        j = heads[j - 1]
        d += 1
    return d


@dataclass(frozen=True)
class DepTree:
    """A projective, single-rooted dependency parse as a head array.

    heads[j] is the head of token j+1; 0 denotes the root pseudo-node.
    """

    heads: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "heads", tuple(int(h) for h in self.heads))
        err = _check_tree_heads(self.heads)
        if err is None and not _is_projective(self.heads):
            err = "tree is not projective"
        if err is not None:
            raise ValueError(f"invalid dependency tree {self.heads}: {err}")

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
        spans, _ = _subtree_spans(self.heads)
        return spans


def _is_projective(heads: Sequence[int]) -> bool:
    spans, size = _subtree_spans(heads)
    return all(hi - lo + 1 == sz for (lo, hi), sz in zip(spans, size))


# ---------------------------------------------------------------------------
# Arc-vector indexing: slots (h, d) with h in [0, n], d in [1, n], h != d.
# Dimension n*n; root-headed arcs use h = 0.
# ---------------------------------------------------------------------------

def arc_count(n: int) -> int:
    return n * n


def arc_index(h: int, d: int, n: int) -> int:
    if not (1 <= d <= n and 0 <= h <= n and h != d):
        raise ValueError(f"invalid arc slot ({h}, {d}) for n={n}")
    return (d - 1) * n + (h if h < d else h - 1)


def iter_arcs(n: int) -> Iterator[tuple[int, int, int]]:
    """Yield (index, head, dependent) for every arc slot."""
    for d in range(1, n + 1):
        for h in range(0, n + 1):
            if h != d:
                yield arc_index(h, d, n), h, d


def to_arc_vector(tree: DepTree) -> np.ndarray:
    bits = np.zeros(arc_count(tree.n), dtype=np.float64)
    for d, h in enumerate(tree.heads, start=1):
        bits[arc_index(h, d, tree.n)] = 1.0
    return bits


def from_arc_vector(bits: np.ndarray, n: int) -> DepTree:
    if bits.shape != (arc_count(n),):
        raise ValueError(f"arc vector has shape {bits.shape}, expected ({n * n},)")
    heads = [-1] * n
    for idx, h, d in iter_arcs(n):
        if bits[idx] == 1.0:
            if heads[d - 1] != -1:
                raise ValueError(f"token {d} has multiple heads set")
            heads[d - 1] = h
    if any(h == -1 for h in heads):
        raise ValueError("arc vector does not assign a head to every token")
    return DepTree(tuple(heads))


@functools.lru_cache(maxsize=64)
def _arc_slots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (heads, deps) of every arc slot, in arc-index order."""
    grid = np.broadcast_to(np.arange(n + 1), (n, n + 1))
    deps = np.arange(1, n + 1)
    heads = grid[grid != deps[:, None]]
    deps = np.repeat(deps, n)
    heads.flags.writeable = False
    deps.flags.writeable = False
    return heads, deps


def arc_matrix(u: np.ndarray | None, n: int) -> np.ndarray | None:
    """Expand a flat arc-slot vector to an (n+1, n+1) matrix keyed [h, d]."""
    if u is None:
        return None
    mat = np.zeros((n + 1, n + 1), dtype=np.float64)
    mat[_arc_slots(n)] = u
    return mat


# ---------------------------------------------------------------------------
# CoNLL-U reading and writing
# ---------------------------------------------------------------------------

def parse_conllu(stream: Iterable[str]) -> Corpus:
    """Parse CoNLL-U text into a Corpus.

    Multiword-token ranges ("1-2") and empty nodes ("1.1") are skipped.
    Column 4 supplies the UPOS tag and column 7 the gold head when numeric.
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
