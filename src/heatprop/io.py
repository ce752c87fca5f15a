"""Dataset ingestion: edge lists and label files with external string ids.

Both loaders run on one array tokenizer, ``_tokenize``. It reads a file once,
classifies every character through a lookup table and finds lines, fields and
their counts with whole-array operations. Its fields are the runs of
non-space characters when the file splits at whitespace, and also when the
delimiter is one whitespace character other than a line break and no data
line holds other whitespace between its first and last non-space character
(the runs path, which tab-separated files without padding take); otherwise
they are cut at the delimiter and stripped. ``_first_seen`` then numbers the
fields by value with stable radix sorts (``graph._stable_sort``) of their
code units, 64 bits at a time. No Python code runs per line or per token,
except to parse weights with ``float``, to name each distinct id once and to
settle overlapping matches of a multi-character delimiter.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .graph import Graph, NodePartition, _concat_ranges, _stable_sort, build_graph, directed_to_bipartite

# every character str.isspace() accepts lies below U+3001 (a test checks the
# whole code space); the line breaks of str.splitlines() are all whitespace
_WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
_LINE_BREAKS = "".join(c for c in _WHITESPACE if len(f"x{c}x".splitlines()) == 2)
_SPACE, _BREAK = 1, 2
# _LOW_BITS[b] has the low b of 64 bits set
_LOW_BITS = np.array([(1 << b) - 1 for b in range(65)], dtype=np.uint64)


@dataclass
class DatasetBundle:
    """A loaded graph plus the map from external ids to its nodes.

    ``id_map`` maps the ``i``-th external id (in order of first appearance in
    the edge list) to node ``i``. A directed input is lifted to a bipartite
    graph on ``2n`` nodes, and with ``use_destination`` its ids map to the
    destination copies ``n + i`` instead of the source copies ``i``. Labels,
    seeds and output refer to the ``id_map`` nodes; the others are unlabeled.
    """

    graph: Graph
    id_map: dict[str, int]
    labels: NodePartition | None = None
    label_names: dict[int, str] | None = None


@dataclass
class _Fields:
    """The fields of a text file's data lines (neither blank nor comment),
    in file order, each stripped of surrounding whitespace."""

    text: str
    codes: np.ndarray  # the code units of ``text``, one per character
    starts: np.ndarray  # field i is text[starts[i]:ends[i]]
    ends: np.ndarray
    line_numbers: np.ndarray  # 1-based line number of each data line
    counts: np.ndarray  # fields per data line


def _code_units(text: str) -> np.ndarray:
    """One array element per character: 1-byte units for ASCII text, 4-byte
    units otherwise."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le"), dtype="<u4")


def _substrings(text: str, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    return [text[s:e] for s, e in zip(starts.tolist(), ends.tolist())]


def read_text(path) -> str:
    """A file's UTF-8 text; a file that does not decode is an error naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _tokenize(path, delimiter: str | None) -> _Fields:
    """Split a file as ``str.splitlines``, ``str.strip`` and ``str.split``
    would, line by line.

    A line whose stripped text is empty or starts with ``#`` is skipped.
    With a delimiter, each line is split at its occurrences and the parts are
    stripped; without one (or with ``""``) it is split at whitespace. Empty
    parts are dropped. Unless a delimiter is given, the first data line picks
    it for the whole file: tab if it holds one, else comma, else whitespace.
    A one-character whitespace delimiter that breaks no line gives the same
    fields as a split at whitespace when no data line holds other whitespace
    inside (``_runs_are_fields``), and then the runs are the fields. Blank and
    comment lines may hold any whitespace.
    """
    text = read_text(path)
    codes = _code_units(text)
    space, breaks = _classify(codes)
    # runs of non-space characters; line i holds the runs bounds[i]:bounds[i + 1]
    # (no run starts at a break) and, stripped, spans them
    run_start = np.flatnonzero(~space & np.concatenate(([True], space[:-1])))
    run_end = np.flatnonzero(~space & np.append(space[1:], True)) + 1
    bounds = np.searchsorted(run_start, _line_starts(breaks, codes.size))
    lines = np.flatnonzero(bounds[1:] > bounds[:-1])  # nonblank lines
    lines = lines[codes[run_start[bounds[lines]]] != ord("#")]  # data lines
    content_start = run_start[bounds[lines]]
    content_end = run_end[bounds[lines + 1] - 1]
    if not lines.size:
        empty = np.empty(0, dtype=np.int64)
        return _Fields(text, codes, empty, empty, empty, empty)

    if delimiter is None:
        delimiter = _detect_delimiter(text[content_start[0] : content_end[0]])
    if delimiter and not _runs_are_fields(codes, space, breaks, delimiter, content_start, content_end):
        # one cut character at each end, so that every field lies between two
        cut = np.zeros(codes.size + 2, dtype=bool)
        cut[[0, -1]] = True
        cut[breaks + 1] = True
        if len(delimiter) == 1:
            cut[1:-1] |= codes == ord(delimiter)
        else:
            cut[_delimiter_units(codes, delimiter, content_start, content_end) + 1] = True
        starts, ends = _stripped_fields(cut, space, run_start, run_end)
        del cut
        bounds = np.searchsorted(starts, _line_starts(breaks, codes.size))
    else:
        starts, ends = run_start, run_end
    del space, breaks, run_start, run_end, content_start, content_end
    # the fields of line i are bounds[i]:bounds[i + 1]
    counts = np.diff(bounds)[lines]
    if counts.sum() < starts.size:  # fields on comment lines
        keep = _concat_ranges(bounds, lines)
        starts, ends = starts[keep], ends[keep]
    return _Fields(text, codes, starts, ends, line_numbers=lines + 1, counts=counts)


def _line_starts(breaks: np.ndarray, size: int) -> np.ndarray:
    """Where each line of a text of ``size`` characters starts, and ``size + 1``."""
    return np.concatenate(([0], breaks + 1, [size + 1]))


def _classify(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A mask of the whitespace characters and the positions of the line
    breaks, found through one lookup table."""
    table = np.zeros(256 if codes.itemsize == 1 else sys.maxunicode + 1, dtype=np.uint8)
    table[[ord(c) for c in _WHITESPACE if ord(c) < table.size]] = _SPACE
    table[[ord(c) for c in _LINE_BREAKS if ord(c) < table.size]] |= _BREAK
    kind = table[codes]
    # every line break is whitespace, so kind is 0, _SPACE or _SPACE | _BREAK,
    # and a bool mask is faster to search than kind & _BREAK
    return kind != 0, np.flatnonzero(kind > _SPACE)


def _runs_are_fields(codes, space, breaks, delimiter: str, content_start, content_end) -> bool:
    """Whether splitting the data lines at ``delimiter`` gives their runs of
    non-space characters: the delimiter is one whitespace character but no
    line break, and no data line holds other whitespace between its first
    and last non-space character."""
    if len(delimiter) != 1 or not delimiter.isspace() or delimiter in _LINE_BREAKS:
        return False
    other = codes != ord(delimiter)
    other &= space
    other[breaks] = False
    at = np.flatnonzero(other)
    line = np.searchsorted(content_start, at, side="right") - 1
    return not np.any((line >= 0) & (at < content_end[np.maximum(line, 0)]))


def _detect_delimiter(line: str) -> str | None:
    """The delimiter a data line picks: tab if it holds one, else comma, else
    None (whitespace)."""
    if "\t" in line:
        return "\t"
    return "," if "," in line else None


def _stripped_fields(cut: np.ndarray, space: np.ndarray, run_start, run_end) -> tuple[np.ndarray, np.ndarray]:
    """The spans between the characters that ``cut[1:-1]`` marks, stripped of
    whitespace, that are not empty."""
    bounds = np.flatnonzero(cut)
    bounds -= 1
    keep = np.diff(bounds) > 1
    starts = bounds[:-1][keep]
    starts += 1
    ends = bounds[1:][keep]
    # a start on a space moves to the next run's start, an end after a space
    # back to the previous run's end
    lead = np.flatnonzero(space[starts])
    run = np.searchsorted(run_start, starts[lead])
    starts[lead] = np.where(run < run_start.size, run_start[np.minimum(run, run_start.size - 1)], space.size)
    trail = np.flatnonzero(space[ends - 1])
    run = np.searchsorted(run_end, ends[trail] - 1, side="right") - 1
    ends[trail] = np.where(run >= 0, run_end[run], 0)
    keep = ends > starts
    return (starts, ends) if keep.all() else (starts[keep], ends[keep])


def _delimiter_units(codes, delimiter: str, content_start, content_end) -> np.ndarray:
    """Positions of the characters of the occurrences of a multi-character
    ``delimiter`` that ``str.split`` finds in the stripped data lines:
    non-overlapping, taken from left to right."""
    size = len(delimiter)
    count = max(codes.size - size + 1, 0)
    hit = np.ones(count, dtype=bool)
    for k, char in enumerate(delimiter):
        hit &= codes[k : k + count] == ord(char)
    at = np.flatnonzero(hit)
    line = np.searchsorted(content_start, at, side="right") - 1
    inside = (line >= 0) & (at + size <= content_end[np.maximum(line, 0)])
    at = at[inside]
    if np.any(np.diff(at) < size):
        kept, free = [], 0
        for position in at.tolist():
            if position >= free:
                kept.append(position)
                free = position + size
        at = np.array(kept, dtype=np.int64)
    return (at[:, None] + np.arange(size)).ravel()


def _first_seen(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the tokens ``codes[starts[i]:ends[i]]`` by value, 0, 1, ... in
    order of first appearance. Returns each token's number and, per number,
    the index of its first token.

    Tokens are compared by 64-bit words of their code units, each plus one so
    that zero pads unambiguously. A stable sort (``_sorted_groups``) groups
    them by their first words; when tokens have units left, further sorts
    split their groups (``_refined_groups``). Each group's first token leads
    it, and one more stable sort puts the first tokens in order.
    """
    if not starts.size:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    unit_bits = 8 * codes.itemsize
    padded = np.zeros(codes.size + 8 // codes.itemsize, dtype=codes.dtype.newbyteorder("<"))
    padded[: codes.size] = codes
    padded[: codes.size] += 1
    # words[i]: the 64 bits from unit i on
    words = np.ndarray((codes.size + 1,), dtype="<u8", buffer=padded, strides=(codes.itemsize,))
    lengths = ends - starts
    key_bits = unit_bits * int(lengths.max())
    key = _unit_words(words, starts, lengths, 64 // unit_bits, unit_bits)
    if key_bits <= 64:
        del lengths  # 8 bytes a token, read only by the further sorts
    order, new = _sorted_groups(key, min(key_bits, 64))
    del key
    if key_bits > 64:
        order, new = _refined_groups(words, starts, lengths, order, new, unit_bits)
        del lengths
    del words, padded
    firsts, by_appearance = _stable_sort(order[new], (starts.size - 1).bit_length())
    number = np.empty(firsts.size, dtype=np.int64)
    number[by_appearance] = np.arange(firsts.size)
    group = np.cumsum(new)
    group -= 1
    ids = np.empty(starts.size, dtype=np.int64)
    ids[order] = np.take(number, group, out=group, mode="clip")  # in place
    return ids, firsts


def _unit_words(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray, units: int, unit_bits: int) -> np.ndarray:
    """The first ``units`` code units from each start as a 64-bit word, zero
    past the token's length."""
    key = words[starts]
    shift = np.minimum(lengths, units)
    shift *= unit_bits
    key &= np.take(_LOW_BITS, shift, out=shift.view(np.uint64), mode="clip")  # the masks, in place
    return key


def _refined_groups(words, starts, lengths, order, new, unit_bits) -> tuple[np.ndarray, np.ndarray]:
    """``_sorted_groups`` of the tokens by value, from their groups by the
    first word: each further sort splits the classes of the tokens with units
    left by their next units."""
    cls = np.empty(starts.size, dtype=np.int64)  # tokens equal so far share a class
    cls[order] = np.cumsum(new) - 1
    classes = int(np.count_nonzero(new))
    done = 64 // unit_bits
    tokens = np.flatnonzero(lengths > done)
    while tokens.size:
        # fewer classes than code units in the file, so a unit fits beside them
        units = (64 - classes.bit_length()) // unit_bits
        key = _unit_words(words[done:], starts[tokens], lengths[tokens] - done, units, unit_bits)
        key |= cls[tokens].astype(np.uint64) << np.uint64(unit_bits * units)
        order, new = _sorted_groups(key, unit_bits * units + classes.bit_length())
        cls[tokens[order]] = classes + np.cumsum(new) - 1
        classes += int(np.count_nonzero(new))
        done += units
        tokens = tokens[lengths[tokens] > done]
    return _sorted_groups(cls, classes.bit_length())


def _sorted_groups(key: np.ndarray, key_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of the keys below ``2**key_bits`` (``_stable_sort``)
    and, in that order, a mask of the keys that differ from their predecessor."""
    ranked, order = _stable_sort(key, key_bits)
    new = np.ones(key.size, dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    return order, new


def _float_prefix(texts: list[str]) -> list[float]:
    """``float`` of each text up to, not including, the first one it rejects."""
    values = []
    try:
        for text in texts:
            values.append(float(text))
    except ValueError:
        pass
    return values


def load_edge_list(
    path,
    directed: bool = False,
    weighted: bool = False,
    delimiter: str | None = None,
    use_destination: bool = False,
) -> DatasetBundle:
    """Parse ``src dst [weight]`` lines into a graph.

    Blank lines and lines starting with ``#`` are skipped. Unless a delimiter
    is given, the first data line picks it: tab if it holds one, else comma,
    else whitespace. Tokens become dense node ids in first-seen order. With
    ``weighted`` a third column is required per line; without it a third
    column is rejected so that a wrong delimiter cannot corrupt the weights.
    Weights must be positive and finite. Errors name the first bad line.
    Directed inputs are lifted to their bipartite form; ``use_destination``
    maps their ids to the destination copies (see ``DatasetBundle``).
    """
    if use_destination and not directed:
        raise ValidationError("use_destination needs a directed edge list")
    names, arrays = _read_edges(path, weighted, delimiter)
    n = len(names)
    graph = directed_to_bipartite(n, arrays, names) if directed else build_graph(n, arrays)
    offset = n if use_destination else 0
    return DatasetBundle(graph=graph, id_map=dict(zip(names, range(offset, offset + n))))


def _read_edges(path, weighted: bool, delimiter: str | None):
    """The ids in first-seen order and the ``(src, dst, weight)`` arrays of an
    edge-list file.

    The fields' line numbers and counts, read only by the checks, and the
    weight texts are freed before ``_first_seen`` numbers the ids, and unit
    weights are made after it. A function of its own, so that the text,
    its code units and the field bounds are freed before the graph is built.
    """
    fields = _tokenize(path, delimiter)
    width = 3 if weighted else 2
    bad = np.flatnonzero(fields.counts != width)
    rows = int(bad[0]) if bad.size else fields.counts.size  # lines before the first bad count
    starts = fields.starts[: rows * width].reshape(rows, width)
    ends = fields.ends[: rows * width].reshape(rows, width)
    if weighted:
        texts = _substrings(fields.text, starts[:, 2], ends[:, 2])
        weights = np.array(_float_prefix(texts), dtype=np.float64)
        invalid = np.flatnonzero(~((weights > 0) & (weights < np.inf)))
        row = int(invalid[0]) if invalid.size else weights.size
        if row < rows:
            where = f"{path}: line {fields.line_numbers[row]}"
            if row == weights.size:
                raise ValidationError(f"{where}: bad weight {texts[row]!r}")
            kind = "nonpositive" if weights[row] <= 0 else "non-finite"
            raise ValidationError(f"{where}: {kind} weight {float(weights[row])}")
        del texts  # one string a row
    if bad.size:
        where = f"{path}: line {fields.line_numbers[rows]}"
        count = int(fields.counts[rows])
        if count == 2:
            raise ValidationError(f"{where}: expected a weight column")
        if count == 3:
            raise ValidationError(f"{where}: unexpected third column (use weighted=True)")
        raise ValidationError(f"{where}: expected 2 or 3 columns, got {count}")
    if not rows:
        raise ValidationError(f"{path}: no edges found")
    text, codes = fields.text, fields.codes
    starts, ends = starts[:, :2].ravel(), ends[:, :2].ravel()
    del fields  # the line numbers and counts
    ids, firsts = _first_seen(codes, starts, ends)
    names = _substrings(text, starts[firsts], ends[firsts])
    return names, (ids[0::2], ids[1::2], weights if weighted else np.ones(rows))


def _lookup(id_map: dict[str, int], codes: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The ``id_map`` value of each token, and a mask of the tokens it holds."""
    keys = list(id_map)
    key_codes = _code_units("".join(keys))
    key_lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
    key_ends = np.cumsum(key_lengths)
    ids, _ = _first_seen(
        np.concatenate((key_codes, codes)),
        np.concatenate((key_ends - key_lengths, starts + key_codes.size)),
        np.concatenate((key_ends, ends + key_codes.size)),
    )
    # the keys are distinct and come first, so key i is number i
    number = ids[len(keys) :]
    known = number < len(keys)
    values = np.fromiter(id_map.values(), dtype=np.int64, count=len(keys))
    return values[number[known]], known


def _first_conflict(nodes: np.ndarray, labels: np.ndarray) -> int | None:
    """Index of the first entry whose label differs from the label of the
    first entry of its node, or None."""
    order, first = _sorted_groups(nodes, int(nodes.max(initial=0)).bit_length())
    first_label = labels[order[first]][np.cumsum(first) - 1]
    clash = order[labels[order] != first_label]
    return int(clash.min()) if clash.size else None


def load_labels(
    path,
    id_map: dict[str, int],
    num_nodes: int,
    delimiter: str | None = None,
) -> tuple[NodePartition, dict[int, str]]:
    """Parse ``node label`` lines against an id map, split as in ``load_edge_list``.

    Label strings map to dense ids 1..K in first-seen order. Partial
    labelings are fine. A node repeated with a different label is an error.
    Errors name the first bad line: a conflicting label or a wrong column
    count. Lines with ids missing from ``id_map`` are reported after that.
    """
    fields = _tokenize(path, delimiter)
    bad = np.flatnonzero(fields.counts != 2)
    rows = int(bad[0]) if bad.size else fields.counts.size  # lines before the first bad count
    token_starts, token_ends = fields.starts[0 : 2 * rows : 2], fields.ends[0 : 2 * rows : 2]
    name_starts, name_ends = fields.starts[1 : 2 * rows : 2], fields.ends[1 : 2 * rows : 2]
    nodes, known = _lookup(id_map, fields.codes, token_starts, token_ends)
    name_starts, name_ends = name_starts[known], name_ends[known]
    labels, firsts = _first_seen(fields.codes, name_starts, name_ends)
    labels += 1

    clash = _first_conflict(nodes, labels)
    if clash is not None:
        row = np.flatnonzero(known)[clash]
        token = fields.text[token_starts[row] : token_ends[row]]
        raise ValidationError(f"{path}: line {fields.line_numbers[row]}: conflicting label for node {token!r}")
    if bad.size:
        raise ValidationError(
            f"{path}: line {fields.line_numbers[rows]}: expected 2 columns, got {fields.counts[rows]}"
        )
    if not known.all():
        unknown = _substrings(fields.text, token_starts[~known], token_ends[~known])
        raise ValidationError(
            f"{path}: labels for unknown node ids: {', '.join(sorted(set(unknown))[:10])}"
        )
    if not rows:
        raise ValidationError(f"{path}: no labels found")
    label_names = dict(
        enumerate(_substrings(fields.text, name_starts[firsts], name_ends[firsts]), start=1)
    )
    partition = np.zeros(num_nodes, dtype=np.int64)
    partition[nodes] = labels
    return NodePartition(labels=partition, num_labels=len(label_names)), label_names


def write_edge_list(path, graph: Graph):
    """Write the canonical (i <= j) edges as unweighted ``i<TAB>j`` lines of
    node numbers, which ``load_edge_list`` reads back up to node renaming."""
    src, dst, _ = graph.edges()
    Path(path).write_text("".join(map("{}\t{}\n".format, src.tolist(), dst.tolist())), encoding="utf-8")
