"""The array tokenizer behind ``load_edge_list`` and ``load_labels`` against
the per-line loaders it replaced, kept here as the reference. They differ
from the originals in one rule: without a given delimiter the first data
line alone picks it (the originals detected it again on every line until one
held a tab or a comma).

Random files mix every delimiter mode, the line breaks ``str.splitlines``
knows, blank and comment lines, padding with Unicode whitespace, doubled and
trailing delimiters, non-ASCII ids and malformed lines. The even-seeded files
whose separator is one whitespace character pad their fields with it alone,
so that the fields are the whitespace runs (the tokenizer's runs path). Both
loaders must give the same id map (in order), CSR bytes, labels, names, or
the same first error message. The weights drawn are finite: non-finite
weights, which the reference accepted, are now rejected (tested in
test_io_cli.py).
"""

from pathlib import Path

import numpy as np
import pytest

from heatprop import ValidationError
from heatprop import io as io_module
from heatprop.graph import NodePartition, build_graph, directed_to_bipartite
from heatprop.io import _LINE_BREAKS, _WHITESPACE, DatasetBundle, load_edge_list, load_labels

# ---------------------------------------------------------------------------
# reference: the per-line loaders


def _detect_delimiter(line: str) -> str | None:
    if "\t" in line:
        return "\t"
    if "," in line:
        return ","
    return None  # whitespace split


def _split(line: str, delimiter: str | None) -> list[str]:
    parts = line.split(delimiter) if delimiter else line.split()
    return [p for p in (s.strip() for s in parts) if p]


def _data_lines(path):
    text = Path(path).read_text(encoding="utf-8")
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield ln, line


def reference_load_edge_list(
    path,
    directed: bool = False,
    weighted: bool = False,
    delimiter: str | None = None,
    use_destination: bool = False,
) -> DatasetBundle:
    """Parse ``src dst [weight]`` lines into a graph.

    Unless given, the first data line picks the delimiter (tab, comma, then
    whitespace). Unknown tokens become new dense node ids in first-seen
    order. With ``weighted`` a third column is required per line; without it
    a third column is rejected so that a wrong delimiter cannot silently
    corrupt the weights. Directed inputs are lifted to their bipartite form,
    and with ``use_destination`` the ids map to the destination copies.
    """
    id_map: dict[str, int] = {}
    src, dst, w = [], [], []
    detect = delimiter is None
    for ln, line in _data_lines(path):
        if detect:
            delimiter, detect = _detect_delimiter(line), False
        parts = _split(line, delimiter)
        if len(parts) == 2:
            if weighted:
                raise ValidationError(f"{path}: line {ln}: expected a weight column")
            weight = 1.0
        elif len(parts) == 3:
            if not weighted:
                raise ValidationError(
                    f"{path}: line {ln}: unexpected third column (use weighted=True)"
                )
            try:
                weight = float(parts[2])
            except ValueError:
                raise ValidationError(f"{path}: line {ln}: bad weight {parts[2]!r}") from None
        else:
            raise ValidationError(f"{path}: line {ln}: expected 2 or 3 columns, got {len(parts)}")
        if weight <= 0:
            raise ValidationError(f"{path}: line {ln}: nonpositive weight {weight}")
        for token in parts[:2]:
            if token not in id_map:
                id_map[token] = len(id_map)
        src.append(id_map[parts[0]])
        dst.append(id_map[parts[1]])
        w.append(weight)
    if not src:
        raise ValidationError(f"{path}: no edges found")
    n = len(id_map)
    arrays = (np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64), np.asarray(w))
    graph = directed_to_bipartite(n, arrays, list(id_map)) if directed else build_graph(n, arrays)
    if use_destination:
        id_map = {token: n + i for token, i in id_map.items()}
    return DatasetBundle(graph=graph, id_map=id_map)


def reference_load_labels(
    path,
    id_map: dict[str, int],
    num_nodes: int,
    delimiter: str | None = None,
) -> tuple[NodePartition, dict[int, str]]:
    """Parse ``node label`` lines against an existing id map.

    Label strings map to dense ids 1..K in first-seen order. Partial
    labelings are fine. A node repeated with a different label is an error.
    """
    name_to_id: dict[str, int] = {}
    assigned: dict[int, int] = {}
    unknown: list[str] = []
    detect = delimiter is None
    for ln, line in _data_lines(path):
        if detect:
            delimiter, detect = _detect_delimiter(line), False
        parts = _split(line, delimiter)
        if len(parts) != 2:
            raise ValidationError(f"{path}: line {ln}: expected 2 columns, got {len(parts)}")
        token, name = parts
        if token not in id_map:
            unknown.append(token)
            continue
        if name not in name_to_id:
            name_to_id[name] = len(name_to_id) + 1
        lab = name_to_id[name]
        if assigned.setdefault(id_map[token], lab) != lab:
            raise ValidationError(
                f"{path}: line {ln}: conflicting label for node {token!r}"
            )
    if unknown:
        raise ValidationError(
            f"{path}: labels for unknown node ids: {', '.join(sorted(set(unknown))[:10])}"
        )
    if not assigned:
        raise ValidationError(f"{path}: no labels found")
    label_names = {v: k for k, v in name_to_id.items()}
    labels = np.zeros(num_nodes, dtype=np.int64)
    for node, lab in assigned.items():
        labels[node] = lab
    return NodePartition(labels=labels, num_labels=len(name_to_id)), label_names


# ---------------------------------------------------------------------------
# random files

BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"]
PADDING = [" ", "  ", "\t", "\x1f", "\u00a0", "\u3000", "\u2009"]
ASCII = "abcxyz0123456789_"
WIDE = "éßΩж東京😀"
# (delimiter argument, separator written between fields)
MODES = [
    (None, "\t"),
    (None, ","),
    (None, " "),
    (None, " \u3000 "),
    (",", ","),
    (";", ";"),
    ("\t", "\t"),
    (" ", " "),
    ("::", "::"),
    ("||", "||"),
    (" | ", " | "),
    ("", " "),
]


def random_token(rng, alphabet):
    # up to 20 units, so that some tokens take more than one 64-bit word
    length = int(rng.choice([1, 2, 3, 5, 8, 9, 12, 20]))
    return "".join(rng.choice(list(alphabet), size=length))


def random_weight(rng, bad=False):
    if bad:
        return str(rng.choice(["abc", "-1", "0", "1..2", "-0.5"]))
    return str(rng.choice([repr(float(rng.uniform(0.1, 5))), "1", "2.5e-1", "1_0", "+3"]))


def random_lines(rng, rows, fields_of, sep, comment_prefix, fault, inner_padding=True):
    """Lines of ``fields_of(i)`` fields each, with blank and comment lines,
    padding, doubled and trailing separators and, if ``fault``, one line
    with a field too few or too many. Without ``inner_padding`` the fields
    are padded with ``sep`` only.

    Half the files use only ASCII padding and line breaks."""
    wide = rng.random() < 0.5
    breaks = BREAKS if wide else ["\n", "\r\n", "\r", "\v", "\f", "\x1c"]
    padding = PADDING if wide else PADDING[:4]
    field_padding = padding if inner_padding else [sep]
    bad_row = int(rng.integers(rows)) if fault and rows else -1
    lines = []
    for i in range(rows):
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", "   ", "\t ", padding[-1]])))
        if comment_prefix and rng.random() < 0.1:
            lines.append(str(rng.choice(["", "  ", "\t"])) + comment_prefix + " note\tx,y")
        fields = fields_of(i)
        if i == bad_row:
            fields = fields[:-1] if rng.random() < 0.5 else fields + ["extra"]
        fields = [
            str(rng.choice(field_padding)) + f + str(rng.choice(field_padding)) if rng.random() < 0.2 else f
            for f in fields
        ]
        line = (sep * 2 if rng.random() < 0.1 else sep).join(fields)
        if rng.random() < 0.1:
            line += sep
        if rng.random() < 0.1:
            line = str(rng.choice(padding)) + line
        lines.append(line)
    text = "".join(line + str(rng.choice(breaks)) for line in lines)
    return text if rng.random() < 0.8 else text.rstrip("\n")


def pads_inside(seed: int, sep: str) -> bool:
    """Whether a case pads fields with any whitespace: every case but the
    even-seeded ones whose separator is one whitespace character."""
    return seed % 2 == 1 or not (len(sep) == 1 and sep.isspace())


def random_case(rng, seed):
    delimiter, sep = MODES[int(rng.integers(len(MODES)))]
    alphabet = ASCII + (WIDE if rng.random() < 0.4 else "") + (":|" if rng.random() < 0.2 else "")
    # the loaders skip "#" lines only
    comment_prefix = str(rng.choice(["#", "#", ""]))
    weighted = bool(rng.random() < 0.4)
    ids = [random_token(rng, alphabet) for _ in range(int(rng.integers(2, 25)))]
    rows = int(rng.integers(0, 40))
    bad_weight = int(rng.integers(rows)) if weighted and rows and rng.random() < 0.1 else -1

    def edge(i):
        fields = [str(rng.choice(ids)), str(rng.choice(ids))]
        return fields + [random_weight(rng, bad=i == bad_weight)] if weighted else fields

    text = random_lines(rng, rows, edge, sep, comment_prefix, rng.random() < 0.2, pads_inside(seed, sep))
    options = dict(directed=bool(rng.random() < 0.2), weighted=weighted, delimiter=delimiter)
    return text, options, ids, alphabet, sep, comment_prefix


def outcome(loader, *args, **kwargs):
    try:
        return loader(*args, **kwargs)
    except ValidationError as exc:
        return (type(exc).__name__, str(exc))


def edge_summary(result):
    if isinstance(result, tuple):
        return result
    g = result.graph
    return (
        list(result.id_map.items()),
        [a.tobytes() for a in (g.indptr, g.indices, g.weights, g.degrees)],
    )


def label_summary(result):
    if isinstance(result, tuple) and isinstance(result[0], str):
        return result
    partition, names = result
    return partition.labels.tobytes(), partition.num_labels, list(names.items())


def write(path: Path, text: str) -> Path:
    path.write_bytes(text.encode("utf-8"))  # no newline translation on the way out
    return path


@pytest.mark.parametrize("seed", range(200))
def test_loaders_match_reference(tmp_path, seed):
    rng = np.random.default_rng([20081194, seed])
    text, options, ids, alphabet, sep, comment_prefix = random_case(rng, seed)
    # labels on the destination copies of every other directed case
    options["use_destination"] = options["directed"] and seed % 2 == 1
    edges = write(tmp_path / "g.edges", text)
    expected = outcome(reference_load_edge_list, edges, **options)
    assert edge_summary(outcome(load_edge_list, edges, **options)) == edge_summary(expected)
    if isinstance(expected, tuple):
        return

    names = [random_token(rng, alphabet) for _ in range(int(rng.integers(1, 4)))]
    unknown = rng.random() < 0.15
    conflict = rng.random() < 0.15
    node_of = {}

    def label_line(i):
        node = random_token(rng, alphabet) if unknown and rng.random() < 0.2 else str(rng.choice(ids))
        if not conflict:
            return [node, node_of.setdefault(node, str(rng.choice(names)))]
        return [node, str(rng.choice(names))]

    rows = int(rng.integers(0, 30))
    fault = rng.random() < 0.15
    labels_text = random_lines(rng, rows, label_line, sep, comment_prefix, fault, pads_inside(seed, sep))
    labels = write(tmp_path / "g.labels", labels_text)
    args = (labels, expected.id_map, expected.graph.n, options["delimiter"])
    assert label_summary(outcome(load_labels, *args)) == label_summary(outcome(reference_load_labels, *args))


@pytest.fixture
def runs_path(monkeypatch):
    """The answers of ``io._runs_are_fields``, one per file split at a
    delimiter: True where the fields are the whitespace runs."""
    taken = []
    check = io_module._runs_are_fields

    def spy(*args):
        taken.append(check(*args))
        return taken[-1]

    monkeypatch.setattr(io_module, "_runs_are_fields", spy)
    return taken


def test_random_cases_take_both_tokenizer_paths(tmp_path, runs_path):
    edges = tmp_path / "g.edges"
    for seed in range(200):
        text, options, *_ = random_case(np.random.default_rng([20081194, seed]), seed)
        outcome(load_edge_list, write(edges, text), **options)
    assert 0 < sum(runs_path) < len(runs_path)


@pytest.mark.parametrize(
    "edges, labels, delimiter, runs",
    [
        # SNAP-style headers: comment lines may hold any whitespace
        (
            "# Directed graph: a b.txt\n# Nodes: 3 Edges: 3\n# FromNodeId\tToNodeId\na\tb\nb\tc\n\t\tc\ta\t\n",
            "# node label\na\tx\nb\ty\nc\tx\n",
            None,
            True,
        ),
        # a space inside a field stays in the field
        ("New York\tBoston\nBoston\tChicago\nChicago\tNew York\n", "New York\tx y\nBoston\tz\n", None, False),
        ("a b\nb  c\n c a \n", "a x\nb y\n", " ", True),
        ("a\u3000b\nb\u3000\u3000c\n", "a\u3000x\n", "\u3000", True),
        ("a\x1fb\nb\x1f c\n", "a\x1f x\n", "\x1f", False),
        # a delimiter that breaks lines keeps the general path
        ("a\vb\n", "a\vx\n", "\v", False),
        ("a,b\x85b,c\n", "a,x\n", "\x85", False),
    ],
    ids=["tab-headers", "tab-space-in-field", "space", "ideographic-space", "unit-separator", "vt", "nel"],
)
def test_tokenizer_paths_match_reference(tmp_path, runs_path, edges, labels, delimiter, runs):
    path = write(tmp_path / "g.edges", edges)
    expected = outcome(reference_load_edge_list, path, delimiter=delimiter)
    assert edge_summary(outcome(load_edge_list, path, delimiter=delimiter)) == edge_summary(expected)
    assert runs_path == [runs]
    if isinstance(expected, tuple):
        return
    args = (write(tmp_path / "g.labels", labels), expected.id_map, expected.graph.n, delimiter)
    assert label_summary(outcome(load_labels, *args)) == label_summary(outcome(reference_load_labels, *args))
    assert runs_path == [runs, runs]  # the labels take the same path


@pytest.mark.parametrize("digits, edges", [(7, 64), (7, 65), (7, 500), (8, 500), (9, 500)])
def test_long_ids_match_reference(tmp_path, digits, edges):
    # 7-digit ids take 56 bits: beside the 7 position bits of 128 tokens they
    # sort in one pass, beside the 8 of 130 tokens in two; 8 digits fill the
    # first word, 9 need more
    rng = np.random.default_rng([digits, edges])
    ids = rng.integers(10 ** (digits - 1), 10 ** (digits - 1) + 3 * edges, size=(edges, 2))
    path = write(tmp_path / "g.edges", "".join(f"{a}\t{b}\n" for a, b in ids.tolist()))
    assert edge_summary(load_edge_list(path)) == edge_summary(reference_load_edge_list(path))


@pytest.mark.parametrize("suffixes", [("\x7f",), ("\x7f", "", "~\x7f")], ids=["one-word", "mixed"])
def test_ids_with_the_top_bit_set_match_reference(tmp_path, suffixes):
    # each code unit is stored plus one, so 8 ASCII characters ending in
    # U+007F give a first word whose top byte is 0x80
    rng = np.random.default_rng(len(suffixes))
    ids = [f"{v:07d}{rng.choice(suffixes)}" for v in rng.integers(0, 300, size=1000).tolist()]
    path = write(tmp_path / "g.edges", "".join(f"{a}\t{b}\n" for a, b in zip(ids[0::2], ids[1::2])))
    assert edge_summary(load_edge_list(path)) == edge_summary(reference_load_edge_list(path))


@pytest.mark.parametrize("lengths", [(2,), (2, 3, 4, 5)])
def test_short_non_ascii_ids_match_reference(tmp_path, lengths):
    # two 32-bit code units fill the first word; more need further sorts
    rng = np.random.default_rng(list(lengths))
    ids = ["".join(rng.choice(list("aé字😀"), size=rng.choice(lengths))) for _ in range(1000)]
    edges = write(tmp_path / "g.edges", "".join(f"{a}\t{b}\n" for a, b in zip(ids[0::2], ids[1::2])))
    expected = reference_load_edge_list(edges)
    assert edge_summary(load_edge_list(edges)) == edge_summary(expected)
    labels = write(tmp_path / "g.labels", "".join(f"{v}\t{v[::-1]}\n" for v in ids[::3]))
    args = (labels, expected.id_map, expected.graph.n)
    assert label_summary(outcome(load_labels, *args)) == label_summary(outcome(reference_load_labels, *args))


def test_conflict_reported_before_unknown_ids(tmp_path):
    edges = write(tmp_path / "g.edges", "a\tb\nb\tc\n")
    labels = write(tmp_path / "g.labels", "zz\tx\na\tx\nb\ty\na\ty\nqq\tx\n")
    bundle = load_edge_list(edges)
    with pytest.raises(ValidationError, match=r"line 4: conflicting label for node 'a'"):
        load_labels(labels, bundle.id_map, bundle.graph.n)
    with pytest.raises(ValidationError, match=r"line 4: conflicting label for node 'a'"):
        reference_load_labels(labels, bundle.id_map, bundle.graph.n)


def test_whitespace_and_line_break_tables_cover_every_character():
    chars = list(map(chr, range(0x110000)))
    assert _WHITESPACE == "".join(c for c in chars if c.isspace())
    assert _LINE_BREAKS == "".join(c for c in chars if len(f"x{c}x".splitlines()) == 2)
