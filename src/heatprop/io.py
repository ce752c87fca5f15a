"""Dataset ingestion: edge lists and label files with external string ids."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .graph import Graph, MultiLabelPartition, NodePartition, build_graph, directed_to_bipartite


@dataclass
class DatasetBundle:
    """A loaded graph plus the bookkeeping to map back to external ids.

    For directed inputs the graph is the bipartite lift on ``2 * n_original``
    nodes: index ``i`` is the source copy of external node ``i`` and
    ``n_original + i`` its destination copy.
    """

    graph: Graph
    id_map: dict[str, int]
    directed: bool
    n_original: int
    labels: NodePartition | None = None
    multi_labels: MultiLabelPartition | None = None
    label_names: dict[int, str] | None = None

    def external_id(self, index: int) -> str:
        if not hasattr(self, "_reverse"):
            self._reverse = {v: k for k, v in self.id_map.items()}
        return self._reverse[index]


def _detect_delimiter(line: str) -> str | None:
    if "\t" in line:
        return "\t"
    if "," in line:
        return ","
    return None  # whitespace split


def _split(line: str, delimiter: str | None) -> list[str]:
    parts = line.split(delimiter) if delimiter else line.split()
    return [p for p in (s.strip() for s in parts) if p]


def _data_lines(path, comment_prefix: str):
    text = Path(path).read_text(encoding="utf-8")
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or (comment_prefix and line.startswith(comment_prefix)):
            continue
        yield ln, line


def load_edge_list(
    path,
    directed: bool = False,
    weighted: bool = False,
    comment_prefix: str = "#",
    delimiter: str | None = None,
) -> DatasetBundle:
    """Parse ``src dst [weight]`` lines into a graph.

    The delimiter is auto-detected (tab, comma, then whitespace) unless given.
    Unknown tokens become new dense node ids in first-seen order. With
    ``weighted`` a third column is required per line; without it a third
    column is rejected so that a wrong delimiter cannot silently corrupt the
    weights. Directed inputs are lifted to their bipartite form.
    """
    id_map: dict[str, int] = {}
    src, dst, w = [], [], []
    for ln, line in _data_lines(path, comment_prefix):
        if delimiter is None:
            delimiter = _detect_delimiter(line)
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
    graph = directed_to_bipartite(n, arrays) if directed else build_graph(n, arrays)
    return DatasetBundle(graph=graph, id_map=id_map, directed=directed, n_original=n)


def load_labels(
    path,
    id_map: dict[str, int],
    num_nodes: int,
    comment_prefix: str = "#",
    delimiter: str | None = None,
    multi: bool = False,
) -> tuple[NodePartition | MultiLabelPartition, dict[int, str]]:
    """Parse ``node label`` lines against an existing id map.

    Label strings map to dense ids 1..K in first-seen order. Partial
    labelings are fine. A node repeated with a different label is an error
    unless ``multi`` is set, in which case label sets are retained.
    """
    name_to_id: dict[str, int] = {}
    assigned: dict[int, set[int]] = {}
    unknown: list[str] = []
    for ln, line in _data_lines(path, comment_prefix):
        if delimiter is None:
            delimiter = _detect_delimiter(line)
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
        node = id_map[token]
        current = assigned.setdefault(node, set())
        if not multi and current and lab not in current:
            raise ValidationError(
                f"{path}: line {ln}: conflicting label for node {token!r}"
            )
        current.add(lab)
    if unknown:
        raise ValidationError(
            f"{path}: labels for unknown node ids: {', '.join(sorted(set(unknown))[:10])}"
        )
    if not assigned:
        raise ValidationError(f"{path}: no labels found")
    label_names = {v: k for k, v in name_to_id.items()}
    num_labels = len(name_to_id)
    if multi:
        sets = tuple(frozenset(assigned.get(i, ())) for i in range(num_nodes))
        return MultiLabelPartition(sets=sets, num_labels=num_labels), label_names
    labels = np.zeros(num_nodes, dtype=np.int64)
    for node, labs in assigned.items():
        labels[node] = next(iter(labs))
    return NodePartition(labels=labels, num_labels=num_labels), label_names


def load_dataset(
    graph_path,
    labels_path=None,
    directed: bool = False,
    weighted: bool = False,
    delimiter: str | None = None,
    multi: bool = False,
) -> DatasetBundle:
    """Load an edge list and (optionally) its label file into one bundle."""
    bundle = load_edge_list(graph_path, directed=directed, weighted=weighted, delimiter=delimiter)
    if labels_path is not None:
        parsed, names = load_labels(
            labels_path, bundle.id_map, bundle.n_original, delimiter=delimiter, multi=multi
        )
        bundle.label_names = names
        if multi:
            bundle.multi_labels = parsed
        else:
            bundle.labels = parsed
    return bundle


def write_edge_list(path, graph: Graph, id_of=None, delimiter: str = "\t", weighted: bool = False):
    """Emit the canonical (i <= j) edge list; inverse of ``load_edge_list``
    up to node renaming."""
    src, dst, w = graph.edges()
    id_of = id_of or (lambda i: str(i))
    with open(path, "w", encoding="utf-8") as handle:
        for i, j, weight in zip(src, dst, w):
            row = [id_of(int(i)), id_of(int(j))]
            if weighted:
                row.append(repr(float(weight)))
            handle.write(delimiter.join(row) + "\n")
