"""Bundled fixture datasets shipped with the package."""

from __future__ import annotations

from pathlib import Path

from .errors import ValidationError
from .io import load_edge_list, load_labels

_DATA_DIR = Path(__file__).parent / "data"

# name -> (edge file, label file); all undirected, unit weights
BUILTIN_DATASETS = {
    "karate": ("karate.edges", "karate.labels"),
    "blocks2": ("blocks2.edges", "blocks2.labels"),
    "blocks3": ("blocks3.edges", "blocks3.labels"),
}


def data_path(filename: str) -> Path:
    return _DATA_DIR / filename


def config_path(name: str) -> Path:
    """``name`` itself when it is a file, else the bundled config of that name."""
    if Path(name).is_file():
        return Path(name)
    path = _DATA_DIR / "configs" / f"{name}.cfg"
    if not path.exists():
        raise ValidationError(f"config file {name!r} not found, and no bundled config has that name")
    return path


def load_bundle(graph, labels=None, directed=False, weighted=False, delimiter=None, use_destination=False):
    """A bundled dataset by name, or an edge-list file with an optional label
    file, read by ``load_edge_list`` and ``load_labels``. The labels land on
    the ``id_map`` nodes: the source copies of a directed graph, or its
    destination copies with ``use_destination``."""
    if graph in BUILTIN_DATASETS:
        if labels:
            raise ValidationError("bundled datasets already carry labels; drop the label file")
        graph, labels = map(data_path, BUILTIN_DATASETS[graph])
    bundle = load_edge_list(graph, directed, weighted, delimiter=delimiter, use_destination=use_destination)
    if labels is not None:
        bundle.labels, bundle.label_names = load_labels(labels, bundle.id_map, bundle.graph.n, delimiter=delimiter)
    return bundle
