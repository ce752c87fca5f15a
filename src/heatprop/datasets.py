"""Bundled fixture datasets shipped with the package."""

from __future__ import annotations

from pathlib import Path

from .errors import ValidationError
from .io import load_dataset

_DATA_DIR = Path(__file__).parent / "data"

# name -> (edge file, label file); all undirected, unit weights
BUILTIN_DATASETS = {
    "karate": ("karate.edges", "karate.labels"),
    "blocks2": ("blocks2.edges", "blocks2.labels"),
    "blocks3": ("blocks3.edges", "blocks3.labels"),
}


def data_path(filename: str) -> Path:
    path = _DATA_DIR / filename
    if not path.exists():
        raise ValidationError(f"no bundled data file {filename!r}")
    return path


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
    file, read by ``load_dataset`` (labels on destination copies with ``use_destination``)."""
    if graph in BUILTIN_DATASETS:
        if labels:
            raise ValidationError("bundled datasets already carry labels; drop the label file")
        graph, labels = map(data_path, BUILTIN_DATASETS[graph])
    return load_dataset(graph, labels, directed, weighted, delimiter, use_destination)
