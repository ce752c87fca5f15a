"""Bundled fixture datasets shipped with the package."""

from __future__ import annotations

from pathlib import Path

from .errors import ValidationError
from .io import DatasetBundle, load_dataset

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


def load_builtin(name: str, directed=False, weighted=False, delimiter=None) -> DatasetBundle:
    """A bundled dataset, read with the same options as an edge-list file."""
    if name not in BUILTIN_DATASETS:
        raise ValidationError(
            f"unknown dataset {name!r}; bundled: {', '.join(sorted(BUILTIN_DATASETS))}"
        )
    edges, labels = BUILTIN_DATASETS[name]
    return load_dataset(data_path(edges), data_path(labels), directed, weighted, delimiter)
