import sys

import numpy as np
import pytest

from heatprop import Graph, build_graph
from heatprop.datasets import load_bundle


def dense_from_edges(n, edges):
    """Independent dense adjacency built straight from the edge list."""
    a = np.zeros((n, n))
    for i, j, w in edges:
        if i == j:
            a[i, i] += w
        else:
            a[i, j] += w
            a[j, i] += w
    return a


def count_calls(monkeypatch, module, name) -> list:
    """Replace ``module.name``, and every ``from module import name`` copy
    that a heatprop module holds, by a wrapper that records each call's
    positional arguments; returns the list of records."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "heatprop" or mod_name.startswith("heatprop."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def random_connected_graph(rng, n, extra_edges=0, weighted=True) -> Graph:
    """Random spanning tree plus extra edges; connected by construction."""
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        w = float(rng.uniform(0.5, 2.0)) if weighted else 1.0
        edges.append((i, j, w))
    for _ in range(extra_edges):
        i, j = rng.choice(n, size=2, replace=False)
        w = float(rng.uniform(0.5, 2.0)) if weighted else 1.0
        edges.append((int(i), int(j), w))
    return build_graph(n, edges)


def path_graph(n) -> Graph:
    return build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def barbell_graph(clique=5):
    """Two equal cliques joined by one bridge edge. Returns the graph and the
    two sorted member arrays; the bridge joins the last node of clique A to
    the first node of clique B (a mirror-symmetric layout)."""
    edges = []
    a = list(range(clique))
    b = list(range(clique, 2 * clique))
    for members in (a, b):
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                edges.append((members[x], members[y], 1.0))
    edges.append((a[-1], b[0], 1.0))
    return build_graph(2 * clique, edges), np.array(a), np.array(b)


def star_graph(leaves=3):
    """Center node 0 with unit spokes."""
    return build_graph(leaves + 1, [(0, i, 1.0) for i in range(1, leaves + 1)])


@pytest.fixture(scope="session")
def karate():
    return load_bundle("karate")
