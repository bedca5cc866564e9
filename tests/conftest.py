import pathlib
from random import Random

import pytest
from hypothesis import settings

from grhom.graph import graph_from_dict

settings.register_profile("default", deadline=None)
settings.load_profile("default")

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def data_dir():
    return DATA


@pytest.fixture
def graph_e():
    # loop at u plus a 2-cycle u <-> v
    return graph_from_dict({
        "vertices": ["u", "v"],
        "edges": [
            {"id": "e", "src": "u", "dst": "u"},
            {"id": "f", "src": "u", "dst": "v"},
            {"id": "g", "src": "v", "dst": "u"},
        ],
    })


@pytest.fixture
def graph_f():
    # two loops at a single vertex
    return graph_from_dict({
        "vertices": ["u"],
        "edges": [
            {"id": "e", "src": "u", "dst": "u"},
            {"id": "f", "src": "u", "dst": "u"},
        ],
    })


@pytest.fixture
def single_sink():
    return graph_from_dict({"vertices": ["s"], "edges": []})


@pytest.fixture
def single_loop():
    return graph_from_dict({
        "vertices": ["u"],
        "edges": [{"id": "e", "src": "u", "dst": "u"}],
    })


@pytest.fixture
def triple_loop():
    return graph_from_dict({
        "vertices": ["u"],
        "edges": [
            {"id": "a", "src": "u", "dst": "u"},
            {"id": "b", "src": "u", "dst": "u"},
            {"id": "c", "src": "u", "dst": "u"},
        ],
    })


@pytest.fixture
def full2():
    # complete two-vertex shift: all four ordered pairs
    return graph_from_dict({
        "vertices": ["a", "b"],
        "edges": [
            {"id": "e1", "src": "a", "dst": "a"},
            {"id": "e2", "src": "a", "dst": "b"},
            {"id": "e3", "src": "b", "dst": "a"},
            {"id": "e4", "src": "b", "dst": "b"},
        ],
    })


@pytest.fixture
def weighted_loop():
    return graph_from_dict({
        "vertices": ["u"],
        "edges": [{"id": "e", "src": "u", "dst": "u", "weight": 2}],
    })


@pytest.fixture
def seeded_graph():
    """Factory for a seeded graph on n vertices with 1-3 out-edges per
    vertex; with sinks, about a fifth of the vertices get none."""
    def build(seed, n, sinks):
        rng = Random(seed)
        names = ["v%d" % i for i in range(n)]
        edges = []
        for i in range(n):
            if sinks and rng.random() < 0.2:
                continue
            for _ in range(rng.randint(1, 3)):
                edges.append({"id": "e%d" % len(edges), "src": names[i],
                              "dst": names[rng.randrange(n)]})
        return graph_from_dict({"vertices": names, "edges": edges})
    return build
