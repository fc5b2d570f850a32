"""Bundled example inputs: the two-mode demo system and the three graphs used
in the documentation."""

import json
from importlib import resources

from .graphs import graph_from_json
from .lyapunov import system_from_json


def _load(name):
    return json.loads(
        resources.files("pathlyap").joinpath("data", name).read_text()
    )


def demo_system():
    """Two 2x2 modes whose joint growth rate is close to 3.9174."""
    return system_from_json(_load("demo_system.json"))


def de_bruijn_1_graph():
    return graph_from_json(_load("debruijn1.json"))


def de_bruijn_2_graph():
    return graph_from_json(_load("debruijn2.json"))


def mixed_horizon_graph():
    """Three nodes remembering one or two recent symbols, six edges."""
    return graph_from_json(_load("mixed_horizon.json"))
