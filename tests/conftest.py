"""Shared fixtures and random-instance generators."""

from pathlib import Path

import pytest

from flexmarket import Bid, DispatchState, Line, Network, build_ptdf, line_flows

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"
# An int too long to write out in decimal (formatting it raises a bare
# ValueError), and how an error message shows it.
HUGE = 10 ** 5000
TOO_LONG = "<int too long to show>"


@pytest.fixture
def three_bus():
    """Two-line feeder with line 2-3 loaded exactly to its limit."""
    network = Network(
        buses=["1", "2", "3"],
        lines=[Line("1", "2", 0.1, 60.0), Line("2", "3", 0.1, 20.0)],
        slack_bus="1",
    )
    return network, DispatchState({"1": 40.0, "2": -20.0, "3": -20.0})


def random_network(rng, max_buses=15, mesh_prob=0.3, margin=(5.0, 150.0)):
    """Random connected network whose baseline violates no line limit.

    Draws a random tree (optionally with extra chords), random
    reactances and a balanced random dispatch, then sizes every limit as
    the baseline flow magnitude plus a random margin.
    """
    n = int(rng.integers(3, max_buses + 1))
    buses = [str(i) for i in range(1, n + 1)]
    edges = [(str(int(rng.integers(1, i))), str(i)) for i in range(2, n + 1)]
    if n >= 4 and rng.random() < mesh_prob:
        for _ in range(int(rng.integers(1, 3))):
            a, b = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
            edges.append((str(min(a, b)), str(max(a, b))))

    reactances = rng.uniform(0.02, 0.5, len(edges))
    injections = rng.uniform(-100.0, 100.0, n)
    injections[0] -= injections.sum()
    dispatch = DispatchState({b: float(v) for b, v in zip(buses, injections)})

    sized = Network(
        buses=buses,
        lines=[Line(a, b, float(x), 1.0) for (a, b), x in zip(edges, reactances)],
        slack_bus="1",
    )
    flows = line_flows(build_ptdf(sized), dispatch)
    lines = [
        Line(a, b, float(x), float(abs(f) + rng.uniform(*margin)))
        for (a, b), x, f in zip(edges, reactances, flows)
    ]
    return Network(buses=buses, lines=lines, slack_bus="1"), dispatch


def random_tree_network(rng, max_buses=15, margin=(5.0, 150.0)):
    return random_network(rng, max_buses=max_buses, mesh_prob=0.0, margin=margin)


def random_bid_stream(rng, network, n_bids=14):
    """A loose mix of offers and mostly-conditional requests."""
    bids = []
    for i in range(n_bids):
        side = "request" if rng.random() < 0.5 else "offer"
        direction = "up" if rng.random() < 0.5 else "down"
        bus = network.buses[int(rng.integers(0, len(network.buses)))]
        quantity = float(rng.integers(5, 40))
        if side == "request":
            price = float(rng.uniform(0.035, 0.060))
            conditionality = "conditional" if rng.random() < 0.8 else "unconditional"
        else:
            price = float(rng.uniform(0.020, 0.050))
            conditionality = None
        bids.append(Bid(f"b{i + 1}", side, direction, bus, quantity, price, conditionality))
    return bids
