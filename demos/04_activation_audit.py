"""Check the engine against the independent oracle on random instances.

The oracle solves the nodal angle equations directly and shares no code
with the clearing engine's sensitivity matrices. This script replays a
few random bid streams, audits every activation subset of the accepted
matches, and samples random partial activations of single exchanges.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import random_bid_stream, random_network  # noqa: E402

from flexmarket import (  # noqa: E402
    OrderBook,
    exchange_buses,
    max_tradable_quantity,
)
from flexmarket.oracle import dc_solve, exhaustive_subset_check, flow_violations  # noqa: E402

rng = np.random.default_rng(7)

print("Random clearings under all_combinations, audited subset by subset")
for i in range(5):
    network, baseline = random_network(rng, max_buses=12)
    book = OrderBook(network, baseline, "all_combinations")
    for bid in random_bid_stream(rng, network, n_bids=12):
        book.submit_bid(bid)
    reports = exhaustive_subset_check(network, book.baseline, book.accepted)
    trades = sum(1 for e in book.trade_log if e.quantity_kw > 0)
    print(
        f"  instance {i + 1}: {len(network.buses)} buses, {trades} fills, "
        f"{len(book.accepted)} conditional matches, "
        f"{2 ** len(book.accepted)} subsets audited, {len(reports)} violations"
    )
    assert not reports

print("\nRandom partial activations of single exchanges")
violations = 0
for _ in range(2000):
    network, dispatch = random_network(rng, max_buses=10)
    request_bus, offer_bus = rng.choice(network.buses, size=2)
    direction = "up" if rng.random() < 0.5 else "down"
    allowed = max_tradable_quantity(
        network, dispatch, request_bus, offer_bus, direction, float(rng.uniform(1, 100))
    )
    inject, withdraw = exchange_buses(request_bus, offer_bus, direction)
    dispatch.apply_exchange(inject, withdraw, rng.uniform(0.0, allowed))
    violations += bool(flow_violations(network, dc_solve(network, dispatch)))
print(f"  2000 trials, {violations} violations")
assert violations == 0
