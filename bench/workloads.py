"""Seeded input generator for the clearing benchmark.

Everything here uses the standard library ``random`` module only and
returns file contents as text: a radial feeder in the network YAML
format and bid streams in the JSONL format that ``flexmarket run``
reads. The same seed always gives the same bytes. The engine never sees
the generator, only the files it writes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

FIFTEEN_BUS = Path("data") / "fifteen_bus.yaml"


@dataclass(frozen=True)
class Workload:
    """How one workload's inputs are drawn and which policy clears them."""

    name: str
    why: str
    policy: str
    buses: int  # 0: use the bundled 15-bus feeder instead of a generated one
    feeders: int  # radial feeders leaving the slack bus
    margin_kw: tuple  # line limit = |baseline flow| + uniform margin
    sessions: int  # independent books, one bid file each
    bids_per_session: int
    unconditional_share: float  # of requests
    offer_price: tuple
    request_price: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mixed-reeval",
            why=(
                "unconditional matches shift the baseline and re-scan the book: "
                "counterparty scans, re-evaluation passes and trade-log growth"
            ),
            policy="individual_and_cumulative",
            buses=200,
            feeders=4,
            margin_kw=(1000.0, 3000.0),
            sessions=20,
            bids_per_session=200,
            unconditional_share=0.4,
            offer_price=(0.025, 0.060),
            request_price=(0.020, 0.055),
        ),
        Workload(
            name="conditional-large",
            why=(
                "conditional-only books on a 400-bus feeder: each check stacks every "
                "accepted delta; a dense PTDF build per book is half of set-up"
            ),
            policy="cumulative",
            buses=400,
            feeders=8,
            margin_kw=(15.0, 25.0),
            sessions=8,
            bids_per_session=150,
            unconditional_share=0.0,
            offer_price=(0.020, 0.040),
            request_price=(0.030, 0.060),
        ),
        Workload(
            name="fifteen-bus-sessions",
            why=(
                "many small books on the paper's 15-bus feeder under "
                "all_combinations: the 2^M subset enumeration is the heavy part"
            ),
            policy="all_combinations",
            buses=0,
            feeders=0,
            margin_kw=(),
            sessions=1000,
            bids_per_session=28,
            unconditional_share=0.0,
            # Bands that mostly do not cross leave about two thirds of
            # submissions without a network check, so the median latency
            # lies among them and not at the step up to the checked ones.
            offer_price=(0.030, 0.060),
            request_price=(0.020, 0.050),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    network_yaml: Optional[str]  # None: the bundled 15-bus feeder
    bid_streams: tuple  # one JSONL text per session


def radial_network(rng: random.Random, n: int, feeders: int, margin_kw: tuple) -> tuple:
    """Radial feeders with long laterals, leaving a slack bus, with a feasible baseline.

    Returns the YAML text and the bus ids. Bus 1 is the slack; its
    injection is left out so the loader balances it. Bus ``i`` belongs
    to feeder ``(i - 2) % feeders``; feeders share no line, so
    congestion on one does not decide the outcome on the others. On a
    tree the flow on the line into a bus is minus the net injection of
    that bus's subtree, so every limit is that flow's magnitude plus a
    margin.
    """
    parent = {}
    for bus in range(2, n + 1):
        upstream = (bus - 2) // feeders  # earlier buses on the same feeder
        if upstream == 0:
            parent[bus] = 1
        elif rng.random() < 0.75:
            parent[bus] = bus - feeders
        else:
            parent[bus] = bus - feeders * rng.randint(1, upstream)
    injection = {}
    for bus in range(2, n + 1):
        kw = -rng.uniform(5.0, 60.0) if rng.random() < 0.9 else rng.uniform(5.0, 40.0)
        injection[bus] = round(kw, 2)
    subtree = dict(injection)
    for bus in range(n, 1, -1):  # parents always have smaller ids
        if parent[bus] != 1:
            subtree[parent[bus]] += subtree[bus]

    out = [
        f"# Seeded radial network, {n} buses on {feeders} feeders; "
        "limits are baseline flow plus margin.",
        "buses: [" + ", ".join(str(b) for b in range(1, n + 1)) + "]",
        "slack_bus: 1",
        "lines:",
    ]
    for bus in range(2, n + 1):
        limit = round(abs(subtree[bus]) + rng.uniform(*margin_kw), 2)
        reactance = round(rng.uniform(0.02, 0.2), 4)
        out.append(
            f"  - {{from_bus: {parent[bus]}, to_bus: {bus}, "
            f"reactance: {reactance}, limit_kw: {limit}}}"
        )
    out.append("injection_kw:")
    out.extend(f"  {bus}: {kw}" for bus, kw in injection.items())
    return "\n".join(out) + "\n", tuple(str(b) for b in range(1, n + 1))


def spread(rng: random.Random, count: int, low: float, high: float) -> list:
    """``count`` evenly spaced values over [low, high), in random order.

    Stratified rather than independent draws keep the price and quantity
    mix of every seed alike, so seeds differ in order and placement
    only and the work per run varies less between seeds.
    """
    values = [low + (i + 0.5) * (high - low) / count for i in range(count)]
    rng.shuffle(values)
    return values


def bid_stream(rng: random.Random, workload: Workload, bus_ids: tuple, prefix: str) -> str:
    """One session's bids: half offers, half requests, in random order."""
    count = workload.bids_per_session
    offers, requests = (count + 1) // 2, count // 2
    sides = ["offer"] * offers + ["request"] * requests
    rng.shuffle(sides)
    unconditional = round(workload.unconditional_share * requests)
    conditionality = ["unconditional"] * unconditional
    conditionality += ["conditional"] * (requests - unconditional)
    rng.shuffle(conditionality)
    prices = {
        "offer": spread(rng, offers, *workload.offer_price),
        "request": spread(rng, requests, *workload.request_price),
    }
    directions = {side: ["up", "down"] * (n // 2) + ["up"] * (n % 2) for side, n in
                  (("offer", offers), ("request", requests))}
    for values in directions.values():
        rng.shuffle(values)
    quantities = spread(rng, count, 5.0, 40.0)

    lines = []
    for i, side in enumerate(sides):
        record = {
            "id": f"{prefix}b{i + 1}",
            "side": side,
            "direction": directions[side].pop(),
            "bus": rng.choice(bus_ids[1:]),
            "quantity_kw": round(quantities[i]),
            "price_eur_per_kw": round(prices[side].pop(), 4),
        }
        if side == "request":
            record["conditionality"] = conditionality.pop()
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def generate(workload: Workload, seed: int) -> Inputs:
    """Draw a workload's bid streams from ``seed``.

    The network is one fixed draw per workload, like a standard test
    feeder: a per-seed network moved the work per run by a sixth between
    seeds, because a few lines near the slack decide when congestion
    starts.
    """
    if workload.buses:
        network_yaml, bus_ids = radial_network(
            random.Random(workload.name), workload.buses, workload.feeders, workload.margin_kw
        )
    else:
        network_yaml, bus_ids = None, tuple(str(b) for b in range(1, 16))  # data/fifteen_bus.yaml
    rng = random.Random(f"{workload.name}:{seed}")
    streams = tuple(
        bid_stream(rng, workload, bus_ids, f"s{s + 1}" if workload.sessions > 1 else "")
        for s in range(workload.sessions)
    )
    return Inputs(network_yaml, streams)
