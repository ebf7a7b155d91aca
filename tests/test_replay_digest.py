"""Byte-level regression check of a long synthetic replay.

A seeded stream of a few hundred bids, drawn with the standard-library
``random`` module so the digest does not depend on numpy's generators,
is cleared on the bundled 15-bus feeder. It mixes conditional and
unconditional requests, so unconditional matches shift the baseline and
re-evaluation passes run, and it cancels a resting bid now and then. The
SHA-256 of the trade-log lines and the book dump must equal the value
recorded before the clearing engine's data structures were reworked:
any change to a logged byte, or to the order in which pairings are
examined, changes it.
"""

import hashlib
import random
from collections import Counter

import pytest

from flexmarket import (
    Bid,
    MarketConfig,
    MarketError,
    book_json,
    load_network,
    new_book,
    trade_log_lines,
)
from flexmarket.market import (
    ALL_COMBINATIONS,
    INDIVIDUAL_AND_CUMULATIVE,
    ORDER_BEST_PRICE,
    ORDER_FIFO,
    OUTCOME_PARTIAL,
    OUTCOME_REJECTED_CONGESTION,
    OUTCOME_REJECTED_PRICE,
)

from conftest import DATA

N_BIDS = 300
SEED = 20201201

DIGESTS = {
    (INDIVIDUAL_AND_CUMULATIVE, ORDER_FIFO): (
        "21b1e99fa086e56113637f53d36cc17cdd79475ebd5c1d3aeed81a3d4082b223"
    ),
    (INDIVIDUAL_AND_CUMULATIVE, ORDER_BEST_PRICE): (
        "ab7051f490db8b04a4f83ab791ad27c0062a394767a514ad19090172db36217e"
    ),
    (ALL_COMBINATIONS, ORDER_FIFO): (
        "cca0ec7161296053306e0ae04067f74cf00cd1b95d890d4f9b5cfe1bba45e942"
    ),
    (ALL_COMBINATIONS, ORDER_BEST_PRICE): (
        "1782ec89b3cc7e491ee5a5d18e1c3979608cd4716c5e4188417951ce3d3d0c10"
    ),
}


def synthetic_stream(seed=SEED, n_bids=N_BIDS):
    """Bids and cancellations in arrival order: ``("bid", Bid)`` or ``("cancel", id)``."""
    rng = random.Random(seed)
    events = []
    for i in range(n_bids):
        side = "request" if rng.random() < 0.5 else "offer"
        direction = "up" if rng.random() < 0.5 else "down"
        bus = str(rng.randint(2, 15))
        quantity = rng.choice([rng.randint(5, 60), round(rng.uniform(1.0, 80.0), 3)])
        if side == "request":
            price = round(rng.uniform(0.030, 0.060), 4)
            conditionality = "conditional" if rng.random() < 0.7 else "unconditional"
        else:
            price = round(rng.uniform(0.025, 0.055), 4)
            conditionality = None
        events.append(("bid", Bid(f"b{i + 1}", side, direction, bus, quantity, price, conditionality)))
        if i % 10 == 9:
            events.append(("cancel", f"b{rng.randint(1, i + 1)}"))
    return events


def replay_digest(policy, order):
    network, baseline = load_network(DATA / "fifteen_bus.yaml")
    book = new_book(network, baseline, MarketConfig(policy=policy, order=order))
    cancelled = 0
    for kind, item in synthetic_stream():
        if kind == "bid":
            book.submit_bid(item)
            continue
        try:
            book.cancel_bid(item)
            cancelled += 1
        except MarketError:  # already filled or cancelled
            pass
    lines = trade_log_lines(book.trade_log)
    payload = ("\n".join(lines) + "\n" + book_json(book)).encode()
    return hashlib.sha256(payload).hexdigest(), book, cancelled


@pytest.mark.parametrize("policy, order", sorted(DIGESTS))
def test_synthetic_replay_digest_is_unchanged(policy, order):
    digest, book, cancelled = replay_digest(policy, order)
    outcomes = Counter(entry.outcome for entry in book.trade_log)
    # The stream exercises every path the digest is meant to pin down.
    assert outcomes[OUTCOME_REJECTED_PRICE] > 0
    assert outcomes[OUTCOME_REJECTED_CONGESTION] + outcomes[OUTCOME_PARTIAL] > 0
    assert len(book.accepted) > 0 and book.baseline.injection_kw != load_network(
        DATA / "fifteen_bus.yaml"
    )[1].injection_kw
    assert cancelled > 0
    assert digest == DIGESTS[policy, order]
