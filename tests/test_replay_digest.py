"""Byte-level regression check of a long synthetic replay.

A seeded stream of a few hundred bids, drawn with the standard-library
``random`` module so the digest does not depend on numpy's generators,
is cleared on the bundled 15-bus feeder. It mixes conditional and
unconditional requests, so unconditional matches shift the baseline and
re-evaluation passes run, and it cancels a resting bid now and then. The
SHA-256 of the trade-log lines and the book dump must equal the value
recorded before the clearing engine's data structures were reworked:
any change to a logged byte, or to the order in which pairings are
examined, changes it. The engine once logged every pairing whose prices
do not cross as ``rejected(price)``; those lines are left out of the
digest, so the pins hold for logs written before and after it stopped.
"""

import hashlib
import random
from collections import Counter

import pytest

from flexmarket import (
    Bid,
    MarketConfig,
    MarketError,
    OrderBook,
    book_json,
    load_network,
    new_book,
    trade_log_lines,
)
from flexmarket.market import (
    ALL_COMBINATIONS,
    CUMULATIVE,
    INDIVIDUAL,
    INDIVIDUAL_AND_CUMULATIVE,
    ORDER_BEST_PRICE,
    ORDER_FIFO,
    OUTCOME_PARTIAL,
    OUTCOME_REJECTED_CONGESTION,
)

from conftest import DATA

N_BIDS = 300
SEED = 20201201
# Written for each non-crossing pairing by engines that examined them.
OLD_PRICE_OUTCOME = "rejected(price)"

DIGESTS = {
    (INDIVIDUAL, ORDER_FIFO): (
        "2574a7ed4eac2775e2369f0f248868c73d342c3c35e42c82e4895fcb4189a368"
    ),
    # Checks a conditional candidate against S alone and an unconditional one against 0 and S.
    (CUMULATIVE, ORDER_FIFO): (
        "b006b56707cf8962f4097b14fc454372922f6bd29bff8c712535ec38867ee16e"
    ),
    (INDIVIDUAL_AND_CUMULATIVE, ORDER_FIFO): (
        "a7b6481f714562396d5c6e688baaf3a890eba8d3bc870342b93e4176956aeb58"
    ),
    (INDIVIDUAL_AND_CUMULATIVE, ORDER_BEST_PRICE): (
        "3d37aab65d916bd0e319d18c25f935f00f531eb903100557ae663eaea413521e"
    ),
    (ALL_COMBINATIONS, ORDER_FIFO): (
        "95bda5c400067e6df6882ab42a53f5f53161ea2b2e2922c998e8825d742e233c"
    ),
    (ALL_COMBINATIONS, ORDER_BEST_PRICE): (
        "cf4df05777b16477a85eebb89e2f71dbc90ed3a90e431dc7cfdc0c68de7d0b12"
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


def non_crossing_resting_pairs(book):
    return sum(
        offer.direction == request.direction
        and offer.price_eur_per_kw > request.price_eur_per_kw
        for offer in book.offers
        for request in book.requests
    )


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
    lines = trade_log_lines(e for e in book.trade_log if e.outcome != OLD_PRICE_OUTCOME)
    payload = ("\n".join(lines) + "\n" + book_json(book)).encode()
    return hashlib.sha256(payload).hexdigest(), book, cancelled


@pytest.mark.parametrize("policy, order", sorted(DIGESTS))
def test_synthetic_replay_digest_is_unchanged(policy, order):
    digest, book, cancelled = replay_digest(policy, order)
    outcomes = Counter(entry.outcome for entry in book.trade_log)
    # The stream exercises every path the digest is meant to pin down:
    # the final book still holds same-direction pairs whose prices do
    # not cross, and those rest untouched.
    assert non_crossing_resting_pairs(book) > 0
    prices = {item.id: item.price_eur_per_kw for kind, item in synthetic_stream() if kind == "bid"}
    assert all(prices[e.offer_id] <= prices[e.request_id] for e in book.trade_log)
    assert outcomes[OUTCOME_REJECTED_CONGESTION] + outcomes[OUTCOME_PARTIAL] > 0
    assert len(book.accepted) > 0 and book.baseline.injection_kw != load_network(
        DATA / "fifteen_bus.yaml"
    )[1].injection_kw
    assert cancelled > 0
    assert digest == DIGESTS[policy, order]


def test_restore_from_snapshot_reproduces_the_dump():
    _, book, _ = replay_digest(ALL_COMBINATIONS, ORDER_FIFO)
    assert book.requests and book.offers and book.accepted
    resumed = OrderBook(book.network, book.baseline, book.policy)
    resumed.restore(**book.snapshot())
    before = book_json(book)
    assert book_json(resumed) == before
    # The resumed book holds copies: clearing in it leaves the original as it was.
    for bid in book.offers:
        resumed.submit_bid(Bid("probe-" + bid.id, "request", bid.direction, bid.bus, 1e3, 1.0,
                               "conditional"))
    assert resumed.trade_log and book_json(book) == before
