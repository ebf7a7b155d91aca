"""Byte-level regression checks of long synthetic replays.

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

A second stream runs on the same feeder with every limit a few kW above
its baseline flow, under all five policies. There most pairings are
refused for congestion, often many in a row within one scan, and
re-evaluation passes re-try refused pairs, so its digests pin the
network check where it refuses rather than where it clears.

A third stream runs on a generated radial feeder of 100 lines, again
with every limit a few kW above its baseline flow, under the policies
that stack accepted matches. Its scans refuse long runs of counterparties
of both conditionalities, so the book caps them in blocks, and its
digests pin those blocks on a feeder where most lines have room to spare.
"""

import dataclasses
import functools
import hashlib
import random
from collections import Counter

import pytest

from flexmarket import (
    Bid,
    DispatchState,
    MarketConfig,
    Line,
    MarketError,
    Network,
    OrderBook,
    book_json,
    build_ptdf,
    line_flows,
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
    SCENARIOS,
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


CONGESTED_SEED = 1
CONGESTED_BIDS = 200
# Scenarios for the scenarios policy: the odd match ids, and every third one.
CONGESTED_SCENARIOS = (
    frozenset(f"m{i}" for i in range(1, 200, 2)),
    frozenset(f"m{i}" for i in range(1, 200, 3)),
)

CONGESTED_DIGESTS = {
    (INDIVIDUAL, ORDER_FIFO): (
        "20f5dbae9b509bf875274fd24952f8672f0eeede566e60cefda366e2b6f33d53"
    ),
    (CUMULATIVE, ORDER_FIFO): (
        "25a94ca08b67fcc63f04430c3967672a85f046c64e15d8a0dc888057d9366e80"
    ),
    (INDIVIDUAL_AND_CUMULATIVE, ORDER_FIFO): (
        "aa676e0a41addb5466a61f7d6d338a7a6c9a5c100427bd8054c760f2c6d9eef1"
    ),
    (ALL_COMBINATIONS, ORDER_FIFO): (
        "e6d887f575b0ed84e42b5f8de4e2d9335f78e67216446985ed4f3b4961a20d30"
    ),
    (SCENARIOS, ORDER_FIFO): (
        "685554ad43b1b6e6ee1a3367c938bc35c73a722363042b4990f2aedfc3deb1d5"
    ),
    (SCENARIOS, ORDER_BEST_PRICE): (
        "7155a1f09af2c5b826bb67231c353bb4b7154f7834a864794422f8470b012198"
    ),
}


def congested_stream(seed=CONGESTED_SEED, n_bids=CONGESTED_BIDS):
    """The 15-bus feeder with limits 5-15 kW above the baseline flows, its baseline and new bids.

    Limits are whole kW, so they do not depend on the last bits of the PTDF solve.
    """
    rng = random.Random(seed)
    network, baseline = load_network(DATA / "fifteen_bus.yaml")
    flows = line_flows(build_ptdf(network), baseline)
    limits = [float(round(abs(flow)) + rng.randint(5, 15)) for flow in flows]
    lines = [
        Line(line.from_bus, line.to_bus, line.reactance, limit)
        for line, limit in zip(network.lines, limits)
    ]
    network = Network(network.buses, lines, network.slack_bus)
    bids = []
    for i in range(n_bids):
        side = "request" if rng.random() < 0.5 else "offer"
        direction = "up" if rng.random() < 0.5 else "down"
        bus = str(rng.randint(2, 15))
        quantity = rng.choice([rng.randint(2, 30), round(rng.uniform(1.0, 30.0), 3)])
        if side == "request":
            price = round(rng.uniform(0.030, 0.060), 4)
            conditionality = "conditional" if rng.random() < 0.7 else "unconditional"
        else:
            price = round(rng.uniform(0.020, 0.050), 4)
            conditionality = None
        bids.append(Bid(f"b{i + 1}", side, direction, bus, quantity, price, conditionality))
    return network, baseline, bids


def cleared(network, baseline, bids, policy, order):
    """The book that ``bids``, submitted in turn, leave on ``network``."""
    scenarios = CONGESTED_SCENARIOS if policy == SCENARIOS else ()
    book = OrderBook(network, baseline, policy, scenarios=scenarios, order=order)
    for bid in bids:
        book.submit_bid(bid)
    return book


def congested_replay(policy, order, seed=CONGESTED_SEED, n_bids=CONGESTED_BIDS):
    """The digest of :func:`congested_stream` cleared under ``policy``, and the book."""
    book = cleared(*congested_stream(seed, n_bids), policy, order)
    payload = ("\n".join(trade_log_lines(book.trade_log)) + "\n" + book_json(book)).encode()
    return hashlib.sha256(payload).hexdigest(), book


def longest_refused_run(log):
    """The most consecutive ``rejected(congestion)`` entries of one scan.

    Entries of one scan share the round and the incoming bid, so either the offer or the request.
    """
    longest = run = 0
    previous = None
    for entry in log:
        if entry.outcome != OUTCOME_REJECTED_CONGESTION:
            run = 0
        elif previous is not None and run and previous.round == entry.round and (
            previous.offer_id == entry.offer_id or previous.request_id == entry.request_id
        ):
            run += 1
        else:
            run = 1
        longest = max(longest, run)
        previous = entry
    return longest


@pytest.mark.parametrize("policy, order", sorted(CONGESTED_DIGESTS))
def test_congested_replay_digest_is_unchanged(policy, order):
    digest, book = congested_replay(policy, order)
    log = book.trade_log
    outcomes = Counter(entry.outcome for entry in log)
    # Most pairings are refused, and some scans refuse three or more counterparties in a row.
    assert outcomes[OUTCOME_REJECTED_CONGESTION] > len(log) / 2
    assert longest_refused_run(log) >= 3
    # A pair is examined again only when a re-evaluation pass re-tries a refused offer.
    refused = {(e.offer_id, e.request_id) for e in log if e.outcome == OUTCOME_REJECTED_CONGESTION}
    pairings = Counter((e.offer_id, e.request_id) for e in log)
    assert any(pairings[pair] > 1 for pair in refused)
    assert len(book.accepted) > 0 and outcomes[OUTCOME_PARTIAL] > 0
    assert digest == CONGESTED_DIGESTS[policy, order]


# Metamorphic relations: two runs of the congested stream whose logs must
# differ only as the change to the stream implies, under every policy that
# needs no scenarios and both orders.
RELATION_CASES = [
    (policy, order)
    for policy in (INDIVIDUAL, CUMULATIVE, INDIVIDUAL_AND_CUMULATIVE, ALL_COMBINATIONS)
    for order in (ORDER_FIFO, ORDER_BEST_PRICE)
]


@functools.lru_cache(maxsize=None)
def congested_log(policy, order):
    """The trade log of the congested stream, shared read-only by the relations."""
    return cleared(*congested_stream(), policy, order).trade_log


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("policy, order", RELATION_CASES)
def test_relabelled_bids_log_what_the_original_ids_log(policy, order, seed):
    """Renaming the bids by a bijection changes the log only by that renaming."""
    network, baseline, bids = congested_stream()
    numbers = list(range(len(bids)))
    random.Random(seed).shuffle(numbers)  # the new names sort in another order than arrival
    names = {bid.id: f"r{n}" for bid, n in zip(bids, numbers)}
    renamed = [dataclasses.replace(bid, id=names[bid.id]) for bid in bids]
    log = cleared(network, baseline, renamed, policy, order).trade_log
    assert log == [
        entry._replace(offer_id=names[entry.offer_id], request_id=names[entry.request_id])
        for entry in congested_log(policy, order)
    ]


@pytest.mark.parametrize("point", [0, 37, 101, 163, CONGESTED_BIDS])
@pytest.mark.parametrize("policy, order", RELATION_CASES)
def test_a_request_no_offer_crosses_moves_later_entries_one_round_on(policy, order, point):
    """An unconditional request priced 0.0, put in after ``point`` bids, changes only rounds.

    No offer is priced at 0.0, so the request clears nothing and logs
    nothing; every entry logged after it has a round one higher.
    """
    network, baseline, bids = congested_stream()
    rng = random.Random(point)
    inert = Bid("inert", "request", rng.choice(["up", "down"]), str(rng.randint(2, 15)),
                float(rng.randint(1, 30)), 0.0, "unconditional")
    log = cleared(network, baseline, bids[:point] + [inert] + bids[point:], policy, order).trade_log
    assert log == [
        entry if entry.round <= point else entry._replace(round=entry.round + 1)
        for entry in congested_log(policy, order)
    ]


FEEDER_SEED = 5
FEEDER_BIDS = 150

FEEDER_DIGESTS = {
    (ALL_COMBINATIONS, ORDER_BEST_PRICE): (
        "05fed4990928bedd8e3ca30e2f77c5ca626b6d77eb40816826632a6e2d69b5c0"
    ),
    (ALL_COMBINATIONS, ORDER_FIFO): (
        "df61cea9d74d52090cefe193ab31408bc437798e0ce26e49c325e7af4d02b5a4"
    ),
    (CUMULATIVE, ORDER_BEST_PRICE): (
        "9746233b8ec1a564af74744d7d52901c9ff4fa68b61b58a736b0ca26b9eb8fbf"
    ),
    (CUMULATIVE, ORDER_FIFO): (
        "a6562ddc6f8462126762a4f019feb6b5447140b0359c54bce8b691e3a45b98cb"
    ),
    (INDIVIDUAL_AND_CUMULATIVE, ORDER_BEST_PRICE): (
        "b57dd23171771df9cd0d986f71b1561025ab636f91b87890e74fba8555e96b5e"
    ),
    (INDIVIDUAL_AND_CUMULATIVE, ORDER_FIFO): (
        "34110a394b80359eb2639a461f4d33e61ef4756e076f8385ce7df8abbe0999a5"
    ),
}


def radial_feeder(rng, n_buses=101):
    """A radial feeder of ``n_buses - 1`` lines, with every limit 5-15 kW above its baseline flow.

    Bus ``i`` hangs off one of the five buses numbered just below it, so
    the feeder has long branches, and every bus but the slack draws a
    whole-kW load. Limits are whole kW, as in ``congested_replay``.
    """
    buses = [str(i) for i in range(1, n_buses + 1)]
    lines = [
        Line(str(rng.randint(max(1, i - 5), i - 1)), str(i), round(rng.uniform(0.01, 0.2), 3), 1.0)
        for i in range(2, n_buses + 1)
    ]
    injection = {bus: -float(rng.randint(1, 20)) for bus in buses[1:]}
    injection["1"] = -sum(injection.values())
    baseline = DispatchState(injection)
    flows = line_flows(build_ptdf(Network(buses, lines, "1")), baseline)
    limits = [float(round(abs(flow)) + rng.randint(5, 15)) for flow in flows]
    lines = [
        Line(line.from_bus, line.to_bus, line.reactance, limit)
        for line, limit in zip(lines, limits)
    ]
    return Network(buses, lines, "1"), baseline


def feeder_replay(policy, order, seed=FEEDER_SEED, n_bids=FEEDER_BIDS):
    """A bid stream on :func:`radial_feeder`, its digest, the book and the blocks it formed.

    Each block is recorded as the number of saturated lines it caps and the
    conditionalities of the requests it spans, or None when a request scans
    offers.
    """
    rng = random.Random(seed)
    network, baseline = radial_feeder(rng)
    book = OrderBook(network, baseline, policy, order=order)
    blocks = []
    form_block = book._caps_block

    def recording_block(incoming, candidates, start, rows):
        block = form_block(incoming, candidates, start, rows)
        spanned = {other.conditionality for other in candidates[start:]}
        blocks.append((len(block.labels), spanned if incoming.side == "offer" else None))
        return block

    book._caps_block = recording_block
    for i in range(n_bids):
        side = "request" if rng.random() < 0.5 else "offer"
        direction = "up" if rng.random() < 0.5 else "down"
        bus = str(rng.randint(2, len(network.buses)))
        quantity = rng.choice([rng.randint(2, 30), round(rng.uniform(1.0, 30.0), 3)])
        if side == "request":
            price = round(rng.uniform(0.030, 0.060), 4)
            conditionality = "conditional" if rng.random() < 0.7 else "unconditional"
        else:
            price = round(rng.uniform(0.020, 0.050), 4)
            conditionality = None
        book.submit_bid(Bid(f"b{i + 1}", side, direction, bus, quantity, price, conditionality))
    payload = ("\n".join(trade_log_lines(book.trade_log)) + "\n" + book_json(book)).encode()
    return hashlib.sha256(payload).hexdigest(), book, blocks


@pytest.mark.parametrize("policy, order", sorted(FEEDER_DIGESTS))
def test_radial_feeder_replay_digest_is_unchanged(policy, order):
    digest, book, blocks = feeder_replay(policy, order)
    assert len(book.network.lines) == 100
    outcomes = Counter(entry.outcome for entry in book.trade_log)
    assert outcomes[OUTCOME_REJECTED_CONGESTION] > len(book.trade_log) / 2
    assert outcomes[OUTCOME_PARTIAL] > 0 and len(book.accepted) > 0
    # Unconditional matches moved the baseline, as only they do.
    assert book.match_count > len(book.accepted)
    # Every block follows a refusal, so it caps some saturated line, and some
    # blocks span requests of both conditionalities.
    assert blocks and all(saturated > 0 for saturated, _ in blocks)
    assert any(spanned is not None and len(spanned) == 2 for _, spanned in blocks)
    assert digest == FEEDER_DIGESTS[policy, order]
