"""Correctness checks on a finished replay.

Flows are recomputed with :func:`flexmarket.oracle.dc_solve`, a nodal
angle solve that shares no code with the PTDF path the engine clears
with. Each check returns a list of failure messages; empty means it
passed.
"""

from __future__ import annotations

import random

import numpy as np

from flexmarket import fileio, oracle
from flexmarket.grid import QUANTITY_TOL
from flexmarket.market import OUTCOME_MATCHED, OUTCOME_PARTIAL

MATCHED = (OUTCOME_MATCHED, OUTCOME_PARTIAL)

#: Activation subsets the exhaustive session audit may solve before it stops
#: taking further sessions; each subset costs one dc_solve.
SUBSET_BUDGET = 1 << 15


def golden_replay(network_path, bids_path, golden_path) -> list:
    """Replay the bundled 15-bus stream and compare its log byte for byte."""
    network, baseline = fileio.load_network(network_path)
    book = fileio.new_book(network, baseline, fileio.MarketConfig())
    for bid in fileio.load_bids(bids_path):
        book.submit_bid(bid)
    produced = "\n".join(fileio.trade_log_lines(book.trade_log)) + "\n"
    with open(golden_path) as handle:
        expected = handle.read()
    return [] if produced == expected else [f"15-bus replay differs from {golden_path}"]


def trade_log(book, bids, failed_ids=frozenset()) -> list:
    """Pay-as-bid prices and per-bid quantity conservation.

    ``bids`` are the bids submitted to ``book``, in order. Every matched
    entry must trade at the price of the earlier of its two bids, no
    higher than the request's and no lower than the offer's. Each bid
    whose id is not in ``failed_ids`` must have fills plus resting
    remainder equal to its original quantity; every fill may snap up to
    the engine's tolerance to zero.
    """
    errors = []
    by_id: dict = {}
    for bid in bids:
        by_id.setdefault(bid.id, bid)
    filled = dict.fromkeys(by_id, 0.0)
    fills = dict.fromkeys(by_id, 0)
    matches = 0
    for entry in book.trade_log:
        if entry.outcome not in MATCHED:
            continue
        matches += 1
        offer, request = by_id[entry.offer_id], by_id[entry.request_id]
        earlier = min(offer, request, key=lambda bid: bid.sequence)
        if entry.price_eur_per_kw != earlier.price_eur_per_kw:
            errors.append(f"{entry.offer_id}/{entry.request_id}: not paid as bid")
        if offer.price_eur_per_kw > request.price_eur_per_kw:
            errors.append(f"{entry.offer_id}/{entry.request_id}: offer above request")
        for bid in (offer, request):
            filled[bid.id] += entry.quantity_kw
            fills[bid.id] += 1
    if matches != book.match_count:
        errors.append(f"log holds {matches} matches, book counts {book.match_count}")
    resting = {bid.id: bid.quantity_kw for bid in book.offers + book.requests}
    for bid_id, bid in by_id.items():
        if bid_id in failed_ids:
            continue
        left = resting.get(bid_id, 0.0)
        slack = QUANTITY_TOL * (1 + fills[bid_id])
        if abs(filled[bid_id] + left - bid.original_quantity_kw) > slack:
            errors.append(
                f"bid {bid_id}: {filled[bid_id]:g} kW filled + {left:g} kW resting "
                f"!= {bid.original_quantity_kw:g} kW bid"
            )
    return errors


def network_state(book, accepted_too: bool) -> list:
    """The book's baseline, and optionally every accepted match on top, within limits.

    Also compares the book's cached baseline flows with the oracle's,
    which catches a baseline that moved without its flows.
    """
    errors = []
    network = book.network
    flows = oracle.dc_solve(network, book.baseline)
    for label, over in oracle.flow_violations(network, flows):
        errors.append(f"baseline overloads {label} by {over:g} kW")
    drift = float(np.max(np.abs(flows - book.flows)))
    if drift > QUANTITY_TOL:
        errors.append(f"cached baseline flows differ from the oracle by {drift:g} kW")
    if accepted_too and book.accepted:
        snapshot = book.activation_snapshot(rec.match_id for rec in book.accepted)
        for label, over in oracle.flow_violations(network, oracle.dc_solve(network, snapshot)):
            errors.append(f"baseline plus all accepted matches overloads {label} by {over:g} kW")
    return errors


def activation_subsets(books, seed: int) -> tuple:
    """Exhaustively audit the activation subsets of a seeded sample of books.

    Books are taken in a seeded order until :data:`SUBSET_BUDGET`
    subsets have been solved. Returns the failures and the number of
    books audited.
    """
    order = list(range(len(books)))
    random.Random(seed).shuffle(order)
    errors, solved, audited = [], 0, 0
    for index in order:
        if solved >= SUBSET_BUDGET:
            break
        book = books[index]
        for report in oracle.exhaustive_subset_check(book.network, book.baseline, book.accepted):
            errors.append(f"book {index + 1}: {report}")
        solved += 1 << len(book.accepted)
        audited += 1
    return errors, audited
