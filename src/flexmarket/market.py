"""Continuous clearing engine for locational flexibility trading.

Offers and requests arrive one at a time and rest in an order book
until they cross. An incoming bid is compared only against resting
counterparties in the same direction whose price crosses its own (a
request price at or above the offer price), first come first served;
bids that do not cross are never examined and nothing is logged for
them. Each examined pair trades at the earlier bid's price (pay as
bid), for the largest quantity that keeps every line within its limit
under the configured combination policy. A match with an unconditional
request shifts the baseline dispatch immediately and triggers a
re-evaluation of the resting offers, which may unlock bids that were
previously blocked by congestion.

The book is a single-writer state machine: submissions, matching and
baseline updates are strictly serialized. Because line flows are linear
in each activation, every policy reduces to capping the candidate
against a small, fixed stack of flow vectors built from running sums of
the accepted matches' flow changes; no policy enumerates subsets. The
book reduces that stack to two per-line rooms, for a flow rise and for a
flow fall, once per state change (an accepted conditional match or a
baseline move), so each network check is one sensitivity column
difference capped against cached rooms.
"""

from __future__ import annotations

import bisect
import copy
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Hashable, Iterable, NamedTuple, Optional

import numpy as np

from .errors import MarketError, UnknownBusError
from .grid import (
    DOWN,
    QUANTITY_TOL,
    UP,
    DispatchState,
    Network,
    admissible_quantity,
    build_ptdf,
    check_baseline,
    exchange_buses,
    exchange_sensitivity,
    flow_rooms,
    quantity_caps,
)

OFFER = "offer"
REQUEST = "request"
SIDES = (OFFER, REQUEST)

CONDITIONAL = "conditional"
UNCONDITIONAL = "unconditional"

INDIVIDUAL = "individual"
CUMULATIVE = "cumulative"
INDIVIDUAL_AND_CUMULATIVE = "individual_and_cumulative"
ALL_COMBINATIONS = "all_combinations"
SCENARIOS = "scenarios"
POLICY_VARIANTS = (
    INDIVIDUAL,
    CUMULATIVE,
    INDIVIDUAL_AND_CUMULATIVE,
    ALL_COMBINATIONS,
    SCENARIOS,
)

ORDER_FIFO = "fifo"
ORDER_BEST_PRICE = "best_price"
ORDERS = (ORDER_FIFO, ORDER_BEST_PRICE)

OUTCOME_MATCHED = "matched"
OUTCOME_PARTIAL = "partial(congestion)"
OUTCOME_REJECTED_CONGESTION = "rejected(congestion)"

_SEQUENCE = attrgetter("sequence")


@dataclass(frozen=True)
class FeasibilityPolicy:
    """Which activation combinations must be line-feasible before a match.

    ``individual`` checks the candidate alone on the baseline;
    ``cumulative`` checks it on top of all accepted conditional matches
    (an unconditional candidate also alone, as it moves the baseline);
    ``individual_and_cumulative`` requires both; ``all_combinations``
    checks every subset of accepted conditional matches; ``scenarios``
    checks the supplied activation subsets (named by match id) plus,
    always, the candidate alone.
    """

    variant: str
    scenarios: tuple = ()

    def __post_init__(self) -> None:
        if self.variant not in POLICY_VARIANTS:
            raise MarketError(f"unknown policy variant {self.variant!r}")
        if self.variant == SCENARIOS:
            if not self.scenarios:
                raise MarketError("scenarios policy requires a non-empty scenario list")
            object.__setattr__(
                self, "scenarios", tuple(frozenset(s) for s in self.scenarios)
            )


@dataclass
class Bid:
    """A flexibility offer or request resting in (or entering) the book.

    ``quantity_kw`` is the remaining unmatched quantity and shrinks with
    partial fills; a bid with nothing left leaves the book. Only
    requests carry a conditionality. The sequence number is the arrival
    index assigned on submission and is the sole tie-breaker.
    """

    id: str
    side: str
    direction: str
    bus: Hashable
    quantity_kw: float
    price_eur_per_kw: float
    conditionality: Optional[str] = None
    sequence: int = -1
    original_quantity_kw: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise MarketError("bid id must be a non-empty string")
        if self.side not in SIDES:
            raise MarketError(f"bid {self.id}: unknown side {self.side!r}")
        if self.direction not in (UP, DOWN):
            raise MarketError(f"bid {self.id}: unknown direction {self.direction!r}")
        try:
            if bool in (type(self.quantity_kw), type(self.price_eur_per_kw)):
                raise TypeError("a bool is not a quantity or a price")
            if not (math.isfinite(self.quantity_kw) and self.quantity_kw > 0):
                raise MarketError(f"bid {self.id}: quantity_kw must be finite and > 0")
            if not (math.isfinite(self.price_eur_per_kw) and self.price_eur_per_kw >= 0):
                raise MarketError(f"bid {self.id}: price_eur_per_kw must be finite and >= 0")
        except (TypeError, OverflowError):
            raise MarketError(
                f"bid {self.id}: quantity_kw and price_eur_per_kw must be finite numbers"
            ) from None
        if self.side == REQUEST:
            if self.conditionality not in (CONDITIONAL, UNCONDITIONAL):
                raise MarketError(
                    f"request {self.id} must be 'conditional' or 'unconditional'"
                )
        elif self.conditionality is not None:
            raise MarketError(f"offer {self.id} must not carry a conditionality")
        if self.original_quantity_kw is None:
            self.original_quantity_kw = self.quantity_kw


@dataclass(frozen=True)
class MatchRecord:
    """A cleared (offer, request) pair; the unit of combination checking.

    The injection and withdrawal buses already encode the direction:
    for upward flexibility the offer bus injects, for downward the
    request bus does. Conditionality is inherited from the request.
    """

    match_id: str
    offer_id: str
    request_id: str
    inject_bus: Hashable
    withdraw_bus: Hashable
    quantity_kw: float
    price_eur_per_kw: float
    conditionality: str
    round: int


class TradeLogEntry(NamedTuple):
    """One examined offer/request pairing and its outcome.

    An immutable named tuple: one is built for every pairing examined,
    so construction must be cheap. It compares equal to a plain tuple
    of the same values.
    """

    round: int
    offer_id: str
    request_id: str
    quantity_kw: float
    price_eur_per_kw: float
    outcome: str
    binding_lines: tuple = ()


class OrderBook:
    """Order book plus clearing state for one network and one policy.

    The baseline dispatch is mutated only by matches with unconditional
    requests and stays line-feasible at all times; accepted conditional
    matches are kept aside and enter the combination sets of later
    network checks.
    """

    def __init__(
        self,
        network: Network,
        baseline: DispatchState,
        policy: FeasibilityPolicy,
        *,
        order: str = ORDER_FIFO,
    ):
        if order not in ORDERS:
            raise MarketError(f"unknown counterparty order {order!r}")
        unknown = set(baseline.injection_kw) - set(network.buses)
        if unknown:
            raise UnknownBusError(f"baseline names unknown buses: {sorted(map(str, unknown))}")

        self.network = network
        self.policy = policy
        self.order = order

        self.ptdf = build_ptdf(network)
        self.baseline = baseline.copy()
        self._flows = check_baseline(network, self.baseline)

        self.requests: list = []
        self.offers: list = []
        self.accepted: list = []  # conditional MatchRecords, acceptance order
        # Running sums of the accepted matches' line-flow changes at full
        # activation: all of them (S), their positive and negative parts
        # (P, N), and those of each named scenario (S_k).
        n_lines = len(network.lines)
        self._sum, self._rise, self._fall = np.zeros((3, n_lines))
        self._scenario_sums = np.zeros((len(policy.scenarios), n_lines))
        # (up, down) rooms of the flow stack, filled by _rooms_for and
        # emptied whenever the baseline flows or the running sums change.
        self._rooms: dict = {}
        self.trade_log: list = []
        self.round = 0
        self._sequence = 0
        self._match_counter = 0
        self._seen_ids: set = set()

    # ------------------------------------------------------------------
    # public operations

    @property
    def flows(self) -> np.ndarray:
        """Line flows of the current baseline dispatch."""
        return self._flows.copy()

    @property
    def match_count(self) -> int:
        """Total matches so far, unconditional ones included."""
        return self._match_counter

    def submit_bid(self, bid: Bid) -> list:
        """Run one clearing round for an incoming bid.

        Returns every match the submission produced, including matches
        found while re-evaluating the book after an unconditional match
        shifted the baseline. Whatever quantity remains unmatched rests
        in the book.
        """
        self._validate_bid(bid)
        self._sequence = bid.sequence = self._next_sequence(bid)
        self._seen_ids.add(bid.id)
        self.round += 1
        (self.offers if bid.side == OFFER else self.requests).append(bid)

        matches = self._try_match(bid)
        if any(rec.conditionality == UNCONDITIONAL for rec in matches):
            matches += self.reevaluate_book()
        return matches

    def reevaluate_book(self) -> list:
        """Re-try every resting offer until a pass finds no new unconditional match.

        Conditional matches found along the way are committed too, but do
        not trigger further passes by themselves.
        """
        new_matches: list = []
        while True:
            pass_matches: list = []
            for offer in list(self.offers):
                if offer.quantity_kw > 0:
                    pass_matches += self._try_match(offer)
            new_matches += pass_matches
            if not any(rec.conditionality == UNCONDITIONAL for rec in pass_matches):
                return new_matches

    def check_combination_feasibility(
        self, request_bus, offer_bus, direction: str, quantity_kw: float
    ) -> float:
        """Maximum admissible quantity for a candidate pair under the policy.

        Evaluates the candidate exchange against every combination the
        policy mandates, each applied in full on top of the baseline,
        and returns the smallest allowance (zero when some mandated
        combination leaves no headroom). The candidate is checked as a
        conditional match.
        """
        inject_bus, withdraw_bus = exchange_buses(request_bus, offer_bus, direction)
        quantity, _ = self._evaluate_candidate(inject_bus, withdraw_bus, quantity_kw, CONDITIONAL)
        return quantity

    def activation_snapshot(self, match_ids: Iterable) -> DispatchState:
        """Baseline plus full activation of the named accepted matches."""
        by_id = {rec.match_id: rec for rec in self.accepted}
        snapshot = self.baseline.copy()
        for match_id in match_ids:
            try:
                record = by_id[match_id]
            except KeyError:
                raise MarketError(f"unknown match id {match_id!r}") from None
            snapshot.apply_exchange(record.inject_bus, record.withdraw_bus, record.quantity_kw)
        return snapshot

    def cancel_bid(self, bid_id: str) -> Bid:
        """Remove the unmatched remainder of a live bid. Trades stand."""
        for pool in (self.requests, self.offers):
            for i, bid in enumerate(pool):
                if bid.id == bid_id:
                    del pool[i]
                    return bid
        raise MarketError(f"no live bid with id {bid_id!r}")

    def snapshot(self) -> dict:
        """The book's state as the keywords :meth:`restore` takes.

        ``restore(**snapshot())`` on a fresh book with the same network,
        baseline and policy resumes this one. The resting bids, requests
        then offers, each in sequence order, are the book's own objects,
        which later clearing changes: read them before the book clears
        again. :meth:`restore` copies them, so the two books share no
        mutable state.
        """
        return {
            "round": self.round,
            "sequence": self._sequence,
            "match_counter": self._match_counter,
            "seen_ids": set(self._seen_ids),
            "resting": self.requests + self.offers,
            "accepted": list(self.accepted),
        }

    def restore(
        self,
        *,
        round: int,
        sequence: int,
        match_counter: int,
        seen_ids: Iterable,
        resting: Iterable,
        accepted: Iterable,
    ) -> None:
        """Resume a fresh book from the state of an earlier session.

        ``resting`` are the bids still in the book, in any order; the
        book keeps copies of them, and each pool is rebuilt in sequence
        order, which is the order clearing relies on. ``accepted`` are
        the conditional matches in acceptance order. Raises
        :class:`MarketError` for a state the book could not have
        reached: duplicate bid ids, sequence numbers or match ids, a
        sequence number after ``sequence``, an accepted match that is
        not conditional or whose id ``m<N>`` has N above
        ``match_counter``, or a bid or match on an unknown bus. Every input
        is checked before the book changes, so a failed restore leaves
        it fresh.
        """
        if self.round or self._seen_ids or self.accepted:
            raise MarketError("restore needs a fresh book")
        resting = sorted(map(copy.copy, resting), key=_SEQUENCE)
        accepted = list(accepted)
        for what, key, items in (
            ("bid id", attrgetter("id"), resting),
            ("sequence number", _SEQUENCE, resting),
            ("match id", attrgetter("match_id"), accepted),
        ):
            values: set = set()
            for item in items:
                if key(item) in values:
                    raise MarketError(f"duplicate {what} {key(item)!r}")
                values.add(key(item))
        for bid in resting:
            if bid.bus not in self.ptdf:
                raise UnknownBusError(f"bid {bid.id}: unknown bus {bid.bus!r}")
        for record in accepted:
            if record.conditionality != CONDITIONAL:
                raise MarketError(f"match {record.match_id}: accepted matches are conditional")
            number = record.match_id[1:]
            if record.match_id[:1] == "m" and number.isdecimal() and int(number) > match_counter:
                raise MarketError(
                    f"match {record.match_id}: id is above match_counter {match_counter}"
                )
            for bus in (record.inject_bus, record.withdraw_bus):
                if bus not in self.ptdf:
                    raise UnknownBusError(f"match {record.match_id}: unknown bus {bus!r}")
        if resting and resting[-1].sequence > sequence:
            raise MarketError(
                f"bid {resting[-1].id}: sequence {resting[-1].sequence} is after {sequence}"
            )
        seen_ids = set(seen_ids).union(bid.id for bid in resting)

        self.round = round
        self._sequence = sequence
        self._match_counter = match_counter
        self._seen_ids = seen_ids
        for bid in resting:
            (self.offers if bid.side == OFFER else self.requests).append(bid)
        for record in accepted:
            self._accept(record)

    # ------------------------------------------------------------------
    # matching internals

    def _next_sequence(self, bid: Bid) -> int:
        if bid.sequence < 0:
            return self._sequence + 1
        if bid.sequence <= self._sequence:
            raise MarketError(
                f"bid {bid.id}: sequence {bid.sequence} is not after {self._sequence}"
            )
        return bid.sequence

    def _validate_bid(self, bid: Bid) -> None:
        if bid.id in self._seen_ids:
            raise MarketError(f"duplicate bid id {bid.id!r}")
        if bid.bus not in self.ptdf:
            raise UnknownBusError(f"bid {bid.id}: unknown bus {bid.bus!r}")

    def _counterparties(self, incoming: Bid) -> list:
        """Same-direction counterparties whose price crosses the incoming bid's.

        Each pool is kept in sequence (arrival) order, which is FIFO order.
        """
        direction = incoming.direction
        price = incoming.price_eur_per_kw
        if incoming.side == OFFER:
            candidates = [
                b for b in self.requests
                if b.direction == direction and b.price_eur_per_kw >= price
            ]
            if self.order == ORDER_BEST_PRICE:
                # Highest-paying request first for an incoming offer.
                candidates.sort(key=lambda b: (-b.price_eur_per_kw, b.sequence))
        else:
            candidates = [
                b for b in self.offers
                if b.direction == direction and b.price_eur_per_kw <= price
            ]
            if self.order == ORDER_BEST_PRICE:
                candidates.sort(key=lambda b: (b.price_eur_per_kw, b.sequence))
        return candidates

    def _try_match(self, incoming: Bid) -> list:
        matches: list = []
        for other in self._counterparties(incoming):
            if incoming.quantity_kw <= 0:
                break
            if other.quantity_kw <= 0:
                continue
            offer, request = (incoming, other) if incoming.side == OFFER else (other, incoming)
            # Pay as bid: the earlier of the two sets the price.
            price = (offer if offer.sequence < request.sequence else request).price_eur_per_kw
            quantity = min(offer.quantity_kw, request.quantity_kw)
            inject_bus, withdraw_bus = exchange_buses(request.bus, offer.bus, request.direction)
            admissible, binding = self._evaluate_candidate(
                inject_bus, withdraw_bus, quantity, request.conditionality
            )
            if admissible <= 0:
                self._log(offer, request, 0.0, price, OUTCOME_REJECTED_CONGESTION, binding)
                continue

            self._match_counter += 1
            record = MatchRecord(
                match_id=f"m{self._match_counter}",
                offer_id=offer.id,
                request_id=request.id,
                inject_bus=inject_bus,
                withdraw_bus=withdraw_bus,
                quantity_kw=admissible,
                price_eur_per_kw=price,
                conditionality=request.conditionality,
                round=self.round,
            )
            full = admissible >= quantity - QUANTITY_TOL
            self._fill(offer, admissible)
            self._fill(request, admissible)
            self._log(
                offer,
                request,
                admissible,
                price,
                OUTCOME_MATCHED if full else OUTCOME_PARTIAL,
                () if full else binding,
            )
            if record.conditionality == UNCONDITIONAL:
                self._apply_to_baseline(record)
            else:
                self._accept(record)
            matches.append(record)
        return matches

    def _accept(self, record: MatchRecord) -> None:
        """Add a conditional match to the combination set and its running sums."""
        alpha = exchange_sensitivity(self.ptdf, record.inject_bus, record.withdraw_bus)
        delta = alpha * record.quantity_kw
        self.accepted.append(record)
        self._rooms.clear()
        self._sum += delta
        self._rise += np.maximum(delta, 0.0)
        self._fall += np.minimum(delta, 0.0)
        for total, scenario in zip(self._scenario_sums, self.policy.scenarios):
            if record.match_id in scenario:
                total += delta

    def _fill(self, bid: Bid, quantity: float) -> None:
        bid.quantity_kw -= quantity
        if bid.quantity_kw <= QUANTITY_TOL:
            bid.quantity_kw = 0.0
            pool = self.offers if bid.side == OFFER else self.requests
            # Sequence numbers are unique and each pool is sorted by them.
            i = bisect.bisect_left(pool, bid.sequence, key=_SEQUENCE)
            if i < len(pool) and pool[i] is bid:
                del pool[i]

    def _apply_to_baseline(self, record: MatchRecord) -> None:
        self.baseline.apply_exchange(record.inject_bus, record.withdraw_bus, record.quantity_kw)
        # The match was capped to fit, so this must hold; a failure here is a bug.
        self._flows = check_baseline(self.network, self.baseline)
        self._rooms.clear()

    def _log(self, offer, request, quantity, price, outcome, binding) -> None:
        self.trade_log.append(
            TradeLogEntry(self.round, offer.id, request.id, quantity, price, outcome, binding)
        )

    # ------------------------------------------------------------------
    # network checks

    def _flow_stack(self, conditionality: str) -> np.ndarray:
        """Line flows of every activation state the policy mandates, one row each.

        Flows are linear in each activation, so over all subsets of the
        accepted matches a line's flow is highest with exactly its
        positive changes active (f+P) and lowest with its negative ones
        (f+N): two rows cover every subset. An unconditional candidate
        moves the baseline for good, so it must also fit without the
        conditional set, which only ``cumulative`` would otherwise skip.
        """
        f = self._flows
        variant = self.policy.variant
        if variant == INDIVIDUAL:
            return f[None, :]
        if variant == CUMULATIVE and conditionality != UNCONDITIONAL:
            return (f + self._sum)[None, :]
        if variant in (CUMULATIVE, INDIVIDUAL_AND_CUMULATIVE):
            return np.vstack([f, f + self._sum])
        if variant == ALL_COMBINATIONS:
            return np.vstack([f + self._rise, f + self._fall])
        # scenarios: the candidate alone is always checked
        return np.vstack([f, f + self._scenario_sums])

    def _rooms_for(self, conditionality: str):
        """Cached (up, down) rooms of the flow stack a candidate is checked against.

        Only ``cumulative`` checks the two conditionalities against
        different stacks; every other policy shares one pair of rooms.
        """
        key = self.policy.variant == CUMULATIVE and conditionality == UNCONDITIONAL
        rooms = self._rooms.get(key)
        if rooms is None:
            stack = self._flow_stack(conditionality)
            rooms = self._rooms[key] = flow_rooms(stack, self.network.limits)
        return rooms

    def _evaluate_candidate(
        self, inject_bus, withdraw_bus, quantity_kw: float, conditionality: str
    ):
        """Cap a candidate exchange against every mandated combination.

        Returns the admissible quantity, as :func:`admissible_quantity`
        decides it, and the labels of the lines whose cap bound it (empty
        when the full quantity goes through).
        """
        if not quantity_kw > 0:
            raise MarketError("candidate quantity must be positive")
        alpha = exchange_sensitivity(self.ptdf, inject_bus, withdraw_bus)
        line_caps = quantity_caps(alpha, *self._rooms_for(conditionality))
        quantity = admissible_quantity(line_caps, quantity_kw)
        binding: tuple = ()
        if quantity < quantity_kw - QUANTITY_TOL:
            bound = (line_caps <= quantity + QUANTITY_TOL).nonzero()[0]
            binding = tuple(self.network.line_labels[i] for i in bound.tolist())
        return quantity, binding
