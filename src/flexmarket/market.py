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
baseline updates are strictly serialized. Line flows are linear in each
activation, so every policy caps the candidate against a few flow rows
f + R: f is the baseline flow and R a running sum of the accepted
matches' flow changes, either zero (the candidate alone), all of them
(S), their positive or negative parts (P, N, whose rows bound a line's
flow over every subset) or those named in scenario k (S_k). An
unconditional candidate moves the baseline for good, so it must also
fit without the conditional set. A book is built with one policy name
from this table, and the ``scenarios`` policy alone with its scenarios,
each a set of match ids:

    policy                       conditional    unconditional
    individual                   0              0
    cumulative                   S              0, S
    individual_and_cumulative    0, S           0, S
    all_combinations             P, N           P, N
    scenarios                    0, S_1..S_K    0, S_1..S_K

The book reduces a policy's rows to two per-line rooms, for a flow rise
and a flow fall, once per state change (an accepted conditional match or
a baseline move), so each network check is one sensitivity column
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

# Rows of OrderBook._sums: zero, S, P, N, then S_1..S_K from _SCENARIO on.
_ALONE, _ALL, _RISE, _FALL, _SCENARIO = range(5)
# The rows each policy checks a (conditional, unconditional) candidate against.
_POLICY_ROWS = {
    INDIVIDUAL: ((_ALONE,), (_ALONE,)),
    CUMULATIVE: ((_ALL,), (_ALONE, _ALL)),
    INDIVIDUAL_AND_CUMULATIVE: ((_ALONE, _ALL), (_ALONE, _ALL)),
    ALL_COMBINATIONS: ((_RISE, _FALL), (_RISE, _FALL)),
    SCENARIOS: ((_ALONE, _SCENARIO), (_ALONE, _SCENARIO)),
}
POLICY_VARIANTS = tuple(_POLICY_ROWS)

ORDER_FIFO = "fifo"
ORDER_BEST_PRICE = "best_price"
ORDERS = (ORDER_FIFO, ORDER_BEST_PRICE)

OUTCOME_MATCHED = "matched"
OUTCOME_PARTIAL = "partial(congestion)"
OUTCOME_REJECTED_CONGESTION = "rejected(congestion)"

_SEQUENCE = attrgetter("sequence")


def _finite(value) -> bool:
    """Whether ``value`` is a finite number; a bool or a string is no number."""
    try:
        return type(value) is not bool and math.isfinite(value)
    except (TypeError, OverflowError):  # OverflowError: an int too large for a float
        return False


def _scenario(scenario) -> frozenset:
    """A scenario as the book keeps it: the frozenset of its match ids."""
    try:
        if isinstance(scenario, str):  # a bare string would read as a set of its characters
            raise TypeError
        return frozenset(scenario)
    except TypeError:  # not a collection, or one holding an unhashable item
        raise MarketError(f"a scenario is a collection of match ids, not {scenario!r}") from None


@dataclass(slots=True)
class Bid:
    """A flexibility offer or request resting in (or entering) the book.

    ``id`` is a non-empty string, so every bid can be dumped and read
    back. ``quantity_kw`` is the remaining unmatched quantity and shrinks with
    partial fills; a bid with nothing left leaves the book. Only
    requests carry a conditionality. The sequence number is the arrival
    index assigned on submission and is the sole tie-breaker. A bid
    keeps this module's own strings for its side, direction and
    conditionality, so a book of many bids holds one copy of each.
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
        if not (isinstance(self.id, str) and self.id):
            raise MarketError(f"bid id must be a non-empty string, got {self.id!r}")
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
        self.side = OFFER if self.side == OFFER else REQUEST
        self.direction = UP if self.direction == UP else DOWN
        if self.conditionality is not None:
            self.conditionality = (
                CONDITIONAL if self.conditionality == CONDITIONAL else UNCONDITIONAL
            )
        if self.original_quantity_kw is None:
            self.original_quantity_kw = self.quantity_kw


@dataclass(frozen=True, slots=True)
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

    ``policy`` is one of :data:`POLICY_VARIANTS`, checked by the rows the
    module docstring lists. ``scenarios`` are the activation subsets the
    ``scenarios`` policy checks, each a collection of match ids, and no
    other policy takes any. ``order`` is one of :data:`ORDERS`. A bad
    configuration raises :class:`MarketError`.

    The baseline dispatch is mutated only by matches with unconditional
    requests and stays line-feasible at all times; accepted conditional
    matches are kept aside and enter the combination sets of later
    network checks.
    """

    def __init__(
        self,
        network: Network,
        baseline: DispatchState,
        policy: str,
        *,
        scenarios: Iterable = (),
        order: str = ORDER_FIFO,
    ):
        if order not in ORDERS:
            raise MarketError(f"unknown counterparty order {order!r}")
        if policy not in POLICY_VARIANTS:
            raise MarketError(f"unknown policy variant {policy!r}")
        scenarios = tuple(map(_scenario, scenarios))
        if policy != SCENARIOS and scenarios:
            raise MarketError(f"only the scenarios policy takes scenarios, not {policy}")
        if policy == SCENARIOS and not scenarios:
            raise MarketError("scenarios policy requires a non-empty scenario list")
        unknown = set(baseline.injection_kw) - set(network.buses)
        if unknown:
            raise UnknownBusError(f"baseline names unknown buses: {sorted(map(str, unknown))}")

        self.network = network
        self.policy = policy
        self.scenarios = scenarios
        self.order = order

        self.ptdf = build_ptdf(network)
        self.baseline = baseline.copy()
        self._flows = check_baseline(network, self.baseline)

        self.requests: list = []
        self.offers: list = []
        self.accepted: list = []  # conditional MatchRecords, acceptance order
        # Running sums of the accepted matches' line-flow changes at full
        # activation, one row each as the module docstring lists them.
        self._sums = np.zeros((_SCENARIO + len(self.scenarios), len(network.lines)))
        # The rows of each conditionality, _SCENARIO spelt out as one row per scenario.
        scenario_rows = tuple(range(_SCENARIO, len(self._sums)))
        self._rows = {
            c: sum((scenario_rows if r == _SCENARIO else (r,) for r in rows), ())
            for c, rows in zip((CONDITIONAL, UNCONDITIONAL), _POLICY_ROWS[policy])
        }
        # (up, down) rooms per row tuple, filled by _rooms_for and emptied
        # whenever the baseline flows or the running sums change.
        self._rooms: dict = {}
        self.trade_log: list = []
        self.round = 0
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
        in the book. The book numbers the bid: it sets ``bid.sequence``
        to the next arrival number, whatever the caller put there.
        """
        self._validate_bid(bid)
        self.round += 1
        bid.sequence = self.round
        self._seen_ids.add(bid.id)
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
        baseline, policy and scenarios resumes this one. The resting bids,
        requests then offers, each in sequence order, are the book's own
        objects, which later clearing changes: read them before the book
        clears again. :meth:`restore` copies them, so the two books share
        no mutable state.
        """
        return {
            "round": self.round,
            "sequence": self.round,
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
        reached: a bid whose sequence number is not an ``int`` or whose
        original quantity is not a finite number, duplicate bid ids,
        sequence numbers or match ids, a sequence number after
        ``sequence``, a ``round`` other than ``sequence`` (each submission
        counts both), an accepted match that is not conditional, whose
        quantity is not a finite number above zero or whose id ``m<N>``
        has N above ``match_counter``, or a bid or match on an unknown
        bus. Every input is checked before the book changes, so a failed
        restore leaves it fresh.
        """
        if self.round or self._seen_ids or self.accepted:
            raise MarketError("restore needs a fresh book")
        resting = list(map(copy.copy, resting))
        for bid in resting:
            if type(bid.sequence) is not int:
                raise MarketError(f"bid {bid.id}: sequence {bid.sequence!r} is not an int")
            if not _finite(bid.original_quantity_kw):
                raise MarketError(
                    f"bid {bid.id}: original_quantity_kw {bid.original_quantity_kw!r}"
                    " is not a finite number"
                )
        resting.sort(key=_SEQUENCE)
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
            if not (_finite(record.quantity_kw) and record.quantity_kw > 0):
                raise MarketError(
                    f"match {record.match_id}: quantity_kw {record.quantity_kw!r}"
                    " is not a finite number > 0"
                )
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
        if round != sequence:
            raise MarketError(f"round {round} and sequence {sequence} differ")
        seen_ids = set(seen_ids).union(bid.id for bid in resting)

        self.round = round
        self._match_counter = match_counter
        self._seen_ids = seen_ids
        for bid in resting:
            (self.offers if bid.side == OFFER else self.requests).append(bid)
        for record in accepted:
            self._accept(record)

    # ------------------------------------------------------------------
    # matching internals

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
        sums = self._sums
        sums[_ALL] += delta
        sums[_RISE] += np.maximum(delta, 0.0)
        sums[_FALL] += np.minimum(delta, 0.0)
        for total, scenario in zip(sums[_SCENARIO:], self.scenarios):
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

    def _rooms_for(self, conditionality: str):
        """Cached (up, down) rooms of the flow rows a candidate is checked against."""
        rows = self._rows[conditionality]
        if rows not in self._rooms:
            self._rooms[rows] = flow_rooms(self._flows + self._sums[rows, :], self.network.limits)
        return self._rooms[rows]

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
