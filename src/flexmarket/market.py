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
re-evaluation of the resting offers that some resting request of their
direction still crosses, which may unlock bids that were previously
blocked by congestion.

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

The book keeps only the running sums its policy reads and reduces a
policy's rows to two per-line rooms, for a flow rise and a flow fall,
once per state change (an accepted conditional match or a baseline
move), so each network check is one sensitivity column difference
capped against cached rooms. Once a check refuses a candidate, the
state cannot change until some later candidate of the same scan clears,
so the rest of the scan is screened in one block. Only a saturated line,
one with a room of at most 2 * QUANTITY_TOL * A where A = 2 max |PTDF
entry| bounds every sensitivity, can cap an exchange at QUANTITY_TOL or
below; so the block caps the remaining candidates on the saturated lines
alone, and a candidate is refused on them exactly when the full check
refuses it, with the same binding lines. The block logs each refusal it
finds, and the first candidate it does not refuse takes the full check,
which clears it. An accepted match reuses its check's sensitivity, and
the baseline flows follow an injection vector that moves with the
baseline dispatch.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from decimal import Decimal
from itertools import compress
from operator import attrgetter
from typing import Hashable, Iterable, NamedTuple, Optional

import numpy as np

from .errors import MarketError, UnknownBusError, shown
from .grid import (
    DOWN,
    QUANTITY_TOL,
    UP,
    DispatchState,
    Network,
    admissible_quantity,
    build_ptdf,
    check_baseline,
    check_flows,
    exchange_buses,
    exchange_sensitivity,
    finite_number,
    quantity_caps,
    saturated_lines,
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
_PRICE = attrgetter("price_eur_per_kw")


def _scenario(scenario) -> frozenset:
    """A scenario as the book keeps it: the frozenset of its match ids."""
    try:
        if isinstance(scenario, str):  # a bare string would read as a set of its characters
            raise TypeError
        return frozenset(scenario)
    except TypeError:  # not a collection, or one holding an unhashable item
        raise MarketError(
            f"a scenario is a collection of match ids, not {shown(scenario)}"
        ) from None


@dataclass(slots=True)
class Bid:
    """A flexibility offer or request resting in (or entering) the book.

    The one gate of every field, which the book and the dump writer trust:
    it raises :class:`MarketError` unless ``id`` is a non-empty string,
    the quantity a :func:`~flexmarket.grid.finite_number` (a ``float`` or
    an ``int``) above zero, the price one not below zero, any given
    original quantity a finite number not below the quantity and the
    sequence an ``int``.
    ``quantity_kw`` is the remaining unmatched quantity and shrinks with
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
            raise MarketError(f"bid id must be a non-empty string, got {shown(self.id)}")
        if self.side not in SIDES:
            raise MarketError(f"bid {self.id}: unknown side {shown(self.side)}")
        if self.direction not in (UP, DOWN):
            raise MarketError(f"bid {self.id}: unknown direction {shown(self.direction)}")
        if not (finite_number(self.quantity_kw) and self.quantity_kw > 0):
            raise MarketError(
                f"bid {self.id}: quantity_kw must be a finite number > 0,"
                f" got {shown(self.quantity_kw)}"
            )
        if not (finite_number(self.price_eur_per_kw) and self.price_eur_per_kw >= 0):
            raise MarketError(
                f"bid {self.id}: price_eur_per_kw must be a finite number >= 0,"
                f" got {shown(self.price_eur_per_kw)}"
            )
        if self.side == REQUEST:
            if self.conditionality not in (CONDITIONAL, UNCONDITIONAL):
                raise MarketError(f"request {self.id} must be 'conditional' or 'unconditional'")
            conditional = self.conditionality == CONDITIONAL
            self.conditionality = CONDITIONAL if conditional else UNCONDITIONAL
        elif self.conditionality is not None:
            raise MarketError(f"offer {self.id} must not carry a conditionality")
        if type(self.sequence) is not int:
            raise MarketError(f"bid {self.id}: sequence {shown(self.sequence)} is not an int")
        if self.original_quantity_kw is None:
            self.original_quantity_kw = self.quantity_kw
        elif not finite_number(self.original_quantity_kw):
            raise MarketError(
                f"bid {self.id}: original_quantity_kw {shown(self.original_quantity_kw)}"
                " is not a finite number"
            )
        elif self.original_quantity_kw < self.quantity_kw:  # fills only shrink the quantity
            raise MarketError(
                f"bid {self.id}: original_quantity_kw {shown(self.original_quantity_kw)}"
                f" is below quantity_kw {shown(self.quantity_kw)}"
            )
        self.side = OFFER if self.side == OFFER else REQUEST
        self.direction = UP if self.direction == UP else DOWN


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


class _CapsBlock(NamedTuple):
    """The caps of a scan's candidates from ``start`` on, on the saturated lines of ``rows``.

    ``labels`` are those lines' labels. Per candidate, one entry each,
    ``mins`` holds the smallest of its caps on them and ``hits`` whether
    each cap is at most ``QUANTITY_TOL``. A candidate checked against
    other rows is checked on its own.
    """

    start: int
    rows: tuple
    labels: list
    mins: list
    hits: list


class OrderBook:
    """Order book plus clearing state for one network and one policy.

    ``policy`` is one of :data:`POLICY_VARIANTS`, checked by the rows the
    module docstring lists. ``scenarios`` are the activation subsets the
    ``scenarios`` policy checks, each a collection of match ids, and no
    other policy takes any. ``order`` is one of :data:`ORDERS`. A bad
    configuration raises :class:`MarketError`, and so does a baseline
    injection that is not a :func:`~flexmarket.grid.finite_number` (a
    ``float`` or an ``int``).

    The baseline dispatch is mutated only by matches with unconditional
    requests and stays line-feasible at all times; accepted conditional
    matches are kept aside and enter the combination sets of later
    network checks. The book moves its line flows with its own
    injection vector, so an edit made to ``book.baseline`` from outside
    is not seen by ``flows`` or by later checks.
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
            raise MarketError(f"unknown counterparty order {shown(order)}")
        if policy not in POLICY_VARIANTS:
            raise MarketError(f"unknown policy variant {shown(policy)}")
        try:
            scenarios = tuple(map(_scenario, scenarios))
        except TypeError:  # ``scenarios`` itself is not a collection
            raise MarketError(f"scenarios must be a collection, not {shown(scenarios)}") from None
        if policy != SCENARIOS and scenarios:
            raise MarketError(f"only the scenarios policy takes scenarios, not {policy}")
        if policy == SCENARIOS and not scenarios:
            raise MarketError("scenarios policy requires a non-empty scenario list")
        unknown = sorted(shown(b, str) for b in set(baseline.injection_kw) - set(network.buses))
        if unknown:
            raise UnknownBusError(f"baseline names unknown buses: {unknown}")
        for bus, injection in baseline.injection_kw.items():
            if not finite_number(injection):
                raise MarketError(f"baseline injection at bus {shown(bus)} is not a finite number")

        self.network = network
        self.policy = policy
        self.scenarios = scenarios
        self.order = order

        self.ptdf = build_ptdf(network)
        self.baseline = baseline.copy()
        self._flows = check_baseline(network, self.baseline)
        # The baseline injections in PTDF column order, moved with every baseline change.
        self._injections = self.baseline.vector(self.ptdf.buses)

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
        # Views of the rows some check reads, bound once; _accept adds into these alone,
        # so a row no check reads stays zero.
        read = set(self._rows[CONDITIONAL] + self._rows[UNCONDITIONAL])
        self._all = self._sums[_ALL] if _ALL in read else None
        self._parts = (self._sums[_RISE], self._sums[_FALL]) if _RISE in read else None
        self._scenario_sums = self._sums[_SCENARIO:]
        # (up, down) rooms per row tuple, filled by _rooms_for, and the saturated
        # lines of those rooms, filled by _screen_for; both are emptied whenever
        # the baseline flows or the running sums change.
        self._rooms: dict = {}
        self._screens: dict = {}
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
        """Re-try resting offers until a pass finds no new unconditional match.

        Each pass re-tries, in book order, the offers priced at or below the
        highest resting request price of their direction when the pass
        starts. Requests only leave during a pass and no price changes, so
        any other offer has no counterparty and nothing to log. Conditional
        matches found along the way are committed too, but do not trigger
        further passes by themselves.
        """
        new_matches: list = []
        while True:
            top = {UP: -1.0, DOWN: -1.0}  # below every price, which is >= 0
            for request in self.requests:
                if request.price_eur_per_kw > top[request.direction]:
                    top[request.direction] = request.price_eur_per_kw
            pass_matches: list = []
            for offer in [o for o in self.offers if o.price_eur_per_kw <= top[o.direction]]:
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
        conditional match; a quantity that is not a finite number above
        zero raises :class:`MarketError`.
        """
        inject_bus, withdraw_bus = exchange_buses(request_bus, offer_bus, direction)
        if not (finite_number(quantity_kw) and quantity_kw > 0):
            raise MarketError("candidate quantity must be a finite number > 0")
        _, line_caps, cap = self._single_caps(inject_bus, withdraw_bus, self._rows[CONDITIONAL])
        return self._decide(line_caps, cap, quantity_kw)[0]

    def activation_snapshot(self, match_ids: Iterable) -> DispatchState:
        """Baseline plus full activation of the named accepted matches, refusing any other id."""
        try:
            match_ids = iter(match_ids)
        except TypeError:
            raise MarketError(f"match ids must be a collection, not {shown(match_ids)}") from None
        by_id = {rec.match_id: rec for rec in self.accepted}
        snapshot = self.baseline.copy()
        for match_id in match_ids:
            # Accepted match ids are strs: nothing else, an unhashable value included, names one.
            record = by_id.get(match_id) if type(match_id) is str else None
            if record is None:
                raise MarketError(f"unknown match id {shown(match_id)}")
            snapshot.apply_exchange(record.inject_bus, record.withdraw_bus, record.quantity_kw)
        return snapshot

    def cancel_bid(self, bid_id: str) -> Bid:
        """Remove the unmatched remainder of a live bid. Trades stand."""
        for pool in (self.requests, self.offers):
            for i, bid in enumerate(pool):
                if bid.id == bid_id:
                    del pool[i]
                    return bid
        raise MarketError(f"no live bid with id {shown(bid_id)}")

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

        ``resting`` are the bids still in the book, in any order; the book keeps
        copies that :class:`Bid` checks, each pool in sequence order. ``accepted``
        are the conditional matches in acceptance order, and ``seen_ids`` a
        collection of the ids of every bid submitted so far, each a non-empty
        ``str`` as :class:`Bid` requires. Raises :class:`MarketError`
        for a state the book could not have reached: a counter that is not an
        ``int`` >= 0 that can be written, a ``seen_ids`` that is not such a
        collection, duplicate bid ids, sequence numbers or
        match ids, a sequence number after ``sequence``, a ``round`` other than
        ``sequence`` (each submission counts both), an accepted match whose id,
        offer id or request id is not a ``str``, that is not conditional, whose
        quantity is not a finite number above zero, whose price is not a finite
        number, whose round is not an ``int`` (a bool is none) or whose id
        ``m<N>`` has N above ``match_counter``, or a bid or match on an unknown
        bus. Every input is checked before the book changes, so a failed
        restore leaves it fresh.
        """
        if self.round or self._seen_ids or self.accepted:
            raise MarketError("restore needs a fresh book")
        counters = {"round": round, "sequence": sequence, "match_counter": match_counter}
        for name, counter in counters.items():
            # shown() writes a negative int with a sign and one too long to write as a placeholder.
            if type(counter) is not int or not shown(counter, str).isdecimal():
                raise MarketError(f"{name} {shown(counter)} is not an int >= 0 that can be written")
        resting = [replace(bid) for bid in resting]
        for bid in resting:
            self._validate_bid(bid)  # a fresh book has seen no id, so this checks the bus
        resting.sort(key=_SEQUENCE)
        accepted = list(accepted)
        for record in accepted:
            if type(record.match_id) is not str:
                raise MarketError(f"match id {shown(record.match_id)} is not a str")
            if record.conditionality != CONDITIONAL:
                raise MarketError(f"match {record.match_id}: accepted matches are conditional")
            for name in ("offer_id", "request_id"):
                if type(bid_id := getattr(record, name)) is not str:
                    raise MarketError(
                        f"match {record.match_id}: {name} {shown(bid_id)} is not a str"
                    )
            if not finite_number(record.price_eur_per_kw):
                raise MarketError(
                    f"match {record.match_id}: price_eur_per_kw"
                    f" {shown(record.price_eur_per_kw)} is not a finite number"
                )
            if type(record.round) is not int:  # a bool is not one
                raise MarketError(
                    f"match {record.match_id}: round {shown(record.round)} is not an int"
                )
            if not (finite_number(record.quantity_kw) and record.quantity_kw > 0):
                raise MarketError(
                    f"match {record.match_id}: quantity_kw {shown(record.quantity_kw)}"
                    " is not a finite number > 0"
                )
            prefix, number = record.match_id[:1], record.match_id[1:]
            # Decimal reads a numeral of any length, where int() refuses one of over 4,300 digits.
            if prefix == "m" and number.isdecimal() and Decimal(number) > match_counter:
                raise MarketError(
                    f"match {record.match_id}: id is above match_counter {shown(match_counter)}"
                )
            for bus in (record.inject_bus, record.withdraw_bus):
                if bus not in self.ptdf:
                    raise UnknownBusError(f"match {record.match_id}: unknown bus {shown(bus)}")
        for what, key, items in (
            ("bid id", attrgetter("id"), resting),
            ("sequence number", _SEQUENCE, resting),
            ("match id", attrgetter("match_id"), accepted),
        ):
            values: set = set()
            for item in items:
                if key(item) in values:
                    raise MarketError(f"duplicate {what} {shown(key(item))}")
                values.add(key(item))
        if resting and resting[-1].sequence > sequence:
            raise MarketError(
                f"bid {resting[-1].id}: sequence {shown(resting[-1].sequence)}"
                f" is after {shown(sequence)}"
            )
        if round != sequence:
            raise MarketError(f"round {shown(round)} and sequence {shown(sequence)} differ")
        try:
            if isinstance(seen_ids, str):  # a bare string would read as a set of its characters
                raise TypeError
            seen_ids = set(seen_ids)
        except TypeError:  # not a collection, or one holding an unhashable item
            raise MarketError(
                f"seen_ids must be a collection of bid ids, not {shown(seen_ids)}"
            ) from None
        for bid_id in seen_ids:
            if not (isinstance(bid_id, str) and bid_id):
                raise MarketError(f"a seen id must be a non-empty string, got {shown(bid_id)}")
        seen_ids.update(bid.id for bid in resting)

        self.round = round
        self._match_counter = match_counter
        self._seen_ids = seen_ids
        for bid in resting:
            (self.offers if bid.side == OFFER else self.requests).append(bid)
        for record in accepted:
            alpha = exchange_sensitivity(self.ptdf, record.inject_bus, record.withdraw_bus)
            self._accept(record, alpha)

    # ------------------------------------------------------------------
    # matching internals

    def _validate_bid(self, bid: Bid) -> None:
        if bid.id in self._seen_ids:
            raise MarketError(f"duplicate bid id {shown(bid.id)}")
        if bid.bus not in self.ptdf:
            raise UnknownBusError(f"bid {bid.id}: unknown bus {shown(bid.bus)}")

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
        else:
            candidates = [
                b for b in self.offers
                if b.direction == direction and b.price_eur_per_kw <= price
            ]
        if self.order == ORDER_BEST_PRICE:
            # The best price first: the highest-paying request for an incoming offer, the
            # cheapest offer for a request. The sort is stable, with reverse too, so equal
            # prices keep arrival order.
            candidates.sort(key=_PRICE, reverse=incoming.side == OFFER)
        return candidates

    def _try_match(self, incoming: Bid) -> list:
        matches: list = []
        candidates = self._counterparties(incoming)
        if not candidates:  # the common case, kept as cheap as a loop over nothing
            return matches
        # The caps of the rest of the scan, formed once a candidate is refused and
        # kept until a candidate clears and so changes the state.
        block: Optional[_CapsBlock] = None
        for index, other in enumerate(candidates):
            if incoming.quantity_kw <= 0:
                break
            offer, request = (incoming, other) if incoming.side == OFFER else (other, incoming)
            # Pay as bid: the earlier of the two sets the price.
            price = (offer if offer.sequence < request.sequence else request).price_eur_per_kw
            quantity = min(offer.quantity_kw, request.quantity_kw)
            rows = self._rows[request.conditionality]
            if block is not None and block.rows == rows:
                row = index - block.start
                if admissible_quantity(block.mins[row], quantity) <= 0:
                    # As _decide names them at 0 kW: the lines capped at most QUANTITY_TOL,
                    # once more than the tolerance is refused.
                    binding = ()
                    if 0.0 < quantity - QUANTITY_TOL:
                        binding = tuple(compress(block.labels, block.hits[row]))
                    self._log(offer, request, 0.0, price, OUTCOME_REJECTED_CONGESTION, binding)
                    continue
                # The screen is exact, so the single check below clears this candidate.
            inject_bus, withdraw_bus = exchange_buses(request.bus, offer.bus, request.direction)
            alpha, line_caps, cap = self._single_caps(inject_bus, withdraw_bus, rows)
            admissible, binding = self._decide(line_caps, cap, quantity)
            if admissible <= 0:
                self._log(offer, request, 0.0, price, OUTCOME_REJECTED_CONGESTION, binding)
                if block is None and len(candidates) - index > 2:
                    block = self._caps_block(incoming, candidates, index + 1, rows)
                continue
            block = None

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
            self._fill(offer, admissible)
            self._fill(request, admissible)
            # Lines bind exactly when the full quantity does not fit.
            outcome = OUTCOME_PARTIAL if binding else OUTCOME_MATCHED
            self._log(offer, request, admissible, price, outcome, binding)
            if record.conditionality == UNCONDITIONAL:
                self._apply_to_baseline(record)
            else:
                self._accept(record, alpha)
            matches.append(record)
        return matches

    def _accept(self, record: MatchRecord, alpha: np.ndarray) -> None:
        """Add a conditional match, whose exchange sensitivity is ``alpha``, to the sums read."""
        delta = alpha * record.quantity_kw
        self.accepted.append(record)
        self._rooms.clear()
        self._screens.clear()
        if self._all is not None:
            self._all += delta
        if self._parts is not None:
            rise, fall = self._parts
            rise += np.maximum(delta, 0.0)
            fall += np.minimum(delta, 0.0)
        for total, scenario in zip(self._scenario_sums, self.scenarios):
            if record.match_id in scenario:
                total += delta

    def _fill(self, bid: Bid, quantity: float) -> None:
        bid.quantity_kw -= quantity
        if bid.quantity_kw <= QUANTITY_TOL:
            bid.quantity_kw = 0.0
            pool = self.offers if bid.side == OFFER else self.requests
            # A bid is filled only while in its pool, sorted by the unique sequence numbers.
            del pool[bisect.bisect_left(pool, bid.sequence, key=_SEQUENCE)]

    def _apply_to_baseline(self, record: MatchRecord) -> None:
        self.baseline.apply_exchange(record.inject_bus, record.withdraw_bus, record.quantity_kw)
        # The same two float steps as the dict's, so the product is bit for bit line_flows'.
        injections, position = self._injections, self.ptdf.bus_position
        injections[position(record.inject_bus)] += record.quantity_kw
        injections[position(record.withdraw_bus)] -= record.quantity_kw
        # The match was capped to fit, so this must hold; a failure here is a bug.
        self._flows = check_flows(self.network, self.ptdf.matrix @ injections)
        self._rooms.clear()
        self._screens.clear()

    def _log(self, offer, request, quantity, price, outcome, binding) -> None:
        self.trade_log.append(
            TradeLogEntry(self.round, offer.id, request.id, quantity, price, outcome, binding)
        )

    # ------------------------------------------------------------------
    # network checks

    def _rooms_for(self, rows: tuple):
        """Cached (up, down) rooms of a tuple of flow rows, as :func:`~flexmarket.grid.flow_rooms`.

        Each row's flows ``f + R`` are folded into the highest and lowest
        flow per line with ``maximum`` and ``minimum``, which are exact, so
        the rooms are bit for bit those of the stacked rows.
        """
        rooms = self._rooms.get(rows)
        if rooms is None:
            flows, sums = self._flows, self._sums
            high = low = flows + sums[rows[0]]
            for row in rows[1:]:
                shifted = flows + sums[row]
                high = np.maximum(high, shifted)
                low = np.minimum(low, shifted)
            limits = self.network.limits
            rooms = np.maximum(limits - high, 0.0), np.maximum(limits + low, 0.0)
            self._rooms[rows] = rooms
        return rooms

    def _single_caps(self, inject_bus, withdraw_bus, rows: tuple):
        """One exchange's sensitivity, its caps against ``rows`` and the smallest of them."""
        alpha = exchange_sensitivity(self.ptdf, inject_bus, withdraw_bus)
        line_caps = quantity_caps(alpha, *self._rooms_for(rows))
        return alpha, line_caps, float(line_caps.min())

    def _screen_for(self, rows: tuple):
        """Cached saturated lines of the rooms of ``rows``: indices, labels, up and down rooms.

        The lines are :func:`~flexmarket.grid.saturated_lines`, the only ones
        that can refuse an exchange, and the rooms those of :meth:`_rooms_for`
        taken on them alone.
        """
        screen = self._screens.get(rows)
        if screen is None:
            up_room, down_room = self._rooms_for(rows)
            lines = saturated_lines(up_room, down_room, self.ptdf.alpha_bound)
            labels = self.network.line_labels
            screen = lines, [labels[i] for i in lines.tolist()], up_room[lines], down_room[lines]
            self._screens[rows] = screen
        return screen

    def _caps_block(self, incoming: Bid, candidates: list, start: int, rows: tuple):
        """The exchanges of ``incoming`` with ``candidates[start:]``, capped on the saturated lines.

        Each sensitivity entry is the injection bus's PTDF entry minus the
        withdrawal bus's, as :func:`~flexmarket.grid.exchange_sensitivity`
        forms it, so each cap is bit for bit the single check's on that line.
        """
        lines, labels, up_room, down_room = self._screen_for(rows)
        position = self.ptdf.bus_position
        buses = [position(incoming.bus)] + [position(other.bus) for other in candidates[start:]]
        # The by-bus PTDF rows of the incoming bus and of each candidate's, on those lines.
        gathered = self.ptdf._by_bus.take(buses, axis=0).take(lines, axis=1)
        own, others = gathered[0], gathered[1:]
        # Which side injects, as exchange_buses assigns the buses of a pair.
        if exchange_buses(REQUEST, OFFER, incoming.direction)[0] == incoming.side:
            alphas = own - others
        else:
            alphas = others - own
        caps = quantity_caps(alphas, up_room, down_room)
        # A block follows a refusal against the same rooms, so some line is saturated.
        mins = caps.min(axis=1).tolist()
        return _CapsBlock(start, rows, labels, mins, (caps <= QUANTITY_TOL).tolist())

    def _decide(self, line_caps: np.ndarray, cap: float, quantity_kw: float):
        """The admissible quantity under per-line caps, and the labels of the lines that bind.

        ``cap`` is the smallest of ``line_caps``. The quantity is as
        :func:`admissible_quantity` decides it; no line binds when the full
        quantity goes through.
        """
        quantity = admissible_quantity(cap, quantity_kw)
        binding: tuple = ()
        if quantity < quantity_kw - QUANTITY_TOL:
            bound = (line_caps <= quantity + QUANTITY_TOL).nonzero()[0]
            binding = tuple(self.network.line_labels[i] for i in bound.tolist())
        return quantity, binding
