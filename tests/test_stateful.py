"""A book's whole life as a state machine: submissions, cancels and both ways to resume it.

The same machine runs under every policy, on small random feeders, radial
or meshed. After every step the book must have conserved every bid's
quantity, traded every match at the earlier bid's price and kept its
baseline within the line limits, with flows bit for bit those of its
baseline dispatch, rooms bit for bit those of the flow rows its policy
names and saturated lines those of these rooms, and its conditional
matches must be as safe to activate as its policy promises. The
oracle's DC solves, which share no code with the engine's sensitivity
matrix, judge the network.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from flexmarket import (
    Bid,
    MarketConfig,
    OrderBook,
    book_json,
    exchange_sensitivity,
    flow_rooms,
    line_flows,
    load_book,
    new_book,
)
from flexmarket.grid import QUANTITY_TOL
from flexmarket.market import (
    ALL_COMBINATIONS,
    CONDITIONAL,
    CUMULATIVE,
    INDIVIDUAL,
    INDIVIDUAL_AND_CUMULATIVE,
    OFFER,
    ORDERS,
    OUTCOME_MATCHED,
    OUTCOME_PARTIAL,
    POLICY_VARIANTS,
    REQUEST,
    SCENARIOS,
    UNCONDITIONAL,
)
from flexmarket.oracle import dc_solve, flow_violations, worst_subset_check

from conftest import DATA, random_network


def bid_fields(side, prices, conditionalities):
    """A bid's side, direction, bus pick, quantity, price in thousandths and conditionality."""
    return st.tuples(
        st.just(side),
        st.sampled_from(["up", "down"]),
        st.integers(0, 10 ** 6),
        # At most 100 kW, so an unconditional ping-pong ends within a few dozen passes.
        st.integers(1, 100) | st.floats(1.0, 100.0),
        prices,
        st.sampled_from(conditionalities),
    )


# Requests bid 0.030-0.070 EUR/kW and offers 0.020-0.060, so most same-direction pairs cross.
BIDS = bid_fields(OFFER, st.integers(20, 60), [None]) | bid_fields(
    REQUEST, st.integers(30, 70), [CONDITIONAL, UNCONDITIONAL]
)


class BookLife(RuleBasedStateMachine):
    """One book, under ``policy``, and the books each resume continues on."""

    policy = ALL_COMBINATIONS

    def __init__(self):
        super().__init__()
        self.work = tempfile.TemporaryDirectory()
        self.bids = {}  # id -> the bid as submitted, whose sequence the book set
        self.cancelled = {}  # id -> the remainder that cancel_bid took out
        self.log = []  # every entry of every book of this life, in order
        self.logged = 0  # how many entries of the current book ``log`` holds

    def teardown(self):
        self.work.cleanup()

    @initialize(
        seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from(ORDERS),
        opening=st.lists(BIDS, max_size=12),
    )
    def build(self, seed, order, opening):
        rng = np.random.default_rng(seed)
        self.network, baseline = random_network(rng, max_buses=6, mesh_prob=0.5)
        scenarios = DATA / "scenarios_example.yaml" if self.policy == SCENARIOS else None
        self.config = MarketConfig(policy=self.policy, scenarios_path=scenarios, order=order)
        self.book = new_book(self.network, baseline, self.config)
        for fields in opening:
            self.submit(fields)

    def sync_log(self):
        self.log += self.book.trade_log[self.logged:]
        self.logged = len(self.book.trade_log)

    def continue_on(self, book):
        """Go on with ``book``, a resumed copy of the current one, which must dump the same."""
        assert book_json(book) == book_json(self.book)
        self.sync_log()
        self.book, self.logged = book, 0

    @rule(fields=BIDS)
    def submit(self, fields):
        side, direction, bus_pick, quantity, price, conditionality = fields
        buses = self.network.buses
        bid = Bid(
            f"b{len(self.bids) + 1}", side, direction, buses[bus_pick % len(buses)],
            quantity, price / 1000, conditionality,
        )
        self.bids[bid.id] = bid
        self.book.submit_bid(bid)

    @precondition(lambda self: self.book.offers or self.book.requests)
    @rule(pick=st.integers(0, 10 ** 6))
    def cancel(self, pick):
        resting = self.book.requests + self.book.offers
        bid = self.book.cancel_bid(resting[pick % len(resting)].id)
        self.cancelled[bid.id] = bid.quantity_kw

    @rule()
    def snapshot_and_restore(self):
        book = self.book
        resumed = OrderBook(
            self.network, book.baseline, book.policy, scenarios=book.scenarios, order=book.order
        )
        resumed.restore(**book.snapshot())
        self.continue_on(resumed)

    @rule()
    def dump_and_load(self):
        path = os.path.join(self.work.name, "book.json")
        with open(path, "w") as handle:
            handle.write(book_json(self.book))
        self.continue_on(load_book(path, self.network, self.config))

    @invariant()
    def every_bid_is_conserved_and_paid_as_bid(self):
        self.sync_log()
        filled = dict.fromkeys(self.bids, 0.0)
        fills = dict.fromkeys(self.bids, 0)
        matches = 0
        for entry in self.log:
            if entry.outcome not in (OUTCOME_MATCHED, OUTCOME_PARTIAL):
                continue
            matches += 1
            offer, request = self.bids[entry.offer_id], self.bids[entry.request_id]
            earlier = offer if offer.sequence < request.sequence else request
            assert entry.price_eur_per_kw == earlier.price_eur_per_kw
            assert offer.price_eur_per_kw <= request.price_eur_per_kw
            for bid_id in (offer.id, request.id):
                filled[bid_id] += entry.quantity_kw
                fills[bid_id] += 1
        assert matches == self.book.match_count
        left = {bid.id: bid.quantity_kw for bid in self.book.requests + self.book.offers}
        left.update(self.cancelled)
        for bid_id, bid in self.bids.items():
            # Each fill may snap a remainder of up to the tolerance to zero.
            error = filled[bid_id] + left.get(bid_id, 0.0) - bid.original_quantity_kw
            assert abs(error) <= QUANTITY_TOL * (1 + fills[bid_id])

    @invariant()
    def the_flows_are_the_baselines_to_the_bit(self):
        # The book moves its injection vector with its baseline dict; the two must agree exactly.
        assert np.array_equal(self.book.flows, line_flows(self.book.ptdf, self.book.baseline))

    @invariant()
    def the_rooms_are_those_of_the_stacked_rows(self):
        # The running sums worked out afresh from the accepted matches, in acceptance order.
        book = self.book
        zero = np.zeros(len(self.network.lines))
        total, rise, fall = zero.copy(), zero.copy(), zero.copy()
        scenario_totals = [zero.copy() for _ in book.scenarios]
        for record in book.accepted:
            delta = exchange_sensitivity(book.ptdf, record.inject_bus, record.withdraw_bus)
            delta = delta * record.quantity_kw
            total += delta
            rise += np.maximum(delta, 0.0)
            fall += np.minimum(delta, 0.0)
            for scenario_total, scenario in zip(scenario_totals, book.scenarios):
                if record.match_id in scenario:
                    scenario_total += delta
        conditional, unconditional = {
            INDIVIDUAL: ([zero], [zero]),
            CUMULATIVE: ([total], [zero, total]),
            INDIVIDUAL_AND_CUMULATIVE: ([zero, total], [zero, total]),
            ALL_COMBINATIONS: ([rise, fall], [rise, fall]),
            SCENARIOS: ([zero, *scenario_totals], [zero, *scenario_totals]),
        }[self.policy]
        # Twice the largest PTDF entry magnitude bounds every exchange sensitivity.
        threshold = 2 * QUANTITY_TOL * (2 * np.abs(book.ptdf.matrix).max())
        for conditionality, rows in ((CONDITIONAL, conditional), (UNCONDITIONAL, unconditional)):
            expected = flow_rooms(book.flows + np.stack(rows), self.network.limits)
            # The rooms are private; the book checks every candidate against them.
            rooms = book._rooms_for(book._rows[conditionality])
            assert [r.tobytes() for r in rooms] == [r.tobytes() for r in expected]
            # So are the saturated lines, on which the book screens runs of refusals.
            lines, labels, *screened = book._screen_for(book._rows[conditionality])
            saturated = [i for i, room in enumerate(np.minimum(*expected)) if room <= threshold]
            assert lines.tolist() == saturated
            assert list(labels) == [self.network.line_labels[i] for i in saturated]
            assert [r.tobytes() for r in screened] == [r[saturated].tobytes() for r in expected]

    @invariant()
    def the_lines_hold_as_the_policy_promises(self):
        network, book = self.network, self.book
        assert flow_violations(network, dc_solve(network, book.baseline)) == []
        ids = [record.match_id for record in book.accepted]
        if self.policy == ALL_COMBINATIONS:
            assert worst_subset_check(network, book.baseline, book.accepted) == []
            return
        if self.policy in (CUMULATIVE, INDIVIDUAL_AND_CUMULATIVE):
            activated = [ids]
        elif self.policy == SCENARIOS:
            activated = [[i for i in ids if i in scenario] for scenario in book.scenarios]
        else:  # individual checks each match alone, so jointly they may overload
            activated = []
        for subset in activated:
            dispatch = book.activation_snapshot(subset)
            assert flow_violations(network, dc_solve(network, dispatch)) == []


@pytest.mark.parametrize("policy", POLICY_VARIANTS)
def test_a_book_keeps_its_promises_through_its_life(policy):
    machine = type(f"BookLife_{policy}", (BookLife,), {"policy": policy})
    run_state_machine_as_test(
        machine, settings=settings(max_examples=20, stateful_step_count=20, deadline=None)
    )
