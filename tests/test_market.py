import dataclasses
import math
import re
import threading
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from flexmarket import (
    Bid,
    DispatchState,
    Line,
    MarketError,
    MatchRecord,
    Network,
    OrderBook,
    UnknownBusError,
    line_flows,
    load_network,
    max_tradable_quantity,
)
from flexmarket.errors import shown
from flexmarket.oracle import dc_solve, flow_violations
from flexmarket.market import (
    ALL_COMBINATIONS,
    CUMULATIVE,
    INDIVIDUAL,
    INDIVIDUAL_AND_CUMULATIVE,
    OUTCOME_MATCHED,
    OUTCOME_PARTIAL,
    OUTCOME_REJECTED_CONGESTION,
    SCENARIOS,
)

from conftest import DATA, HUGE, TOO_LONG


def request(id, direction, bus, quantity, price, conditionality="conditional"):
    return Bid(id, "request", direction, bus, quantity, price, conditionality)


def offer(id, direction, bus, quantity, price):
    return Bid(id, "offer", direction, bus, quantity, price)


def accepted_match(match_id, withdraw_bus="3", conditionality="conditional", quantity_kw=5.0):
    return MatchRecord(
        match_id, "o1", "r1", "2", withdraw_bus, quantity_kw, 0.04, conditionality, 1
    )


def make_book(three_bus, policy=ALL_COMBINATIONS, **kwargs):
    network, dispatch = three_bus
    return OrderBook(network, dispatch, policy, **kwargs)


class TestPriceMatch:
    """Pay as bid: whichever of the two bids arrived first sets the price."""

    @staticmethod
    def clear(three_bus, first, second):
        book = make_book(three_bus)
        assert book.submit_bid(first) == []
        (match,) = book.submit_bid(second)
        assert book.trade_log[-1].price_eur_per_kw == match.price_eur_per_kw
        return match.price_eur_per_kw

    def test_earlier_request_sets_price(self, three_bus):
        first = request("r", "up", "1", 30, 0.042)
        assert self.clear(three_bus, first, offer("o", "up", "2", 30, 0.035)) == 0.042

    def test_earlier_offer_sets_price(self, three_bus):
        first = offer("o", "down", "1", 10, 0.033)
        assert self.clear(three_bus, first, request("r", "down", "2", 10, 0.040)) == 0.033

    def test_equal_prices(self, three_bus):
        first = offer("o", "up", "1", 10, 0.04)
        assert self.clear(three_bus, first, request("r", "up", "2", 10, 0.04)) == 0.04


class TestBidValidation:
    def test_request_needs_conditionality(self):
        with pytest.raises(MarketError, match="conditional"):
            Bid("r", "request", "up", "1", 10, 0.05)

    def test_offer_must_not_have_conditionality(self):
        with pytest.raises(MarketError, match="conditionality"):
            Bid("o", "offer", "up", "1", 10, 0.05, "conditional")

    def test_positive_quantity_required(self):
        with pytest.raises(MarketError, match="quantity"):
            offer("o", "up", "1", 0, 0.05)

    @pytest.mark.parametrize("bid_id", ["", 7, None])
    def test_id_must_be_a_non_empty_string(self, bid_id):
        with pytest.raises(MarketError, match="bid id must be a non-empty string"):
            offer(bid_id, "up", "1", 10, 0.05)

    def test_unknown_direction(self):
        with pytest.raises(MarketError, match="direction"):
            offer("o", "sideways", "1", 10, 0.05)

    @pytest.mark.parametrize("quantity", [float("nan"), float("inf")])
    def test_quantity_must_be_finite(self, quantity):
        with pytest.raises(MarketError, match="bid o: quantity_kw must be a finite number > 0"):
            offer("o", "up", "1", quantity, 0.05)

    @pytest.mark.parametrize("price", [float("nan"), float("inf")])
    def test_price_must_be_finite(self, price):
        with pytest.raises(MarketError, match="bid r: price_eur_per_kw must be a finite number >= 0"):
            request("r", "up", "1", 10, price)

    QUANTITY = "bid o: quantity_kw must be a finite number > 0"
    PRICE = "bid o: price_eur_per_kw must be a finite number >= 0"

    @pytest.mark.parametrize(
        "quantity, price, message",
        [
            ("5", 0.05, QUANTITY),
            (5.0, None, PRICE),
            (10 ** 400, 0.05, QUANTITY),
            (5.0, [1], PRICE),
            (True, 0.05, QUANTITY),
            (5.0, False, PRICE),
            (Decimal("5"), 0.05, QUANTITY),
            (np.True_, 0.05, QUANTITY),
            (5.0, np.True_, PRICE),
            # No writer can write these, so a book holding one could not be dumped.
            (np.int64(5), 0.05, QUANTITY),
            (np.float32(5.0), 0.05, QUANTITY),
            (5.0, Fraction(1, 20), PRICE),
        ],
        ids=[
            "str", "none", "huge-int", "list", "bool", "false-price", "decimal", "np-bool",
            "np-bool-price", "np-int64", "np-float32", "fraction",
        ],
    )
    def test_a_non_number_is_a_market_error(self, quantity, price, message):
        refused = quantity if message == self.QUANTITY else price
        with pytest.raises(MarketError, match=f"^{message}, got {re.escape(shown(refused))}$"):
            offer("o", "up", "1", quantity, price)

    # No writer can write these back, and the book numbers and fills by them.
    @pytest.mark.parametrize(
        "sequence, original, message",
        [
            ("2", None, "sequence '2' is not an int"),
            (True, None, "sequence True is not an int"),
            (1.5, None, "sequence 1.5 is not an int"),
            (2, float("nan"), "original_quantity_kw nan is not a finite number"),
            (2, "5", "original_quantity_kw '5' is not a finite number"),
            (2, np.int64(5), f"original_quantity_kw {repr(np.int64(5))} is not a finite number"),
            (2, HUGE, f"original_quantity_kw {TOO_LONG} is not a finite number"),
            (2, 9.5, "original_quantity_kw 9.5 is below quantity_kw 10"),
            (2, -3.0, "original_quantity_kw -3.0 is below quantity_kw 10"),
        ],
        ids=[
            "str", "bool", "float", "nan", "str-original", "np-int64", "huge-int", "below",
            "negative",
        ],
    )
    def test_sequence_and_original_quantity_are_checked(self, sequence, original, message):
        with pytest.raises(MarketError, match=f"^bid r: {re.escape(message)}$"):
            Bid("r", "request", "up", "1", 10, 0.05, "conditional", sequence, original)


def baseline_gate(three_bus, injection):
    network, dispatch = three_bus
    OrderBook(network, DispatchState({**dispatch.injection_kw, "3": injection}), INDIVIDUAL)


def candidate_gate(three_bus, quantity):
    make_book(three_bus, INDIVIDUAL).check_combination_feasibility("3", "1", "up", quantity)


def tradable_gate(three_bus, quantity):
    max_tradable_quantity(*three_bus, "3", "1", "up", quantity)


# Each library gate for a number: the call, a number it takes written as a string, its refusal.
NUMBER_GATES = {
    "baseline": (baseline_gate, "-20", "baseline injection at bus '3' is not a finite number"),
    "candidate": (candidate_gate, "5", "candidate quantity must be a finite number > 0"),
    "max_tradable": (tradable_gate, "5", "quantity_kw must be a finite number > 0"),
}


NON_NUMBERS = {
    "nan": lambda text: math.nan,
    "inf": lambda text: math.inf,
    "string": str,
    "bool": lambda text: True,
    "decimal": Decimal,
    "np-int64": lambda text: np.int64(int(text)),
    "np-float32": lambda text: np.float32(float(text)),
    "fraction": Fraction,
}


@pytest.mark.parametrize("kind", list(NON_NUMBERS))
@pytest.mark.parametrize("gate", list(NUMBER_GATES))
def test_every_number_gate_refuses_what_is_not_a_finite_number(three_bus, gate, kind):
    call, text, message = NUMBER_GATES[gate]
    value = NON_NUMBERS[kind](text)
    with pytest.raises(MarketError, match=f"^{message}$"):
        call(three_bus, value)


# Each library gate given a huge int where a caller value goes: the call and its refusal.
HUGE_INT_GATES = {
    "bid-id": (lambda book: offer(HUGE, "up", "1", 5, 0.05), MarketError,
               f"bid id must be a non-empty string, got {TOO_LONG}"),
    "bid-side": (lambda book: Bid("o", HUGE, "up", "1", 5, 0.05), MarketError,
                 f"bid o: unknown side {TOO_LONG}"),
    "policy": (lambda book: OrderBook(book.network, book.baseline, HUGE), MarketError,
               f"unknown policy variant {TOO_LONG}"),
    "baseline-bus": (
        lambda book: OrderBook(book.network, DispatchState({HUGE: 0.0}), INDIVIDUAL),
        UnknownBusError, f"baseline names unknown buses: ['{TOO_LONG}']",
    ),
    "cancel": (lambda book: book.cancel_bid(HUGE), MarketError, f"no live bid with id {TOO_LONG}"),
    "submit-bus": (lambda book: book.submit_bid(offer("o", "up", HUGE, 5, 0.05)),
                   UnknownBusError, f"bid o: unknown bus {TOO_LONG}"),
    "snapshot": (lambda book: book.activation_snapshot([HUGE]), MarketError,
                 f"unknown match id {TOO_LONG}"),
    "candidate-bus": (lambda book: book.check_combination_feasibility(HUGE, "1", "up", 5),
                      UnknownBusError, f"unknown bus {TOO_LONG}"),
    "candidate-direction": (lambda book: book.check_combination_feasibility("3", "1", HUGE, 5),
                            MarketError, f"unknown direction {TOO_LONG}"),
}


@pytest.mark.parametrize("gate", list(HUGE_INT_GATES))
def test_a_huge_int_gets_the_gates_own_error(three_bus, gate):
    call, error, message = HUGE_INT_GATES[gate]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(make_book(three_bus, INDIVIDUAL))


class TestSubmission:
    def test_lonely_bid_rests(self, three_bus):
        book = make_book(three_bus)
        assert book.submit_bid(request("r1", "up", "1", 30, 0.05, "unconditional")) == []
        assert [b.id for b in book.requests] == ["r1"]
        assert book.trade_log == []

    def test_price_gate_books_expensive_offer(self, three_bus):
        # A pair whose prices do not cross is never examined: both bids
        # rest untouched and nothing is logged, on submission or later.
        book = make_book(three_bus)
        book.submit_bid(request("r1", "up", "1", 30, 0.04))
        matches = book.submit_bid(offer("o1", "up", "3", 30, 0.05))
        assert matches == []
        assert [b.id for b in book.offers] == ["o1"]
        assert book.requests[0].quantity_kw == 30
        assert book.reevaluate_book() == []
        assert book.trade_log == []

    def test_duplicate_id_rejected(self, three_bus):
        book = make_book(three_bus)
        book.submit_bid(offer("x", "up", "1", 10, 0.05))
        with pytest.raises(MarketError, match="duplicate"):
            book.submit_bid(request("x", "up", "1", 10, 0.05))

    @pytest.mark.parametrize("bus", ["99", ["2"]])
    def test_unknown_bus_rejected(self, three_bus, bus):
        book = make_book(three_bus)
        with pytest.raises(UnknownBusError):
            book.submit_bid(offer("o", "up", bus, 10, 0.05))

    def test_incoming_request_matches_resting_offer(self, three_bus):
        book = make_book(three_bus)
        book.submit_bid(offer("o1", "up", "3", 30, 0.045))
        matches = book.submit_bid(request("r1", "up", "1", 30, 0.05, "conditional"))
        assert len(matches) == 1
        # the resting offer arrived first and sets the price
        assert matches[0].price_eur_per_kw == 0.045

    def test_one_offer_fills_several_requests(self, three_bus):
        book = make_book(three_bus)
        book.submit_bid(request("r1", "up", "1", 10, 0.05))
        book.submit_bid(request("r2", "up", "1", 15, 0.05))
        matches = book.submit_bid(offer("o1", "up", "3", 30, 0.04))
        assert [(m.request_id, m.quantity_kw) for m in matches] == [("r1", 10.0), ("r2", 15.0)]
        assert book.offers[0].quantity_kw == 5.0

    def test_partial_fill_accounting(self, three_bus):
        book = make_book(three_bus)
        book.submit_bid(request("r1", "up", "2", 30, 0.05))
        matches = book.submit_bid(offer("o1", "up", "1", 30, 0.04))
        # line 1-2 has 20 kW of headroom toward its 60 kW limit
        assert matches[0].quantity_kw == 20.0
        assert book.trade_log[-1].outcome == OUTCOME_PARTIAL
        assert book.trade_log[-1].binding_lines == ("1-2",)
        leftovers = {b.id: b.quantity_kw for b in book.requests + book.offers}
        assert leftovers == {"r1": 10.0, "o1": 10.0}
        assert book.requests[0].original_quantity_kw == 30.0

    def test_unconditional_match_shifts_baseline(self, three_bus):
        book = make_book(three_bus)
        book.submit_bid(request("r1", "up", "1", 30, 0.05, "unconditional"))
        book.submit_bid(offer("o1", "up", "3", 30, 0.04))
        assert book.flows == pytest.approx([10.0, -10.0])
        assert book.accepted == []  # lives in the baseline, not the combination set

    def test_an_exchange_that_moves_no_line_is_never_refused(self, three_bus):
        # Both bids sit on bus 2, so no line sees the exchange: even a
        # quantity below the tolerance clears in full.
        book = make_book(three_bus)
        book.submit_bid(request("r1", "up", "2", 1e-7, 0.05))
        matches = book.submit_bid(offer("o1", "up", "2", 1e-7, 0.04))
        assert [m.quantity_kw for m in matches] == [1e-7]
        assert book.trade_log[-1].outcome == OUTCOME_MATCHED

    def test_a_sub_tolerance_exchange_that_fits_clears(self, three_bus):
        # Bus 2 to bus 3 moves a line, but no line caps 1e-7 kW: the pair
        # clears in full, as the same pair on one bus does.
        book = make_book(three_bus)
        book.submit_bid(request("r1", "up", "2", 1e-7, 0.05))
        matches = book.submit_bid(offer("o1", "up", "3", 1e-7, 0.04))
        assert [m.quantity_kw for m in matches] == [1e-7]
        assert book.trade_log == [(2, "o1", "r1", 1e-7, 0.05, OUTCOME_MATCHED, ())]
        assert book.requests == [] and book.offers == []

    def test_exhausted_bids_leave_the_book(self, three_bus):
        book = make_book(three_bus)
        book.submit_bid(request("r1", "up", "1", 30, 0.05))
        book.submit_bid(offer("o1", "up", "3", 30, 0.04))
        assert book.requests == [] and book.offers == []


class TestReevaluation:
    def test_empty_book_is_a_noop(self, three_bus):
        book = make_book(three_bus)
        assert book.reevaluate_book() == []

    def test_booked_offer_matches_after_baseline_shift(self, three_bus):
        book = make_book(three_bus)
        book.submit_bid(request("r_up", "up", "1", 30, 0.05, "unconditional"))
        book.submit_bid(request("r_down", "down", "2", 20, 0.05, "unconditional"))
        assert book.submit_bid(offer("o_down", "down", "3", 20, 0.045)) == []
        matches = book.submit_bid(offer("o_up", "up", "3", 30, 0.045))
        assert [(m.offer_id, m.quantity_kw) for m in matches] == [
            ("o_up", 30.0),
            ("o_down", 20.0),
        ]
        outcomes = [e.outcome for e in book.trade_log]
        assert outcomes == [OUTCOME_REJECTED_CONGESTION, OUTCOME_MATCHED, OUTCOME_MATCHED]
        # both re-evaluation entries carry the triggering round
        assert [e.round for e in book.trade_log[1:]] == [4, 4]

    # A pass re-tries only offers priced at or below the best resting request
    # price of their direction; an offer above it has no counterparty to log.
    @pytest.mark.parametrize("price, retried", [(0.05, True), (0.051, False)])
    def test_a_pass_skips_offers_priced_above_every_request(self, three_bus, price, retried):
        book = make_book(three_bus)
        book.submit_bid(request("r_down", "down", "2", 20, 0.05))
        book.submit_bid(offer("o_down", "down", "3", 20, price))
        book.submit_bid(offer("o_dear", "up", "2", 20, 0.06))
        book.submit_bid(request("r_up", "up", "1", 30, 0.05, "unconditional"))
        before = list(book.trade_log)
        matches = book.submit_bid(offer("o_up", "up", "3", 30, 0.04))
        expected = ["o_up", "o_down"] if retried else ["o_up"]
        assert book.trade_log[:len(before)] == before
        assert [m.offer_id for m in matches] == expected
        assert [e.offer_id for e in book.trade_log[len(before):]] == expected
        assert book.offers[-1].id == "o_dear" and book.offers[-1].quantity_kw == 20

    def test_pass_with_only_conditional_matches_ends_the_loop(self):
        # Chain of four buses; line 3-4 starts at its limit, and only the
        # unconditional match on the right relieves it.
        network = Network(
            buses=["1", "2", "3", "4"],
            lines=[Line("1", "2", 0.1, 60.0), Line("2", "3", 0.1, 50.0), Line("3", "4", 0.1, 30.0)],
            slack_bus="1",
        )
        baseline = DispatchState({"1": 30.0, "2": 0.0, "3": 0.0, "4": -30.0})
        book = OrderBook(network, baseline, ALL_COMBINATIONS)
        book.submit_bid(request("r_cond", "down", "3", 10, 0.05, "conditional"))
        assert book.submit_bid(offer("o_blocked", "down", "4", 10, 0.045)) == []
        book.submit_bid(request("r_unc", "up", "3", 10, 0.05, "unconditional"))
        matches = book.submit_bid(offer("o_trigger", "up", "4", 10, 0.045))
        assert [(m.request_id, m.conditionality) for m in matches] == [
            ("r_unc", "unconditional"),
            ("r_cond", "conditional"),
        ]
        assert len(book.accepted) == 1


class TestCombinationFeasibility:
    def test_individual_policy_checks_baseline_only(self, three_bus):
        book = make_book(three_bus, policy=INDIVIDUAL)
        book.submit_bid(request("r1", "down", "1", 10, 0.05))
        book.submit_bid(offer("o1", "down", "2", 10, 0.045))
        book.submit_bid(request("r2", "up", "2", 20, 0.05))
        book.submit_bid(offer("o2", "up", "1", 20, 0.045))
        assert [m.quantity_kw for m in book.accepted] == [10.0, 20.0]

    def test_all_combinations_caps_against_worst_subset(self, three_bus):
        book = make_book(three_bus, policy=ALL_COMBINATIONS)
        book.submit_bid(request("r1", "down", "1", 10, 0.05))
        book.submit_bid(offer("o1", "down", "2", 10, 0.045))
        # with the first match active, only 10 kW of line 1-2 headroom remain
        assert book.check_combination_feasibility("2", "1", "up", 20.0) == pytest.approx(10.0)

    def test_cumulative_policy_accepts_relief_chain(self, three_bus):
        book = make_book(three_bus, policy=CUMULATIVE)
        book.submit_bid(request("r1", "up", "1", 20, 0.05))
        book.submit_bid(offer("o1", "up", "2", 20, 0.045))
        book.submit_bid(request("r2", "down", "3", 30, 0.05))
        book.submit_bid(offer("o2", "down", "1", 30, 0.045))
        book.submit_bid(request("r3", "down", "2", 20, 0.05))
        book.submit_bid(offer("o3", "down", "3", 20, 0.045))
        assert [m.quantity_kw for m in book.accepted] == [20.0, 30.0, 20.0]

    def test_individual_and_cumulative_requires_both(self, three_bus):
        # Same chain as above: the third match fails its individual check.
        book = make_book(three_bus, policy=INDIVIDUAL_AND_CUMULATIVE)
        book.submit_bid(request("r1", "up", "1", 20, 0.05))
        book.submit_bid(offer("o1", "up", "2", 20, 0.045))
        book.submit_bid(request("r2", "down", "3", 30, 0.05))
        book.submit_bid(offer("o2", "down", "1", 30, 0.045))
        book.submit_bid(request("r3", "down", "2", 20, 0.05))
        book.submit_bid(offer("o3", "down", "3", 20, 0.045))
        assert [m.quantity_kw for m in book.accepted] == [20.0, 30.0]
        assert book.trade_log[-1].outcome == OUTCOME_REJECTED_CONGESTION
        assert book.trade_log[-1].binding_lines == ("2-3",)

    def test_scenarios_policy_always_checks_the_candidate_alone(self, three_bus):
        # The scenario list names no matches at all, yet a candidate that
        # congests line 2-3 on its own must still be rejected.
        book = make_book(three_bus, policy=SCENARIOS, scenarios=[[]])
        book.submit_bid(request("r1", "down", "2", 20, 0.05))
        assert book.submit_bid(offer("o1", "down", "3", 20, 0.045)) == []
        assert book.trade_log[-1].outcome == OUTCOME_REJECTED_CONGESTION

    def test_scenarios_policy_applies_named_subsets(self, three_bus):
        book = make_book(three_bus, policy=SCENARIOS, scenarios=[["m1"]])
        assert book.scenarios == (frozenset({"m1"}),)
        book.submit_bid(request("r1", "down", "1", 10, 0.05))
        book.submit_bid(offer("o1", "down", "2", 10, 0.045))
        assert [m.match_id for m in book.accepted] == ["m1"]
        # the m1 scenario claims 10 kW of line 1-2, leaving 10 of 20
        assert book.check_combination_feasibility("2", "1", "up", 20.0) == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "policy, kwargs, message",
        [
            ("bogus", {}, "unknown policy variant 'bogus'"),
            (INDIVIDUAL, {"scenarios": [["m1"]]}, "only the scenarios policy takes scenarios"),
            (SCENARIOS, {}, "requires a non-empty scenario list"),
            (SCENARIOS, {"scenarios": ["m1"]}, "collection of match ids, not 'm1'"),
            (SCENARIOS, {"scenarios": [5]}, "collection of match ids, not 5"),
            (SCENARIOS, {"scenarios": [[["m1"]]]}, r"collection of match ids, not \[\['m1'\]\]"),
            (SCENARIOS, {"scenarios": 5}, "scenarios must be a collection, not 5"),
            (SCENARIOS, {"scenarios": None}, "scenarios must be a collection, not None"),
            (ALL_COMBINATIONS, {"order": "lifo"}, "unknown counterparty order 'lifo'"),
        ],
    )
    def test_a_bad_configuration_is_refused(self, three_bus, policy, kwargs, message):
        with pytest.raises(MarketError, match=message):
            make_book(three_bus, policy=policy, **kwargs)

    def test_cumulative_checks_an_unconditional_candidate_alone_too(self, three_bus):
        # The conditional r1/o1 relieves line 2-3 to 10 kW, but only if it
        # is activated; an unconditional match moves the baseline for good
        # and must fit on the bare baseline, where line 2-3 is at its limit.
        network, _ = three_bus
        book = make_book(three_bus, policy=CUMULATIVE)
        book.submit_bid(request("r1", "up", "2", 10, 0.05))
        book.submit_bid(offer("o1", "up", "3", 10, 0.045))
        # A conditional candidate may use the relief; checking one first
        # must not hand its cached rooms to the unconditional check.
        assert book.check_combination_feasibility("3", "2", "up", 20.0) == 10.0
        book.submit_bid(request("r2", "up", "3", 10, 0.05, "unconditional"))
        assert book.submit_bid(offer("o2", "up", "2", 10, 0.045)) == []
        assert book.trade_log[-1].outcome == OUTCOME_REJECTED_CONGESTION
        assert book.trade_log[-1].binding_lines == ("2-3",)
        assert flow_violations(network, dc_solve(network, book.baseline)) == []
        assert book.flows == pytest.approx(dc_solve(network, book.baseline))

    @pytest.mark.parametrize("policy", [CUMULATIVE, ALL_COMBINATIONS])
    def test_the_check_follows_every_state_change(self, policy):
        network, baseline = load_network(DATA / "three_bus.yaml")
        book = OrderBook(network, baseline, policy)
        # An up exchange from bus 1 to bus 2 loads line 1-2 (40 of 60 kW).
        assert book.check_combination_feasibility("2", "1", "up", 30.0) == 20.0
        book.submit_bid(request("r1", "up", "2", 10, 0.05))
        book.submit_bid(offer("o1", "up", "1", 10, 0.045))
        assert [m.quantity_kw for m in book.accepted] == [10.0]
        assert book.check_combination_feasibility("2", "1", "up", 30.0) == 10.0
        # An unconditional match from bus 2 to bus 1 relieves line 1-2 by 5 kW.
        book.submit_bid(request("r2", "up", "1", 5, 0.05, "unconditional"))
        book.submit_bid(offer("o2", "up", "2", 5, 0.045))
        assert book.flows == pytest.approx([35.0, 20.0])
        assert book.check_combination_feasibility("2", "1", "up", 30.0) == 15.0


class TestActivationSnapshot:
    def fill_relief_chain(self, three_bus):
        book = make_book(three_bus, policy=CUMULATIVE)
        book.submit_bid(request("r1", "up", "1", 20, 0.05))
        book.submit_bid(offer("o1", "up", "2", 20, 0.045))
        book.submit_bid(request("r2", "down", "3", 30, 0.05))
        book.submit_bid(offer("o2", "down", "1", 30, 0.045))
        book.submit_bid(request("r3", "down", "2", 20, 0.05))
        book.submit_bid(offer("o3", "down", "3", 20, 0.045))
        return book

    def test_empty_subset_returns_baseline(self, three_bus):
        book = self.fill_relief_chain(three_bus)
        snapshot = book.activation_snapshot([])
        assert snapshot.injection_kw == book.baseline.injection_kw
        snapshot.injection_kw["1"] += 1.0  # a copy, not the live baseline
        assert snapshot.injection_kw != book.baseline.injection_kw

    def test_prefix_subsets(self, three_bus):
        book = self.fill_relief_chain(three_bus)
        ptdf = book.ptdf
        two = line_flows(ptdf, book.activation_snapshot(["m1", "m2"]))
        assert two == pytest.approx([-10.0, -10.0])
        all_three = line_flows(ptdf, book.activation_snapshot(["m1", "m2", "m3"]))
        assert all_three == pytest.approx([-10.0, 10.0])

    def test_unknown_match_id(self, three_bus):
        book = self.fill_relief_chain(three_bus)
        with pytest.raises(MarketError, match="unknown match id"):
            book.activation_snapshot(["m99"])

    # Each of these used to raise a bare TypeError.
    @pytest.mark.parametrize(
        "match_ids, message",
        [
            ([["m1"]], "unknown match id ['m1']"),
            ([{"m1": 1}], "unknown match id {'m1': 1}"),
            (5, "match ids must be a collection, not 5"),
            (None, "match ids must be a collection, not None"),
        ],
        ids=["unhashable", "dict", "int", "none"],
    )
    def test_match_ids_that_name_no_match(self, three_bus, match_ids, message):
        book = self.fill_relief_chain(three_bus)
        with pytest.raises(MarketError, match=f"^{re.escape(message)}$"):
            book.activation_snapshot(match_ids)


class TestCancel:
    def test_cancel_removes_the_remainder(self, three_bus):
        book = make_book(three_bus)
        book.submit_bid(request("r1", "up", "2", 30, 0.05))
        book.submit_bid(offer("o1", "up", "1", 30, 0.04))  # fills 20 of 30
        cancelled = book.cancel_bid("r1")
        assert cancelled.quantity_kw == 10.0
        assert book.requests == []
        assert len(book.accepted) == 1  # the trade stands

    def test_cancel_unknown_bid(self, three_bus):
        book = make_book(three_bus)
        with pytest.raises(MarketError, match="no live bid"):
            book.cancel_bid("ghost")


class TestRestore:
    def test_restore_rebuilds_pools_in_sequence_order(self, three_bus):
        book = make_book(three_bus)
        late = request("late", "up", "2", 5, 0.05)
        early = request("early", "up", "2", 5, 0.05)
        late.sequence, early.sequence = 7, 3
        book.restore(round=7, sequence=7, match_counter=0, seen_ids=["gone"],
                     resting=[late, early], accepted=[])
        assert book.requests == [early, late]
        with pytest.raises(MarketError, match="duplicate bid id 'early'"):
            book.submit_bid(request("early", "up", "2", 5, 0.05))
        assert book.submit_bid(request("next", "up", "2", 5, 0.05)) == []
        assert book.requests[-1].sequence == 8

    def test_restore_needs_a_fresh_book(self, three_bus):
        book = make_book(three_bus)
        book.submit_bid(request("r1", "up", "2", 5, 0.05))
        with pytest.raises(MarketError, match="fresh book"):
            book.restore(round=1, sequence=1, match_counter=0, seen_ids=[],
                         resting=[], accepted=[])
        # A book that holds accepted matches is not fresh, whatever its counters say.
        book = make_book(three_bus)
        book.restore(round=0, sequence=0, match_counter=1, seen_ids=[], resting=[],
                     accepted=[accepted_match("m1")])
        with pytest.raises(MarketError, match="fresh book"):
            book.restore(round=0, sequence=0, match_counter=1, seen_ids=[], resting=[],
                         accepted=[accepted_match("m1")])

    @pytest.mark.parametrize(
        "accepted, error, message",
        [
            ([accepted_match("m1", conditionality="unconditional")], MarketError,
             "match m1: accepted matches are conditional"),
            ([accepted_match("m1"), accepted_match("m1")], MarketError, "duplicate match id 'm1'"),
            ([accepted_match("m1"), accepted_match("m2", withdraw_bus="9")], UnknownBusError,
             "match m2: unknown bus '9'"),
            ([accepted_match("m1"), accepted_match("m2", withdraw_bus=["3"])], UnknownBusError,
             r"match m2: unknown bus \['3'\]"),
            # restore parses an id as m<N>, which only a string holds.
            ([accepted_match(5)], MarketError, "match id 5 is not a str"),
            ([accepted_match(["m1"])], MarketError, r"match id \['m1'\] is not a str"),
            ([accepted_match(HUGE)], MarketError, f"match id {TOO_LONG} is not a str"),
            # The book would hand out m3 again on its next match.
            ([accepted_match("m1"), accepted_match("m3")], MarketError,
             "match m3: id is above match_counter 2"),
            # A running sum of NaN or inf checks nothing; a string is no quantity.
            *(
                ([accepted_match("m1", quantity_kw=q)], MarketError,
                 "match m1: quantity_kw .* is not a finite number > 0")
                for q in (-10.0, 0.0, float("nan"), float("inf"), "5", True)
            ),
            # Too long for int(), which used to raise a bare ValueError.
            ([accepted_match("m" + "9" * 5000)], MarketError,
             "match m9+: id is above match_counter 2"),
        ],
    )
    def test_restore_refuses_accepted_matches_the_book_never_holds(
        self, three_bus, accepted, error, message
    ):
        with pytest.raises(error, match=message):
            make_book(three_bus).restore(round=2, sequence=2, match_counter=2, seen_ids=[],
                                         resting=[], accepted=accepted)

    # Each of these used to restore, and book_json wrote a dump of it that
    # load_book refuses, as its match fields are checked as a dump's are.
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("round", True, "match m1: round True is not an int"),
            ("offer_id", 7, "match m1: offer_id 7 is not a str"),
            ("price_eur_per_kw", float("nan"),
             "match m1: price_eur_per_kw nan is not a finite number"),
        ],
        ids=["bool-round", "int-offer-id", "nan-price"],
    )
    def test_restore_refuses_a_match_load_book_would_refuse(self, three_bus, field, value, message):
        book = make_book(three_bus)
        odd = dataclasses.replace(accepted_match("m1"), **{field: value})
        with pytest.raises(MarketError, match=f"^{re.escape(message)}$"):
            book.restore(round=2, sequence=2, match_counter=2, seen_ids=[], resting=[],
                         accepted=[odd])
        assert book.snapshot() == make_book(three_bus).snapshot()

    # Each of these used to restore, or fail with a bare TypeError, and a
    # restored one dumps a book.json that load_book refuses.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("sequence", "2"),
            ("sequence", True),
            ("sequence", 1.5),
            ("original_quantity_kw", float("nan")),
            ("original_quantity_kw", float("inf")),
            ("original_quantity_kw", np.int64(5)),
            pytest.param("original_quantity_kw", HUGE, id="original_quantity_kw-huge-int"),
        ],
    )
    def test_restore_refuses_a_bid_it_could_not_dump(self, three_bus, field, value):
        book = make_book(three_bus)
        first, odd = request("r1", "up", "2", 5, 0.05), request("r2", "up", "2", 5, 0.05)
        first.sequence, odd.sequence = 1, 2
        setattr(odd, field, value)
        with pytest.raises(MarketError, match=f"bid r2: {field} .* is not"):
            book.restore(round=2, sequence=2, match_counter=0, seen_ids=[],
                         resting=[first, odd], accepted=[])
        assert book.snapshot() == make_book(three_bus).snapshot()

    # Each of these used to fail with a bare TypeError, or restore a book
    # whose dump book_json could not write or load_book refused.
    @pytest.mark.parametrize(
        "seen_ids, message",
        [
            ([["a"]], r"seen_ids must be a collection of bid ids, not \[\['a'\]\]"),
            (5, "seen_ids must be a collection of bid ids, not 5"),
            ("ab", "seen_ids must be a collection of bid ids, not 'ab'"),
            ([1, "a"], "a seen id must be a non-empty string, got 1"),
            ([7], "a seen id must be a non-empty string, got 7"),
            ([""], "a seen id must be a non-empty string, got ''"),
        ],
        ids=["nested-list", "int", "bare-str", "int-and-str", "int-id", "empty-id"],
    )
    def test_restore_refuses_seen_ids_that_are_not_bid_ids(self, three_bus, seen_ids, message):
        book = make_book(three_bus)
        resting = request("r1", "up", "2", 5, 0.05)
        resting.sequence = 1
        with pytest.raises(MarketError, match=f"^{message}$"):
            book.restore(round=1, sequence=1, match_counter=0, seen_ids=seen_ids,
                         resting=[resting], accepted=[])
        assert book.snapshot() == make_book(three_bus).snapshot()

    def test_a_long_match_id_of_a_small_number_restores(self, three_bus):
        book = make_book(three_bus)
        record = accepted_match("m" + "0" * 5000 + "2")
        book.restore(round=0, sequence=0, match_counter=2, seen_ids=[], resting=[],
                     accepted=[record])
        assert book.accepted == [record]

    # Each of these used to restore, or fail with a bare TypeError or
    # ValueError, and a book restored with one breaks on its next match or dump.
    @pytest.mark.parametrize("counter", ["round", "sequence", "match_counter"])
    @pytest.mark.parametrize(
        "value", ["2", 1.5, None, True, -1, HUGE],
        ids=["str", "float", "none", "bool", "negative", "huge-int"],
    )
    def test_restore_refuses_a_counter_the_book_never_holds(self, three_bus, counter, value):
        book = make_book(three_bus)
        counters = {"round": 2, "sequence": 2, "match_counter": 2, counter: value}
        with pytest.raises(
            MarketError, match=f"^{counter} {re.escape(shown(value))} is not an int >= 0"
        ):
            book.restore(**counters, seen_ids=[], resting=[], accepted=[])
        assert book.snapshot() == make_book(three_bus).snapshot()

    # Bid checks each resting bid, as it checks a submitted one.
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("quantity_kw", float("nan"), "quantity_kw must be a finite number > 0"),
            ("quantity_kw", 0.0, "quantity_kw must be a finite number > 0"),
            ("price_eur_per_kw", float("nan"), "price_eur_per_kw must be a finite number >= 0"),
            ("side", "bogus", "unknown side 'bogus'"),
            ("direction", "sideways", "unknown direction 'sideways'"),
            ("conditionality", "maybe", "must be 'conditional' or 'unconditional'"),
            ("conditionality", None, "must be 'conditional' or 'unconditional'"),
        ],
    )
    def test_restore_refuses_what_bid_refuses(self, three_bus, field, value, message):
        book = make_book(three_bus)
        odd = request("r2", "up", "2", 5, 0.05)
        odd.sequence = 2
        setattr(odd, field, value)
        with pytest.raises(MarketError, match=re.escape(message)):
            book.restore(round=2, sequence=2, match_counter=0, seen_ids=[],
                         resting=[odd], accepted=[])
        assert book.snapshot() == make_book(three_bus).snapshot()

    def test_a_failed_restore_leaves_the_book_fresh(self, three_bus):
        book = make_book(three_bus)
        resting = request("r2", "up", "2", 5, 0.05)
        resting.sequence = 2
        state = dict(round=2, sequence=2, match_counter=1, seen_ids=["r1", "o1"],
                     resting=[resting])
        with pytest.raises(UnknownBusError):
            book.restore(**state, accepted=[accepted_match("m1", withdraw_bus="9")])
        assert book.snapshot() == make_book(three_bus).snapshot()
        book.restore(**state, accepted=[accepted_match("m1")])
        assert [b.id for b in book.requests] == ["r2"]
        assert book.accepted == [accepted_match("m1")]


class TestCounterpartyOrder:
    def setup_two_requests(self, three_bus, **kwargs):
        book = make_book(three_bus, **kwargs)
        book.submit_bid(request("cheap", "up", "1", 10, 0.040))
        book.submit_bid(request("rich", "up", "1", 10, 0.060))
        book.submit_bid(offer("o1", "up", "1", 10, 0.030))
        return book

    def test_fifo_prefers_the_earlier_request(self, three_bus):
        book = self.setup_two_requests(three_bus)
        assert book.trade_log[-1].request_id == "cheap"

    def test_best_price_prefers_the_higher_request(self, three_bus):
        book = self.setup_two_requests(three_bus, order="best_price")
        assert book.trade_log[-1].request_id == "rich"

    @pytest.mark.parametrize("order", ["fifo", "best_price"])
    def test_only_crossing_requests_are_examined(self, three_bus, order):
        book = make_book(three_bus, order=order)
        book.submit_bid(request("low", "up", "1", 10, 0.020))
        book.submit_bid(request("rich", "up", "1", 10, 0.060))
        book.submit_bid(request("down", "down", "1", 10, 0.060))
        book.submit_bid(offer("o1", "up", "1", 20, 0.030))
        assert [(e.request_id, e.outcome) for e in book.trade_log] == [("rich", OUTCOME_MATCHED)]
        assert [b.id for b in book.requests] == ["low", "down"]
        assert [(b.id, b.quantity_kw) for b in book.offers] == [("o1", 10)]


def replay_in_threads(make, streams):
    """Replay each bid stream on its own fresh book, all threads at once.

    The threads wait on a barrier so their submissions interleave; each
    returns its book's trade log (None if the thread did not finish).
    """
    logs = [None] * len(streams)
    start = threading.Barrier(len(streams))

    def run(slot):
        book = make()
        start.wait(timeout=10)
        for bid in streams[slot]():
            book.submit_bid(bid)
        logs[slot] = book.trade_log

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    return logs


class TestParallelDeterminism:
    """Books share no state: concurrent replays log what sequential ones do."""

    @staticmethod
    def stream():
        return [
            request("r1", "down", "1", 4, 0.05),
            offer("o1", "down", "2", 4, 0.045),
            request("r2", "up", "2", 30, 0.05),
            offer("o2", "up", "1", 30, 0.045),
        ]

    def test_parallel_and_sequential_logs_agree(self, three_bus):
        sequential = make_book(three_bus, policy=ALL_COMBINATIONS)
        for bid in self.stream():
            sequential.submit_bid(bid)
        assert sequential.trade_log  # the stream clears something
        concurrent = replay_in_threads(
            lambda: make_book(three_bus, policy=ALL_COMBINATIONS), [self.stream] * 4
        )
        assert concurrent == [sequential.trade_log] * 4
