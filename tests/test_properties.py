"""Property-based checks of the grid math, the clearing invariants and the input paths."""

import contextlib
import dataclasses
import enum
import functools
import io
import json
import math
import os
import random
import tempfile
import threading
from itertools import compress

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings, strategies as st

from flexmarket import (
    Bid,
    DispatchState,
    InfeasibleBaselineError,
    InputError,
    Line,
    MarketConfig,
    MarketError,
    MatchRecord,
    Network,
    NetworkError,
    OrderBook,
    TradeLogEntry,
    book_json,
    build_ptdf,
    exchange_sensitivity,
    flow_rooms,
    line_flows,
    load_bids,
    load_book,
    load_network,
    max_tradable_quantity,
    new_book,
    quantity_caps,
    read_trade_log,
    run_replay,
    trade_log_lines,
    write_trade_log,
)
from flexmarket.cli import main
from flexmarket.errors import shown
from flexmarket.fileio import _BID_FIELDS, _checked
from flexmarket.grid import (
    ALPHA_TOL,
    DOWN,
    QUANTITY_TOL,
    UP,
    admissible_quantity,
    saturated_lines,
)
from flexmarket.market import (
    ALL_COMBINATIONS,
    CONDITIONAL,
    CUMULATIVE,
    INDIVIDUAL,
    INDIVIDUAL_AND_CUMULATIVE,
    ORDER_BEST_PRICE,
    ORDER_FIFO,
    OUTCOME_MATCHED,
    OUTCOME_PARTIAL,
    OUTCOME_REJECTED_CONGESTION,
    POLICY_VARIANTS,
    REQUEST,
    SCENARIOS,
    SIDES,
    UNCONDITIONAL,
)
from flexmarket.oracle import (
    dc_solve,
    exhaustive_subset_check,
    flow_violations,
    worst_subset_check,
)

from conftest import DATA, random_network

#: Agreement bound between the closed-form check and brute-force
#: enumeration, fixed before either is run: a few times the engine's
#: 1e-6 kW quantity tolerance, far below any quantity a bid can carry.
BRUTE_FORCE_TOL_KW = 1e-5

# "rejected(price)" is no longer written but still appears in older logs.
OUTCOMES = (OUTCOME_MATCHED, OUTCOME_PARTIAL, OUTCOME_REJECTED_CONGESTION, "rejected(price)")


@st.composite
def tree_cases(draw, max_buses=8):
    """A random radial network, a balanced dispatch and fitting limits."""
    n = draw(st.integers(3, max_buses))
    parents = [draw(st.integers(1, k - 1)) for k in range(2, n + 1)]
    reactances = [draw(st.floats(0.05, 2.0)) for _ in range(n - 1)]
    injections = [float(draw(st.integers(-50, 50))) for _ in range(n - 1)]
    margins = [draw(st.floats(1.0, 100.0)) for _ in range(n - 1)]

    buses = [str(i) for i in range(1, n + 1)]
    edges = [(str(p), str(i + 2)) for i, p in enumerate(parents)]
    dispatch = DispatchState(
        {"1": -float(sum(injections)), **{str(i + 2): v for i, v in enumerate(injections)}}
    )
    probe = Network(
        buses=buses,
        lines=[Line(a, b, x, 1.0) for (a, b), x in zip(edges, reactances)],
        slack_bus="1",
    )
    flows = line_flows(build_ptdf(probe), dispatch)
    network = Network(
        buses=buses,
        lines=[
            Line(a, b, x, abs(float(f)) + m)
            for (a, b), x, f, m in zip(edges, reactances, flows, margins)
        ],
        slack_bus="1",
    )
    return network, dispatch


@settings(max_examples=60, deadline=None)
@given(tree_cases())
def test_flows_are_superposable(case):
    network, dispatch = case
    ptdf = build_ptdf(network)
    rng = np.random.default_rng(0)
    other = rng.uniform(-20, 20, len(network.buses))
    other[0] -= other.sum()
    second = DispatchState(dict(zip(network.buses, other)))
    combined = DispatchState(
        {b: dispatch.injection_kw[b] + second.injection_kw[b] for b in network.buses}
    )
    together = line_flows(ptdf, combined)
    separate = line_flows(ptdf, dispatch) + line_flows(ptdf, second)
    assert together == pytest.approx(separate, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(tree_cases())
def test_radial_ptdf_entries_and_slack_column(case):
    network, _ = case
    ptdf = build_ptdf(network)
    assert np.allclose(ptdf.column(network.slack_bus), 0.0)
    distance = np.min(
        np.stack([np.abs(ptdf.matrix - v) for v in (-1.0, 0.0, 1.0)]), axis=0
    )
    assert distance.max() < 1e-9


@settings(max_examples=80, deadline=None)
@given(
    tree_cases(),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 6),
    st.sampled_from(["up", "down"]),
    st.floats(1.0, 150.0),
    st.floats(0.0, 1.0),
)
def test_any_partial_activation_stays_feasible(case, req_pick, off_pick, direction, quantity, fraction):
    network, dispatch = case
    request_bus = network.buses[req_pick % len(network.buses)]
    offer_bus = network.buses[off_pick % len(network.buses)]
    allowed = max_tradable_quantity(network, dispatch, request_bus, offer_bus, direction, quantity)
    assert 0.0 <= allowed <= quantity
    activated = dispatch.copy()
    if direction == "up":
        activated.apply_exchange(offer_bus, request_bus, fraction * allowed)
    else:
        activated.apply_exchange(request_bus, offer_bus, fraction * allowed)
    assert flow_violations(network, dc_solve(network, activated)) == []


@settings(max_examples=40, deadline=None)
@given(tree_cases(), st.floats(0.1, 0.9))
def test_max_tradable_shrinks_with_line_limits(case, shrink):
    network, dispatch = case
    ptdf = build_ptdf(network)
    request_bus, offer_bus = network.buses[-1], network.buses[1]
    before = max_tradable_quantity(network, dispatch, request_bus, offer_bus, "up", 500.0)

    flows = line_flows(ptdf, dispatch)
    tighter = Network(
        buses=list(network.buses),
        lines=[
            # never tighten below the baseline flow, so the case stays valid
            Line(l.from_bus, l.to_bus, l.reactance, max(abs(float(f)) + 1e-6, l.limit_kw * shrink))
            for l, f in zip(network.lines, flows)
        ],
        slack_bus=network.slack_bus,
    )
    after = max_tradable_quantity(tighter, dispatch, request_bus, offer_bus, "up", 500.0)
    assert after <= before + 1e-9


def stack_caps(alpha, flows, limits):
    """Reference: the per-line cap against each flow row, then the smallest.

    ``quantity_caps`` over ``flow_rooms`` reduces the rows first and
    must equal this exactly, not just to a tolerance.
    """
    up_margin = np.maximum(limits - flows, 0.0)
    down_margin = np.minimum(-limits - flows, 0.0)
    positive = alpha > ALPHA_TOL
    negative = alpha < -ALPHA_TOL
    safe_alpha = np.where(positive | negative, alpha, 1.0)
    caps = np.where(
        positive,
        up_margin / safe_alpha,
        np.where(negative, down_margin / safe_alpha, np.inf),
    )
    return caps.min(axis=0)


@st.composite
def cap_cases(draw):
    """Flow rows (some exactly at a limit), limits and sensitivities on 1-8 lines.

    The sensitivities mix positive, negative, zero (both signs) and
    sub-tolerance entries.
    """
    n = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 6))
    limits = np.array([draw(st.floats(0.01, 300.0)) for _ in range(n)])
    pinned = st.sampled_from([1.0, -1.0])
    flows = np.array(
        [
            [draw(st.one_of(st.floats(-400.0, 400.0), pinned.map(lambda s: s * limit)))
             for limit in limits]
            for _ in range(rows)
        ]
    )
    alpha = np.array(
        [
            draw(st.one_of(
                st.floats(-2.0, 2.0),
                st.sampled_from([0.0, -0.0, ALPHA_TOL, -ALPHA_TOL]),
                st.floats(-ALPHA_TOL, ALPHA_TOL),
            ))
            for _ in range(n)
        ]
    )
    return alpha, flows, limits


@settings(max_examples=300, deadline=None)
@given(cap_cases())
def test_caps_from_rooms_equal_the_stack_minimum(case):
    alpha, flows, limits = case
    caps = quantity_caps(alpha, *flow_rooms(flows, limits))
    assert caps.tolist() == stack_caps(alpha, flows, limits).tolist()
    if len(flows) == 1:  # a single vector is a one-row stack
        single = quantity_caps(alpha, *flow_rooms(flows[0], limits))
        assert single.tolist() == caps.tolist()


@st.composite
def screen_cases(draw):
    """A random radial or meshed feeder, rooms, one exchange sensitivity and a quantity.

    Rooms sit at 0, at the saturation threshold ``2 * QUANTITY_TOL * A``,
    one ulp above it, below it or anywhere; ``A`` is the feeder's
    :attr:`PtdfMatrix.alpha_bound`. The sensitivity is a real exchange's,
    with some entries replaced by ``±ALPHA_TOL``, values just past it,
    ``±A`` or any value within ``A``. Quantities include values below
    ``QUANTITY_TOL`` and ``int`` kW.
    """
    seed = draw(st.integers(0, 2 ** 32 - 1))
    network, _ = random_network(np.random.default_rng(seed), max_buses=10, mesh_prob=0.5)
    ptdf = build_ptdf(network)
    bound = ptdf.alpha_bound
    threshold = 2 * QUANTITY_TOL * bound
    rooms = st.one_of(
        st.sampled_from([0.0, threshold, float(np.nextafter(threshold, np.inf))]),
        st.floats(0.0, 1.0).map(lambda share: share * threshold),
        st.floats(0.0, 200.0),
    )
    n = len(network.lines)
    up_room = np.array([draw(rooms) for _ in range(n)])
    down_room = np.array([draw(rooms) for _ in range(n)])
    inject, withdraw = (draw(st.sampled_from(network.buses)) for _ in range(2))
    alpha = exchange_sensitivity(ptdf, inject, withdraw).copy()
    entries = st.one_of(
        st.none(),
        st.sampled_from([ALPHA_TOL, -ALPHA_TOL, float(np.nextafter(ALPHA_TOL, 1.0))]),
        st.sampled_from([bound, -bound]),
        st.floats(-bound, bound),
    )
    for line in range(n):
        entry = draw(entries)
        if entry is not None:
            alpha[line] = entry
    quantity = draw(st.one_of(
        st.floats(1e-9, QUANTITY_TOL),
        st.sampled_from([QUANTITY_TOL, float(np.nextafter(QUANTITY_TOL, 0.0))]),
        st.integers(1, 50),
        st.floats(QUANTITY_TOL, 50.0),
    ))
    return network, alpha, up_room, down_room, quantity


@settings(max_examples=300, deadline=None)
@given(screen_cases())
def test_the_screen_refuses_exactly_as_the_full_check(case):
    """Capped on its saturated lines alone, an exchange is refused exactly when in full.

    And, when refused, the lines capped at most ``QUANTITY_TOL`` among the
    saturated ones, named as the order book names a refusal of its block,
    are bit for bit the binding lines of the full check.
    """
    network, alpha, up_room, down_room, quantity = case
    caps = quantity_caps(alpha, up_room, down_room)
    book = OrderBook(network, DispatchState(dict.fromkeys(network.buses, 0.0)), INDIVIDUAL)
    admissible, binding = book._decide(caps, float(caps.min()), quantity)

    lines = saturated_lines(up_room, down_room, book.ptdf.alpha_bound)
    screened = quantity_caps(alpha[lines], up_room[lines], down_room[lines])
    refused = admissible_quantity(float(screened.min(initial=np.inf)), quantity) <= 0
    assert refused == (admissible <= 0)
    if refused:
        labels = [network.line_labels[i] for i in lines.tolist()]
        named = ()
        if 0.0 < quantity - QUANTITY_TOL:
            named = tuple(compress(labels, (screened <= QUANTITY_TOL).tolist()))
        assert named == binding


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    policy=st.sampled_from(POLICY_VARIANTS),
    raw=st.lists(
        st.tuples(
            st.sampled_from(["offer", "request"]),
            st.sampled_from(["up", "down"]),
            st.integers(0, 10 ** 6),  # bus pick
            st.one_of(st.integers(1, 30), st.floats(1e-8, QUANTITY_TOL), st.floats(1e-8, 30.0)),
        ),
        min_size=20,
        max_size=50,
    ),
)
def test_a_screened_scan_logs_what_single_checks_log(seed, policy, raw):
    """Runs of refusals screened on the saturated lines log what a check per pair logs.

    A congested random feeder, radial or meshed, with crossing prices, so
    scans refuse runs of counterparties; the reference book forms no block.
    Requests are conditional: on such a feeder an unconditional match and a
    conditional one can unlock each other in turn, a few µkW at a time, for
    longer than a test can wait. The replay digests pin blocks that mix both.
    """
    rng = np.random.default_rng(seed)
    network, dispatch = random_network(rng, max_buses=8, mesh_prob=0.5, margin=(0.0, 5.0))
    scenarios = ({"m1", "m3"}, {"m2"}) if policy == SCENARIOS else ()
    screened, single = (OrderBook(network, dispatch, policy, scenarios=scenarios) for _ in "ab")
    single._caps_block = lambda *args: None
    for i, (side, direction, pick, quantity) in enumerate(raw):
        price, conditionality = (0.05, CONDITIONAL) if side == "request" else (0.02, None)
        bus = network.buses[pick % len(network.buses)]
        for book in (screened, single):
            book.submit_bid(Bid(f"b{i}", side, direction, bus, quantity, price, conditionality))
    assert screened.trade_log == single.trade_log
    assert book_json(screened) == book_json(single)


def bid_stream_strategy():
    sides = st.sampled_from(["offer", "request"])
    directions = st.sampled_from(["up", "down"])
    return st.lists(
        st.tuples(
            sides,
            directions,
            st.integers(0, 10 ** 6),  # bus pick
            st.integers(1, 40),  # quantity
            st.integers(20, 60),  # price in thousandths
            st.booleans(),  # unconditional?
        ),
        min_size=2,
        max_size=12,
    )


def build_bids(raw, network):
    bids = []
    for i, (side, direction, bus_pick, quantity, price, unconditional) in enumerate(raw):
        conditionality = None
        if side == "request":
            conditionality = "unconditional" if unconditional else "conditional"
        bids.append(
            Bid(
                id=f"b{i + 1}",
                side=side,
                direction=direction,
                bus=network.buses[bus_pick % len(network.buses)],
                quantity_kw=float(quantity),
                price_eur_per_kw=price / 1000.0,
                conditionality=conditionality,
            )
        )
    return bids


@settings(max_examples=60, deadline=None)
@given(tree_cases(), bid_stream_strategy())
def test_clearing_invariants_on_random_streams(case, raw):
    network, dispatch = case
    book = OrderBook(network, dispatch, ALL_COMBINATIONS)
    bids = build_bids(raw, network)
    for bid in bids:
        book.submit_bid(bid)
    by_id = {b.id: b for b in bids}

    fills: dict = {b.id: 0.0 for b in bids}
    trades = [e for e in book.trade_log if e.outcome in (OUTCOME_MATCHED, OUTCOME_PARTIAL)]
    for entry in trades:
        offer, request = by_id[entry.offer_id], by_id[entry.request_id]
        # conservation: one quantity, booked symmetrically on both sides
        fills[offer.id] += entry.quantity_kw
        fills[request.id] += entry.quantity_kw
        # pay-as-bid bounds
        assert offer.price_eur_per_kw <= entry.price_eur_per_kw <= request.price_eur_per_kw

    for bid in bids:
        # partial-fill accounting; bid objects are mutated in place by the book
        assert bid.quantity_kw == pytest.approx(bid.original_quantity_kw - fills[bid.id])
        assert bid.quantity_kw >= 0.0

    # the baseline stayed feasible and the procurement is activation-safe
    assert flow_violations(network, dc_solve(network, book.baseline)) == []
    if len(book.accepted) <= 12:
        assert exhaustive_subset_check(network, book.baseline, book.accepted) == []

    # the book is fully crossed: no live pair is price-compatible and feasible
    for resting_offer in book.offers:
        for resting_request in book.requests:
            if resting_offer.direction != resting_request.direction:
                continue
            if resting_offer.price_eur_per_kw > resting_request.price_eur_per_kw:
                continue
            allowed = book.check_combination_feasibility(
                resting_request.bus,
                resting_offer.bus,
                resting_request.direction,
                min(resting_offer.quantity_kw, resting_request.quantity_kw),
            )
            assert allowed == 0.0


def policy_states(policy, conditionality, ids, scenarios):
    """The activation states, as match ids, that a policy checks a candidate on.

    Written from the policies' definitions, not from the engine's flow
    rows: the candidate alone, on all accepted matches, on each scenario's
    accepted matches or on every subset; an unconditional candidate moves
    the baseline for good, so it is always checked alone too.
    """
    states = {
        INDIVIDUAL: [[]],
        CUMULATIVE: [ids],
        INDIVIDUAL_AND_CUMULATIVE: [[], ids],
        ALL_COMBINATIONS: [
            [i for bit, i in enumerate(ids) if mask >> bit & 1] for mask in range(1 << len(ids))
        ],
        SCENARIOS: [[]] + [[i for i in ids if i in scenario] for scenario in scenarios],
    }[policy]
    return states + [[]] if conditionality == UNCONDITIONAL else states


#: More than any line of a ``tree_cases`` network carries, so the caps decide.
UNCAPPED_KW = 1e4


@pytest.mark.parametrize("conditionality", [CONDITIONAL, UNCONDITIONAL])
@pytest.mark.parametrize("policy", POLICY_VARIANTS)
@settings(max_examples=40, deadline=None)
@given(
    tree_cases(),
    st.lists(
        st.tuples(st.sampled_from(["up", "down"]), st.integers(0, 10 ** 6), st.integers(1, 40)),
        min_size=2,
        max_size=24,
    ),
    st.lists(
        st.sets(st.sampled_from([f"m{k}" for k in range(1, 13)]), min_size=1),
        min_size=1,
        max_size=3,
    ),
    st.lists(
        st.tuples(
            st.integers(0, 10 ** 6),
            st.integers(0, 10 ** 6),
            st.sampled_from(["up", "down"]),
            st.floats(1.0, 150.0),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_the_check_equals_brute_force_over_the_policy_states(
    policy, conditionality, case, raw, scenarios, candidates
):
    network, dispatch = case
    book = OrderBook(
        network, dispatch, policy, scenarios=scenarios if policy == SCENARIOS else ()
    )
    # Conditional requests alternate with offers whose prices always cross,
    # so most pairs clear and the accepted set pulls lines both ways.
    for i, (bid_direction, bus_pick, bid_quantity) in enumerate(raw):
        if len(book.accepted) >= 10:
            break
        is_request = i % 2 == 0
        book.submit_bid(
            Bid(
                f"b{i + 1}",
                "request" if is_request else "offer",
                bid_direction,
                network.buses[bus_pick % len(network.buses)],
                float(bid_quantity),
                0.05 if is_request else 0.04,
                "conditional" if is_request else None,
            )
        )
    buses = network.buses
    exchanges = [
        (buses[req_pick % len(buses)], buses[off_pick % len(buses)], direction, quantity)
        for req_pick, off_pick, direction, quantity in candidates
    ]
    # Each accepted match repeated and reversed, uncapped, so the caps bind
    # on the match's own lines, where the sums it entered differ the most.
    exchanges += [
        (*pair, UP, UNCAPPED_KW)
        for m in book.accepted
        for pair in ((m.withdraw_bus, m.inject_bus), (m.inject_bus, m.withdraw_bus))
    ]

    ids = [m.match_id for m in book.accepted]
    for k, (request_bus, offer_bus, direction, quantity) in enumerate(exchanges):
        # Brute force: the candidate's own cap on every activation state the
        # policy names, each solved on its own snapshot, then the smallest.
        brute = min(
            max_tradable_quantity(
                network, book.activation_snapshot(state), request_bus, offer_bus, direction,
                quantity,
            )
            for state in policy_states(policy, conditionality, ids, scenarios)
        )
        if conditionality == CONDITIONAL:
            checked = book.check_combination_feasibility(
                request_bus, offer_bus, direction, quantity
            )
        else:
            # Clear an unconditional request against a lone offer of the same quantity.
            for bid in book.requests + book.offers:
                book.cancel_bid(bid.id)
            book.submit_bid(Bid(f"o{k}", "offer", direction, offer_bus, quantity, 0.04))
            matches = book.submit_bid(
                Bid(f"r{k}", "request", direction, request_bus, quantity, 0.05, UNCONDITIONAL)
            )
            checked = matches[0].quantity_kw if matches else 0.0
            assert matches or book.trade_log[-1].outcome == OUTCOME_REJECTED_CONGESTION
        assert abs(checked - brute) <= BRUTE_FORCE_TOL_KW


@settings(max_examples=40, deadline=None)
@given(
    tree_cases(),
    st.lists(
        st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.floats(0.5, 80.0)),
        max_size=10,
    ),
)
def test_worst_subset_check_agrees_with_exhaustive(case, raw):
    network, dispatch = case
    buses = network.buses
    matches = [
        MatchRecord(
            match_id=f"m{k + 1}",
            offer_id=f"o{k + 1}",
            request_id=f"r{k + 1}",
            inject_bus=buses[a % len(buses)],
            withdraw_bus=buses[b % len(buses)],
            quantity_kw=quantity,
            price_eur_per_kw=0.05,
            conditionality="conditional",
            round=k + 1,
        )
        for k, (a, b, quantity) in enumerate(raw)
    ]
    exhaustive = exhaustive_subset_check(network, dispatch, matches)
    worst = worst_subset_check(network, dispatch, matches)
    assert bool(worst) == bool(exhaustive)
    # every reported worst subset is one the exhaustive audit flags too
    assert {r.subset for r in worst} <= {r.subset for r in exhaustive}


@settings(max_examples=30, deadline=None)
@given(tree_cases(), bid_stream_strategy())
def test_parallel_evaluation_is_equivalent(case, raw):
    """Random streams logged on books in concurrent threads match sequential replays."""
    network, dispatch = case

    def replay(slot):
        book = OrderBook(network, dispatch, ALL_COMBINATIONS)
        for bid in build_bids(raw, network):
            book.submit_bid(bid)
        logs[slot] = book.trade_log

    logs = [None] * 3
    replay(0)
    threads = [threading.Thread(target=replay, args=(slot,)) for slot in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert logs[1] == logs[0] and logs[2] == logs[0]


# Ids mixing ASCII with what JSON must escape: quotes, backslashes,
# control characters and non-ASCII text (surrogates included).
log_ids = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\\n\t\x00\x1f\x7f/'),
        st.characters(max_codepoint=0x7F),
        st.characters(min_codepoint=0x80),
    ),
    min_size=1,
    max_size=12,
)


class Label(str):
    """A ``str`` subclass: ``json.dumps`` writes its text as it writes a ``str``'s."""


class Level(enum.IntEnum):
    """``int`` subclass members: ``json.dumps`` writes each as ``int.__repr__`` does."""

    LOW = 1
    HIGH = 2 ** 40


class Shown(float):
    """A ``float`` subclass whose ``str`` is not ``float.__repr__``, which ``json.dumps`` writes."""

    def __str__(self):
        return f"Shown({float.__repr__(self)})"


# Ids as the engine writes them, and as a str subclass, which the writer
# must still write as json.dumps does.
log_labels = st.one_of(log_ids, log_ids.map(Label))
# Rounds the engine writes are ints; a bool and an IntEnum member are not
# one, and the writer must still write each as json.dumps does.
log_rounds = st.one_of(st.integers(0, 2 ** 40), st.sampled_from(Level), st.just(True))
# Engine values are ints and finite floats. Every other number takes the
# writer's ``json.dumps`` fallback: infinities, NaN and booleans, which the
# reader refuses, and numpy floats, float subclasses and IntEnum members.
log_numbers = st.one_of(
    st.integers(-(2 ** 53), 2 ** 53),
    st.floats(),
    st.floats().map(np.float64),
    st.floats().map(Shown),
    st.sampled_from(Level),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(
            TradeLogEntry,
            round=log_rounds,
            offer_id=log_labels,
            request_id=log_labels,
            quantity_kw=log_numbers,
            price_eur_per_kw=log_numbers,
            outcome=st.one_of(
                st.sampled_from(OUTCOMES), st.sampled_from(OUTCOMES).map(Label), log_labels
            ),
            binding_lines=st.lists(log_labels, max_size=3).map(tuple),
        ),
        max_size=5,
    )
)
def test_trade_log_lines_match_json_dumps(entries):
    lines = trade_log_lines(entries)
    assert lines == [
        json.dumps(
            {
                "round": e.round,
                "offer_id": e.offer_id,
                "request_id": e.request_id,
                "quantity_kw": e.quantity_kw,
                "price_eur_per_kw": e.price_eur_per_kw,
                "outcome": e.outcome,
                "binding_lines": list(e.binding_lines),
            },
            sort_keys=True,
        )
        for e in entries
    ]
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "trades.jsonl")
        write_trade_log(entries, path)
        # NaN equals nothing, so it is compared in the bytes above, not read back.
        numbers = [x for e in entries for x in (e.round, e.quantity_kw, e.price_eur_per_kw)]
        if all(type(x) is not bool and math.isfinite(x) for x in numbers):
            assert read_trade_log(path) == entries
        else:
            with pytest.raises(InputError, match="expected a (finite )?number"):
                read_trade_log(path)


# Quantities and prices a bid or match may hold: positive and finite, as
# the book checks them, and ints, floats, numpy floats or a float subclass.
book_numbers = st.one_of(
    st.integers(1, 2 ** 53),
    st.floats(min_value=1e-6, max_value=1e12),
    st.floats(min_value=1e-6, max_value=1e12).map(np.float64),
    st.floats(min_value=1e-6, max_value=1e12).map(Shown),
)


@st.composite
def dumped_books(draw):
    """A book resumed through ``OrderBook.restore`` from drawn state, odd ids included.

    Pools, accepted matches, ``seen_ids`` and the baseline may each be
    empty. An offer holds ``None`` for the conditionality a dump leaves
    out, and a bid given no original quantity takes its quantity, as
    ``Bid`` admits it; a given one is never below the quantity, as fills
    only shrink a bid. A bid id may be a ``str`` subclass, as ``Bid``
    admits it, and one resting bid may have its quantity set to NaN after
    its gate, as a caller may set it.
    """
    network, baseline = load_network(DATA / "three_bus.yaml")
    book = OrderBook(network, baseline, ALL_COMBINATIONS)
    buses = st.sampled_from(network.buses)
    resting = []
    for sequence, bid_id in enumerate(draw(st.lists(log_ids, unique=True, max_size=6)), 1):
        side = draw(st.sampled_from(SIDES))
        quantity = draw(book_numbers)
        resting.append(Bid(
            Label(bid_id) if draw(st.booleans()) else bid_id,
            side,
            draw(st.sampled_from((UP, DOWN))),
            draw(buses),
            quantity,
            draw(book_numbers),
            draw(st.sampled_from((CONDITIONAL, UNCONDITIONAL))) if side == REQUEST else None,
            sequence,
            draw(st.one_of(st.none(), book_numbers.map(lambda v: max(v, quantity)))),
        ))
    accepted = [
        MatchRecord(
            f"x{match_id}",
            draw(log_ids),
            draw(log_ids),
            draw(buses),
            draw(buses),
            draw(book_numbers),
            draw(book_numbers),
            CONDITIONAL,
            draw(st.integers(0, 2 ** 40)),
        )
        for match_id in draw(st.lists(log_ids, unique=True, max_size=4))
    ]
    arrivals = len(resting) + draw(st.integers(0, 2 ** 40))  # each submission counts both
    book.restore(
        round=arrivals,
        sequence=arrivals,
        match_counter=draw(st.integers(0, 2 ** 40)),
        seen_ids=draw(st.lists(log_ids, max_size=6)),
        resting=resting,
        accepted=accepted,
    )
    pool = book.requests + book.offers
    if pool and draw(st.booleans()):  # Bid checks a quantity only when the bid is built
        draw(st.sampled_from(pool)).quantity_kw = math.nan
    if draw(st.booleans()):  # a baseline holding every kind of number the writer may meet
        book.baseline.injection_kw = draw(
            st.dictionaries(log_ids, st.one_of(log_numbers, st.floats()), max_size=4)
        )
    return book


def dump_book(book):
    """The reference dump of ``book`` as a dict, which ``book_json`` must write byte for byte.

    Each bid is a record of every field of ``Bid`` that is not ``None``, and
    each accepted match one of every field of ``MatchRecord``.
    """
    state = book.snapshot()
    bid_keys = [field.name for field in dataclasses.fields(Bid)]
    match_keys = [field.name for field in dataclasses.fields(MatchRecord)]

    def bid_dict(bid):
        return {key: value for key in bid_keys if (value := getattr(bid, key)) is not None}

    return {
        **{key: state[key] for key in ("round", "sequence", "match_counter")},
        "injection_kw": {str(b): v for b, v in sorted(book.baseline.injection_kw.items())},
        "requests": [bid_dict(b) for b in state["resting"] if b.side == REQUEST],
        "offers": [bid_dict(b) for b in state["resting"] if b.side != REQUEST],
        "accepted_matches": [
            {key: getattr(r, key) for key in match_keys} for r in state["accepted"]
        ],
        "seen_ids": sorted(state["seen_ids"]),
    }


@settings(max_examples=300, deadline=None)
@given(dumped_books())
def test_book_json_is_json_dumps_of_dump_book(book):
    assert book_json(book) == json.dumps(dump_book(book), sort_keys=True, indent=2) + "\n"


RESUME_STREAM_BIDS = 30


def seeded_bid_stream(seed, buses):
    """Crossing-prone offers and requests on ``buses``, a fifth of the requests unconditional.

    Quantities are ints or floats, as a library caller may pass either;
    a dump must reload each as the type the book held.
    """
    rng = random.Random(seed)
    bids = []
    for i in range(RESUME_STREAM_BIDS):
        side = "request" if rng.random() < 0.5 else "offer"
        direction = "up" if rng.random() < 0.5 else "down"
        bus = rng.choice(buses)
        quantity = rng.choice([rng.randint(5, 60), round(rng.uniform(1.0, 80.0), 3)])
        if side == "request":
            price = round(rng.uniform(0.030, 0.060), 4)
            conditionality = "conditional" if rng.random() < 0.8 else "unconditional"
        else:
            price = round(rng.uniform(0.025, 0.055), 4)
            conditionality = None
        bids.append(Bid(f"b{i + 1}", side, direction, bus, quantity, price, conditionality))
    return bids


@pytest.mark.parametrize("network_file", ["three_bus.yaml", "fifteen_bus.yaml"])
@pytest.mark.parametrize("policy", POLICY_VARIANTS)
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    split=st.integers(0, RESUME_STREAM_BIDS),
    order=st.sampled_from([ORDER_FIFO, ORDER_BEST_PRICE]),
)
def test_a_dumped_and_reloaded_book_resumes_like_an_uninterrupted_one(
    network_file, policy, seed, split, order
):
    network, baseline = load_network(DATA / network_file)
    scenarios = DATA / "scenarios_example.yaml" if policy == SCENARIOS else None
    config = MarketConfig(policy=policy, scenarios_path=scenarios, order=order)

    whole = new_book(network, baseline, config)
    for bid in seeded_bid_stream(seed, network.buses):
        whole.submit_bid(bid)

    bids = seeded_bid_stream(seed, network.buses)
    first = new_book(network, baseline, config)
    for bid in bids[:split]:
        first.submit_bid(bid)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "book.json")
        with open(path, "w") as handle:
            handle.write(book_json(first))
        resumed = load_book(path, network, config)
    for bid in bids[split:]:
        resumed.submit_bid(bid)

    assert trade_log_lines(first.trade_log) + trade_log_lines(resumed.trade_log) == (
        trade_log_lines(whole.trade_log)
    )
    assert book_json(resumed) == book_json(whole)


# ----------------------------------------------------------------------
# input fuzzing

#: Every error an input path may raise; the CLI reports each with exit 2 or 3.
INPUT_ERRORS = (InputError, NetworkError, MarketError, InfeasibleBaselineError)
NETWORK = str(DATA / "fifteen_bus.yaml")
BIDS = str(DATA / "bids_fifteen_bus.jsonl")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


@functools.lru_cache(maxsize=None)
def fifteen_bus_outputs():
    """The trade log and book dump of the bundled 15-bus replay, as JSON text."""
    book = run_replay(NETWORK, BIDS, MarketConfig())
    return "\n".join(trade_log_lines(book.trade_log)) + "\n", book_json(book)


def swap_one_field(records, pick, value):
    """Set the field that ``pick`` chooses, of the record it chooses, to ``value``."""
    record = records[pick % len(records)]
    keys = sorted(record)
    record[keys[pick // len(records) % len(keys)]] = value


def add_or_drop_one_field(records, pick, key, value):
    """Add ``key``, set to ``value``, to the record ``pick`` chooses; or drop a required field."""
    record = records[pick % len(records)]
    if key is None:
        required = sorted(set(record) - {"injection_kw"})  # a network's only optional field
        del record[required[pick // len(records) % len(required)]]
    else:
        assume(key not in record)
        record[key] = value


def fuzzed_input(kind, path, change):
    """Write a valid input of ``kind``, edited by ``change``; return its loader and CLI call.

    ``change`` edits the records in place: a network's top level and lines, a dump's top level,
    bids and matches, or the lines of a bids file or trade log.
    """
    if kind == "network":
        with open(NETWORK) as handle:
            data = yaml.safe_load(handle)
        change([data, *data["lines"]])
        with open(path, "w") as handle:
            yaml.safe_dump(data, handle)
        return load_network, ["run", "--network", path, "--bids", BIDS]
    if kind == "book":
        data = json.loads(fifteen_bus_outputs()[1])
        change([data, *data["requests"], *data["offers"], *data["accepted_matches"]])
        with open(path, "w") as handle:
            json.dump(data, handle)
        network, _ = load_network(NETWORK)
        return (lambda p: load_book(p, network, MarketConfig())), ["book", "--book", path]
    if kind == "bids":
        with open(BIDS) as handle:
            records = [json.loads(line) for line in handle]
        loader, command = load_bids, ["run", "--network", NETWORK, "--bids", path]
    else:
        records = [json.loads(line) for line in fifteen_bus_outputs()[0].splitlines()]
        loader = read_trade_log
        command = ["check", "--network", NETWORK, "--bids", BIDS, "--trades", path]
    change(records)
    with open(path, "w") as handle:
        handle.writelines(json.dumps(record) + "\n" for record in records)
    return loader, command


@pytest.mark.parametrize("kind", ["network", "bids", "trades", "book"])
@settings(max_examples=40, deadline=None)
@given(pick=st.integers(0, 10 ** 6), value=json_values)
def test_a_swapped_field_loads_or_fails_with_an_input_error(kind, pick, value):
    """Any JSON value in any field of a valid input: a clean load or a documented error."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input")
        load, command = fuzzed_input(
            kind, path, lambda records: swap_one_field(records, pick, value)
        )
        try:
            load(path)
        except INPUT_ERRORS:
            pass
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(command)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("kind", ["network", "bids", "trades", "book"])
@settings(max_examples=40, deadline=None)
@given(
    pick=st.integers(0, 10 ** 6),
    # No key means drop one. An added key is new to its record; only these two
    # are in a format yet may be missing from a valid record.
    key=st.none()
    | st.text(max_size=6).filter(lambda k: k not in ("conditionality", "injection_kw")),
    value=json_values,
)
def test_an_added_or_dropped_field_is_an_input_error(kind, pick, key, value):
    """A key outside the format, or a missing required one, in any record: exit 2."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input")
        load, command = fuzzed_input(
            kind, path, lambda records: add_or_drop_one_field(records, pick, key, value)
        )
        with pytest.raises(InputError):
            load(path)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(command)
    assert code == 2
    assert "Traceback" not in err.getvalue()


# ----------------------------------------------------------------------
# the bid-file reader against the format's definition


def reference_load_bids(path):
    """The bids of a bid file as the format defines them, one rule at a time.

    Each line that is not blank is read by ``json.loads``, its newline
    kept, then checked by the field rules of a bid record and by ``Bid``.
    """
    with open(path, encoding="utf-8") as handle:
        raw_lines = handle.readlines()
    bids, seen = [], set()
    for lineno, raw in enumerate(raw_lines, start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        try:
            _checked(record, _BID_FIELDS, "")
            bid = Bid(
                record["id"], record["side"], record["direction"], record["bus"],
                record["quantity_kw"], record["price_eur_per_kw"], record.get("conditionality"),
            )
        except (InputError, MarketError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        if bid.id in seen:
            raise InputError(f"{path}:{lineno}: duplicate bid id {shown(bid.id)}")
        seen.add(bid.id)
        bids.append(bid)
    return bids


# The JSON texts of each bid-file field: those a valid record may hold, and
# others. The numbers include what json reads as NaN, inf, a float that
# overflows and an int too large for a float.
NUMBER_TEXTS = (
    ("5", "12.5", "0.04"),
    ("0", "-1", "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "true", '"5"', "null"),
)
BID_FIELD_TEXTS = {
    "id": (
        ('"b1"', '"b2"', '"b3"', '"b4"', '"b5"', '"b6"', '"a\u2028b"'), ('""', "7", "true", "null"),
    ),
    "side": (('"offer"', '"request"'), ('"bid"', "1")),
    "direction": (('"up"', '"down"'), ('"sideways"',)),
    "bus": (('"3"', '"x\u2028y"'), ("3", "false", "1.5", "1" + "0" * 400)),
    "quantity_kw": NUMBER_TEXTS,
    "price_eur_per_kw": NUMBER_TEXTS,
    "conditionality": (('"conditional"', '"unconditional"'), ('"maybe"', "null")),
}
BLANK_LINES = ("", " ", "\t", "\x0c", "\u2028")
LEADING = ("", " ", "\t", "\x0c", "\ufeff")
TRAILING = ("", " ", "\t", "\r", "\x0c", " \x0c")


def rarely(draw, odds: int) -> bool:
    """True once in about ``odds`` draws; a middle value, as hypothesis favours the ends of a range."""
    return draw(st.integers(0, odds - 1)) == odds // 2


def mostly(draw, texts, odds):
    """One of ``texts``' first tuple, or of its second once in about ``odds`` draws."""
    return draw(st.sampled_from(texts[rarely(draw, odds)]))


@st.composite
def bid_record_fields(draw, odds):
    """The ``"key": value`` texts of one bid record; each flaw comes once in about ``odds``.

    A field may hold a value a valid record may not, or be missing, extra
    or repeated. A request mostly holds a conditionality, and an offer
    mostly holds none or a null one.
    """
    side = mostly(draw, BID_FIELD_TEXTS["side"], odds)
    fields = [(key, mostly(draw, BID_FIELD_TEXTS[key], odds)) for key in BID_FIELD_TEXTS]
    fields[1] = ("side", side)
    if side == '"offer"':
        conditionality = mostly(draw, (("null",), BID_FIELD_TEXTS["conditionality"][0]), odds)
        fields[-1] = ("conditionality", conditionality)
        if draw(st.booleans()):
            del fields[-1]
    if rarely(draw, odds):
        del fields[draw(st.integers(0, len(fields) - 1))]
    keys = [key for key, _ in fields]
    if rarely(draw, odds):
        fields.append(("extra", "1"))
    if rarely(draw, odds):  # a repeated key: json keeps the last value
        key = draw(st.sampled_from(keys))
        fields.append((key, mostly(draw, BID_FIELD_TEXTS[key], odds)))
    return [f'"{key}": {text}' for key, text in draw(st.permutations(fields))]


@st.composite
def bid_file_lines(draw, odds):
    """The lines one draw adds to a bid file, each without its line break.

    A line holds a record, a truncated one or two records, with space
    around it, or is blank; a record may also be split over two lines
    at one of its commas. Each but a record comes once in about ``odds``.
    """
    kind = "record" if not rarely(draw, odds) else draw(
        st.sampled_from(["truncated", "two", "split", "blank"])
    )
    if kind == "blank":
        return [draw(st.sampled_from(BLANK_LINES))]
    fields = draw(bid_record_fields(odds))
    text = "{" + ", ".join(fields) + "}"
    if kind == "truncated":
        text = text[:draw(st.integers(1, len(text) - 1))]
    elif kind == "two":
        second = "{" + ", ".join(draw(bid_record_fields(odds))) + "}"
        text += draw(st.sampled_from([" ", ", ", ""])) + second
    elif kind == "split" and len(fields) > 1:
        cut = draw(st.integers(1, len(fields) - 1))
        return ["{" + ", ".join(fields[:cut]), ", ".join(fields[cut:]) + "}"]
    return [mostly(draw, (("",), LEADING), odds) + text + mostly(draw, (("",), TRAILING), odds)]


def bid_fields(bid):
    """Every field of ``bid`` with its type, so that an ``int`` and a ``float`` quantity differ."""
    return [(type(value), value) for value in dataclasses.astuple(bid)]


def bid_file_outcome(load, path):
    """The bids ``load`` reads from ``path``, or the text of the InputError it raises."""
    try:
        return load(path)
    except InputError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(
    # A flawed file, or one whose flaws are rare enough that most of its bids load.
    lines=st.sampled_from([4, 100]).flatmap(
        lambda odds: st.lists(bid_file_lines(odds), min_size=1, max_size=4)
    ).map(lambda parts: sum(parts, [])),
    breaks=st.lists(st.sampled_from(["\n", "\n", "\r\n"]), min_size=8, max_size=8),
    final_break=st.booleans(),
)
# An otherwise valid record whose quantity is an int too large for a float.
@example(
    lines=['{"id": "b1", "side": "offer", "direction": "up", "bus": "3", "quantity_kw": 1'
           + "0" * 400 + ', "price_eur_per_kw": 0.04}'],
    breaks=["\n"] * 8,
    final_break=False,
)
# A string cut short by its line's end: json names the newline as a control character.
@example(lines=['{"id": "b1'], breaks=["\n"] * 8, final_break=True)
# A record split over two lines, then two records on one line: as many records as
# lines once the lines are joined into one list, but neither line is one record.
@example(
    lines=[
        '{"id": "b1", "side": "offer"',
        '"direction": "up", "bus": "3", "quantity_kw": 5, "price_eur_per_kw": 0.04}',
        '{"id": "b2", "side": "offer", "direction": "up", "bus": "3", "quantity_kw": 5,'
        ' "price_eur_per_kw": 0.04}, {"id": "b3", "side": "offer", "direction": "up",'
        ' "bus": "3", "quantity_kw": 5, "price_eur_per_kw": 0.04}',
    ],
    breaks=["\n"] * 8,
    final_break=True,
)
def test_load_bids_reads_a_file_as_its_definition_does(lines, breaks, final_break):
    """The same bids as per-line ``json.loads``, field rules and ``Bid``, or the same error text."""
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    if not final_break:
        text = text[: len(text) - len(breaks[len(lines) - 1])]
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "bids.jsonl")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        read = bid_file_outcome(load_bids, path)
        expected = bid_file_outcome(reference_load_bids, path)
    if isinstance(expected, str):
        assert read == expected
        return
    assert isinstance(read, list)
    assert [bid_fields(bid) for bid in read] == [bid_fields(bid) for bid in expected]
    assert all(bid.bus is twin.bus for bid, twin in zip(read, expected))
