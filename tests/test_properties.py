"""Property-based checks of the grid math, the clearing invariants and the input paths."""

import contextlib
import functools
import io
import json
import math
import os
import random
import tempfile
import threading

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings, strategies as st

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
    dump_book,
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
from flexmarket.grid import ALPHA_TOL, DOWN, UP
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

from conftest import DATA

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
# Engine values are ints and finite floats; infinities and booleans take
# the writer's ``json.dumps`` fallback, and the reader refuses both.
# NaN is left out as it equals nothing.
log_numbers = st.one_of(
    st.integers(-(2 ** 53), 2 ** 53),
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(
            TradeLogEntry,
            round=st.integers(0, 2 ** 40),
            offer_id=log_ids,
            request_id=log_ids,
            quantity_kw=log_numbers,
            price_eur_per_kw=log_numbers,
            outcome=st.one_of(st.sampled_from(OUTCOMES), log_ids),
            binding_lines=st.lists(log_ids, max_size=3).map(tuple),
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
        numbers = [x for e in entries for x in (e.quantity_kw, e.price_eur_per_kw)]
        if all(type(x) is not bool and math.isfinite(x) for x in numbers):
            assert read_trade_log(path) == entries
        else:
            with pytest.raises(InputError, match="expected a (finite )?number"):
                read_trade_log(path)


# Quantities and prices a bid or match may hold: positive and finite, as
# the book checks them, and ints, floats or numpy floats.
book_numbers = st.one_of(
    st.integers(1, 2 ** 53),
    st.floats(min_value=1e-6, max_value=1e12),
    st.floats(min_value=1e-6, max_value=1e12).map(np.float64),
)


@st.composite
def dumped_books(draw):
    """A book resumed through ``OrderBook.restore`` from drawn state, odd ids included.

    Pools, accepted matches, ``seen_ids`` and the baseline may each be
    empty, and a bid may hold ``None`` where a dump leaves a field out.
    ``restore`` refuses a ``None`` original quantity, so it is set on the
    book's own bid once the book is resumed.
    """
    network, baseline = load_network(DATA / "three_bus.yaml")
    book = OrderBook(network, baseline, ALL_COMBINATIONS)
    buses = st.sampled_from(network.buses)
    resting, originals = [], {}
    for sequence, bid_id in enumerate(draw(st.lists(log_ids, unique=True, max_size=6)), 1):
        side = draw(st.sampled_from(SIDES))
        bid = Bid(
            bid_id,
            side,
            draw(st.sampled_from((UP, DOWN))),
            draw(buses),
            draw(book_numbers),
            draw(book_numbers),
            draw(st.sampled_from((CONDITIONAL, UNCONDITIONAL))) if side == REQUEST else None,
            sequence,
        )
        originals[bid_id] = draw(st.one_of(st.none(), book_numbers))
        resting.append(bid)
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
    for bid in book.requests + book.offers:
        bid.original_quantity_kw = originals[bid.id]
    if draw(st.booleans()):  # a baseline holding every kind of number the writer may meet
        book.baseline.injection_kw = draw(
            st.dictionaries(log_ids, st.one_of(log_numbers, st.floats()), max_size=4)
        )
    return book


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
