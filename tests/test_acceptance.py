"""Acceptance suite.

Each criterion is one test that prints a single PASS line with its key
figures; run ``pytest tests/test_acceptance.py -v -s`` to see them. The
slow randomized criteria use fixed seeds so the suite is reproducible.
"""

import json
import time

import numpy as np
import pytest

from flexmarket import (
    DispatchState,
    MarketConfig,
    OrderBook,
    build_ptdf,
    exchange_buses,
    line_flows,
    load_bids,
    load_book,
    load_network,
    max_tradable_quantity,
    run_replay,
    trade_log_lines,
)
from flexmarket.market import (
    ALL_COMBINATIONS,
    OUTCOME_MATCHED,
    OUTCOME_PARTIAL,
    OUTCOME_REJECTED_CONGESTION,
)
from flexmarket.cli import main
from flexmarket.oracle import (
    dc_solve,
    exhaustive_subset_check,
    flow_violations,
    worst_subset_check,
)

from conftest import DATA, GOLDEN, random_bid_stream, random_network

TOLERANCE_KW = 1e-6


def replay(network_file, bids_file, policy, **kwargs):
    config = MarketConfig(policy=policy, **kwargs)
    start = time.perf_counter()
    book = run_replay(DATA / network_file, DATA / bids_file, config)
    return book, time.perf_counter() - start


def fills(entries):
    return [
        (e.offer_id, e.request_id, e.quantity_kw)
        for e in entries
        if e.outcome in (OUTCOME_MATCHED, OUTCOME_PARTIAL)
    ]


def test_a1_individual_policy_admits_a_jointly_infeasible_pair():
    book, elapsed = replay("three_bus.yaml", "bids_joint_overload.jsonl", "individual")
    assert [m.quantity_kw for m in book.accepted] == [10.0, 20.0]

    reports = exhaustive_subset_check(book.network, book.baseline, book.accepted)
    assert len(reports) == 1
    assert set(reports[0].subset) == {m.match_id for m in book.accepted}
    ((line, overload),) = reports[0].violations
    assert line == "1-2" and overload == pytest.approx(10.0, abs=1e-9)
    activated = book.activation_snapshot(reports[0].subset)
    flows = dict(zip(book.network.line_labels, dc_solve(book.network, activated)))
    assert flows["1-2"] == pytest.approx(70.0, abs=1e-9)

    assert elapsed < 1.0
    print(
        f"\nA1: PASS - individual policy filled 10+20 kW; the only unsafe subset "
        f"is both together, line 1-2 at 70 of 60 kW ({elapsed:.3f}s)"
    )


def test_a2_cumulative_accepts_the_relief_chain_all_combinations_caps_it():
    cumulative, t1 = replay("three_bus.yaml", "bids_congestion_relief.jsonl", "cumulative")
    assert [m.quantity_kw for m in cumulative.accepted] == [20.0, 30.0, 20.0]

    exhaustive, t2 = replay("three_bus.yaml", "bids_congestion_relief.jsonl", "all")
    assert [m.quantity_kw for m in exhaustive.accepted] == [20.0, 30.0]
    last = exhaustive.trade_log[-1]
    assert last.outcome == OUTCOME_REJECTED_CONGESTION
    assert last.quantity_kw < 20.0
    assert last.binding_lines == ("2-3",)

    assert t1 < 1.0 and t2 < 1.0
    print(
        f"\nA2: PASS - cumulative cleared 20/30/20 kW; all_combinations capped the "
        f"third at {last.quantity_kw:g} kW on line 2-3 ({t1 + t2:.3f}s)"
    )


def test_a3_unconditional_requests_trigger_reevaluation():
    book, elapsed = replay("three_bus.yaml", "bids_reevaluation.jsonl", "all")
    entries = book.trade_log
    assert len(entries) == 3
    assert entries[0].outcome == OUTCOME_REJECTED_CONGESTION
    assert entries[0].binding_lines == ("2-3",)
    assert (entries[1].outcome, entries[1].quantity_kw) == (OUTCOME_MATCHED, 30.0)
    assert (entries[2].outcome, entries[2].quantity_kw) == (OUTCOME_MATCHED, 20.0)
    assert (entries[2].offer_id, entries[2].request_id) == ("offer1", "req2")
    assert entries[1].round == entries[2].round  # re-evaluation shares the round

    assert elapsed < 1.0
    print(
        f"\nA3: PASS - congestion rejection, 30 kW match, then the booked offer "
        f"cleared 20 kW on re-evaluation ({elapsed:.3f}s)"
    )


# ----------------------------------------------------------------------
# brute-force reference for the 15-bus replay: integer quantity search,
# subset enumeration and oracle flows; no sensitivity matrices involved.


def reference_replay(network, baseline, bids, tolerance=TOLERANCE_KW):
    remaining = {b.id: b.quantity_kw for b in bids}
    dispatch = baseline.copy()
    accepted = []  # (inject_bus, withdraw_bus, quantity) of conditional matches
    resting = []
    trades = []

    def feasible(trial):
        flows = dc_solve(network, trial)
        return all(
            abs(f) <= line.limit_kw + tolerance for f, line in zip(flows, network.lines)
        )

    def largest_safe_quantity(request, offer):
        inject, withdraw = exchange_buses(request.bus, offer.bus, request.direction)
        cap = int(round(min(remaining[request.id], remaining[offer.id])))
        best = 0
        for quantity in range(1, cap + 1):
            for mask in range(1 << len(accepted)):
                trial = dispatch.copy()
                for bit, (m, n, q) in enumerate(accepted):
                    if mask >> bit & 1:
                        trial.apply_exchange(m, n, q)
                trial.apply_exchange(inject, withdraw, float(quantity))
                if not feasible(trial):
                    return best, inject, withdraw
            best = quantity
        return best, inject, withdraw

    def scan(incoming):
        found_unconditional = False
        for other in resting:
            if remaining[incoming.id] <= 0:
                break
            if other.side == incoming.side or other.direction != incoming.direction:
                continue
            if remaining[other.id] <= 0:
                continue
            offer, request = (incoming, other) if incoming.side == "offer" else (other, incoming)
            if offer.price_eur_per_kw > request.price_eur_per_kw:
                continue
            quantity, inject, withdraw = largest_safe_quantity(request, offer)
            if quantity <= 0:
                continue
            remaining[offer.id] -= quantity
            remaining[request.id] -= quantity
            trades.append((offer.id, request.id, float(quantity)))
            if request.conditionality == "unconditional":
                dispatch.apply_exchange(inject, withdraw, float(quantity))
                found_unconditional = True
            else:
                accepted.append((inject, withdraw, float(quantity)))
        return found_unconditional

    for bid in bids:
        resting.append(bid)
        if scan(bid):
            while True:
                offers = [b for b in resting if b.side == "offer" and remaining[b.id] > 0]
                if not any([scan(offer) for offer in offers]):
                    break
    return trades, remaining


EXPECTED_FIFTEEN_BUS_FILLS = [
    ("offer1", "req1", 30.0),
    ("offer2", "req2", 10.0),
    ("offer2", "req3", 10.0),
    ("offer4", "req4", 20.0),
    ("offer5", "req3", 10.0),
    ("offer5", "req5", 10.0),
    ("offer6", "req6", 30.0),
]


def test_a4_fifteen_bus_replay_reproduces_the_expected_rounds():
    book, elapsed = replay("fifteen_bus.yaml", "bids_fifteen_bus.jsonl", "all")
    assert elapsed < 2.0

    assert fills(book.trade_log) == EXPECTED_FIFTEEN_BUS_FILLS
    partial = [e for e in book.trade_log if e.outcome == OUTCOME_PARTIAL]
    assert [(e.offer_id, e.request_id) for e in partial] == [("offer2", "req3")]
    rejected = [e for e in book.trade_log if e.outcome == OUTCOME_REJECTED_CONGESTION]
    assert [(e.offer_id, e.request_id) for e in rejected] == [
        ("offer2", "req5"),
        ("offer3", "req3"),
        ("offer3", "req5"),
    ]
    assert all(e.binding_lines for e in rejected + partial)
    assert {b.id: b.quantity_kw for b in book.offers} == {
        "offer2": 20.0,
        "offer3": 30.0,
        "offer5": 20.0,
        "offer6": 10.0,
    }
    assert book.requests == []

    golden = (GOLDEN / "fifteen_bus.trades.jsonl").read_text()
    assert "\n".join(trade_log_lines(book.trade_log)) + "\n" == golden

    # independent confirmation by brute force on the oracle
    network, baseline = load_network(DATA / "fifteen_bus.yaml")
    reference_trades, reference_remaining = reference_replay(
        network, baseline, load_bids(DATA / "bids_fifteen_bus.jsonl")
    )
    assert reference_trades == EXPECTED_FIFTEEN_BUS_FILLS
    assert {k: v for k, v in reference_remaining.items() if v > 0} == {
        "offer2": 20.0,
        "offer3": 30.0,
        "offer5": 20.0,
        "offer6": 10.0,
    }

    # and the cleared state is activation-safe
    assert exhaustive_subset_check(book.network, book.baseline, book.accepted) == []
    print(
        f"\nA4: PASS - 15-bus replay matches the expected log byte for byte and the "
        f"brute-force reference agrees ({elapsed:.3f}s)"
    )


def test_a4_rejections_are_reproducible():
    # Re-running the network check for each congestion rejection, on the
    # book state right after the event that logged it, yields zero.
    network, baseline = load_network(DATA / "fifteen_bus.yaml")
    bids = {b.id: b for b in load_bids(DATA / "bids_fifteen_bus.jsonl")}
    book = OrderBook(network, baseline, ALL_COMBINATIONS)
    checked = 0
    for bid in bids.values():
        seen = len(book.trade_log)
        matches = book.submit_bid(bid)
        if any(m.conditionality == "unconditional" for m in matches):
            continue  # the baseline moved after the rejection was logged
        for entry in book.trade_log[seen:]:
            if entry.outcome != OUTCOME_REJECTED_CONGESTION:
                continue
            offer, request = bids[entry.offer_id], bids[entry.request_id]
            quantity = min(max(offer.quantity_kw, 1.0), max(request.quantity_kw, 1.0))
            assert (
                book.check_combination_feasibility(
                    request.bus, offer.bus, request.direction, quantity
                )
                == 0.0
            )
            checked += 1
    assert checked == 3
    print(f"\nA4b: PASS - all {checked} congestion rejections re-derive to 0 kW")


def test_a5_partial_activations_never_violate_limits():
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    trials = 0
    while trials < 10_000:
        network, base = random_network(rng, max_buses=15)
        for _ in range(20):
            scale = rng.uniform(-1.0, 1.0)  # scaled baselines stay feasible
            dispatch = DispatchState({b: scale * v for b, v in base.injection_kw.items()})
            request_bus, offer_bus = rng.choice(network.buses, size=2)
            direction = "up" if rng.random() < 0.5 else "down"
            quantity = float(rng.uniform(1.0, 150.0))
            allowed = max_tradable_quantity(
                network, dispatch, request_bus, offer_bus, direction, quantity
            )
            assert 0.0 <= allowed <= quantity
            inject, withdraw = exchange_buses(request_bus, offer_bus, direction)
            dispatch.apply_exchange(inject, withdraw, rng.uniform(0.0, allowed))
            assert flow_violations(network, dc_solve(network, dispatch)) == []
            trials += 1
    elapsed = time.perf_counter() - start
    print(f"\nA5: PASS - {trials} random partial activations, zero violations ({elapsed:.1f}s)")


def test_a6_all_combinations_clearing_is_activation_safe():
    rng = np.random.default_rng(1337)
    start = time.perf_counter()
    instances = 0
    accepted_counts = []
    while instances < 200:
        network, base = random_network(rng, max_buses=15)
        book = OrderBook(network, base, ALL_COMBINATIONS)
        for bid in random_bid_stream(rng, network, n_bids=14):
            book.submit_bid(bid)
            if len(book.accepted) >= 10:
                break
        if len(book.accepted) > 10:
            continue  # draw a fresh instance; the criterion wants at most ten
        assert exhaustive_subset_check(network, book.baseline, book.accepted) == []
        accepted_counts.append(len(book.accepted))
        instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nA6: PASS - {instances} cleared instances (mean {np.mean(accepted_counts):.1f} "
        f"conditional matches) audit clean ({elapsed:.1f}s)"
    )


def test_a7_engine_flows_agree_with_the_oracle():
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(1000):
        network, base = random_network(rng, max_buses=15)
        scale = rng.uniform(-1.0, 1.0)
        dispatch = DispatchState({b: scale * v for b, v in base.injection_kw.items()})
        engine = line_flows(build_ptdf(network), dispatch)
        oracle = dc_solve(network, dispatch)
        error = np.max(np.abs(engine - oracle)) / max(1.0, np.max(np.abs(oracle)))
        worst = max(worst, float(error))
    assert worst <= 1e-9
    print(f"\nA7: PASS - 1000 instances, max relative flow error {worst:.2e}")


def test_a8_every_trade_prices_at_the_earlier_bid():
    # In all four replay fixtures every request arrives before the offers
    # it trades with, so the earlier-arriving bid is always the request.
    scenarios = [
        ("three_bus.yaml", "bids_joint_overload.jsonl", "individual"),
        ("three_bus.yaml", "bids_congestion_relief.jsonl", "cumulative"),
        ("three_bus.yaml", "bids_reevaluation.jsonl", "all"),
        ("fifteen_bus.yaml", "bids_fifteen_bus.jsonl", "all"),
    ]
    for network_file, bids_file, policy in scenarios:
        book, _ = replay(network_file, bids_file, policy)
        request_prices = {
            b.id: b.price_eur_per_kw for b in load_bids(DATA / bids_file) if b.side == "request"
        }
        trades = [e for e in book.trade_log if e.outcome in (OUTCOME_MATCHED, OUTCOME_PARTIAL)]
        assert trades, bids_file
        for entry in trades:
            assert entry.price_eur_per_kw == request_prices[entry.request_id]

    fifteen, _ = replay("fifteen_bus.yaml", "bids_fifteen_bus.jsonl", "all")
    priced = {}
    for entry in fifteen.trade_log:
        if entry.outcome in (OUTCOME_MATCHED, OUTCOME_PARTIAL):
            priced.setdefault(entry.request_id, entry.price_eur_per_kw)
    assert priced == {
        "req1": 0.042,
        "req2": 0.044,
        "req3": 0.041,
        "req4": 0.041,
        "req5": 0.040,
        "req6": 0.037,
    }
    print("\nA8: PASS - pay-as-bid prices all set by the earlier bid (0.042/0.044/0.041/0.041/0.040/0.037)")


def test_a9_trade_logs_are_byte_identical_across_runs():
    logs = set()
    for _ in range(5):
        book, _ = replay("fifteen_bus.yaml", "bids_fifteen_bus.jsonl", "all")
        logs.add("\n".join(trade_log_lines(book.trade_log)) + "\n")
    assert len(logs) == 1
    assert logs.pop() == (GOLDEN / "fifteen_bus.trades.jsonl").read_text()
    print("\nA9: PASS - 5 replays produced one identical log")


def conditional_stream(rng, n_bids):
    """Alternating conditional requests and offers, 4-11 kW, prices that cross."""
    records = []
    for i in range(n_bids):
        side = "request" if i % 2 == 0 else "offer"
        record = {
            "id": f"b{i + 1}",
            "side": side,
            "direction": "up" if rng.random() < 0.5 else "down",
            "bus": int(rng.integers(2, 16)),
            "quantity_kw": float(rng.integers(4, 12)),
        }
        if side == "request":
            record["price_eur_per_kw"] = float(rng.integers(40, 50)) / 1000
            record["conditionality"] = "conditional"
        else:
            record["price_eur_per_kw"] = float(rng.integers(25, 40)) / 1000
        records.append(record)
    return records


def test_a10_all_combinations_scales_past_forty_conditional_matches(tmp_path, capsys):
    bids = tmp_path / "bids.jsonl"
    records = conditional_stream(np.random.default_rng(1), n_bids=80)
    bids.write_text("".join(json.dumps(r) + "\n" for r in records))
    network_path = str(DATA / "fifteen_bus.yaml")
    out = tmp_path / "out"

    start = time.perf_counter()
    args = ["run", "--network", network_path, "--bids", str(bids), "--policy", "all"]
    assert main(args + ["--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    network, _ = load_network(DATA / "fifteen_bus.yaml")
    book = load_book(out / "book.json", network, MarketConfig())
    log = (out / "trades.jsonl").read_text()
    assert len(book.accepted) >= 40
    assert OUTCOME_REJECTED_CONGESTION in log  # the network check did bind

    assert worst_subset_check(network, book.baseline, book.accepted) == []
    capsys.readouterr()
    check = ["check", "--network", network_path]
    assert main(check + ["--bids", str(bids), "--trades", str(out / "trades.jsonl")]) == 0
    assert "audit clean" in capsys.readouterr().out
    assert elapsed < 5.0
    with capsys.disabled():
        print(
            f"\nA10: PASS - {len(book.accepted)} conditional matches cleared under "
            f"all_combinations; worst-subset audit and check's trade-log audit clean ({elapsed:.2f}s)"
        )
