"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest bench
"""

import audit
import run
import tracing
import workloads
from flexmarket import Bid, fileio, market


def three_bus_book(policy="cumulative"):
    network, baseline = fileio.load_network(run.DATA / "three_bus.yaml")
    return fileio.new_book(network, baseline, fileio.MarketConfig(policy=policy))


def test_a_raising_submission_is_counted_and_the_replay_goes_on():
    book = three_bus_book()
    bids = [
        Bid("o1", "offer", "up", "3", 10.0, 0.03),
        Bid("o1", "offer", "up", "2", 5.0, 0.03),  # duplicate id: submit_bid raises
        Bid("r1", "request", "up", "2", 10.0, 0.05, "conditional"),
    ]
    replay = run.Replay()
    failed_ids = run.submit_all(book, bids, replay)

    assert replay.failures == {"MarketError": 1}
    assert "duplicate bid id" in replay.tracebacks["MarketError"]
    assert failed_ids == {"o1"}
    assert replay.attempted == 3 and len(replay.samples) == 2
    assert book.match_count == 1  # the bid after the failure still cleared
    assert audit.trade_log(book, bids, failed_ids) == []


def test_the_same_seed_gives_the_same_inputs():
    workload = workloads.WORKLOADS["mixed-reeval"]
    first = workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) == first
    assert workloads.generate(workload, 8) != first


def test_tracing_counts_calls_and_restores_the_engine():
    original = market.OrderBook.submit_bid
    book = three_bus_book()
    tracer = tracing.Tracer()
    with tracer.installed():
        book.submit_bid(Bid("r1", "request", "up", "2", 10.0, 0.05, "conditional"))
        book.submit_bid(Bid("o1", "offer", "up", "3", 10.0, 0.03))
    assert market.OrderBook.submit_bid is original

    spans = tracer.summary()
    assert spans["market.submit_bid"]["calls"] == 2
    assert spans["grid.quantity_caps"]["calls"] == 1
    assert tracer.delta_rows_read == 0  # nothing was accepted before the check
    for entry in spans.values():
        assert 0 <= entry["self_s"] <= entry["s"]


def test_the_audit_reports_an_overloaded_baseline_and_stale_flows():
    book = three_bus_book()
    assert audit.network_state(book, accepted_too=True) == []
    book.baseline.apply_exchange("1", "3", 5.0)  # line 2-3 to 25 kW of 20, behind the book's back
    errors = audit.network_state(book, accepted_too=True)
    assert any("overloads 2-3 by 5" in e for e in errors)
    assert any("cached baseline flows differ" in e for e in errors)
