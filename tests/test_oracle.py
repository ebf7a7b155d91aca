import numpy as np
import pytest

from flexmarket import DispatchState, MarketError, MatchRecord, UnknownBusError
from flexmarket.oracle import (
    dc_solve,
    exhaustive_subset_check,
    flow_violations,
    worst_subset_check,
)

from conftest import random_tree_network


def record(match_id, inject_bus, withdraw_bus, quantity_kw):
    return MatchRecord(
        match_id=match_id,
        offer_id="o",
        request_id="r",
        inject_bus=inject_bus,
        withdraw_bus=withdraw_bus,
        quantity_kw=quantity_kw,
        price_eur_per_kw=0.05,
        conditionality="conditional",
        round=1,
    )


class TestDcSolve:
    def test_baseline_flows(self, three_bus):
        network, dispatch = three_bus
        assert dc_solve(network, dispatch) == pytest.approx([40.0, 20.0])

    def test_zero_dispatch(self, three_bus):
        network, _ = three_bus
        zero = DispatchState({b: 0.0 for b in network.buses})
        assert dc_solve(network, zero) == pytest.approx([0.0, 0.0])

    def test_missing_bus(self, three_bus):
        network, _ = three_bus
        with pytest.raises(UnknownBusError):
            dc_solve(network, DispatchState({"1": 0.0}))

    def test_agrees_with_tree_path_superposition(self):
        # Third, purely combinatorial route: on a tree, the flow into a
        # subtree equals the negated net injection of that subtree.
        rng = np.random.default_rng(11)
        for _ in range(25):
            network, dispatch = random_tree_network(rng, max_buses=10)
            children: dict = {b: [] for b in network.buses}
            for line in network.lines:
                children[line.from_bus].append(line.to_bus)

            def subtree_injection(bus):
                return dispatch.injection_kw[bus] + sum(
                    subtree_injection(child) for child in children[bus]
                )

            expected = [-subtree_injection(line.to_bus) for line in network.lines]
            assert dc_solve(network, dispatch) == pytest.approx(expected, abs=1e-9)


class TestExhaustiveSubsetCheck:
    def test_empty_match_set_is_clean(self, three_bus):
        network, dispatch = three_bus
        assert exhaustive_subset_check(network, dispatch, []) == []

    def test_joint_overload_is_the_only_violation(self, three_bus):
        # Two individually fine exchanges overload line 1-2 when combined.
        network, dispatch = three_bus
        matches = [record("m1", "1", "2", 10.0), record("m2", "1", "2", 20.0)]
        reports = exhaustive_subset_check(network, dispatch, matches)
        assert len(reports) == 1
        assert reports[0].subset == ("m1", "m2")
        assert reports[0].violations == (("1-2", pytest.approx(10.0)),)

    def test_relief_chain_fails_without_its_enablers(self, three_bus):
        # The third match only works on top of the first two; alone (or
        # with just the first) it overloads line 2-3 by 20 kW.
        network, dispatch = three_bus
        matches = [
            record("m1", "2", "1", 20.0),
            record("m2", "3", "1", 30.0),
            record("m3", "2", "3", 20.0),
        ]
        reports = exhaustive_subset_check(network, dispatch, matches)
        assert [r.subset for r in reports] == [("m3",), ("m1", "m3")]
        for report in reports:
            assert report.violations == (("2-3", pytest.approx(20.0)),)

    def test_exact_limit_is_not_a_violation(self, three_bus):
        network, dispatch = three_bus
        assert flow_violations(network, np.array([60.0, 20.0])) == []
        assert flow_violations(network, np.array([60.0, 20.0 + 1e-3])) == [
            ("2-3", pytest.approx(1e-3))
        ]

    def test_refuses_oversized_match_sets(self, three_bus):
        network, dispatch = three_bus
        matches = [record(f"m{i}", "1", "2", 0.001) for i in range(21)]
        with pytest.raises(MarketError, match="21 matches would need 2097152 subsets"):
            exhaustive_subset_check(network, dispatch, matches)


class TestWorstSubsetCheck:
    def test_empty_match_set_is_clean(self, three_bus):
        network, dispatch = three_bus
        assert worst_subset_check(network, dispatch, []) == []

    def test_joint_overload_is_found_on_the_rising_subset(self, three_bus):
        network, dispatch = three_bus
        matches = [record("m1", "1", "2", 10.0), record("m2", "1", "2", 20.0)]
        reports = worst_subset_check(network, dispatch, matches)
        assert [r.subset for r in reports] == [("m1", "m2")]
        assert reports[0].violations == (("1-2", pytest.approx(10.0)),)

    def test_relief_chain_is_flagged_without_its_enablers(self, three_bus):
        # m3 raises line 2-3 and m2 lowers it, so the worst subset for 2-3
        # holds m3 but not m2 (m1 leaves 2-3 alone either way).
        network, dispatch = three_bus
        matches = [
            record("m1", "2", "1", 20.0),
            record("m2", "3", "1", 30.0),
            record("m3", "2", "3", 20.0),
        ]
        (report,) = worst_subset_check(network, dispatch, matches)
        assert "m3" in report.subset and "m2" not in report.subset
        assert report.violations == (("2-3", pytest.approx(20.0)),)

    def test_audits_match_sets_beyond_exhaustive_reach(self, three_bus):
        network, dispatch = three_bus
        safe = [record(f"m{i}", "1", "2", 0.5) for i in range(40)]
        assert worst_subset_check(network, dispatch, safe) == []
        unsafe = safe + [record("m40", "1", "2", 0.5)]  # 20.5 kW on 20 kW of headroom
        reports = worst_subset_check(network, dispatch, unsafe)
        assert [len(r.subset) for r in reports] == [41]
        assert reports[0].violations == (("1-2", pytest.approx(0.5)),)
