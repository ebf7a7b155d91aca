import math
import re
import warnings
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction
from operator import setitem

import numpy as np
import pytest

from flexmarket import (
    DispatchState,
    Line,
    MarketError,
    Network,
    NetworkError,
    OrderBook,
    UnknownBusError,
    build_ptdf,
    exchange_sensitivity,
    flow_rooms,
    line_flows,
    load_network,
    max_tradable_quantity,
)
from flexmarket.grid import check_baseline, finite_number
from flexmarket.market import INDIVIDUAL
from flexmarket.oracle import dc_solve

from conftest import DATA, HUGE, TOO_LONG, random_network, random_tree_network


class TestPtdf:
    def test_three_bus_rows(self, three_bus):
        network, _ = three_bus
        ptdf = build_ptdf(network)
        assert ptdf.matrix == pytest.approx(np.array([[0, -1, -1], [0, 0, -1]]), abs=1e-9)
        assert ptdf.matrix[ptdf.line_labels.index("1-2"), ptdf.bus_position("2")] == pytest.approx(-1.0)
        assert ptdf.matrix[1, ptdf.bus_position("3")] == pytest.approx(-1.0)

    def test_slack_column_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            network, _ = random_network(rng)
            ptdf = build_ptdf(network)
            assert np.allclose(ptdf.column(network.slack_bus), 0.0)

    def test_radial_entries_are_unit(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            network, _ = random_tree_network(rng, max_buses=6)
            entries = build_ptdf(network).matrix
            distance = np.min(
                np.stack([np.abs(entries - v) for v in (-1.0, 0.0, 1.0)]), axis=0
            )
            assert distance.max() < 1e-9

    def test_matches_oracle_for_any_injection(self, three_bus):
        network, _ = three_bus
        ptdf = build_ptdf(network)
        rng = np.random.default_rng(3)
        for _ in range(10):
            injections = rng.uniform(-50, 50, 3)
            injections[0] -= injections.sum()
            dispatch = DispatchState(dict(zip(network.buses, injections)))
            assert line_flows(ptdf, dispatch) == pytest.approx(
                dc_solve(network, dispatch), rel=1e-9, abs=1e-9
            )

    def test_disconnected_network_rejected(self):
        with pytest.raises(NetworkError, match="disconnected"):
            Network(
                buses=["1", "2", "3", "4"],
                lines=[Line("1", "2", 0.1, 10.0), Line("3", "4", 0.1, 10.0)],
                slack_bus="1",
            )

    @pytest.mark.parametrize(
        "reactance, limit, field",
        [
            ("0.1", 10.0, "reactance"),
            (0.1, None, "limit_kw"),
            (0.0, 10.0, "reactance"),
            (True, 10.0, "reactance"),
            (0.1, True, "limit_kw"),
            (Decimal("0.1"), 10.0, "reactance"),
            (np.True_, 10.0, "reactance"),
            (0.1, math.inf, "limit_kw"),
            pytest.param(0.1, 10 ** 400, "limit_kw", id="huge-int"),
            (np.int64(1), 10.0, "reactance"),
            (0.1, np.float32(10.0), "limit_kw"),
            (Fraction(1, 10), 10.0, "reactance"),
        ],
    )
    def test_a_line_needs_positive_numbers(self, reactance, limit, field):
        with pytest.raises(NetworkError, match=f"line 1-2: {field} must be a finite number > 0"):
            Line("1", "2", reactance, limit)

    # A bus label too long to write out in decimal, as each structural error shows it.
    @pytest.mark.parametrize(
        "buses, lines, slack, message",
        [
            ([HUGE, HUGE], [], 1, f"duplicate bus ids ['{TOO_LONG}']"),
            ([1, 2], [(1, 2)], HUGE, f"slack bus {TOO_LONG} is not a network bus"),
            ([1, 2, HUGE], [(1, 2)], 1, "unreachable buses: <list too long to show>"),
            ([1, HUGE], [(HUGE, HUGE)], 1, f"line {TOO_LONG}-{TOO_LONG} is a self-loop"),
            # These two used to raise a bare ValueError while writing a line label.
            ([1, 2], [(1, HUGE)], 1, f"line 1-{TOO_LONG} references an unknown bus"),
            ([1, HUGE], [(1, HUGE)], 1, f"bus {TOO_LONG} cannot be written as a label"),
        ],
        ids=["duplicate", "slack", "unreachable", "self-loop", "unknown-bus", "label"],
    )
    def test_a_huge_int_bus_gets_the_networks_own_error(self, buses, lines, slack, message):
        with pytest.raises(NetworkError, match=re.escape(message)):
            Network(buses, [Line(a, b, 0.1, 10.0) for a, b in lines], slack)

    def test_a_huge_int_bus_gets_the_lines_own_error(self):
        message = f"line {TOO_LONG}-2: limit_kw must be a finite number > 0"
        with pytest.raises(NetworkError, match=re.escape(message)):
            Line(HUGE, "2", 0.1, 0)

    @pytest.mark.parametrize(
        "value, admitted",
        [
            (5, True), (5.0, True), (np.float64(5.0), True), (-0.0, True),
            (True, False), (np.True_, False), (np.int64(5), False), (np.float32(5.0), False),
            (Fraction(5), False), (Decimal(5), False), ("5", False), (math.nan, False),
            (10 ** 400, False),
        ],
    )
    def test_finite_number_admits_only_what_the_files_hold(self, value, admitted):
        assert finite_number(value) is admitted

    @pytest.mark.parametrize("reactance", [1.0e-320, np.float64(1.0e-320)], ids=["float", "float64"])
    def test_a_non_finite_ptdf_is_refused_without_warnings(self, reactance):
        network = Network(
            buses=["1", "2", "3"],
            lines=[Line("1", "2", reactance, 60.0), Line("2", "3", 0.1, 20.0)],
            slack_bus="1",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NetworkError, match="non-finite"):
                build_ptdf(network)

    def test_meshed_network_supported(self):
        network = Network(
            buses=["1", "2", "3"],
            lines=[Line("1", "2", 0.2, 50.0), Line("2", "3", 0.2, 50.0), Line("1", "3", 0.2, 50.0)],
            slack_bus="1",
        )
        dispatch = DispatchState({"1": 30.0, "2": -15.0, "3": -15.0})
        assert line_flows(build_ptdf(network), dispatch) == pytest.approx(
            dc_solve(network, dispatch), rel=1e-9, abs=1e-9
        )


def meshed_three_bus():
    return Network(
        buses=["1", "2", "3"],
        lines=[Line("1", "2", 0.2, 50.0), Line("2", "3", 0.2, 50.0), Line("1", "3", 0.2, 50.0)],
        slack_bus="1",
    )


class TestPtdfSharing:
    """Each network's PTDF is solved once; the network cannot change under it."""

    def test_a_network_gets_one_write_locked_matrix(self):
        network = meshed_three_bus()
        ptdf = build_ptdf(network)
        assert build_ptdf(network) is ptdf
        assert not ptdf.matrix.flags.writeable
        with pytest.raises(ValueError):
            ptdf.matrix[0, 1] = 0.5
        assert build_ptdf(network) is ptdf

    def test_a_column_is_a_read_only_contiguous_row(self):
        ptdf = build_ptdf(meshed_three_bus())
        for position, bus in enumerate(ptdf.buses):
            column = ptdf.column(bus)
            assert column.flags.c_contiguous and not column.flags.writeable
            assert column.tobytes() == np.ascontiguousarray(ptdf.matrix[:, position]).tobytes()

    def test_an_equal_network_gets_its_own_solve(self):
        first, second = meshed_three_bus(), meshed_three_bus()
        assert build_ptdf(first) is not build_ptdf(second)
        assert (build_ptdf(first).matrix == build_ptdf(second).matrix).all()

    @pytest.mark.parametrize(
        "change, error",
        [
            pytest.param(
                lambda n: setitem(n.lines, 1, Line("2", "3", 0.05, 50.0)), TypeError,
                id="replace a line",
            ),
            pytest.param(
                lambda n: n.lines.append(Line("1", "3", 0.1, 5.0)), AttributeError,
                id="append a line",
            ),
            pytest.param(
                lambda n: n.lines.append(Line("1", "9", 0.1, 5.0)), AttributeError,
                id="append a line to an unknown bus",
            ),
            pytest.param(
                lambda n: setattr(n, "lines", [*n.lines, Line("1", "3", 0.1, 1.0)]),
                FrozenInstanceError,
                id="assign new lines",
            ),
            pytest.param(
                lambda n: setattr(n, "slack_bus", "2"), FrozenInstanceError, id="move the slack"
            ),
            pytest.param(
                lambda n: setattr(n, "line_labels", ("1-2",)), FrozenInstanceError,
                id="assign labels",
            ),
            pytest.param(lambda n: setitem(n.limits, 1, 1.0), ValueError, id="lower a limit"),
        ],
    )
    def test_a_network_cannot_change_once_built(self, change, error):
        network, baseline = load_network(DATA / "three_bus.yaml")
        ptdf = build_ptdf(network)
        with pytest.raises(error):
            change(network)
        assert network == load_network(DATA / "three_bus.yaml")[0]
        assert build_ptdf(network) is ptdf
        assert network.line_labels == ptdf.line_labels == ("1-2", "2-3")
        assert network.limits.tolist() == [line.limit_kw for line in network.lines] == [60, 20]
        assert ptdf.matrix.shape == (len(network.lines), len(network.buses))
        assert check_baseline(network, baseline) == pytest.approx([40.0, 20.0])


class TestLineFlows:
    def test_baseline(self, three_bus):
        network, dispatch = three_bus
        assert line_flows(build_ptdf(network), dispatch) == pytest.approx([40.0, 20.0])

    def test_zero_dispatch(self, three_bus):
        network, _ = three_bus
        zero = DispatchState({b: 0.0 for b in network.buses})
        assert line_flows(build_ptdf(network), zero) == pytest.approx([0.0, 0.0])

    def test_missing_bus_entry(self, three_bus):
        network, _ = three_bus
        with pytest.raises(UnknownBusError, match="bus '3'"):
            line_flows(build_ptdf(network), DispatchState({"1": 0.0, "2": 0.0}))


class TestHeadroom:
    """``flow_rooms`` gives each line's headroom: how far its flow may rise and fall."""

    @pytest.mark.parametrize(
        "limit, flow, up, down",
        [
            (20.0, 20.0, 0.0, -40.0),
            (60.0, 0.0, 60.0, -60.0),
            (60.0, 40.0, 20.0, -100.0),
            (60.0, -40.0, 100.0, -20.0),
        ],
    )
    def test_margins(self, limit, flow, up, down):
        # ``down`` is the signed flow change that takes the line to -limit.
        up_room, down_room = flow_rooms(np.array([flow]), np.array([limit]))
        assert up_room.tolist() == [up]
        assert down_room.tolist() == [-down]

    @pytest.mark.parametrize("flow, up, down", [(15.0, 0.0, 25.0), (-15.0, 25.0, 0.0)])
    def test_overloaded_line_has_no_room(self, flow, up, down):
        up_room, down_room = flow_rooms(np.array([flow]), np.array([10.0]))
        assert up_room.tolist() == [up]
        assert down_room.tolist() == [down]


class TestExchangeSensitivity:
    def test_adjacent_pair(self, three_bus):
        network, _ = three_bus
        alpha = exchange_sensitivity(build_ptdf(network), "2", "1")
        assert alpha == pytest.approx([-1.0, 0.0], abs=1e-9)

    def test_same_bus_is_zero(self, three_bus):
        network, _ = three_bus
        alpha = exchange_sensitivity(build_ptdf(network), "2", "2")
        assert alpha.tolist() == [0.0, 0.0]

    def test_far_pair(self, three_bus):
        network, _ = three_bus
        ptdf = build_ptdf(network)
        alpha = exchange_sensitivity(ptdf, "3", "1")
        assert alpha == pytest.approx([-1.0, -1.0], abs=1e-9)
        # The reverse exchange moves every line the other way, bit for bit.
        assert (exchange_sensitivity(ptdf, "1", "3") == -alpha).all()

    def test_unknown_bus(self, three_bus):
        network, _ = three_bus
        with pytest.raises(UnknownBusError, match="'9'"):
            exchange_sensitivity(build_ptdf(network), "9", "1")
        with pytest.raises(UnknownBusError, match="'9'"):
            exchange_sensitivity(build_ptdf(network), "1", "9")


class TestMaxTradableQuantity:
    def test_saturated_line_blocks_exchange(self, three_bus):
        network, dispatch = three_bus
        assert max_tradable_quantity(network, dispatch, "2", "3", "down", 20.0) == 0.0

    def test_flow_reducing_exchange_passes_in_full(self, three_bus):
        network, dispatch = three_bus
        assert max_tradable_quantity(network, dispatch, "1", "3", "up", 30.0) == 30.0

    def test_partial_cap_from_headroom(self, three_bus):
        network, dispatch = three_bus
        assert max_tradable_quantity(network, dispatch, "2", "1", "up", 30.0) == 20.0

    def test_same_bus_pair_is_unconstrained(self, three_bus):
        network, dispatch = three_bus
        assert max_tradable_quantity(network, dispatch, "2", "2", "up", 55.0) == 55.0

    def test_invalid_inputs(self, three_bus):
        network, dispatch = three_bus
        with pytest.raises(MarketError, match="quantity_kw must be a finite number > 0"):
            max_tradable_quantity(network, dispatch, "2", "3", "down", 0.0)
        with pytest.raises(MarketError, match="candidate quantity must be a finite number > 0"):
            OrderBook(network, dispatch, INDIVIDUAL).check_combination_feasibility(
                "2", "3", "down", 0.0
            )
        with pytest.raises(UnknownBusError):
            max_tradable_quantity(network, dispatch, "2", "9", "down", 5.0)
        with pytest.raises(MarketError, match="unknown direction 'sideways'"):
            max_tradable_quantity(network, dispatch, "2", "3", "sideways", 5.0)

    def test_monotone_in_line_limits(self, three_bus):
        network, dispatch = three_bus
        quantities = []
        for limit in (60.0, 40.0, 25.0):
            shrunk = Network(
                buses=list(network.buses),
                lines=[Line("1", "2", 0.1, limit), Line("2", "3", 0.1, 20.0)],
                slack_bus="1",
            )
            quantities.append(max_tradable_quantity(shrunk, dispatch, "2", "1", "up", 30.0))
        assert quantities == sorted(quantities, reverse=True)

    @pytest.mark.parametrize(
        "headroom, request_bus, offer_bus, direction, quantity, expected",
        [
            # Bus 3 to bus 2 eases line 2-3: 1e-7 kW fits in full, below QUANTITY_TOL.
            (0.0, "2", "3", "up", 1e-7, 1e-7),
            # Bus 2 to bus 3 loads line 2-3, which has 5e-7 kW of room left:
            # a larger request is capped below QUANTITY_TOL, so nothing clears,
            (5e-7, "2", "3", "down", 1e-3, 0.0),
            # while a request that fits in that room clears in full.
            (5e-7, "2", "3", "down", 1e-7, 1e-7),
        ],
    )
    def test_agrees_with_the_order_book_below_tolerance(
        self, three_bus, headroom, request_bus, offer_bus, direction, quantity, expected
    ):
        network, _ = three_bus
        dispatch = DispatchState({"1": 40.0 - headroom, "2": -20.0, "3": -20.0 + headroom})
        book = OrderBook(network, dispatch, INDIVIDUAL)
        grid_quantity = max_tradable_quantity(
            network, dispatch, request_bus, offer_bus, direction, quantity
        )
        book_quantity = book.check_combination_feasibility(
            request_bus, offer_bus, direction, quantity
        )
        assert grid_quantity == book_quantity == expected

    def test_clamps_to_request_when_limits_are_huge(self, three_bus):
        network, dispatch = three_bus
        huge = Network(
            buses=list(network.buses),
            lines=[Line("1", "2", 0.1, 1e12), Line("2", "3", 0.1, 1e12)],
            slack_bus="1",
        )
        assert max_tradable_quantity(huge, dispatch, "2", "3", "down", 37.5) == 37.5
