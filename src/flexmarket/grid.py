"""DC network model for locational flexibility trading.

Line flows are linear in the nodal injections, so everything the
clearing engine needs from the grid reduces to one sensitivity matrix:
the power transfer distribution factors (PTDFs). Each entry gives the
change in a line flow per kW injected at a bus and withdrawn at the
slack. From it we derive current flows, the sensitivity of every line
to a bus-to-bus exchange, each line's room for a flow rise and a flow
fall, the lines whose rooms are small enough to refuse an exchange, the
per-line cap those rooms put on an exchange, and the largest exchange
quantity that keeps all lines within their limits.

A :class:`Network` cannot change once built. All functions here are pure
apart from :func:`build_ptdf`, which keeps each network's PTDF on it
after the first solve; :class:`PtdfMatrix` is write-locked, so a network
and its matrix are safe to share between threads and order books.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional

import numpy as np

from .errors import InfeasibleBaselineError, MarketError, NetworkError, UnknownBusError, shown

UP = "up"
DOWN = "down"

#: Sensitivities smaller than this are treated as exactly zero.
ALPHA_TOL = 1e-9
#: Quantities and flow margins below this many kW are treated as zero.
QUANTITY_TOL = 1e-6


def finite_number(value) -> bool:
    """Whether ``value`` is a finite number, the one rule of every numeric gate.

    Only what the file formats and writers hold passes: a ``float`` (``numpy.float64``
    included) or an ``int`` that fits a float, never a bool.
    """
    # The exact-type test first spares a float or an int the subclass check.
    if type(value) in (float, int) or isinstance(value, float):
        try:
            return math.isfinite(value)
        except OverflowError:  # an int too large for a float
            pass
    return False


@dataclass(frozen=True)
class Line:
    """One branch of the distribution grid.

    Positive flow runs from ``from_bus`` toward ``to_bus``. ``reactance``
    is per-unit; ``limit_kw`` is the thermal limit in kW, applied
    symmetrically to both flow directions. Each must be a :func:`finite_number`
    (a float or an int) above zero, or the line raises :class:`NetworkError`.
    """

    from_bus: Hashable
    to_bus: Hashable
    reactance: float
    limit_kw: float

    def __post_init__(self) -> None:
        if self.from_bus == self.to_bus:
            raise NetworkError(f"line {self.label} is a self-loop")
        for name in ("reactance", "limit_kw"):
            if not (finite_number(value := getattr(self, name)) and value > 0):
                raise NetworkError(
                    f"line {self.label}: {name} must be a finite number > 0, got {shown(value)}"
                )

    @property
    def label(self) -> str:
        return f"{shown(self.from_bus, str)}-{shown(self.to_bus, str)}"


@dataclass(frozen=True)
class Network:
    """Buses, lines and the slack bus of a radial or meshed grid; immutable.

    ``line_labels`` and the write-locked ``limits`` (kW) follow the order
    of ``lines``, as the rows of the network's PTDF do.
    """

    buses: tuple
    lines: tuple
    slack_bus: Hashable
    line_labels: tuple = field(init=False, repr=False)
    limits: np.ndarray = field(init=False, compare=False, repr=False)
    # The PtdfMatrix, once build_ptdf has solved it.
    _ptdf: Optional[PtdfMatrix] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "lines", tuple(self.lines))
        if len(set(self.buses)) != len(self.buses):
            repeated = sorted({shown(b, str) for b in self.buses if self.buses.count(b) > 1})
            raise NetworkError(f"duplicate bus ids {repeated}")
        if not self.lines:
            raise NetworkError("a network needs at least one line")
        bus_set = set(self.buses)
        if self.slack_bus not in bus_set:
            raise NetworkError(f"slack bus {shown(self.slack_bus)} is not a network bus")
        for line in self.lines:
            if line.from_bus not in bus_set or line.to_bus not in bus_set:
                raise NetworkError(f"line {line.label} references an unknown bus")
        self._check_connected()
        for bus in self.buses:
            try:
                str(bus)  # every bus is written into the line labels
            except ValueError:  # an int too long to write out
                raise NetworkError(f"bus {shown(bus, str)} cannot be written as a label") from None
        labels = []
        seen: dict = {}
        for line in self.lines:
            base = line.label
            seen[base] = seen.get(base, 0) + 1
            labels.append(base if seen[base] == 1 else f"{base}#{seen[base]}")
        limits = np.array([line.limit_kw for line in self.lines], dtype=float)
        limits.setflags(write=False)
        object.__setattr__(self, "line_labels", tuple(labels))
        object.__setattr__(self, "limits", limits)

    def _check_connected(self) -> None:
        adjacency: dict = {b: [] for b in self.buses}
        for line in self.lines:
            adjacency[line.from_bus].append(line.to_bus)
            adjacency[line.to_bus].append(line.from_bus)
        reached = {self.slack_bus}
        frontier = [self.slack_bus]
        while frontier:
            bus = frontier.pop()
            for other in adjacency[bus]:
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        missing = [b for b in self.buses if b not in reached]
        if missing:
            raise NetworkError(f"network is disconnected; unreachable buses: {shown(missing)}")


@dataclass
class DispatchState:
    """Net injection per bus in kW. Generation is positive, load negative."""

    injection_kw: dict

    def copy(self) -> "DispatchState":
        return DispatchState(dict(self.injection_kw))

    def vector(self, buses: Iterable) -> np.ndarray:
        try:
            return np.array([self.injection_kw[b] for b in buses], dtype=float)
        except KeyError as exc:
            raise UnknownBusError(f"dispatch has no entry for bus {shown(exc.args[0])}") from None

    def apply_exchange(self, inject_bus, withdraw_bus, quantity_kw: float) -> None:
        """Add ``quantity_kw`` at the injection bus and remove it at the withdrawal bus."""
        try:
            self.injection_kw[inject_bus] += quantity_kw
            self.injection_kw[withdraw_bus] -= quantity_kw
        except KeyError as exc:
            raise UnknownBusError(f"dispatch has no entry for bus {shown(exc.args[0])}") from None


@dataclass(frozen=True)
class PtdfMatrix:
    """Line-by-bus sensitivity matrix for a fixed slack bus.

    Each entry of ``matrix``, in rows of ``line_labels`` and columns of
    ``buses``, is the flow change on the line, in kW per kW injected at
    the bus and withdrawn at the slack. The slack column is identically
    zero. For a purely radial network every entry is in {-1, 0, +1}.
    A write-locked, C-contiguous copy of the columns, one row per bus,
    serves :meth:`column` and the order book's blocks of caps, so the
    sensitivities a network check forms are read from contiguous memory.
    ``alpha_bound`` is twice the largest entry magnitude: no exchange
    sensitivity, one column minus another, exceeds it on any line.
    """

    matrix: np.ndarray
    buses: tuple
    line_labels: tuple
    alpha_bound: float = field(init=False, repr=False, compare=False)
    _positions: dict = field(init=False, repr=False, compare=False)
    _by_bus: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_positions", {b: i for i, b in enumerate(self.buses)})
        by_bus = np.ascontiguousarray(self.matrix.T)
        by_bus.setflags(write=False)
        object.__setattr__(self, "_by_bus", by_bus)
        # From the two extremes, without an |matrix| temporary the size of the PTDF. Doubling
        # is exact, and so is the float subtraction bound: |a - b| <= 2 max(|a|, |b|).
        largest = max(float(self.matrix.max()), -float(self.matrix.min()))
        object.__setattr__(self, "alpha_bound", 2 * largest)

    def __contains__(self, bus) -> bool:
        try:
            return bus in self._positions
        except TypeError:  # an unhashable bus, such as a list, names no bus
            return False

    def bus_position(self, bus) -> int:
        try:
            return self._positions[bus]
        except (KeyError, TypeError):
            raise UnknownBusError(f"unknown bus {shown(bus)}") from None

    def column(self, bus) -> np.ndarray:
        """The bus's column of ``matrix``, one entry per line, as a read-only contiguous row."""
        return self._by_bus[self.bus_position(bus)]


def build_ptdf(network: Network) -> PtdfMatrix:
    """The PTDF matrix of a network, solved on the first call and kept on it.

    Later calls return the same write-locked :class:`PtdfMatrix`, so the
    book, the loaders and the CLI share one solve. Raises
    :class:`NetworkError` for a singular system or a non-finite entry, as
    a subnormal reactance gives.
    """
    if network._ptdf is None:
        object.__setattr__(network, "_ptdf", _solve_ptdf(network))
    return network._ptdf


def _solve_ptdf(network: Network) -> PtdfMatrix:
    """Solve the PTDF of a network.

    The reduced nodal susceptance matrix (slack row and column removed)
    is solved against the branch susceptance-incidence matrix. The sign
    convention follows the line orientation: a positive entry means an
    injection at that bus pushes flow from ``from_bus`` toward ``to_bus``.
    """
    buses = network.buses
    n, n_lines = len(buses), len(network.lines)
    pos = {b: i for i, b in enumerate(buses)}

    incidence = np.zeros((n_lines, n))
    weights = np.empty(n_lines)
    keep = [i for i in range(n) if buses[i] != network.slack_bus]
    # A subnormal reactance gives an infinite weight and NaN entries; they
    # are refused after the solve instead of warned about on the way.
    with np.errstate(all="ignore"):
        for row, line in enumerate(network.lines):
            incidence[row, pos[line.from_bus]] = 1.0
            incidence[row, pos[line.to_bus]] = -1.0
            weights[row] = 1.0 / line.reactance
        branch_susceptance = weights[:, None] * incidence
        nodal_susceptance = incidence.T @ branch_susceptance
        reduced = nodal_susceptance[np.ix_(keep, keep)]
        try:
            # PTDF_red = Bf_red @ inv(B_red); solve on the transpose instead of inverting.
            ptdf_reduced = np.linalg.solve(reduced.T, branch_susceptance[:, keep].T).T
        except np.linalg.LinAlgError:
            raise NetworkError("singular reduced susceptance matrix") from None
    if not np.isfinite(ptdf_reduced).all():
        raise NetworkError("PTDF has non-finite entries; check the line reactances")

    matrix = np.zeros((n_lines, n))
    matrix[:, keep] = ptdf_reduced
    matrix.setflags(write=False)
    return PtdfMatrix(matrix=matrix, buses=buses, line_labels=network.line_labels)


def line_flows(ptdf: PtdfMatrix, dispatch: DispatchState) -> np.ndarray:
    """Flows on every line, in kW, for the given dispatch."""
    return ptdf.matrix @ dispatch.vector(ptdf.buses)


def exchange_buses(request_bus, offer_bus, direction: str):
    """Map a matched pair onto (injection bus, withdrawal bus).

    Upward flexibility is delivered by the offerer raising net injection,
    so the offer bus injects and the request bus withdraws; downward
    flexibility mirrors it.
    """
    if direction == UP:
        return offer_bus, request_bus
    if direction == DOWN:
        return request_bus, offer_bus
    raise MarketError(f"unknown direction {shown(direction)}")


def exchange_sensitivity(ptdf: PtdfMatrix, inject_bus, withdraw_bus) -> np.ndarray:
    """Per-line flow change, α, per kW injected at one bus and withdrawn at another.

    Depends only on topology and reactances, never on the dispatch. The
    two buses may coincide, in which case the sensitivity is zero.
    """
    return ptdf.column(inject_bus) - ptdf.column(withdraw_bus)


def flow_rooms(flows: np.ndarray, limits: np.ndarray):
    """Per-line room for a flow rise and for a flow fall, over every flow row.

    ``flows`` is one vector or a stack of vectors (one row per dispatch
    variant). The up room is the distance from each line's highest row
    flow to its limit, the down room the distance from its lowest row
    flow to the negative limit; both clamp at zero for a line already at
    or past its limit. Float subtraction is monotone, so ``limit -
    max(rows)`` is bit for bit the smallest of the per-row margins.
    """
    flows = np.atleast_2d(np.asarray(flows, dtype=float))
    up_room = np.maximum(limits - flows.max(axis=0), 0.0)
    down_room = np.maximum(limits + flows.min(axis=0), 0.0)
    return up_room, down_room


def quantity_caps(alpha: np.ndarray, up_room: np.ndarray, down_room: np.ndarray) -> np.ndarray:
    """Per-line cap on an exchange quantity, given the rooms of :func:`flow_rooms`.

    A line whose flow rises with the exchange (``alpha > ALPHA_TOL``)
    caps it at its up room over ``alpha``; a line whose flow falls
    (``alpha < -ALPHA_TOL``) at its down room over ``|alpha|``. Lines the
    exchange does not touch impose no cap (``inf``).

    ``alpha`` is one sensitivity vector or a block of them, one row per
    exchange, all capped against the same rooms; the rooms and the
    columns of ``alpha`` may be any subset of the lines, taken alike.
    Every cap is worked out entry by entry, so each row of a block's caps
    is bit for bit the caps of that row alone, and each line's cap is the
    same whichever other lines are capped with it.
    """
    room = np.where(alpha > ALPHA_TOL, up_room, np.where(alpha < -ALPHA_TOL, down_room, np.inf))
    # An untouched line keeps its infinite room whatever |alpha| it divides by.
    return room / np.abs(alpha)


def saturated_lines(up_room: np.ndarray, down_room: np.ndarray, alpha_bound: float) -> np.ndarray:
    """Indices, in line order, of the lines that can refuse an exchange against these rooms.

    A line is saturated when its up or its down room is at most
    ``2 * QUANTITY_TOL * alpha_bound``, where ``alpha_bound`` bounds every
    exchange sensitivity in magnitude (:attr:`PtdfMatrix.alpha_bound`).
    Any other line caps every exchange above ``QUANTITY_TOL``: its room
    over a sensitivity of at most ``alpha_bound`` is at least twice the
    tolerance, and the factor two covers the rounding of the threshold
    and of the division. So such a line never gives the smallest cap of
    a refused exchange and never binds one at 0 kW, and
    :func:`admissible_quantity` refuses an exchange on the smallest cap
    of the saturated lines exactly when it refuses it on the smallest
    cap of all lines.
    """
    return (np.minimum(up_room, down_room) <= 2 * QUANTITY_TOL * alpha_bound).nonzero()[0]


def admissible_quantity(cap: float, quantity_kw: float) -> float:
    """The part of a requested exchange that ``cap``, its smallest per-line cap, admits.

    A quantity below ``QUANTITY_TOL`` collapses to zero only when some
    line caps the exchange below the requested quantity; an exchange
    that fits in full is never refused, however small.
    """
    quantity = min(float(quantity_kw), cap)
    return 0.0 if quantity < QUANTITY_TOL and cap < quantity_kw else quantity


def max_tradable_quantity(
    network: Network,
    dispatch: DispatchState,
    request_bus,
    offer_bus,
    direction: str,
    quantity_kw: float,
) -> float:
    """Largest quantity of the requested exchange that no line refuses.

    Any activation between zero and the returned value leaves every line
    within its limit: per line the flow moves linearly with the quantity,
    so the extreme flow occurs at full activation and partial activations
    are covered automatically. A result below ``QUANTITY_TOL`` collapses
    to zero as :func:`admissible_quantity` decides.
    """
    if not (finite_number(quantity_kw) and quantity_kw > 0):
        raise MarketError("quantity_kw must be a finite number > 0")
    inject_bus, withdraw_bus = exchange_buses(request_bus, offer_bus, direction)
    ptdf = build_ptdf(network)
    alpha = exchange_sensitivity(ptdf, inject_bus, withdraw_bus)
    rooms = flow_rooms(line_flows(ptdf, dispatch), network.limits)
    return admissible_quantity(float(quantity_caps(alpha, *rooms).min()), quantity_kw)


def check_baseline(network: Network, dispatch: DispatchState) -> np.ndarray:
    """Validate that a dispatch violates no line limit; return its flows."""
    return check_flows(network, line_flows(build_ptdf(network), dispatch))


def check_flows(network: Network, flows: np.ndarray) -> np.ndarray:
    """Validate that baseline line flows, in line order, exceed no limit; return them."""
    overload = np.abs(flows) - network.limits
    worst = int(np.argmax(overload))
    if overload[worst] > QUANTITY_TOL:
        raise InfeasibleBaselineError(
            f"baseline infeasible, line {network.line_labels[worst]}: "
            f"flow {flows[worst]:g} kW exceeds limit {network.lines[worst].limit_kw:g} kW"
        )
    return flows
