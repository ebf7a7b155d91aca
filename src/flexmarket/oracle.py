"""Verification machinery: direct DC solves and activation-subset audits.

Flows here come from a nodal angle solve, assembled line by line and
factored per call. Nothing is shared with the sensitivity-matrix route
the clearing engine uses, so the two paths cross-check each other. This
module is meant for tests and post-hoc audits; it trades speed for
independence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MarketError, NetworkError, UnknownBusError, shown
from .grid import DispatchState, Network, QUANTITY_TOL


@dataclass(frozen=True)
class OracleReport:
    """One activation subset whose flows violate at least one line limit."""

    subset: tuple
    violations: tuple  # (line label, overload in kW) pairs, overload > tolerance

    def __str__(self) -> str:
        lines = ", ".join(f"{label} by {over:g} kW" for label, over in self.violations)
        subset = "{" + ", ".join(self.subset) + "}" if self.subset else "{}"
        return f"subset {subset}: overloaded {lines}"


def dc_solve(network: Network, dispatch: DispatchState) -> np.ndarray:
    """Per-line flows from the nodal angle equations, slack angle zero.

    The slack bus absorbs any imbalance, matching the convention of the
    engine's sensitivity matrix (whose slack column is zero).
    """
    buses = list(network.buses)
    pos = {b: i for i, b in enumerate(buses)}
    n = len(buses)

    susceptance = np.zeros((n, n))
    for line in network.lines:
        b = 1.0 / line.reactance
        i, j = pos[line.from_bus], pos[line.to_bus]
        susceptance[i, i] += b
        susceptance[j, j] += b
        susceptance[i, j] -= b
        susceptance[j, i] -= b

    try:
        injections = np.array([dispatch.injection_kw[b] for b in buses], dtype=float)
    except KeyError as exc:
        raise UnknownBusError(f"dispatch has no entry for bus {shown(exc.args[0])}") from None

    slack = pos[network.slack_bus]
    keep = [i for i in range(n) if i != slack]
    angles = np.zeros(n)
    try:
        angles[keep] = np.linalg.solve(susceptance[np.ix_(keep, keep)], injections[keep])
    except np.linalg.LinAlgError:
        raise NetworkError("singular system; the network is disconnected") from None

    return np.array(
        [
            (angles[pos[line.from_bus]] - angles[pos[line.to_bus]]) / line.reactance
            for line in network.lines
        ]
    )


def flow_violations(network: Network, flows: np.ndarray) -> list:
    """(line label, overload) pairs for every line beyond its limit by more than QUANTITY_TOL."""
    out = []
    for label, line, flow in zip(network.line_labels, network.lines, flows):
        overload = abs(flow) - line.limit_kw
        if overload > QUANTITY_TOL:
            out.append((label, overload))
    return out


def exhaustive_subset_check(network: Network, baseline: DispatchState, matches: Sequence) -> list:
    """Audit every activation subset of the given matches.

    Each match needs ``match_id``, ``inject_bus``, ``withdraw_bus`` and
    ``quantity_kw`` attributes. All 2**M subsets are activated in full
    on top of the baseline and solved independently; a report is emitted
    for each subset that overloads a line. An empty result means no
    combination of real-time activations can violate a line limit.
    """
    if len(matches) > 20:
        raise MarketError(f"{len(matches)} matches would need {shown(2 ** len(matches))} subsets")
    reports = []
    for mask in range(2 ** len(matches)):
        subset = [record for bit, record in enumerate(matches) if mask >> bit & 1]
        reports += _subset_reports(network, baseline, subset)
    return reports


def worst_subset_check(network: Network, baseline: DispatchState, matches: Sequence) -> list:
    """Audit every activation subset by solving only the worst ones.

    Flows are linear in each activation, so a line's flow over all
    subsets is highest with exactly the matches that raise it active,
    and lowest with those that lower it. Each match is solved alone to
    find its per-line flow change; then, for every line, those two
    extreme subsets are solved. That is at most M + 2L + 1 solves
    instead of 2**M, with no limit on M. Returns one report per
    distinct extreme subset that overloads a line; empty means no
    combination of activations can violate a limit, the same verdict
    as :func:`exhaustive_subset_check`.
    """
    base_flows = dc_solve(network, baseline)
    changes = [dc_solve(network, _activated(baseline, [m])) - base_flows for m in matches]
    reports = []
    solved = set()
    for line in range(len(network.lines)):
        for sign in (1.0, -1.0):
            subset = [m for m, change in zip(matches, changes) if sign * change[line] > 0]
            key = tuple(m.match_id for m in subset)
            if key in solved:
                continue
            solved.add(key)
            reports += _subset_reports(network, baseline, subset)
    return reports


def _subset_reports(network: Network, baseline: DispatchState, subset: Sequence) -> list:
    """The report of the baseline with ``subset`` activated, in a list; empty if none overloads."""
    violations = flow_violations(network, dc_solve(network, _activated(baseline, subset)))
    if not violations:
        return []
    return [OracleReport(tuple(record.match_id for record in subset), tuple(violations))]


def _activated(baseline: DispatchState, matches: Sequence) -> DispatchState:
    """The baseline with every given match activated in full."""
    dispatch = baseline.copy()
    for record in matches:
        dispatch.apply_exchange(record.inject_bus, record.withdraw_bus, record.quantity_kw)
    return dispatch
