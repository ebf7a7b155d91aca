"""Continuous local flexibility market clearing with DC network checks.

A numpy-based engine that matches upward/downward flexibility offers
and requests continuously, pay as bid, while guaranteeing through
PTDF-based line checks that any real-time activation of the procured
flexibility respects the distribution-line limits.
"""

from .errors import (
    FlexMarketError,
    InfeasibleBaselineError,
    InputError,
    MarketError,
    NetworkError,
    UnknownBusError,
)
from .fileio import (
    MarketConfig,
    audit_trade_log,
    book_json,
    dump_book,
    load_bids,
    load_book,
    load_network,
    load_scenarios,
    new_book,
    read_trade_log,
    run_replay,
    trade_log_lines,
    write_trade_log,
)
from .grid import (
    DOWN,
    UP,
    DispatchState,
    Line,
    Network,
    PtdfMatrix,
    build_ptdf,
    exchange_buses,
    exchange_sensitivity,
    flow_rooms,
    line_flows,
    max_tradable_quantity,
    quantity_caps,
)
from .market import (
    ALL_COMBINATIONS,
    CONDITIONAL,
    CUMULATIVE,
    INDIVIDUAL,
    INDIVIDUAL_AND_CUMULATIVE,
    SCENARIOS,
    UNCONDITIONAL,
    Bid,
    MatchRecord,
    OrderBook,
    TradeLogEntry,
)
from .oracle import OracleReport, dc_solve, exhaustive_subset_check, worst_subset_check

__version__ = "0.1.0"

__all__ = [
    "ALL_COMBINATIONS",
    "Bid",
    "CONDITIONAL",
    "CUMULATIVE",
    "DOWN",
    "DispatchState",
    "FlexMarketError",
    "INDIVIDUAL",
    "INDIVIDUAL_AND_CUMULATIVE",
    "InfeasibleBaselineError",
    "InputError",
    "Line",
    "MarketConfig",
    "MarketError",
    "MatchRecord",
    "Network",
    "NetworkError",
    "OracleReport",
    "OrderBook",
    "PtdfMatrix",
    "SCENARIOS",
    "TradeLogEntry",
    "UNCONDITIONAL",
    "UnknownBusError",
    "UP",
    "audit_trade_log",
    "book_json",
    "build_ptdf",
    "dc_solve",
    "dump_book",
    "exchange_buses",
    "exchange_sensitivity",
    "exhaustive_subset_check",
    "flow_rooms",
    "line_flows",
    "load_bids",
    "load_book",
    "load_network",
    "load_scenarios",
    "max_tradable_quantity",
    "new_book",
    "quantity_caps",
    "read_trade_log",
    "run_replay",
    "trade_log_lines",
    "worst_subset_check",
    "write_trade_log",
]
