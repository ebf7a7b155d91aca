"""File formats, replay driver and reporting.

Networks and scenario lists are YAML; bid streams and trade logs are
one self-describing JSON record per line so arrival order is the file
order and logs diff deterministically. Units are kW and EUR/kW
throughout; reactances are per-unit. Bus ids are normalized to strings
on load.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Optional

import yaml

from .errors import FlexMarketError, InputError, MarketError, NetworkError
# build_ptdf is not called here, but bench/tracing.py wraps fileio.build_ptdf by name.
from .grid import (
    QUANTITY_TOL,
    DispatchState,
    Line,
    Network,
    build_ptdf,
    check_baseline,
    exchange_buses,
)
from .market import (
    ALL_COMBINATIONS,
    CUMULATIVE,
    INDIVIDUAL,
    INDIVIDUAL_AND_CUMULATIVE,
    OFFER,
    ORDER_FIFO,
    OUTCOME_MATCHED,
    OUTCOME_PARTIAL,
    POLICY_VARIANTS,
    REQUEST,
    SCENARIOS,
    UNCONDITIONAL,
    Bid,
    FeasibilityPolicy,
    MatchRecord,
    OrderBook,
    TradeLogEntry,
)
from .oracle import worst_subset_check

EXIT_OK = 0

# libyaml's parser where PyYAML was built with it; the pure-Python one only
# where it was not. Both build the same data with the safe constructor.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

#: Short CLI spellings for the policy variants.
POLICY_ALIASES = {
    "individual": INDIVIDUAL,
    "cumulative": CUMULATIVE,
    "both": INDIVIDUAL_AND_CUMULATIVE,
    "all": ALL_COMBINATIONS,
    "scenarios": SCENARIOS,
}

# The fields each record kind may hold, with their types; see _checked. A field
# typed None is converted by its loader. A network file may leave out its
# injections, and only requests carry a conditionality.
_NETWORK_FIELDS = dict(buses=list, slack_bus=None, lines=list, injection_kw=dict)
_LINE_FIELDS = dict(from_bus=None, to_bus=None, reactance=None, limit_kw=None)
_BID_FIELDS = dict(
    id=None, side=None, direction=None, bus=None, quantity_kw=None, price_eur_per_kw=None,
    conditionality=None,
)

# The fields of a book dump and of its records. The counters carry the names
# that OrderBook.snapshot and OrderBook.restore use, and a record's fields are
# the names of its class's fields.
_DUMP_COUNTERS = dict(round=int, sequence=int, match_counter=int)
_DUMP_FIELDS = dict(
    _DUMP_COUNTERS, injection_kw=dict,
    requests=list, offers=list, accepted_matches=list, seen_ids=list,
)
_DUMP_BID_FIELDS = dict(
    id=str, side=str, direction=str, bus=str, quantity_kw=float,
    original_quantity_kw=float, price_eur_per_kw=float, sequence=int, conditionality=None,
)
_DUMP_MATCH_FIELDS = dict(
    match_id=str, offer_id=str, request_id=str, inject_bus=str, withdraw_bus=str,
    quantity_kw=float, price_eur_per_kw=float, conditionality=str, round=int,
)
# The fields of a trade-log record, in TradeLogEntry order, with their types.
_TRADE_FIELDS = dict(
    round=int, offer_id=str, request_id=str, quantity_kw=float,
    price_eur_per_kw=float, outcome=str, binding_lines=list,
)


@dataclass
class MarketConfig:
    """Replay configuration; mirrors the CLI flags."""

    policy: str = ALL_COMBINATIONS
    scenarios_path: Optional[str] = None
    order: str = ORDER_FIFO

    def __post_init__(self) -> None:
        self.policy = POLICY_ALIASES.get(self.policy, self.policy)
        if self.policy not in POLICY_VARIANTS:
            raise InputError(f"unknown policy {self.policy!r}")


@dataclass
class ReplayResult:
    trades: list
    book: Optional[OrderBook]
    exit_code: int
    error: Optional[str] = None


def _number(value, where: str, kind=float):
    """``value`` as a finite ``float``, or a whole ``int``; otherwise an InputError.

    A string is not a number here, even one that holds a number, and
    neither is a boolean.
    """
    try:
        if isinstance(value, bool):
            raise TypeError("a bool is not a number")
        finite = math.isfinite(value)  # a TypeError for a string, as for any non-number
    except TypeError:
        raise InputError(f"{where}: expected a number, got {value!r}") from None
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise InputError(f"{where}: expected a finite number, got {value!r}")
    number = float(value)
    if kind is float:
        return number
    if not number.is_integer():
        raise InputError(f"{where}: expected an integer, got {value!r}")
    return int(number)


def _dumped_number(value, where: str, kind=float):
    """A number read back from a dump or trade log, as :func:`_number` checks it.

    An integer stays an ``int`` even in a float field: the engine held
    it as one and must write it as one again.
    """
    number = _number(value, where, kind)
    return value if type(value) is int else number


def _refusal(where: str, problem: str) -> InputError:
    """An InputError for the record ``where`` names; if ``where`` is empty, the caller names it."""
    return InputError(f"{where}: {problem}" if where else problem)


def _checked(record, fields: dict, where: str, optional=()) -> None:
    """Refuse ``record`` unless it is a mapping of the fields in ``fields``, well typed.

    ``fields`` maps each field the record may hold to its type. Every
    field not named in ``optional`` is required, and an optional one may
    also be null. A field typed ``None`` is left to the loader, which
    converts it; a numeric field is checked by :func:`_dumped_number` and
    stored back in ``record`` as it converts it; any other typed field must
    be an instance of its type. The message names ``where``.
    """
    if not isinstance(record, dict):
        raise _refusal(where, "not a mapping")
    keys = record.keys()
    if not keys <= fields.keys():
        raise _refusal(where, f"unknown fields {sorted(map(str, keys - fields.keys()))}")
    if len(keys) < len(fields):
        missing = (fields.keys() - keys).difference(optional)
        if missing:
            raise _refusal(where, f"missing {sorted(missing)}")
    if not any(fields.values()):  # nothing typed: the bid and line tables
        return
    for key, kind in fields.items():
        value = record.get(key)
        if kind is None or (value is None and key in optional):
            continue
        if kind in (int, float):
            record[key] = _dumped_number(value, f"{where}: {key}", kind)
        elif not isinstance(value, kind):
            raise _refusal(where, f"{key} is not a {kind.__name__}")


def load_network(path, require_feasible: bool = True):
    """Read a network file; return the network and its slack-balanced baseline.

    The slack injection may be omitted and is then set to the negative
    sum of all other injections; if present it must already balance.
    Missing non-slack entries default to zero. Unless disabled, the
    baseline must violate no line limit.
    """
    data = _read_yaml(path, "network")
    _checked(data, _NETWORK_FIELDS, str(path), optional=("injection_kw",))
    buses = [str(b) for b in data["buses"]]
    slack = str(data["slack_bus"])
    lines = []
    for i, raw in enumerate(data["lines"]):
        where = f"{path}: line #{i + 1}"
        _checked(raw, _LINE_FIELDS, where)
        lines.append(
            Line(
                from_bus=str(raw["from_bus"]),
                to_bus=str(raw["to_bus"]),
                reactance=_number(raw["reactance"], f"{where} reactance"),
                limit_kw=_number(raw["limit_kw"], f"{where} limit_kw"),
            )
        )
    network = Network(buses=buses, lines=lines, slack_bus=slack)

    raw_injections = data.get("injection_kw") or {}
    injections = {
        str(bus): _number(value, f"{path}: injection_kw of bus {bus}")
        for bus, value in raw_injections.items()
    }
    unknown = set(injections) - set(buses)
    if unknown:
        raise InputError(f"{path}: injection_kw names unknown buses {sorted(unknown)}")
    for bus in buses:
        if bus != slack:
            injections.setdefault(bus, 0.0)
    others = sum(value for bus, value in injections.items() if bus != slack)
    if slack in injections and abs(injections[slack] + others) > QUANTITY_TOL:
        raise InputError(
            f"{path}: injections sum to {injections[slack] + others:g} kW, not zero"
        )
    injections[slack] = -others
    dispatch = DispatchState(injection_kw=injections)

    if require_feasible:
        check_baseline(network, dispatch)
    return network, dispatch


def _read_yaml(path, what: str):
    """The parsed contents of a YAML file; ``what`` names the file in errors."""
    try:
        with open(path) as handle:
            return yaml.load(handle, Loader=_YAML_LOADER)
    except OSError as exc:
        raise InputError(f"cannot read {what} file: {exc}") from None
    except (yaml.YAMLError, ValueError) as exc:
        raise InputError(f"{path}: invalid YAML: {exc}") from None


def _json_lines(path, what: str):
    """``(line number, record)`` per non-blank line; ``what`` names the file in errors."""
    try:
        with open(path) as handle:
            raw_lines = handle.readlines()
    except (OSError, ValueError) as exc:  # ValueError: the text does not decode
        raise InputError(f"cannot read {what}: {exc}") from None
    for lineno, raw in enumerate(raw_lines, start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        yield lineno, record


def _label(value, field: str) -> str:
    """A bid's id or bus as a string: a JSON string, or an integer written as one."""
    if type(value) is str:
        return value
    if type(value) is int:  # the type of true and false is bool, so both are refused
        return str(value)
    raise InputError(f"{field} must be a string or an integer, got {value!r}")


def load_bids(path) -> list:
    """Read a bid stream: one JSON record per line, in arrival order.

    Ids and buses are strings or integers, each kept as a string; every
    bid on a bus shares one interned string for it. The bids are not
    numbered: the book numbers each one as it arrives.
    """
    bids = []
    seen = set()
    for lineno, record in _json_lines(path, "bids file"):
        try:
            _checked(record, _BID_FIELDS, "", optional=("conditionality",))
            bid = Bid(
                id=_label(record["id"], "id"),
                side=record["side"],
                direction=record["direction"],
                bus=sys.intern(_label(record["bus"], "bus")),
                quantity_kw=_number(record["quantity_kw"], "quantity_kw"),
                price_eur_per_kw=_number(record["price_eur_per_kw"], "price_eur_per_kw"),
                conditionality=record.get("conditionality"),
            )
        except (InputError, MarketError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        if bid.id in seen:
            raise InputError(f"{path}:{lineno}: duplicate bid id {bid.id!r}")
        seen.add(bid.id)
        bids.append(bid)
    return bids


def load_scenarios(path) -> tuple:
    """Read activation scenarios: a YAML list of lists of match ids."""
    data = _read_yaml(path, "scenarios")
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: expected a non-empty list of scenarios")
    scenarios = []
    for i, entry in enumerate(data):
        if not isinstance(entry, list):
            raise InputError(f"{path}: scenario #{i + 1} is not a list")
        scenarios.append(frozenset(str(m) for m in entry))
    return tuple(scenarios)


def build_policy(config: MarketConfig) -> FeasibilityPolicy:
    if config.policy == SCENARIOS:
        if not config.scenarios_path:
            raise InputError("the scenarios policy needs a scenarios file")
        return FeasibilityPolicy(SCENARIOS, load_scenarios(config.scenarios_path))
    return FeasibilityPolicy(config.policy)


def new_book(network, baseline, config: MarketConfig) -> OrderBook:
    return OrderBook(network, baseline, build_policy(config), order=config.order)


def run_replay(network_path, bids_path, config: MarketConfig, out_dir=None) -> ReplayResult:
    """Feed a bid file through the market in file order.

    On success, optionally writes ``trades.jsonl`` and ``book.json``
    under ``out_dir``. Load and validation problems are reported through
    the exit code instead of raising.
    """
    try:
        network, baseline = load_network(network_path)
        bids = load_bids(bids_path)
        book = new_book(network, baseline, config)
        for bid in bids:
            book.submit_bid(bid)
    except FlexMarketError as exc:
        return ReplayResult([], None, exc.exit_code, str(exc))

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_trade_log(book.trade_log, os.path.join(out_dir, "trades.jsonl"))
        with open(os.path.join(out_dir, "book.json"), "w") as handle:
            handle.write(book_json(book))
    return ReplayResult(book.trade_log, book, EXIT_OK)


# ----------------------------------------------------------------------
# trade log serialization


# One trade-log line: the bytes ``json.dumps(record, sort_keys=True)`` gives.
_TRADE_LINE = (
    '{"binding_lines": [%s], "offer_id": %s, "outcome": %s, "price_eur_per_kw": %s, '
    '"quantity_kw": %s, "request_id": %s, "round": %s}'
)


def _json_value(value) -> str:
    """``json.dumps(value)``, with the types the engine logs formatted directly."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):  # numpy float64 included
        return float.__repr__(value)
    return json.dumps(value)


def trade_log_lines(entries) -> list:
    """One JSON object per entry, keys sorted, byte for byte as ``json.dumps`` writes it."""
    value = _json_value
    return [
        _TRADE_LINE % (
            ", ".join(map(value, entry.binding_lines)),
            value(entry.offer_id),
            value(entry.outcome),
            value(entry.price_eur_per_kw),
            value(entry.quantity_kw),
            value(entry.request_id),
            value(entry.round),
        )
        for entry in entries
    ]


def write_trade_log(entries, path) -> None:
    with open(path, "w") as handle:
        for line in trade_log_lines(entries):
            handle.write(line + "\n")


def read_trade_log(path) -> list:
    """Read a trade log written by :func:`write_trade_log`.

    A line that is not a JSON record holding exactly the fields of
    ``_TRADE_FIELDS``, each with its type, a finite quantity and price, a
    whole round and a list of binding lines, raises :class:`InputError`
    naming the line.
    """
    entries = []
    for lineno, record in _json_lines(path, "trade log"):
        _checked(record, _TRADE_FIELDS, f"{path}:{lineno}")
        record["binding_lines"] = tuple(record["binding_lines"])
        entries.append(TradeLogEntry(**record))
    return entries


# ----------------------------------------------------------------------
# order book dumps


def _bid_dict(bid: Bid) -> dict:
    return {key: value for key in _DUMP_BID_FIELDS if (value := getattr(bid, key)) is not None}


def _match_dict(record: MatchRecord) -> dict:
    return {key: getattr(record, key) for key in _DUMP_MATCH_FIELDS}


def dump_book(book: OrderBook) -> dict:
    state = book.snapshot()
    return {
        **{key: state[key] for key in _DUMP_COUNTERS},
        "injection_kw": {str(b): v for b, v in sorted(book.baseline.injection_kw.items())},
        "requests": [_bid_dict(b) for b in state["resting"] if b.side == REQUEST],
        "offers": [_bid_dict(b) for b in state["resting"] if b.side == OFFER],
        "accepted_matches": [_match_dict(r) for r in state["accepted"]],
        "seen_ids": sorted(state["seen_ids"]),
    }


def _object_template(keys, indent: int) -> str:
    """A ``%`` template of one JSON object with ``keys``, as ``json.dumps(indent=2)`` nests it.

    ``indent`` is the object's own indentation; each ``%s`` takes one
    formatted value, in the order of ``keys``.
    """
    pad = " " * indent
    fields = ",\n".join(f"{pad}  {encode_basestring_ascii(key)}: %s" for key in keys)
    return f"{pad}{{\n{fields}\n{pad}}}"


def _json_block(items: list, brackets: str) -> str:
    """A top-level list or object of the dump, from its rendered items, as ``json.dumps`` writes it.

    ``brackets`` is ``"[]"`` or ``"{}"``; an empty one is written as just those.
    """
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n  {brackets[1]}"


# The dump's keys, and those of its bids and matches, in the sorted order json.dumps writes.
_BOOK_KEYS = tuple(sorted(_DUMP_FIELDS))
_BOOK_TEMPLATE = _object_template(_BOOK_KEYS, 0)
_BID_KEYS = tuple(sorted(_DUMP_BID_FIELDS))
_bid_values = attrgetter(*_BID_KEYS)
_MATCH_TEMPLATE = _object_template(sorted(_DUMP_MATCH_FIELDS), 4)
_match_values = attrgetter(*sorted(_DUMP_MATCH_FIELDS))


@functools.cache
def _bid_template(keys: tuple) -> str:
    """The template of a dumped bid whose non-``None`` fields are ``keys``.

    A request has every field and an offer all but its conditionality;
    another shape is built the first time a bid of it is dumped.
    """
    return _object_template(keys, 4)


def _bid_record(bid: Bid) -> str:
    values = _bid_values(bid)
    keys = _BID_KEYS
    if None in values:
        keys = tuple(key for key, value in zip(keys, values) if value is not None)
        values = [value for value in values if value is not None]
    return _bid_template(keys) % tuple(map(_json_value, values))


def book_json(book: OrderBook) -> str:
    """``json.dumps(dump_book(book), sort_keys=True, indent=2)`` and a newline, byte for byte.

    That is ASCII only, keys sorted, a two-space indent and one trailing
    newline. The text is written from a ``%`` template per record shape,
    each value formatted by :func:`_json_value`, so no dump dict is built
    and the pure-Python encoder that ``indent`` selects never runs.
    """
    state = book.snapshot()
    value = _json_value
    injections = {str(b): v for b, v in sorted(book.baseline.injection_kw.items())}
    parts = {
        **{key: value(state[key]) for key in _DUMP_COUNTERS},
        "injection_kw": _json_block(
            [f"    {value(bus)}: {value(kw)}" for bus, kw in sorted(injections.items())], "{}"
        ),
        "requests": _json_block(
            [_bid_record(b) for b in state["resting"] if b.side == REQUEST], "[]"
        ),
        "offers": _json_block([_bid_record(b) for b in state["resting"] if b.side == OFFER], "[]"),
        "accepted_matches": _json_block(
            [_MATCH_TEMPLATE % tuple(map(value, _match_values(r))) for r in state["accepted"]],
            "[]",
        ),
        "seen_ids": _json_block(
            ["    " + text for text in map(value, sorted(state["seen_ids"]))], "[]"
        ),
    }
    return _BOOK_TEMPLATE % tuple(parts[key] for key in _BOOK_KEYS) + "\n"


def read_book_dump(path) -> dict:
    """Read and check a dump written by :func:`book_json`.

    A dump that lacks a field :func:`load_book` needs, a truncated one
    included, or that holds a mistyped or non-finite value, raises
    :class:`InputError` naming the record.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read book dump: {exc}") from None
    except ValueError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None

    _checked(data, _DUMP_FIELDS, str(path))
    data["injection_kw"] = {
        str(bus): _dumped_number(value, f"{path}: injection_kw of bus {bus}")
        for bus, value in data["injection_kw"].items()
    }
    for key, fields, optional in (
        ("requests", _DUMP_BID_FIELDS, ("conditionality",)),
        ("offers", _DUMP_BID_FIELDS, ("conditionality",)),
        ("accepted_matches", _DUMP_MATCH_FIELDS, ()),
    ):
        for i, raw in enumerate(data[key]):
            _checked(raw, fields, f"{path}: {key}[{i}]", optional)
    for i, bid_id in enumerate(data["seen_ids"]):
        if not isinstance(bid_id, str):
            raise InputError(f"{path}: seen_ids[{i}] is not a str")
    return data


def load_book(path, network, config: MarketConfig) -> OrderBook:
    """Rebuild an order book from a dump; inverse of :func:`dump_book`.

    The resting bids may be listed in any order. A dump the book could
    not have written, such as one with duplicate bid ids or sequence
    numbers, naming an unknown bus or leaving a network bus out of its
    baseline, raises :class:`InputError`; a baseline that overloads a
    line raises :class:`InfeasibleBaselineError`.
    """
    data = read_book_dump(path)
    try:
        book = new_book(network, DispatchState(data["injection_kw"]), config)
        book.restore(
            **{key: data[key] for key in _DUMP_COUNTERS},
            seen_ids=data["seen_ids"],
            resting=[Bid(**raw) for raw in data["requests"] + data["offers"]],
            accepted=[MatchRecord(**raw) for raw in data["accepted_matches"]],
        )
    except (MarketError, NetworkError) as exc:
        raise InputError(f"{path}: {exc}") from None
    return book


# ----------------------------------------------------------------------
# post-hoc audits


def audit_trade_log(network_path, bids_path, trades_path):
    """Audit every activation subset of the cleared state a trade log describes.

    Rebuilds the final baseline by replaying the unconditional trades in
    log order, collects the conditional matches, and solves the worst
    activation subsets of every line with the independent oracle
    (:func:`~flexmarket.oracle.worst_subset_check`), which covers all
    subsets for any number of matches. Returns the violating subsets;
    empty means the procurement is activation-safe.
    """
    network, baseline = load_network(network_path)
    bids = {bid.id: bid for bid in load_bids(bids_path)}
    dispatch = baseline.copy()
    conditional = []
    for i, entry in enumerate(read_trade_log(trades_path)):
        if entry.outcome not in (OUTCOME_MATCHED, OUTCOME_PARTIAL):
            continue
        try:
            offer, request = bids[entry.offer_id], bids[entry.request_id]
        except KeyError as exc:
            raise InputError(f"trade log names unknown bid {exc.args[0]!r}") from None
        inject_bus, withdraw_bus = exchange_buses(request.bus, offer.bus, request.direction)
        if request.conditionality == UNCONDITIONAL:
            dispatch.apply_exchange(inject_bus, withdraw_bus, entry.quantity_kw)
        else:
            conditional.append(
                MatchRecord(
                    match_id=f"m{i + 1}",
                    offer_id=offer.id,
                    request_id=request.id,
                    inject_bus=inject_bus,
                    withdraw_bus=withdraw_bus,
                    quantity_kw=entry.quantity_kw,
                    price_eur_per_kw=entry.price_eur_per_kw,
                    conditionality=request.conditionality,
                    round=entry.round,
                )
            )
    return worst_subset_check(network, dispatch, conditional)
