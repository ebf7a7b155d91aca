"""File formats, replay driver and reporting.

Networks and scenario lists are YAML; bid streams and trade logs are
one self-describing JSON record per line so arrival order is the file
order and logs diff deterministically. Units are kW and EUR/kW
throughout; reactances are per-unit.

Every field of every file is read by the one rule its record kind's
table names for it. One rule reads every bus and bid label, in every
file a person writes: a string, or an integer read as its decimal
string (``2`` is bus ``"2"``); anything else is an input error.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Optional

import yaml

from .errors import InputError, MarketError, NetworkError, shown
from .grid import (
    QUANTITY_TOL,
    DispatchState,
    Line,
    Network,
    build_ptdf,
    check_baseline,
    exchange_buses,
    finite_number,
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
    REQUEST,
    SCENARIOS,
    UNCONDITIONAL,
    Bid,
    MatchRecord,
    OrderBook,
    TradeLogEntry,
)
from .oracle import worst_subset_check

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


@dataclass
class MarketConfig:
    """Replay configuration; mirrors the CLI flags. The book checks the policy name."""

    policy: str = ALL_COMBINATIONS
    scenarios_path: Optional[str] = None
    order: str = ORDER_FIFO

    def __post_init__(self) -> None:
        if isinstance(self.policy, str):  # an alias is a str; the book refuses any other policy
            self.policy = POLICY_ALIASES.get(self.policy, self.policy)
        if self.policy == SCENARIOS and self.scenarios_path is None:
            raise InputError("the scenarios policy needs a scenarios file")
        if self.policy != SCENARIOS and self.scenarios_path is not None:
            policy = shown(self.policy, str)
            raise InputError(f"only the scenarios policy reads a scenarios file, not {policy}")


# ----------------------------------------------------------------------
# field rules: rule(value, name) is the value to keep, or an InputError naming ``name``


def _number(value, name: str) -> float:
    """A :func:`~flexmarket.grid.finite_number` from an input file, as a ``float``."""
    if not finite_number(value):  # a file's numbers parse as floats and ints; a bool is none
        what = "a finite number" if type(value) in (float, int) else "a number"
        raise InputError(f"{name}: expected {what}, got {shown(value)}")
    return float(value)


def _dumped_number(value, name: str):
    """A number read back from a dump or trade log; an ``int`` stays one, to be written as one."""
    number = _number(value, name)
    return value if type(value) is int else number


def _whole(value, name: str) -> int:
    """A whole number, as :func:`_number` checks it, as an ``int``."""
    number = _number(value, name)
    if not number.is_integer():
        raise InputError(f"{name}: expected an integer, got {shown(value)}")
    return value if type(value) is int else int(number)


def _label(value, name: str) -> str:
    """A bus or bid label: a string, or an integer read as its decimal string."""
    if type(value) is str:
        return value
    if type(value) is int:  # the type of true and false is bool, so both are refused
        try:
            return str(value)
        except ValueError:  # too many digits to write out
            pass
    raise InputError(f"{name} must be a string or an integer, got {shown(value)}")


def _bus(value, name: str) -> str:
    """A bus label, as :func:`_label` reads it; every record naming a bus shares one string."""
    return sys.intern(value if type(value) is str else _label(value, name))


def _string(value, name: str) -> str:
    """A string the engine wrote itself, in a dump or trade log."""
    if type(value) is not str:
        raise InputError(f"{name} is not a str")
    return value


def _list_of(rule):
    """The rule for a list of values that each pass ``rule``; the list is read as a tuple."""

    def checked(value, name: str) -> tuple:
        if not isinstance(value, list):
            raise InputError(f"{name} is not a list")
        return tuple(rule(item, f"{name}[{i}]") for i, item in enumerate(value))

    return checked


def _per_bus(rule):
    """The rule for a mapping of bus labels to values that each pass ``rule``."""

    def checked(value, name: str) -> dict:
        if not isinstance(value, dict):
            raise InputError(f"{name} is not a dict")
        mapping = {_bus(b, f"{name} key"): rule(v, f"{name} of bus {b}") for b, v in value.items()}
        if len(mapping) < len(value):
            raise InputError(f"{name} names a bus twice, as a string and as an integer")
        return mapping

    return checked


def _records(fields, build=dict):
    """The rule for a list of ``fields`` records, each read as ``build(**record)``."""

    def checked(record, name: str):
        try:
            return build(**_checked(record, fields, name))
        except MarketError as exc:  # a record ``build`` refuses
            raise InputError(f"{name}: {exc}") from None

    return _list_of(checked)


class _Fields(dict):
    """The fields a record kind may hold, each mapped to the rule that checks and converts it.

    ``None`` passes a field through to a record constructor that checks it. Every field
    not named in ``optional`` is required, and an optional one may also be null.
    """

    def __init__(self, optional=(), **rules):
        super().__init__(rules)
        self.optional = frozenset(optional)
        # Only these are visited for each record, so passed-through fields cost nothing.
        self.rules = tuple((key, rule) for key, rule in rules.items() if rule is not None)


def _checked(record, fields: _Fields, where: str) -> dict:
    """``record``, each field converted in place by its rule in ``fields``; errors name ``where``.

    A record that is not a mapping, holds a field ``fields`` does not list
    or lacks a required one is refused.
    """
    prefix = f"{where}: " if where else ""  # an empty ``where``: the caller names the record
    if not isinstance(record, dict):
        raise InputError(f"{prefix}not a mapping")
    keys = record.keys()
    if not keys <= fields.keys():
        unknown = sorted(shown(key, str) for key in keys - fields.keys())
        raise InputError(f"{prefix}unknown fields {unknown}")
    optional = fields.optional
    if len(keys) < len(fields):
        missing = (fields.keys() - keys).difference(optional)
        if missing:
            raise InputError(f"{prefix}missing {sorted(missing)}")
    for key, rule in fields.rules:
        value = record.get(key)
        if value is not None or key not in optional:
            record[key] = rule(value, prefix + key)
    return record


# The fields of each record kind, with their rules. A field without one is
# checked by the record's class alone: Line checks a line's numbers, and Bid
# checks a bid's side, direction and conditionality.
_LINE_FIELDS = _Fields(from_bus=_bus, to_bus=_bus, reactance=None, limit_kw=None)
_NETWORK_FIELDS = _Fields(
    buses=_list_of(_bus), slack_bus=_bus, lines=_records(_LINE_FIELDS),
    injection_kw=_per_bus(_number), optional=("injection_kw",),
)
_BID_FIELDS = _Fields(
    id=_label, side=None, direction=None, bus=_bus, quantity_kw=_number,
    price_eur_per_kw=_number, conditionality=None, optional=("conditionality",),
)

# The fields of a book dump and of its records. The counters carry the names
# that OrderBook.snapshot and OrderBook.restore use, and a record's fields are
# the names of its class's fields. Bid is the gate of every dumped bid field but
# two: it does not check the bus, and it reads a null original quantity as the
# quantity.
_DUMP_COUNTERS = ("round", "sequence", "match_counter")
_DUMP_BID_FIELDS = _Fields(
    id=None, side=None, direction=None, bus=_string, quantity_kw=None,
    original_quantity_kw=_dumped_number, price_eur_per_kw=None, sequence=None,
    conditionality=None, optional=("conditionality",),
)
_DUMP_MATCH_FIELDS = _Fields(
    match_id=_string, offer_id=_string, request_id=_string, inject_bus=_string,
    withdraw_bus=_string, quantity_kw=_dumped_number, price_eur_per_kw=_dumped_number,
    conditionality=_string, round=_whole,
)
_DUMP_FIELDS = _Fields(
    **dict.fromkeys(_DUMP_COUNTERS, _whole), injection_kw=_per_bus(_dumped_number),
    requests=_records(_DUMP_BID_FIELDS, Bid), offers=_records(_DUMP_BID_FIELDS, Bid),
    accepted_matches=_records(_DUMP_MATCH_FIELDS, MatchRecord), seen_ids=_list_of(_string),
)
# The fields of a trade-log record, in TradeLogEntry order.
_TRADE_FIELDS = _Fields(
    round=_whole, offer_id=_string, request_id=_string, quantity_kw=_dumped_number,
    price_eur_per_kw=_dumped_number, outcome=_string, binding_lines=_list_of(_string),
)


def load_network(path):
    """Read a network file; return the network and its slack-balanced baseline.

    The slack injection may be omitted and is then set to the negative
    sum of all other injections; if present it must already balance.
    Missing non-slack entries default to zero. The PTDF is solved here,
    so a network without a usable one raises :class:`NetworkError`
    naming the file; the line limits are left for a book to check.
    """
    data = _checked(_read_yaml(path, "network"), _NETWORK_FIELDS, str(path))
    buses, slack = data["buses"], data["slack_bus"]
    try:
        network = Network(buses, [Line(**raw) for raw in data["lines"]], slack)
        build_ptdf(network)
    except NetworkError as exc:
        raise type(exc)(f"{path}: {exc}") from None

    injections = data.get("injection_kw") or {}
    unknown = set(injections) - set(buses)
    if unknown:
        raise InputError(f"{path}: injection_kw names unknown buses {sorted(unknown)}")
    for bus in buses:
        if bus != slack:
            injections.setdefault(bus, 0.0)
    balance = -sum(value for bus, value in injections.items() if bus != slack)
    if not finite_number(balance):  # finite injections whose sum overflows
        raise InputError(f"{path}: the slack balance {balance:g} kW is not a finite number")
    if slack in injections and abs(injections[slack] - balance) > QUANTITY_TOL:
        raise InputError(
            f"{path}: injections sum to {injections[slack] - balance:g} kW, not zero"
        )
    injections[slack] = balance
    return network, DispatchState(injection_kw=injections)


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


def load_bids(path) -> list:
    """Read a bid stream: one JSON record per line, in arrival order.

    Ids and buses are labels (see :func:`_label`); every bid on a bus
    shares one string for it. The bids are not numbered: the book
    numbers each one as it arrives.
    """
    bids = []
    seen = set()
    for lineno, record in _json_lines(path, "bids file"):
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


def load_scenarios(path) -> tuple:
    """Read activation scenarios: a non-empty YAML list of lists of match ids (labels)."""
    scenarios = _list_of(_list_of(_label))(_read_yaml(path, "scenarios"), f"{path}: scenarios")
    if not scenarios:
        raise InputError(f"{path}: expected a non-empty list of scenarios")
    return tuple(map(frozenset, scenarios))


def new_book(network, baseline, config: MarketConfig) -> OrderBook:
    path = config.scenarios_path
    scenarios = load_scenarios(path) if path is not None else ()
    return OrderBook(network, baseline, config.policy, scenarios=scenarios, order=config.order)


def run_replay(network_path, bids_path, config: MarketConfig) -> OrderBook:
    """Feed a bid file through the market in file order; return the book.

    The book, which checks the baseline, is built before the bids are
    read. A load or validation problem raises its :class:`FlexMarketError`.
    """
    book = new_book(*load_network(network_path), config)
    for bid in load_bids(bids_path):
        book.submit_bid(bid)
    return book


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
    ``_TRADE_FIELDS``, each as its rule reads it, raises
    :class:`InputError` naming the line.
    """
    return [
        TradeLogEntry(**_checked(record, _TRADE_FIELDS, f"{path}:{lineno}"))
        for lineno, record in _json_lines(path, "trade log")
    ]


# ----------------------------------------------------------------------
# order book dumps


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
_MATCH_TEMPLATE = _object_template(sorted(_DUMP_MATCH_FIELDS), 4)
_match_values = attrgetter(*sorted(_DUMP_MATCH_FIELDS))
# The template and getter of each bid shape Bid admits: an offer has no conditionality.
_BID_SHAPES = {
    side: (_object_template(keys, 4), attrgetter(*keys))
    for side, keys in (
        (REQUEST, sorted(_DUMP_BID_FIELDS)),
        (OFFER, sorted(_DUMP_BID_FIELDS.keys() - {"conditionality"})),
    )
}


def _bid_record(bid: Bid) -> str:
    template, values = _BID_SHAPES[bid.side]
    return template % tuple(map(_json_value, values(bid)))


def book_json(book: OrderBook) -> str:
    """The book's dump, the only writer of one: the text of its state and a newline.

    The dump holds the counters of :meth:`OrderBook.snapshot`, the baseline
    injections by bus label, the resting requests and offers, each a record
    of its bid's fields without a null conditionality, the accepted matches
    and the sorted ``seen_ids``. The text is byte for byte what
    ``json.dumps(dump, sort_keys=True, indent=2)`` writes for that dict:
    ASCII only, keys sorted and a two-space indent. It is written from a
    ``%`` template per record shape, each value formatted by
    :func:`_json_value`, so no dump dict is built and the pure-Python
    encoder that ``indent`` selects never runs.
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
    """Read and check a dump written by :func:`book_json`, as ``Bid`` and ``MatchRecord`` records.

    A dump that lacks a field :func:`load_book` needs, a truncated one
    included, or that holds a mistyped or non-finite value or a bid ``Bid``
    refuses, raises :class:`InputError` naming the record. Checks across
    records or against a network are left to :func:`load_book`.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read book dump: {exc}") from None
    except ValueError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    return _checked(data, _DUMP_FIELDS, str(path))


def load_book(path, network, config: MarketConfig) -> OrderBook:
    """Rebuild an order book from a dump; inverse of :func:`book_json`.

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
            resting=data["requests"] + data["offers"],
            accepted=data["accepted_matches"],
        )
    except (MarketError, NetworkError) as exc:
        raise InputError(f"{path}: {exc}") from None
    return book


# ----------------------------------------------------------------------
# post-hoc audits


def audit_trade_log(network, baseline, bids_path, trades_path):
    """Audit every activation subset of the cleared state a trade log describes.

    Replays the log's unconditional trades in order on the ``baseline``
    of ``network``, collects the conditional matches, and solves the
    worst activation subsets of every line with the independent oracle
    (:func:`~flexmarket.oracle.worst_subset_check`), which covers all
    subsets for any number of matches. Returns the violating subsets;
    empty means the procurement is activation-safe. A baseline that
    overloads a line raises :class:`InfeasibleBaselineError`.
    """
    check_baseline(network, baseline)
    bids = {bid.id: bid for bid in load_bids(bids_path)}
    dispatch = baseline.copy()
    conditional = []
    entries = read_trade_log(trades_path)
    matched = [e for e in entries if e.outcome in (OUTCOME_MATCHED, OUTCOME_PARTIAL)]
    # The book numbers every match m1, m2, ... in log order, unconditional ones included.
    for number, entry in enumerate(matched, start=1):
        try:
            offer, request = bids[entry.offer_id], bids[entry.request_id]
        except KeyError as exc:
            raise InputError(f"{trades_path}: names unknown bid {shown(exc.args[0])}") from None
        inject_bus, withdraw_bus = exchange_buses(request.bus, offer.bus, request.direction)
        if request.conditionality == UNCONDITIONAL:
            dispatch.apply_exchange(inject_bus, withdraw_bus, entry.quantity_kw)
        else:
            conditional.append(MatchRecord(  # its fields, in order
                f"m{number}", offer.id, request.id, inject_bus, withdraw_bus, entry.quantity_kw,
                entry.price_eur_per_kw, request.conditionality, entry.round,
            ))
    return worst_subset_check(network, dispatch, conditional)
