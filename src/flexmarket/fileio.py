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
    DOWN,
    QUANTITY_TOL,
    UP,
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
    CONDITIONAL,
    CUMULATIVE,
    INDIVIDUAL,
    INDIVIDUAL_AND_CUMULATIVE,
    OFFER,
    ORDER_FIFO,
    OUTCOME_MATCHED,
    OUTCOME_PARTIAL,
    OUTCOME_REJECTED_CONGESTION,
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
# The key sets of a bid-file record, with and without its optional conditionality.
_BID_FILE_KEYS = (frozenset(_BID_FIELDS), frozenset(_BID_FIELDS).difference(_BID_FIELDS.optional))

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
        with open(path, encoding="utf-8") as handle:
            return yaml.load(handle, Loader=_YAML_LOADER)
    except OSError as exc:
        raise InputError(f"cannot read {what} file: {exc}") from None
    except (yaml.YAMLError, ValueError) as exc:
        raise InputError(f"{path}: invalid YAML: {exc}") from None


# Decodes one JSON value at the start of a line; json.loads words every error.
_scan_json = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"


def _json_lines(path, what: str):
    """``(line number, record)`` per non-blank line; ``what`` names the file in errors.

    Each line, its newline kept, is decoded once: a line that holds one
    JSON value from its first character, followed by nothing but JSON
    whitespace, is that value. Any other line, a blank one, one with
    leading space or extra data and invalid JSON among them, is read by
    ``json.loads`` as it stands, which gives the error texts.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: invalid UTF-8: {exc}") from None
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        raise InputError(f"cannot read {what}: {exc}") from None
    scan, space = _scan_json, _JSON_SPACE
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            record, end = scan(raw, 0)
        except (StopIteration, ValueError):  # not one value from the first character
            end = -1
        if end < 0 or raw[end:].strip(space):
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

    ``Bid`` is the one gate of a record that holds exactly the fields of
    a bid file, its id and bus as strings and its quantity and price as
    JSON numbers: each number is checked once, as ``Bid`` reads it. Any
    other record, and one ``Bid`` refuses, is read by the field rules of
    ``_BID_FIELDS`` and then ``Bid``, which word every error.
    """
    bids = []
    seen = set()
    shapes, numbers, intern = _BID_FILE_KEYS, _NUMBERS, sys.intern
    for lineno, record in _json_lines(path, "bids file"):
        bid = None
        if type(record) is dict and record.keys() in shapes:
            bid_id, bus = record["id"], record["bus"]
            quantity, price = record["quantity_kw"], record["price_eur_per_kw"]
            if (type(bid_id) is str and type(bus) is str
                    and type(quantity) in numbers and type(price) in numbers):
                try:
                    bid = Bid(
                        bid_id, record["side"], record["direction"], intern(bus),
                        float(quantity), float(price), record.get("conditionality"),
                    )
                except (MarketError, OverflowError):  # the field rules word the error
                    pass
        if bid is None:
            try:
                _checked(record, _BID_FIELDS, "")
                bid = Bid(
                    record["id"], record["side"], record["direction"], record["bus"],
                    record["quantity_kw"], record["price_eur_per_kw"],
                    record.get("conditionality"),
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
# writers: one ``%`` of a template per record
#
# ``json.dumps`` writes an exact ``str`` as ``encode_basestring_ascii(s)``,
# and an exact ``int`` or a finite exact ``float`` as its type's ``__repr__``.
# ``"%s" % x`` writes those same texts for such a number, as ``str(x)`` is
# ``repr(x)`` for both types. So each record is one ``%`` of a template for
# its shape: a number slot takes the number itself, a string slot the
# ``encode_basestring_ascii`` text, and the engine's own constants (a bid's
# side, direction and conditionality, a match's conditionality, a log
# entry's outcome) are part of the template text. Any other value is
# written by :func:`_json_value` in the same slot.

_INF = math.inf
_NUMBERS = (float, int)


def _json_value(value) -> str:
    """``json.dumps(value)``, for a value that no template slot takes as it is.

    That is any value but an exact ``str``, an exact ``int`` or a finite
    exact ``float``: a bool, a subclass of ``int``, ``str`` or ``float`` (an
    ``IntEnum`` member or a numpy float), NaN, ±inf, a constant that no
    template holds, and whatever else a caller set a field to. Each takes
    ``json.dumps``'s own formatting. A finite float subclass, such as the
    numpy float64 a library caller may pass, is written as ``json.dumps``
    writes it, by ``float.__repr__``, without the encoder's set-up.
    """
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _baked(value) -> str:
    """The JSON text of ``value`` as it stands in a template: ``%`` written as ``%%``."""
    return _json_value(value).replace("%", "%%")


def _trade_line(outcome) -> str:
    """The template of a trade-log line with ``outcome``, keys in ``json.dumps``'s sorted order."""
    return (
        '{"binding_lines": [%s], "offer_id": %s, "outcome": ' + _baked(outcome)
        + ', "price_eur_per_kw": %s, "quantity_kw": %s, "request_id": %s, "round": %s}'
    )


_TRADE_LINES = {
    outcome: _trade_line(outcome)
    for outcome in (OUTCOME_MATCHED, OUTCOME_PARTIAL, OUTCOME_REJECTED_CONGESTION)
}


def trade_log_lines(entries) -> list:
    """One JSON object per entry, keys sorted, byte for byte as ``json.dumps`` writes it.

    Each line is one ``%`` of the template of its outcome. The ids and
    binding lines take their ``encode_basestring_ascii`` text when each is
    an exact ``str``, the quantity and price themselves when each is an
    exact ``int`` or a finite exact ``float``, and the round itself when it
    is an exact ``int``. Any other value, and an outcome the engine does
    not write, is written by :func:`_json_value`.
    """
    value, text, templates, numbers, inf = (
        _json_value, encode_basestring_ascii, _TRADE_LINES, _NUMBERS, _INF
    )
    lines = []
    append = lines.append
    for round_, offer, request, quantity, price, outcome, binding in entries:
        template = templates.get(outcome) if type(outcome) is str else None
        if template is None:
            template = _trade_line(outcome)
        names = [text(x) if type(x) is str else value(x) for x in binding] if binding else ()
        append(template % (
            ", ".join(names),
            text(offer) if type(offer) is str else value(offer),
            price if type(price) in numbers and -inf < price < inf else value(price),
            quantity if type(quantity) in numbers and -inf < quantity < inf else value(quantity),
            text(request) if type(request) is str else value(request),
            round_ if type(round_) is int else value(round_),
        ))
    return lines


def trade_log_text(entries) -> str:
    """The text of a trade log: each of :func:`trade_log_lines` and a newline, joined once."""
    lines = trade_log_lines(entries)
    return "\n".join(lines) + "\n" if lines else ""


def write_trade_log(entries, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trade_log_text(entries))


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


def _object_template(keys, indent: int, baked=None) -> str:
    """A ``%`` template of one JSON object with ``keys``, as ``json.dumps(indent=2)`` nests it.

    ``indent`` is the indentation of the object's closing brace; its fields
    are two spaces further in, and the text starts at its opening brace.
    ``baked`` maps the keys whose values are written into the template to
    those values; each other key takes one formatted value per ``%s``, in
    the order of ``keys``.
    """
    baked = baked or {}
    pad = " " * indent
    fields = ",\n".join(
        f"{pad}  {encode_basestring_ascii(key)}: " + (_baked(baked[key]) if key in baked else "%s")
        for key in keys
    )
    return f"{{\n{fields}\n{pad}}}"


def _json_block(items: list, brackets: str) -> str:
    """A top-level list or object of the dump, from its rendered items, as ``json.dumps`` writes it.

    ``brackets`` is ``"[]"`` or ``"{}"``; an empty one is written as just
    those. Each item is written on its own line, four spaces in.
    """
    if not items:
        return brackets
    return f"{brackets[0]}\n    " + ",\n    ".join(items) + f"\n  {brackets[1]}"


# The dump's keys, and those of its bids and matches, in the sorted order json.dumps writes.
_BOOK_KEYS = tuple(sorted(_DUMP_FIELDS))
_BOOK_TEMPLATE = _object_template(_BOOK_KEYS, 0)
_BID_KEYS = tuple(sorted(_DUMP_BID_FIELDS))
_BID_CONSTANTS = ("conditionality", "direction", "side")
_bid_values = attrgetter(*(key for key in _BID_KEYS if key not in _BID_CONSTANTS))
_MATCH_KEYS = tuple(sorted(_DUMP_MATCH_FIELDS))
_match_values = attrgetter(*(key for key in _MATCH_KEYS if key != "conditionality"))


def _bid_template(side, direction, conditionality) -> str:
    """The template of a bid with these constants; a null conditionality is left out."""
    baked = {"side": side, "direction": direction, "conditionality": conditionality}
    if conditionality is None:
        return _object_template([key for key in _BID_KEYS if key != "conditionality"], 4, baked)
    return _object_template(_BID_KEYS, 4, baked)


def _match_template(conditionality) -> str:
    """The template of an accepted match with this conditionality."""
    return _object_template(_MATCH_KEYS, 4, {"conditionality": conditionality})


# The templates of the bid shapes Bid admits (an offer has no conditionality) and of a match.
_BID_TEMPLATES = {
    key: _bid_template(*key)
    for key in (
        *((OFFER, direction, None) for direction in (UP, DOWN)),
        *((REQUEST, direction, kind) for direction in (UP, DOWN)
          for kind in (CONDITIONAL, UNCONDITIONAL)),
    )
}
_MATCH_TEMPLATES = {CONDITIONAL: _match_template(CONDITIONAL)}


def _bid_records(bids) -> list:
    """The dump's record of each bid, one ``%`` of its shape's template per bid."""
    value, text, templates, numbers, inf = (
        _json_value, encode_basestring_ascii, _BID_TEMPLATES, _NUMBERS, _INF
    )
    records = []
    for bid in bids:
        shape = (bid.side, bid.direction, bid.conditionality)
        try:
            template = templates[shape]
        except (KeyError, TypeError):  # a field set after the gate to a value Bid never keeps
            template = _bid_template(*shape)
        bus, bid_id, original, price, quantity, sequence = _bid_values(bid)
        records.append(template % (
            text(bus) if type(bus) is str else value(bus),
            text(bid_id) if type(bid_id) is str else value(bid_id),
            original if type(original) in numbers and -inf < original < inf else value(original),
            price if type(price) in numbers and -inf < price < inf else value(price),
            quantity if type(quantity) in numbers and -inf < quantity < inf else value(quantity),
            sequence if type(sequence) is int else value(sequence),
        ))
    return records


def _match_records(matches) -> list:
    """The dump's record of each accepted match, one ``%`` of its template per match."""
    value, text, templates, numbers, inf = (
        _json_value, encode_basestring_ascii, _MATCH_TEMPLATES, _NUMBERS, _INF
    )
    records = []
    for match in matches:
        kind = match.conditionality
        template = templates.get(kind) if type(kind) is str else None
        if template is None:
            template = _match_template(kind)
        inject, match_id, offer, price, quantity, request, round_, withdraw = _match_values(match)
        records.append(template % (
            text(inject) if type(inject) is str else value(inject),
            text(match_id) if type(match_id) is str else value(match_id),
            text(offer) if type(offer) is str else value(offer),
            price if type(price) in numbers and -inf < price < inf else value(price),
            quantity if type(quantity) in numbers and -inf < quantity < inf else value(quantity),
            text(request) if type(request) is str else value(request),
            round_ if type(round_) is int else value(round_),
            text(withdraw) if type(withdraw) is str else value(withdraw),
        ))
    return records


def book_json(book: OrderBook) -> str:
    """The book's dump, the only writer of one: the text of its state and a newline.

    The dump holds the counters of :meth:`OrderBook.snapshot`, the baseline
    injections by bus label, the resting requests and offers, each a record
    of its bid's fields without a null conditionality, the accepted matches
    and the sorted ``seen_ids``. The text is byte for byte what
    ``json.dumps(dump, sort_keys=True, indent=2)`` writes for that dict:
    ASCII only, keys sorted and a two-space indent. No dump dict is built,
    and the pure-Python encoder that ``indent`` selects never runs: each
    bid and match is one ``%`` of the template of its shape, whose side,
    direction and conditionality are part of the template text. A string
    slot takes the ``encode_basestring_ascii`` text of an exact ``str``, a
    number slot an exact ``int`` or finite exact ``float`` itself and a
    counter, sequence or round slot an exact ``int`` itself. Any other
    value, a NaN quantity or a ``str`` subclass id among them, is written
    by :func:`_json_value`, which takes ``json.dumps``'s own formatting.
    """
    state = book.snapshot()
    value, text, numbers, inf = _json_value, encode_basestring_ascii, _NUMBERS, _INF
    injections = {str(b): v for b, v in sorted(book.baseline.injection_kw.items())}
    resting = state["resting"]
    counters = {key: state[key] for key in _DUMP_COUNTERS}
    parts = {
        **{key: n if type(n) is int else value(n) for key, n in counters.items()},
        "injection_kw": _json_block([
            "%s: %s" % (
                text(bus) if type(bus) is str else value(bus),
                kw if type(kw) in numbers and -inf < kw < inf else value(kw),
            )
            for bus, kw in sorted(injections.items())
        ], "{}"),
        "requests": _json_block(_bid_records(b for b in resting if b.side == REQUEST), "[]"),
        "offers": _json_block(_bid_records(b for b in resting if b.side == OFFER), "[]"),
        "accepted_matches": _json_block(_match_records(state["accepted"]), "[]"),
        "seen_ids": _json_block(
            [text(i) if type(i) is str else value(i) for i in sorted(state["seen_ids"])], "[]"
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
        with open(path, encoding="utf-8") as handle:
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
