"""Command line interface.

Subcommands: ``run`` replays a bid file against a network, ``check``
validates a network and its baseline and, given ``--bids`` and
``--trades``, audits every activation subset of the trade log,
``ptdf`` dumps the sensitivity matrix, ``book`` pretty-prints an order
book dump. Exit codes: 0 clean, 1 an audit that finds a violating
subset, 2 input error (an output path that cannot be written included),
3 infeasible baseline.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import FlexMarketError, InputError
from .fileio import (
    POLICY_ALIASES,
    MarketConfig,
    audit_trade_log,
    book_json,
    load_network,
    read_book_dump,
    run_replay,
    trade_log_text,
)
from .grid import build_ptdf, check_baseline
from .market import ORDER_FIFO, ORDERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexmarket",
        description="Continuous flexibility market clearing with DC network checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay a bid file against a network")
    run.add_argument("--network", required=True, help="network YAML file")
    run.add_argument("--bids", required=True, help="bid stream, one JSON record per line")
    run.add_argument(
        "--policy",
        default="all",
        choices=list(POLICY_ALIASES),
        help="network-check combination policy (default: all)",
    )
    run.add_argument("--scenarios", help="YAML scenario file (scenarios policy only)")
    run.add_argument("--order", default=ORDER_FIFO, choices=ORDERS,
                     help="counterparty iteration order (default: fifo)")
    run.add_argument("--out", help="directory for trades.jsonl and book.json")
    run.set_defaults(func=cmd_run)

    check = sub.add_parser("check", help="validate a network and its baseline; audit a log")
    check.add_argument("--network", required=True)
    check.add_argument("--bids", help="bid stream the trade log refers to")
    check.add_argument("--trades", help="trade log to audit against every activation subset")
    check.set_defaults(func=cmd_check)

    ptdf = sub.add_parser("ptdf", help="dump the PTDF matrix as CSV")
    ptdf.add_argument("--network", required=True)
    ptdf.add_argument("--out", help="output file (default: stdout)")
    ptdf.set_defaults(func=cmd_ptdf)

    book = sub.add_parser("book", help="pretty-print an order book dump")
    book.add_argument("--book", required=True, help="book.json produced by run")
    book.set_defaults(func=cmd_book)
    return parser


def cmd_run(args) -> int:
    config = MarketConfig(policy=args.policy, scenarios_path=args.scenarios, order=args.order)
    book = run_replay(args.network, args.bids, config)
    log = trade_log_text(book.trade_log)
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            reason = exc.strerror or exc
            raise InputError(f"cannot make output directory {args.out}: {reason}") from None
        for name, text in (("trades.jsonl", log), ("book.json", book_json(book))):
            write_text(os.path.join(args.out, name), text)
    sys.stdout.write(log)
    print(
        f"# {len(book.trade_log)} log entries, {book.match_count} matches, "
        f"{len(book.requests)} requests and {len(book.offers)} offers resting",
        file=sys.stderr,
    )
    return 0


def cmd_check(args) -> int:
    if (args.bids is None) != (args.trades is None):
        raise InputError("auditing a trade log needs both --bids and --trades")
    network, baseline = load_network(args.network)
    flows = check_baseline(network, baseline)
    print(f"{len(network.buses)} buses, {len(network.lines)} lines, slack {network.slack_bus}")
    for label, line, flow in zip(network.line_labels, network.lines, flows):
        print(f"  line {label}: flow {flow:10.3f} kW, limit {line.limit_kw:10.3f} kW")
    print("baseline feasible")
    if args.trades is None:
        return 0
    reports = audit_trade_log(network, baseline, args.bids, args.trades)
    if not reports:
        print("exhaustive audit clean: every activation subset stays within limits")
        return 0
    for report in reports:
        print(str(report))
    print(f"exhaustive audit found {len(reports)} violating subsets", file=sys.stderr)
    return 1


def cmd_ptdf(args) -> int:
    ptdf = build_ptdf(load_network(args.network)[0])
    rows = ["line," + ",".join(str(b) for b in ptdf.buses)]
    for label, row in zip(ptdf.line_labels, ptdf.matrix):
        rows.append(label + "," + ",".join(f"{v:.12g}" for v in row))
    text = "\n".join(rows) + "\n"
    if args.out:
        write_text(args.out, text)
    else:
        print(text, end="")
    return 0


def write_text(path: str, text: str) -> None:
    """Write ``text`` to the file ``path``; raise :class:`InputError` naming it if that fails."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_book(args) -> int:
    data = read_book_dump(args.book)
    print(f"round {data['round']}, {data['match_counter']} matches so far")
    print("baseline injections (kW):")
    for bus, value in data["injection_kw"].items():
        print(f"  {bus}: {value:g}")
    for side in ("requests", "offers"):
        print(f"resting {side}:")
        if not data[side]:
            print("  (none)")
        for bid in data[side]:
            extra = f", {bid.conditionality}" if bid.conditionality else ""
            print(
                f"  {bid.id}: {bid.direction} {bid.quantity_kw:g} kW"
                f" of {bid.original_quantity_kw:g} kW @ bus {bid.bus}"
                f" for {bid.price_eur_per_kw:g} EUR/kW{extra}"
            )
    print("accepted conditional matches:")
    if not data["accepted_matches"]:
        print("  (none)")
    for rec in data["accepted_matches"]:
        print(
            f"  {rec.match_id}: {rec.offer_id}/{rec.request_id}"
            f" {rec.quantity_kw:g} kW @ {rec.price_eur_per_kw:g} EUR/kW"
            f" (inject {rec.inject_bus}, withdraw {rec.withdraw_bus})"
        )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlexMarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
