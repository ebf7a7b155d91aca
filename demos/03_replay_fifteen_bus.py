"""Replay the 15-bus scenario end to end and inspect the book.

Six requests arrive as a batch, then six offers arrive one by one. The
replay exercises a full fill, a one-offer-many-requests fill, a partial
fill capped by congestion, outright congestion rejections, a same-bus
match, and an unconditional match that shifts the baseline and triggers
re-evaluation.
"""

from pathlib import Path

from flexmarket import MarketConfig, line_flows, run_replay

DATA = Path(__file__).resolve().parent.parent / "data"

book = run_replay(
    DATA / "fifteen_bus.yaml", DATA / "bids_fifteen_bus.jsonl", MarketConfig(policy="all")
)

print("Trade log")
for entry in book.trade_log:
    note = f" (binding {', '.join(entry.binding_lines)})" if entry.binding_lines else ""
    print(
        f"  round {entry.round:2d}: {entry.offer_id}/{entry.request_id:6s} "
        f"{entry.outcome:22s} {entry.quantity_kw:5.1f} kW @ {entry.price_eur_per_kw} EUR/kW{note}"
    )

print("\nResting offers")
for bid in book.offers:
    print(f"  {bid.id}: {bid.quantity_kw:g} kW of {bid.original_quantity_kw:g} kW left")

print("\nAccepted conditional matches (the combination set for future checks)")
for record in book.accepted:
    print(
        f"  {record.match_id}: {record.offer_id}/{record.request_id} {record.quantity_kw:g} kW, "
        f"inject at {record.inject_bus}, withdraw at {record.withdraw_bus}"
    )

print("\nLines at their limit in the worst activation subset")
worst = book.activation_snapshot([r.match_id for r in book.accepted[:2]])
for label, line, flow in zip(book.network.line_labels, book.network.lines, line_flows(book.ptdf, worst)):
    flag = "  <- saturated" if abs(abs(flow) - line.limit_kw) < 1e-9 else ""
    if abs(flow) > 0.6 * line.limit_kw:
        print(f"  line {label}: {flow:7.1f} kW of {line.limit_kw:6.1f} kW{flag}")
