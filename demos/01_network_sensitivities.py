"""Walk through the DC network model on the bundled three-bus feeder.

Builds the PTDF matrix, reads off line flows and each line's room for a
flow rise and a flow fall, and shows how the per-line sensitivity of a
bus-to-bus exchange caps the quantity that can be traded between two
locations.
"""

from pathlib import Path

from flexmarket import (
    build_ptdf,
    exchange_sensitivity,
    flow_rooms,
    line_flows,
    load_network,
    max_tradable_quantity,
    quantity_caps,
)

DATA = Path(__file__).resolve().parent.parent / "data"

network, baseline = load_network(DATA / "three_bus.yaml")
ptdf = build_ptdf(network)

print("PTDF matrix (rows: lines, columns: buses, slack column is zero)")
print("      " + "".join(f"{b:>8}" for b in ptdf.buses))
for label, row in zip(ptdf.line_labels, ptdf.matrix):
    print(f"{label:>6}" + "".join(f"{v:8.3f}" for v in row))

flows = line_flows(ptdf, baseline)
up_room, down_room = flow_rooms(flows, network.limit_vector())
print("\nBaseline flows and the room each line has left")
rows = zip(network.lines, network.line_labels, flows, up_room, down_room)
for line, label, flow, up, down in rows:
    print(
        f"  line {label}: flow {flow:6.1f} kW of {line.limit_kw:5.1f} kW, "
        f"room to rise {up:.1f} kW, to fall {down:.1f} kW"
    )

alpha = exchange_sensitivity(ptdf, "3", "1")
print("\nSensitivity of each line to moving power from bus 3 to bus 1")
print("  alpha =", alpha)
print("  per-line caps on that exchange (kW):", quantity_caps(alpha, up_room, down_room))

print("\nMaximum tradable quantities on the baseline")
for request_bus, offer_bus, direction, wanted in [
    ("2", "3", "down", 20.0),  # line 2-3 is already at its limit
    ("1", "3", "up", 30.0),  # this exchange reduces both flows
    ("2", "1", "up", 30.0),  # capped by the 20 kW of headroom on line 1-2
]:
    allowed = max_tradable_quantity(
        network, ptdf, baseline, request_bus, offer_bus, direction, wanted
    )
    print(
        f"  {direction:>4} request at bus {request_bus}, offer at bus {offer_bus}: "
        f"{allowed:4.1f} of {wanted:4.1f} kW"
    )
