"""Seeded clearing benchmark for flexmarket.

Generates one workload's inputs from ``--seed``, then replays them for
``--seconds`` through the path ``flexmarket run`` takes: the ``fileio``
loaders, ``OrderBook.submit_bid`` and the ``fileio`` serialisers. Load
comes from one thread in a closed loop: each bid is submitted when the
previous ``submit_bid`` returns. Every replay starts from fresh books.
The results are then checked, and every metric is printed by name with
its unit; the last line of output is one JSON object.

    python3 bench/run.py --workload mixed-reeval --seed 1 --seconds 40 --trace 0

``--trace 0`` reports end-to-end metrics. ``--trace 1`` alternates
untraced and traced replays and reports per-layer metrics, including
the tracing overhead. Without ``--workload`` every workload runs in
turn, each in a fresh process. The exit code is non-zero when any
check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
GOLDEN = ROOT / "tests" / "golden" / "fifteen_bus.trades.jsonl"

if not (SRC / "flexmarket" / "__init__.py").is_file():
    sys.exit(f"no flexmarket sources under {SRC}: run from a full checkout")
sys.path.insert(0, str(SRC))
# The book is single-writer; a second BLAS thread only adds scheduling noise
# on a small shared machine. Set before numpy loads its BLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import flexmarket  # noqa: E402
from flexmarket import fileio  # noqa: E402

import audit  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if Path(flexmarket.__file__).resolve().parent != SRC / "flexmarket":
    sys.exit(f"imported flexmarket from {flexmarket.__file__}, not from {SRC}")


@dataclass
class Replay:
    """One pass over a workload's inputs, from loading to serialising."""

    setup_s: float = 0.0
    submit_s: float = 0.0
    output_s: float = 0.0
    bytes_out: int = 0
    samples: list = field(default_factory=list)  # seconds per completed submit_bid
    failures: Counter = field(default_factory=Counter)  # exception type -> count
    tracebacks: dict = field(default_factory=dict)  # first traceback per type
    books: list = field(default_factory=list)  # (bids, book, failed ids) per book
    digest: str = ""

    @property
    def attempted(self) -> int:
        return len(self.samples) + sum(self.failures.values())

    @property
    def bids_per_s(self) -> float:
        return len(self.samples) / self.submit_s

    def latency_ms(self, q: float) -> float:
        """Nearest-rank ``q`` percentile of this replay's submit latencies."""
        return percentile(sorted(self.samples), q) * 1e3


def submit_all(book, bids, replay: Replay) -> set:
    """Submit ``bids`` one after another and time each call.

    A submission that raises is counted under its exception type and
    the replay continues with the next bid. Returns the failed bid ids.
    """
    failed_ids = set()
    for bid in bids:
        start = perf_counter()
        try:
            book.submit_bid(bid)
        except Exception as exc:  # a failed submission is data, not the end of the run
            replay.submit_s += perf_counter() - start
            name = type(exc).__name__
            replay.failures[name] += 1
            replay.tracebacks.setdefault(name, traceback.format_exc())
            failed_ids.add(bid.id)
        else:
            elapsed = perf_counter() - start
            replay.submit_s += elapsed
            replay.samples.append(elapsed)
    return failed_ids


def replay_once(network_path, bid_paths, config) -> Replay:
    """Load, clear and serialise every book of a workload once."""
    replay = Replay()
    digest = hashlib.sha256()
    start = perf_counter()
    network, baseline = fileio.load_network(network_path)
    replay.setup_s += perf_counter() - start
    for path in bid_paths:
        start = perf_counter()
        bids = fileio.load_bids(path)
        book = fileio.new_book(network, baseline, config)
        replay.setup_s += perf_counter() - start

        failed_ids = submit_all(book, bids, replay)

        start = perf_counter()
        lines = fileio.trade_log_lines(book.trade_log)
        dump = fileio.book_json(book)
        replay.output_s += perf_counter() - start

        replay.bytes_out += sum(map(len, lines)) + len(lines) + len(dump)
        for entry, line in zip(book.trade_log, lines):
            if entry.outcome in audit.MATCHED:
                digest.update(line.encode() + b"\n")
        digest.update(b"--\n")
        replay.books.append((bids, book, failed_ids))
    replay.digest = digest.hexdigest()
    return replay


def write_inputs(inputs: workloads.Inputs, work: Path) -> tuple:
    """Write the generated network and bid files; return their paths."""
    if inputs.network_yaml is None:
        network_path = ROOT / workloads.FIFTEEN_BUS
    else:
        network_path = work / "network.yaml"
        network_path.write_text(inputs.network_yaml)
    bid_paths = []
    for index, stream in enumerate(inputs.bid_streams):
        path = work / f"bids-{index + 1:04d}.jsonl"
        path.write_text(stream)
        bid_paths.append(path)
    return network_path, bid_paths


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: tracing.Tracer, replay: Replay) -> dict:
    """Per-layer numbers of one traced replay."""
    spans = tracer.summary()

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    books = [book for _, book, _ in replay.books]
    pairings = sum(len(book.trade_log) for book in books)
    rejected_price = sum(
        entry.outcome == "rejected(price)" for book in books for entry in book.trade_log
    )
    matches = sum(book.match_count for book in books)
    out = {}
    for name in tracing.GRID_SPANS:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.s"] = get(name, "s")
    out["grid.quantity_caps.rows"] = tracer.flow_rows
    out["market.submit_bid.s"] = get("market.submit_bid", "s")
    out["market.self_s"] = (
        get("market.submit_bid", "self_s") + get("market.reevaluate_book", "self_s")
    )
    out["market.reevaluate_book.calls"] = get("market.reevaluate_book", "calls")
    out["market.reevaluate_book.s"] = get("market.reevaluate_book", "s")
    out["market.pairings"] = pairings
    out["market.pairings.rejected_price"] = rejected_price
    out["market.checks"] = pairings - rejected_price
    out["market.matches"] = matches
    out["market.useful_ratio"] = matches / pairings if pairings else 0.0
    out["market.resting_bids.max"] = tracer.resting_max
    out["market.delta_rows_read"] = tracer.delta_rows_read
    for name in tracing.FILEIO_SPANS:
        out[f"{name}.s"] = get(name, "s")
    out["fileio.bytes_out"] = replay.bytes_out
    return out


def check(workload, seed: int, inputs, replays: list, last: Replay) -> tuple:
    """Every correctness check; returns the failures and the oracle's seconds."""
    errors = []
    if workloads.generate(workload, seed) != inputs:
        errors.append("the generator gave different inputs for the same seed")
    errors += audit.golden_replay(
        ROOT / workloads.FIFTEEN_BUS, DATA / "bids_fifteen_bus.jsonl", GOLDEN
    )
    digests = {replay.digest for replay in replays}
    if len(digests) != 1:
        errors.append(f"{len(digests)} different trade digests over {len(replays)} replays")
    for bids, book, failed_ids in last.books:
        errors += audit.trade_log(book, bids, failed_ids)

    start = perf_counter()
    books = [book for _, book, _ in last.books]
    exhaustive = workload.policy == "all_combinations"
    for book in books:
        errors += audit.network_state(book, accepted_too=not exhaustive)
    if exhaustive:
        subset_errors, audited = audit.activation_subsets(books, seed)
        errors += subset_errors
        print(f"check: every activation subset audited on {audited} of {len(books)} books")
    return errors, perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    workload = workloads.WORKLOADS[name]
    inputs = workloads.generate(workload, seed)
    config = fileio.MarketConfig(policy=workload.policy)
    replays, tracers = [], []
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as work:
        network_path, bid_paths = write_inputs(inputs, Path(work))
        # No replay starts that the previous one's length says would end
        # past the deadline, so a run lasts about ``seconds`` whatever the
        # replay length.
        deadline = perf_counter() + seconds
        last, length = None, 0.0
        while len(replays) < 2 or perf_counter() + length < deadline:
            start = perf_counter()
            if last is not None:  # only the final replay's books are audited
                last.books = []
                last = None
            gc.collect()
            if traced and len(replays) % 2:
                tracer = tracing.Tracer()
                with tracer.installed():
                    last = replay_once(network_path, bid_paths, config)
                tracers.append((tracer, layer_metrics(tracer, last)))
            else:
                last = replay_once(network_path, bid_paths, config)
            replays.append(last)
            length = perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors, oracle_s = check(workload, seed, inputs, replays, last)

    untraced = replays[::2] if traced else replays
    samples = [len(replay.samples) for replay in untraced]
    attempted = sum(replay.attempted for replay in replays)
    failures = sum((replay.failures for replay in replays), Counter())
    failed = sum(failures.values())
    print(
        f"workload {name}: seed {seed}, policy {workload.policy}, "
        f"{len(last.books)} books, {last.attempted} bids per replay, "
        f"{len(replays)} replays ({len(tracers)} traced), closed loop, 1 caller"
    )
    print(
        f"machine: nproc {os.cpu_count()}, {platform.machine()}, "
        f"python {platform.python_version()}, numpy {np.__version__}"
    )
    units = metric_units("end_to_end")
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in untraced),
        "bids_per_s": statistics.median(r.bids_per_s for r in untraced),
        "submit_p50_ms": statistics.median(r.latency_ms(0.50) for r in untraced),
        "submit_p99_ms": statistics.median(r.latency_ms(0.99) for r in untraced),
        "output_s": statistics.median(r.output_s for r in untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    for key, value in metrics.items():
        print(f"  {key:<16} {value:12.4f} {units[key]}")
    beyond = min(samples) - math.ceil(0.99 * min(samples))
    print(f"  submit latency samples: {sum(samples)} over {len(samples)} replays, "
          f"at least {min(samples)} per replay ({beyond} beyond p99)")
    print(f"  failed_ratio     {failed / attempted:12.4f} ({failed} of {attempted} submissions)")
    for kind, count in sorted(failures.items()):
        first = next(r.tracebacks[kind] for r in replays if kind in r.tracebacks)
        print(f"  failed with {kind}: {count}\n{first}", file=sys.stderr)

    if traced:
        layers = {
            key: statistics.median(numbers[key] for _, numbers in tracers)
            for key in tracers[0][1]
        }
        layers["oracle.check.s"] = oracle_s
        layers["trace.overhead_ratio"] = (
            statistics.median(r.bids_per_s for r in replays[1::2]) / metrics["bids_per_s"]
        )
        layer_unit = metric_units("per_layer")
        for key, value in layers.items():
            print(f"  {key:<32} {value:14.6f} {layer_unit.get(key, '')}")
        spans_path = ROOT / ".bench-spans" / f"{name}-seed{seed}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        with open(spans_path, "w") as handle:
            for index, (tracer, _) in enumerate(tracers):
                for span in tracer.spans:
                    handle.write(json.dumps([index, *span]) + "\n")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    reported = layers if traced else metrics
    declared = metric_units("per_layer" if traced else "end_to_end")
    if set(reported) != set(declared):
        mismatch = sorted(set(reported) ^ set(declared))
        errors.append(f"reported metrics differ from BENCHMARK.json: {mismatch}")

    for message in errors[:20]:
        print(f"CHECK FAILED: {message}")
    if len(errors) > 20:
        print(f"CHECK FAILED: ... and {len(errors) - 20} more")
    if not errors:
        print("checks: golden 15-bus log, oracle network audit, pay-as-bid, "
              "quantity conservation, repeat digest: all passed")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": declared.get(key, "")} for key, value in reported.items()
        },
    }))
    return 1 if errors else 0


def metric_units(group: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[group]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    codes = []
    for name in workloads.WORKLOADS:
        child = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(child, check=False).returncode)
    print(f"workloads {'passed' if not any(codes) else 'FAILED'}: "
          + ", ".join(f"{n} exit {c}" for n, c in zip(workloads.WORKLOADS, codes)))
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main())
