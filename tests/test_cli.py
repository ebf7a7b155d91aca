import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flexmarket
from flexmarket import fileio, grid
from flexmarket.cli import main

from conftest import DATA, GOLDEN


def test_run_writes_trades_and_book(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--network", str(DATA / "three_bus.yaml"),
            "--bids", str(DATA / "bids_reevaluation.jsonl"),
            "--policy", "all",
            "--out", str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 3
    assert (out / "trades.jsonl").read_text().strip().splitlines() == printed
    assert json.loads((out / "book.json").read_text())["round"] == 4


def test_run_out_formats_the_trade_log_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(entries):
        calls.append(entries)
        return lines(entries)

    lines = fileio.trade_log_lines
    monkeypatch.setattr(fileio, "trade_log_lines", counted)  # fileio.trade_log_text calls it
    out = tmp_path / "out"
    network, bids = str(DATA / "fifteen_bus.yaml"), str(DATA / "bids_fifteen_bus.jsonl")
    assert main(["run", "--network", network, "--bids", bids, "--out", str(out)]) == 0
    assert len(calls) == 1
    assert (out / "trades.jsonl").read_text() == capsys.readouterr().out


def test_run_policy_aliases(capsys):
    code = main(
        [
            "run",
            "--network", str(DATA / "three_bus.yaml"),
            "--bids", str(DATA / "bids_joint_overload.jsonl"),
            "--policy", "both",
        ]
    )
    assert code == 0
    capsys.readouterr()


def test_run_missing_bids_file(tmp_path, capsys):
    code = main(
        ["run", "--network", str(DATA / "three_bus.yaml"), "--bids", str(tmp_path / "x.jsonl")]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_check_reports_feasible_baseline(capsys):
    assert main(["check", "--network", str(DATA / "fifteen_bus.yaml")]) == 0
    out = capsys.readouterr().out
    assert "baseline feasible" in out
    assert "15 buses" in out


def test_check_infeasible_baseline_exit_code(tmp_path, capsys):
    path = tmp_path / "net.yaml"
    path.write_text(
        "buses: [1, 2]\nslack_bus: 1\n"
        "lines:\n  - {from_bus: 1, to_bus: 2, reactance: 0.1, limit_kw: 5}\n"
        "injection_kw:\n  2: -20\n"
    )
    assert main(["check", "--network", str(path)]) == 3
    assert "line 1-2" in capsys.readouterr().err
    # The book refuses the baseline before the bid file, missing here, is read.
    assert main(["run", "--network", str(path), "--bids", str(tmp_path / "missing.jsonl")]) == 3
    assert "line 1-2" in capsys.readouterr().err
    # The PTDF does not depend on the injections, so it is dumped all the same.
    assert main(["ptdf", "--network", str(path)]) == 0
    assert capsys.readouterr().out == "line,1,2\n1-2,0,-1\n"


@pytest.mark.parametrize("given", [("--bids", "b.jsonl"), ("--trades", "t.jsonl")])
def test_check_exhaustive_needs_bids_and_trades(capsys, given):
    args = ["check", "--network", str(DATA / "three_bus.yaml"), *given]
    assert main(args) == 2
    assert capsys.readouterr() == (
        "", "error: auditing a trade log needs both --bids and --trades\n"
    )


def test_check_exhaustive_audit_is_clean(tmp_path, capsys):
    out = tmp_path / "out"
    assert (
        main(
            [
                "run",
                "--network", str(DATA / "fifteen_bus.yaml"),
                "--bids", str(DATA / "bids_fifteen_bus.jsonl"),
                "--out", str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    code = main(
        [
            "check",
            "--network", str(DATA / "fifteen_bus.yaml"),
            "--bids", str(DATA / "bids_fifteen_bus.jsonl"),
            "--trades", str(out / "trades.jsonl"),
        ]
    )
    assert code == 0
    assert "audit clean" in capsys.readouterr().out


def test_check_solves_the_network_once(monkeypatch, capsys):
    # The audit takes the network the check already loaded, with its PTDF.
    solves = []
    solve = grid._solve_ptdf

    def counted(network):
        solves.append(network)
        return solve(network)

    monkeypatch.setattr(grid, "_solve_ptdf", counted)
    code = main(
        [
            "check",
            "--network", str(DATA / "fifteen_bus.yaml"),
            "--bids", str(DATA / "bids_fifteen_bus.jsonl"),
            "--trades", str(GOLDEN / "fifteen_bus.trades.jsonl"),
        ]
    )
    assert code == 0, capsys.readouterr().err
    assert len(solves) == 1


def test_check_exhaustive_reads_logs_with_price_rejections(tmp_path, capsys):
    # Older engines logged every non-crossing pairing as rejected(price);
    # such logs still load, and the audit judges only the matched entries.
    golden = (GOLDEN / "fifteen_bus.trades.jsonl").read_text().splitlines(keepends=True)
    old = (
        '{"binding_lines": [], "offer_id": "offer2", "outcome": "rejected(price)", '
        '"price_eur_per_kw": 0.0, "quantity_kw": 0.0, "request_id": "req1", "round": 8}\n'
    )
    trades = tmp_path / "trades.jsonl"
    trades.write_text("".join(golden[:1] + [old] + golden[1:]))
    code = main(
        [
            "check",
            "--network", str(DATA / "fifteen_bus.yaml"),
            "--bids", str(DATA / "bids_fifteen_bus.jsonl"),
            "--trades", str(trades),
        ]
    )
    assert code == 0
    assert "audit clean" in capsys.readouterr().out


def test_check_exhaustive_flags_unsafe_logs(tmp_path, capsys):
    # A hand-written log that books both overload-prone trades in full.
    trades = tmp_path / "trades.jsonl"
    entries = [
        {"round": 2, "offer_id": "offer_a", "request_id": "req_a", "quantity_kw": 10.0,
         "price_eur_per_kw": 0.05, "outcome": "matched", "binding_lines": []},
        {"round": 4, "offer_id": "offer_b", "request_id": "req_b", "quantity_kw": 20.0,
         "price_eur_per_kw": 0.05, "outcome": "matched", "binding_lines": []},
    ]
    trades.write_text("".join(json.dumps(e) + "\n" for e in entries))
    code = main(
        [
            "check",
            "--network", str(DATA / "three_bus.yaml"),
            "--bids", str(DATA / "bids_joint_overload.jsonl"),
            "--trades", str(trades),
        ]
    )
    assert code == 1
    assert "1-2" in capsys.readouterr().out


def test_check_exhaustive_names_matches_as_the_book_does(tmp_path, capsys):
    # A pair refused for congestion comes first; the book does not number it.
    rejected = [
        {"id": "req_x", "side": "request", "direction": "up", "bus": 3, "quantity_kw": 10,
         "price_eur_per_kw": 0.05, "conditionality": "conditional"},
        {"id": "offer_x", "side": "offer", "direction": "up", "bus": 1, "quantity_kw": 10,
         "price_eur_per_kw": 0.045},
    ]
    bids = tmp_path / "bids.jsonl"
    bids.write_text(
        "".join(json.dumps(record) + "\n" for record in rejected)
        + (DATA / "bids_joint_overload.jsonl").read_text()
    )
    network, out = str(DATA / "three_bus.yaml"), tmp_path / "out"
    run = ["run", "--network", network, "--bids", str(bids), "--policy", "individual"]
    assert main(run + ["--out", str(out)]) == 0
    assert '"outcome": "rejected(congestion)"' in (out / "trades.jsonl").read_text()
    capsys.readouterr()
    check = ["check", "--network", network, "--bids", str(bids)]
    assert main(check + ["--trades", str(out / "trades.jsonl")]) == 1
    (report,) = [line for line in capsys.readouterr().out.splitlines() if "subset" in line]
    dumped = json.loads((out / "book.json").read_text())["accepted_matches"]
    named = "{" + ", ".join(record["match_id"] for record in dumped) + "}"
    assert report.startswith(f"subset {named}: overloaded 1-2")


@pytest.mark.parametrize("command", ["check", "run"])
def test_an_overflowing_slack_balance_exits_2(tmp_path, capsys, command):
    # Each injection is finite, but the slack balance they leave is not.
    network = tmp_path / "net.yaml"
    network.write_text(
        "buses: [1, 2, 3]\nslack_bus: 1\nlines:\n"
        "  - {from_bus: 1, to_bus: 2, reactance: 0.1, limit_kw: 60}\n"
        "  - {from_bus: 2, to_bus: 3, reactance: 0.1, limit_kw: 20}\n"
        "injection_kw: {2: -1.0e+308, 3: -1.0e+308}\n"
    )
    args = [command, "--network", str(network)]
    if command == "run":
        args += ["--bids", str(DATA / "bids_reevaluation.jsonl")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {network}: the slack balance inf kW is not a finite number\n"


@pytest.mark.parametrize(
    "field, value", [("quantity_kw", float("nan")), ("price_eur_per_kw", float("inf"))]
)
def test_check_exhaustive_rejects_a_non_finite_trade_log_number(tmp_path, capsys, field, value):
    # The individual policy books both overload-prone trades in full; a
    # log whose numbers are not finite must not audit clean.
    network = str(DATA / "three_bus.yaml")
    bids = str(DATA / "bids_joint_overload.jsonl")
    out = tmp_path / "out"
    run = ["run", "--network", network, "--bids", bids, "--policy", "individual"]
    assert main(run + ["--out", str(out)]) == 0
    records = [json.loads(line) for line in (out / "trades.jsonl").read_text().splitlines()]
    trades = tmp_path / "trades.jsonl"
    trades.write_text("".join(json.dumps({**r, field: value}) + "\n" for r in records))
    capsys.readouterr()
    check = ["check", "--network", network, "--bids", bids]
    assert main(check + ["--trades", str(trades)]) == 2
    assert f"{field}: expected a finite number" in capsys.readouterr().err


def cli(*args):
    """Run ``python -m flexmarket.cli`` in a new process, as a user would."""
    src = str(Path(flexmarket.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "flexmarket.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_the_cli_runs_as_a_module(tmp_path):
    shown = cli("--help")
    assert shown.returncode == 0
    assert "usage: flexmarket" in shown.stdout
    missing = cli("check", "--network", str(tmp_path / "missing.yaml"))
    assert missing.returncode == 2
    assert "cannot read network file" in missing.stderr


def test_a_subnormal_reactance_exits_2_without_a_traceback(tmp_path):
    # Left unrefused, the NaN PTDF of this network would clear the 500 kW
    # down exchange from bus 2 to bus 3 across the 20 kW line 2-3.
    network = tmp_path / "net.yaml"
    network.write_text(
        (DATA / "three_bus.yaml").read_text().replace("reactance: 0.1", "reactance: 1.0e-320", 1)
    )
    bids = tmp_path / "bids.jsonl"
    bids.write_text(
        json.dumps({"id": "r1", "side": "request", "direction": "down", "bus": "2",
                    "quantity_kw": 500, "price_eur_per_kw": 0.1, "conditionality": "unconditional"})
        + "\n"
        + json.dumps({"id": "o1", "side": "offer", "direction": "down", "bus": "3",
                      "quantity_kw": 500, "price_eur_per_kw": 0.05})
        + "\n"
    )
    for args in (("run", "--bids", str(bids)), ("check",), ("ptdf",)):
        done = cli(*args, "--network", str(network))
        assert done.returncode == 2, args
        assert done.stdout == ""
        assert done.stderr == (
            f"error: {network}: PTDF has non-finite entries; check the line reactances\n"
        )


@pytest.mark.parametrize("form", ["run into a file", "ptdf into a missing directory",
                                  "ptdf onto a directory"])
def test_an_unwritable_output_path_exits_2_without_a_traceback(tmp_path, form):
    taken = tmp_path / "taken"
    taken.write_text("")
    network = ["--network", str(DATA / "three_bus.yaml")]
    args, path, reason = {
        "run into a file": (
            ["run", "--bids", str(DATA / "bids_reevaluation.jsonl"), "--out", str(taken)],
            taken, "cannot make output directory",
        ),
        "ptdf into a missing directory": (
            ["ptdf", "--out", str(tmp_path / "missing" / "ptdf.csv")],
            tmp_path / "missing" / "ptdf.csv", "cannot write",
        ),
        "ptdf onto a directory": (["ptdf", "--out", str(tmp_path)], tmp_path, "cannot write"),
    }[form]
    done = cli(*args, *network)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: {reason} {path}: ")


def test_ptdf_dump(tmp_path, capsys):
    args = ["ptdf", "--network", str(DATA / "three_bus.yaml")]
    assert main(args) == 0
    text = capsys.readouterr().out
    lines = text.strip().splitlines()
    assert lines[0] == "line,1,2,3"
    assert lines[1].startswith("1-2,")
    row = [float(v) for v in lines[1].split(",")[1:]]
    assert row == pytest.approx([0.0, -1.0, -1.0])
    # --out writes the very text that stdout gets, and prints nothing.
    assert main(args + ["--out", str(tmp_path / "ptdf.csv")]) == 0
    assert (tmp_path / "ptdf.csv").read_text() == text
    assert capsys.readouterr().out == ""


def test_book_pretty_print(tmp_path, capsys):
    out = tmp_path / "out"
    main(
        [
            "run",
            "--network", str(DATA / "fifteen_bus.yaml"),
            "--bids", str(DATA / "bids_fifteen_bus.jsonl"),
            "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert main(["book", "--book", str(out / "book.json")]) == 0
    text = capsys.readouterr().out
    assert "offer2: down 20 kW of 40 kW" in text
    assert "accepted conditional matches" in text


def test_book_rejects_a_truncated_dump(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["run", "--network", str(DATA / "fifteen_bus.yaml")]
    assert main(args + ["--bids", str(DATA / "bids_fifteen_bus.jsonl"), "--out", str(out)]) == 0
    dump = json.loads((out / "book.json").read_text())
    del dump["offers"][1]["original_quantity_kw"]
    (out / "book.json").write_text(json.dumps(dump))
    capsys.readouterr()
    assert main(["book", "--book", str(out / "book.json")]) == 2
    assert "offers[1]: missing ['original_quantity_kw']" in capsys.readouterr().err


def fifteen_bus_dump(tmp_path, capsys):
    """The book dump of the 15-bus replay, as JSON data, and the path it is written back to."""
    out = tmp_path / "out"
    args = ["run", "--network", str(DATA / "fifteen_bus.yaml")]
    assert main(args + ["--bids", str(DATA / "bids_fifteen_bus.jsonl"), "--out", str(out)]) == 0
    capsys.readouterr()
    return json.loads((out / "book.json").read_text()), out / "book.json"


def test_book_refuses_a_bid_the_book_would_refuse(tmp_path, capsys):
    dump, path = fifteen_bus_dump(tmp_path, capsys)
    dump["offers"][0]["direction"] = "sideways"
    path.write_text(json.dumps(dump))
    assert main(["book", "--book", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: offers[0]: bid offer2: unknown direction 'sideways'" in err
    assert "Traceback" not in err


def test_book_prints_an_offer_with_a_null_conditionality_without_it(tmp_path, capsys):
    dump, path = fifteen_bus_dump(tmp_path, capsys)
    dump["offers"][0]["conditionality"] = None
    path.write_text(json.dumps(dump))
    assert main(["book", "--book", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  offer2: down 20 kW of 40 kW @ bus 13 for 0.04 EUR/kW" in lines


def test_check_exhaustive_names_the_trade_log_of_an_unknown_bid(tmp_path, capsys):
    trades = tmp_path / "trades.jsonl"
    trades.write_text(
        json.dumps({"round": 2, "offer_id": "offer_x", "request_id": "req_a", "quantity_kw": 1.0,
                    "price_eur_per_kw": 0.05, "outcome": "matched", "binding_lines": []})
        + "\n"
    )
    args = ["check", "--network", str(DATA / "three_bus.yaml")]
    assert main(args + ["--bids", str(DATA / "bids_joint_overload.jsonl"),
                        "--trades", str(trades)]) == 2
    assert f"{trades}: names unknown bid 'offer_x'" in capsys.readouterr().err


# network, bids, policy, golden log, exit code of `check --bids --trades` on
# the log, and any further arguments of `run`: the individual and cumulative
# policies admit activation subsets that overload a line, and the audit
# must flag them (exit 1).
GOLDEN_RUNS = [
    ("three_bus", "bids_joint_overload", "individual", "joint_overload", 1, ()),
    ("three_bus", "bids_congestion_relief", "cumulative", "congestion_relief_cumulative", 1, ()),
    ("three_bus", "bids_congestion_relief", "all", "congestion_relief_all", 0, ()),
    ("three_bus", "bids_reevaluation", "all", "reevaluation", 0, ()),
    ("fifteen_bus", "bids_fifteen_bus", "all", "fifteen_bus", 0, ()),
    (
        "three_bus", "bids_congestion_relief", "scenarios", "scenarios_example", 0,
        ("--scenarios", str(DATA / "scenarios_example.yaml")),
    ),
]


@pytest.mark.parametrize(
    "network, bids, policy, golden, audit, extra", GOLDEN_RUNS, ids=[r[3] for r in GOLDEN_RUNS]
)
def test_cli_replays_match_the_golden_logs(
    tmp_path, capsys, network, bids, policy, golden, audit, extra
):
    network, bids, out = str(DATA / f"{network}.yaml"), str(DATA / f"{bids}.jsonl"), tmp_path
    run = ["run", "--network", network, "--bids", bids, "--policy", policy, *extra]
    assert main(run + ["--out", str(out)]) == 0
    assert (out / "trades.jsonl").read_bytes() == (GOLDEN / f"{golden}.trades.jsonl").read_bytes()
    # Every dump reads back with `book` and is the very bytes json writes for its content.
    text = (out / "book.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    assert main(["book", "--book", str(out / "book.json")]) == 0
    check = ["check", "--network", network, "--bids", bids]
    assert main(check + ["--trades", str(out / "trades.jsonl")]) == audit
    assert "Traceback" not in capsys.readouterr().err


def test_run_rejects_a_non_numeric_reactance(tmp_path, capsys):
    path = tmp_path / "net.yaml"
    path.write_text(
        "buses: [1, 2]\nslack_bus: 1\n"
        "lines:\n  - {from_bus: 1, to_bus: 2, reactance: low, limit_kw: 5}\n"
    )
    code = main(["run", "--network", str(path), "--bids", str(DATA / "bids_reevaluation.jsonl")])
    assert code == 2
    assert "line 1-2: reactance must be a finite number > 0, got 'low'" in capsys.readouterr().err


# YAML reads a hexadecimal integer of any length; this one is too long to print in decimal.
HUGE = "0x" + "f" * 5000
# A label that is neither a string nor an integer, as YAML writes it and as the error shows it.
BAD_LABELS = [("null", "None"), ("true", "True"), ("2.5", "2.5"), ("[2]", "[2]")]
LABEL_CASES = [
    case
    for bad, shown in BAD_LABELS
    for case in [
        ("buses", f"buses: [1, {bad}]\n", f"buses[1] must be a string or an integer, got {shown}"),
        (
            "slack_bus", f"slack_bus: {bad}\n",
            f"slack_bus must be a string or an integer, got {shown}",
        ),
        (
            "lines",
            f"lines:\n  - {{from_bus: 1, to_bus: {bad}, reactance: 0.1, limit_kw: 5}}\n",
            f"lines[0]: to_bus must be a string or an integer, got {shown}",
        ),
        (
            "injection_kw",
            f"injection_kw: {{{bad}: -5}}\n",
            # YAML itself refuses a list as a mapping key.
            "invalid YAML" if bad == "[2]"
            else f"injection_kw key must be a string or an integer, got {shown}",
        ),
    ]
]


@pytest.mark.parametrize(
    "section, text, message",
    [
        ("injection_kw", "injection_kw: [1, 2]\n", "injection_kw is not a dict"),
        ("buses", "buses: 5\n", "buses is not a list"),
        ("lines", "lines: 7\n", "lines is not a list"),
        ("injections_kw", "injections_kw: {2: -5}\n", "unknown fields ['injections_kw']"),
        (
            "lines",
            "lines:\n  - {from_bus: 1, to_bus: 2, reactance: 0.1, limit_kw: 5, limt: 3}\n",
            "lines[0]: unknown fields ['limt']",
        ),
        (
            "lines",
            "lines:\n  - {from_bus: 1, to_bus: 2, reactance: true, limit_kw: 5}\n",
            "line 1-2: reactance must be a finite number > 0, got True",
        ),
        *LABEL_CASES,
        ("injection_kw", 'injection_kw: {2: -5, "2": -5}\n', "injection_kw names a bus twice"),
        # Structural errors of the network itself, prefixed with the file.
        ("buses", 'buses: [1, "1"]\n', "duplicate bus ids ['1']"),
        ("lines", "lines: []\n", "a network needs at least one line"),
        (
            "lines",
            "lines:\n  - {from_bus: 1, to_bus: 3, reactance: 0.1, limit_kw: 5}\n",
            "line 1-3 references an unknown bus",
        ),
        (
            "lines",
            "lines:\n  - {from_bus: 1, to_bus: 1, reactance: 0.1, limit_kw: 5}\n",
            "line 1-1 is a self-loop",
        ),
        (
            "lines",
            "lines:\n  - {from_bus: 1, to_bus: 2, reactance: 0.1, limit_kw: 0}\n",
            "line 1-2: limit_kw must be a finite number > 0",
        ),
        ("slack_bus", "slack_bus: 3\n", "slack bus '3' is not a network bus"),
        ("buses", "buses: [1, 2, 3]\n", "network is disconnected; unreachable buses: ['3']"),
        pytest.param(
            "lines",
            f"lines:\n  - {{from_bus: 1, to_bus: 2, reactance: {HUGE}, limit_kw: 5}}\n",
            "line 1-2: reactance must be a finite number > 0, got <int too long to show>",
            id="huge-reactance",
        ),
        pytest.param(
            "buses", f"buses: [1, {HUGE}]\n",
            "buses[1] must be a string or an integer, got <int too long to show>", id="huge-bus",
        ),
        pytest.param(
            "extra", f"? {HUGE}\n: 3\n", "unknown fields ['<int too long to show>']", id="huge-key"
        ),
        # Not a network section: the scenarios file that run reads under its policy.
        (
            "scenarios",
            "- [m1, {a: 1}]\n",
            "scenarios[0][1] must be a string or an integer, got {'a': 1}",
        ),
    ],
)
def test_check_rejects_a_wrongly_typed_network_section(tmp_path, capsys, section, text, message):
    sections = {
        "buses": "buses: [1, 2]\n",
        "slack_bus": "slack_bus: 1\n",
        "lines": "lines:\n  - {from_bus: 1, to_bus: 2, reactance: 0.1, limit_kw: 5}\n",
    }
    network = path = tmp_path / "net.yaml"
    args = ["check", "--network", str(network)]
    if section == "scenarios":
        path = tmp_path / "scenarios.yaml"
        path.write_text(text)
        bids = tmp_path / "bids.jsonl"
        bids.write_text("")
        args = ["run", "--network", str(network), "--bids", str(bids),
                "--policy", "scenarios", "--scenarios", str(path)]
    else:
        sections[section] = text
    network.write_text("".join(sections.values()))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert message in err
    assert f"{path}: " in err
    assert "Traceback" not in err


def test_run_refuses_a_scenarios_file_under_another_policy(tmp_path, capsys):
    code = main(
        [
            "run",
            "--network", str(DATA / "three_bus.yaml"),
            "--bids", str(DATA / "bids_congestion_relief.jsonl"),
            "--policy", "all",
            "--scenarios", str(tmp_path / "missing.yaml"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "only the scenarios policy reads a scenarios file, not all_combinations" in err
    assert "Traceback" not in err


def test_run_clears_under_the_scenarios_policy(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--network", str(DATA / "three_bus.yaml"),
            "--bids", str(DATA / "bids_congestion_relief.jsonl"),
            "--policy", "scenarios",
            "--scenarios", str(DATA / "scenarios_example.yaml"),
            "--out", str(out),
        ]
    )
    assert code == 0
    golden = (GOLDEN / "scenarios_example.trades.jsonl").read_text()
    assert (out / "trades.jsonl").read_text() == golden
    capsys.readouterr()
    assert main(["book", "--book", str(out / "book.json")]) == 0
    assert "accepted conditional matches" in capsys.readouterr().out


OFFER_RECORD = {"id": "o1", "side": "offer", "direction": "up", "bus": "2",
                "quantity_kw": 5, "price_eur_per_kw": 0.1}


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("id", None, "None"),
        ("id", [1], "[1]"),
        ("id", True, "True"),
        ("id", 1.5, "1.5"),
        ("bus", None, "None"),
        ("bus", {"x": 1}, "{'x': 1}"),
        ("bus", 2.0, "2.0"),
    ],
)
def test_run_refuses_an_id_or_bus_that_is_not_a_string_or_an_integer(
    tmp_path, capsys, field, value, shown
):
    bids = tmp_path / "bids.jsonl"
    bad = {**OFFER_RECORD, "id": "o2", field: value}
    bids.write_text(json.dumps(OFFER_RECORD) + "\n" + json.dumps(bad) + "\n")
    code = main(["run", "--network", str(DATA / "three_bus.yaml"), "--bids", str(bids)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"bids.jsonl:2: {field} must be a string or an integer, got {shown}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("entry", [None, {"x": 1}, 3.5, 7])
def test_book_refuses_a_seen_id_that_is_not_a_string(tmp_path, capsys, entry):
    out = tmp_path / "out"
    args = ["run", "--network", str(DATA / "three_bus.yaml")]
    assert main(args + ["--bids", str(DATA / "bids_reevaluation.jsonl"), "--out", str(out)]) == 0
    dump = json.loads((out / "book.json").read_text())
    dump["seen_ids"][1] = entry
    (out / "book.json").write_text(json.dumps(dump))
    capsys.readouterr()
    assert main(["book", "--book", str(out / "book.json")]) == 2
    err = capsys.readouterr().err
    assert "book.json: seen_ids[1] is not a str" in err
    assert "Traceback" not in err
