import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flexmarket
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
            "--exhaustive",
            "--bids", str(DATA / "bids_fifteen_bus.jsonl"),
            "--trades", str(out / "trades.jsonl"),
        ]
    )
    assert code == 0
    assert "audit clean" in capsys.readouterr().out


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
            "--exhaustive",
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
            "--exhaustive",
            "--bids", str(DATA / "bids_joint_overload.jsonl"),
            "--trades", str(trades),
        ]
    )
    assert code == 1
    assert "1-2" in capsys.readouterr().out


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
    check = ["check", "--network", network, "--exhaustive", "--bids", bids]
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
        assert done.stderr == "error: PTDF has non-finite entries; check the line reactances\n"


def test_ptdf_dump(capsys):
    assert main(["ptdf", "--network", str(DATA / "three_bus.yaml")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "line,1,2,3"
    assert lines[1].startswith("1-2,")
    row = [float(v) for v in lines[1].split(",")[1:]]
    assert row == pytest.approx([0.0, -1.0, -1.0])


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


def test_run_rejects_a_non_numeric_reactance(tmp_path, capsys):
    path = tmp_path / "net.yaml"
    path.write_text(
        "buses: [1, 2]\nslack_bus: 1\n"
        "lines:\n  - {from_bus: 1, to_bus: 2, reactance: low, limit_kw: 5}\n"
    )
    code = main(["run", "--network", str(path), "--bids", str(DATA / "bids_reevaluation.jsonl")])
    assert code == 2
    assert "reactance: expected a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, text, message",
    [
        ("injection_kw", "injection_kw: [1, 2]\n", "injection_kw must be"),
        ("buses", "buses: 5\n", "buses must be"),
        ("lines", "lines: 7\n", "lines must be"),
        ("injections_kw", "injections_kw: {2: -5}\n", "unknown fields ['injections_kw']"),
        (
            "lines",
            "lines:\n  - {from_bus: 1, to_bus: 2, reactance: 0.1, limit_kw: 5, limt: 3}\n",
            "line #1 unknown fields ['limt']",
        ),
        (
            "lines",
            "lines:\n  - {from_bus: 1, to_bus: 2, reactance: true, limit_kw: 5}\n",
            "line #1 reactance: expected a number, got True",
        ),
    ],
)
def test_check_rejects_a_wrongly_typed_network_section(tmp_path, capsys, section, text, message):
    sections = {
        "buses": "buses: [1, 2]\n",
        "slack_bus": "slack_bus: 1\n",
        "lines": "lines:\n  - {from_bus: 1, to_bus: 2, reactance: 0.1, limit_kw: 5}\n",
    }
    sections[section] = text
    path = tmp_path / "net.yaml"
    path.write_text("".join(sections.values()))
    assert main(["check", "--network", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
