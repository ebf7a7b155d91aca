import json
import random
import warnings

import pytest
import yaml

from flexmarket import (
    InfeasibleBaselineError,
    InputError,
    MarketConfig,
    NetworkError,
    audit_trade_log,
    book_json,
    dump_book,
    line_flows,
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
from flexmarket import fileio, grid, market
from flexmarket.grid import build_ptdf

from conftest import DATA, GOLDEN

THREE_BUS_TEMPLATE = """\
buses: [1, 2, 3]
slack_bus: 1
lines:
  - {{from_bus: 1, to_bus: 2, reactance: 0.1, limit_kw: 60}}
  - {{from_bus: 2, to_bus: 3, reactance: 0.1, limit_kw: {limit}}}
injection_kw:
{injections}
"""


def write_three_bus(tmp_path, limit=20, injections="  1: 40\n  2: -20\n  3: -20"):
    path = tmp_path / "net.yaml"
    path.write_text(THREE_BUS_TEMPLATE.format(limit=limit, injections=injections))
    return path


class TestLoadNetwork:
    def test_bundled_three_bus(self):
        network, baseline = load_network(DATA / "three_bus.yaml")
        assert network.buses == ("1", "2", "3")
        assert line_flows(build_ptdf(network), baseline) == pytest.approx([40.0, 20.0])

    def test_an_overloaded_baseline_loads_and_a_book_refuses_it(self, tmp_path):
        path = write_three_bus(tmp_path, limit=19)
        network, baseline = load_network(path)
        assert network.lines[1].limit_kw == 19.0
        with pytest.raises(InfeasibleBaselineError, match="line 2-3") as refused:
            new_book(network, baseline, MarketConfig())
        assert refused.value.exit_code == 3
        # The audit judges a log against the file's baseline, so it refuses it too.
        with pytest.raises(InfeasibleBaselineError, match="line 2-3"):
            audit_trade_log(
                path, DATA / "bids_reevaluation.jsonl", GOLDEN / "reevaluation.trades.jsonl"
            )

    def test_omitted_slack_is_balanced(self, tmp_path):
        path = write_three_bus(tmp_path, injections="  2: -20\n  3: -20")
        _, baseline = load_network(path)
        assert baseline.injection_kw["1"] == pytest.approx(40.0)

    def test_missing_load_buses_default_to_zero(self, tmp_path):
        path = write_three_bus(tmp_path, injections="  3: -20")
        _, baseline = load_network(path)
        assert baseline.injection_kw == {"1": 20.0, "2": 0.0, "3": -20.0}
        # An empty injection_kw section reads as null: every bus injects nothing.
        _, baseline = load_network(write_three_bus(tmp_path, injections=""))
        assert baseline.injection_kw == {"1": 0.0, "2": 0.0, "3": 0.0}

    def test_unbalanced_explicit_slack_rejected(self, tmp_path):
        path = write_three_bus(tmp_path, injections="  1: 45\n  2: -20\n  3: -20")
        with pytest.raises(InputError, match="sum"):
            load_network(path)

    def test_unknown_injection_bus_rejected(self, tmp_path):
        path = write_three_bus(tmp_path, injections="  7: -20")
        with pytest.raises(InputError, match="unknown buses"):
            load_network(path)

    def test_missing_top_level_key(self, tmp_path):
        path = tmp_path / "net.yaml"
        path.write_text("buses: [1, 2]\nslack_bus: 1\n")
        with pytest.raises(InputError, match="lines"):
            load_network(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_network(tmp_path / "nope.yaml")

    @pytest.mark.parametrize("bad", ["abc", "true"])
    @pytest.mark.parametrize("field, value", [("reactance", "0.1"), ("limit_kw", "60")])
    def test_non_numeric_line_field_is_an_input_error(self, tmp_path, field, value, bad):
        path = write_three_bus(tmp_path)
        path.write_text(path.read_text().replace(f"{field}: {value}", f"{field}: {bad}", 1))
        with pytest.raises(InputError, match=rf"lines\[0\]: {field}: expected a number"):
            load_network(path)

    # PyYAML reads 1.0e3 as a string: YAML 1.1 wants a signed exponent.
    @pytest.mark.parametrize("value", ["abc", ".nan", "[1]", '"-20"', "1.0e3", "false"])
    def test_bad_injection_is_an_input_error(self, tmp_path, value):
        path = write_three_bus(tmp_path, injections=f"  2: {value}\n  3: -20")
        with pytest.raises(InputError, match="injection_kw of bus 2"):
            load_network(path)

    def test_a_subnormal_reactance_is_refused(self, tmp_path):
        # 1/1e-320 overflows to inf and the PTDF to NaN; a book built on it
        # would clear 500 kW down from bus 2 to bus 3 across the 20 kW line.
        path = write_three_bus(tmp_path)
        path.write_text(path.read_text().replace("reactance: 0.1", "reactance: 1.0e-320", 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NetworkError) as refused:
                load_network(path)
        assert str(refused.value).startswith(f"{path}: PTDF has non-finite entries")


class TestPtdfSharing:
    """The loaders and every book on one network share its one PTDF solve."""

    def test_one_solve_per_network(self, tmp_path, monkeypatch):
        solve, solves = grid._solve_ptdf, []

        def counted(network):
            solves.append(network)
            return solve(network)

        monkeypatch.setattr(grid, "_solve_ptdf", counted)
        config = MarketConfig()
        network, baseline = load_network(DATA / "fifteen_bus.yaml")
        ptdf = build_ptdf(network)
        books = [new_book(network, baseline, config) for _ in range(3)]
        book = run_replay(DATA / "fifteen_bus.yaml", DATA / "bids_fifteen_bus.jsonl", config)
        path = tmp_path / "book.json"
        path.write_text(book_json(book))
        reloaded = load_book(path, network, config)

        assert all(book.ptdf is ptdf for book in books)
        assert reloaded.ptdf is ptdf
        assert not ptdf.matrix.flags.writeable
        # One solve for this network, one for the network run_replay loaded.
        assert solves == [network, book.network]
        assert book.network is not network
        assert book.ptdf is not ptdf
        assert (book.ptdf.matrix == ptdf.matrix).all()


NETWORK_FILES = sorted(p.name for p in DATA.glob("*.yaml") if not p.name.startswith("scenarios"))


@pytest.mark.parametrize("name", NETWORK_FILES)
def test_integer_labels_load_as_their_decimal_strings(name):
    with open(DATA / name) as handle:
        raw = yaml.safe_load(handle)
    assert all(type(bus) is int for bus in raw["buses"])  # the bundled files write integers
    network, baseline = load_network(DATA / name)
    assert network.buses == tuple(str(bus) for bus in raw["buses"])
    assert network.slack_bus == str(raw["slack_bus"])
    assert [(line.from_bus, line.to_bus) for line in network.lines] == [
        (str(line["from_bus"]), str(line["to_bus"])) for line in raw["lines"]
    ]
    assert set(map(str, raw["injection_kw"])) <= baseline.injection_kw.keys()


class TestYamlLoaderFallback:
    """The pure-Python loader, used where libyaml is missing, reads every file alike."""

    def test_libyaml_is_used_where_installed(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert fileio._YAML_LOADER is expected

    @pytest.mark.parametrize("name", NETWORK_FILES)
    def test_networks_load_alike(self, monkeypatch, name):
        network, baseline = load_network(DATA / name)
        monkeypatch.setattr(fileio, "_YAML_LOADER", yaml.SafeLoader)
        assert load_network(DATA / name) == (network, baseline)

    def test_scenarios_load_alike(self, monkeypatch):
        scenarios = load_scenarios(DATA / "scenarios_example.yaml")
        monkeypatch.setattr(fileio, "_YAML_LOADER", yaml.SafeLoader)
        assert load_scenarios(DATA / "scenarios_example.yaml") == scenarios

    @pytest.mark.parametrize(
        "text, message",
        [
            ("buses: [1, 2\nslack_bus: 1\n", "invalid YAML"),
            ("lines: {a: 1}\n  - b\n", "invalid YAML"),
            ("- 1\n- 2\n", "not a mapping"),
            ("just text\n", "not a mapping"),
            (
                "buses: [1, 2]\nslack_bus: 1\nlines: []\ninjections_kw: {2: -5}\n",
                r"unknown fields \['injections_kw'\]",
            ),
            (
                "buses: [1, 2]\nslack_bus: 1\n"
                "lines:\n  - {from_bus: 1, to_bus: 2, reactance: 0.1, limit_kw: 5, limt: 3}\n",
                r"lines\[0\]: unknown fields \['limt'\]",
            ),
        ],
    )
    def test_bad_files_fail_alike(self, tmp_path, monkeypatch, text, message):
        path = tmp_path / "net.yaml"
        path.write_text(text)
        for loader in (fileio._YAML_LOADER, yaml.SafeLoader):
            monkeypatch.setattr(fileio, "_YAML_LOADER", loader)
            with pytest.raises(InputError, match=message) as caught:
                load_network(path)
            assert type(caught.value) is InputError
            assert str(path) in str(caught.value)


class TestLoadBids:
    def test_bundled_fifteen_bus_stream(self):
        bids = load_bids(DATA / "bids_fifteen_bus.jsonl")
        assert len(bids) == 12
        first = bids[0]
        assert (first.id, first.side, first.direction, first.bus) == ("req1", "request", "up", "13")
        assert (first.quantity_kw, first.price_eur_per_kw) == (30.0, 0.042)
        assert first.conditionality == "unconditional"
        # The book numbers the bids as they arrive, not the loader.
        book = new_book(*load_network(DATA / "fifteen_bus.yaml"), MarketConfig())
        for bid in bids:
            book.submit_bid(bid)
        assert [b.sequence for b in bids] == list(range(1, 13))

    def test_ids_and_buses_are_strings_and_labels_are_shared(self, tmp_path):
        path = tmp_path / "bids.jsonl"
        path.write_text(
            '{"id": 7, "side": "offer", "direction": "up", "bus": 12, '
            '"quantity_kw": 5, "price_eur_per_kw": 0.1}\n'
            '{"id": "r", "side": "request", "direction": "up", "bus": "12", '
            '"quantity_kw": 5, "price_eur_per_kw": 0.1, "conditionality": "conditional"}\n'
        )
        offer, request = load_bids(path)
        assert (offer.id, offer.bus, request.bus) == ("7", "12", "12")
        # One string per bus and per label, however many bids name it.
        assert offer.bus is request.bus
        assert offer.direction is request.direction is market.UP
        assert offer.side is market.OFFER and request.side is market.REQUEST
        assert request.conditionality is market.CONDITIONAL

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bids.jsonl"
        path.write_text("")
        assert load_bids(path) == []

    def test_zero_quantity_names_the_record(self, tmp_path):
        path = tmp_path / "bids.jsonl"
        path.write_text(
            '{"id": "bad", "side": "offer", "direction": "up", "bus": 1, '
            '"quantity_kw": 0, "price_eur_per_kw": 0.1}\n'
        )
        with pytest.raises(InputError, match=r"bids.jsonl:1: bid bad"):
            load_bids(path)

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "bids.jsonl"
        path.write_text(
            '{"id": "a", "side": "offer", "direction": "up", "bus": 1, '
            '"quantity_kw": 5, "price_eur_per_kw": 0.1}\n  \n{oops\n'
        )
        # The blank line is skipped, not read as JSON, and still counted.
        with pytest.raises(InputError, match=":3: invalid JSON"):
            load_bids(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        record = (
            '{"id": "a", "side": "offer", "direction": "up", "bus": 1, '
            '"quantity_kw": 5, "price_eur_per_kw": 0.1}\n'
        )
        path = tmp_path / "bids.jsonl"
        path.write_text(record + record)
        with pytest.raises(InputError, match="duplicate"):
            load_bids(path)

    def test_request_without_conditionality_rejected(self, tmp_path):
        path = tmp_path / "bids.jsonl"
        path.write_text(
            '{"id": "r", "side": "request", "direction": "up", "bus": 1, '
            '"quantity_kw": 5, "price_eur_per_kw": 0.1}\n'
        )
        with pytest.raises(InputError, match="conditional"):
            load_bids(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bids.jsonl"
        path.write_text(
            '{"id": "o", "side": "offer", "direction": "up", "bus": 1, '
            '"quantity_kw": 5, "price_eur_per_kw": 0.1, "volume": 3}\n'
        )
        with pytest.raises(InputError, match="volume"):
            load_bids(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("quantity_kw", '"lots"'),
            ("quantity_kw", "NaN"),
            ("price_eur_per_kw", '"cheap"'),
            ("price_eur_per_kw", "Infinity"),
            ("price_eur_per_kw", "null"),
            ("quantity_kw", '"5"'),
            ("quantity_kw", "true"),
            ("price_eur_per_kw", "false"),
        ],
    )
    def test_bad_number_is_an_input_error(self, tmp_path, field, value):
        numbers = {"quantity_kw": "5", "price_eur_per_kw": "0.1", field: value}
        path = tmp_path / "bids.jsonl"
        path.write_text(
            '{"id": "o", "side": "offer", "direction": "up", "bus": 1, '
            + ", ".join(f'"{key}": {raw}' for key, raw in numbers.items())
            + "}\n"
        )
        with pytest.raises(InputError, match=rf"bids.jsonl:1: {field}: expected a"):
            load_bids(path)


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe\x00{", ("1" * 5000).encode(), None],
    ids=["not-utf-8", "integer-too-long-to-convert", "missing"],
)
@pytest.mark.parametrize(
    "load",
    [
        load_network,
        load_bids,
        load_scenarios,
        read_trade_log,
        lambda path: load_book(path, load_network(DATA / "three_bus.yaml")[0], MarketConfig()),
    ],
    ids=["network", "bids", "scenarios", "trade_log", "book"],
)
def test_unreadable_text_is_an_input_error(tmp_path, load, content):
    path = tmp_path / "input"
    if content is not None:  # None: there is no file
        path.write_bytes(content)
    with pytest.raises(InputError):
        load(path)


class TestScenarios:
    def test_bundled_example(self):
        scenarios = load_scenarios(DATA / "scenarios_example.yaml")
        assert scenarios == (frozenset({"m1"}), frozenset({"m1", "m2"}))

    def test_empty_list_rejected(self, tmp_path):
        path = tmp_path / "scen.yaml"
        path.write_text("[]\n")
        with pytest.raises(InputError):
            load_scenarios(path)


class TestRunReplay:
    def test_no_offers_leaves_requests_resting(self, tmp_path):
        bids = tmp_path / "bids.jsonl"
        bids.write_text(
            '{"id": "r1", "side": "request", "direction": "up", "bus": 1, '
            '"quantity_kw": 5, "price_eur_per_kw": 0.1, "conditionality": "conditional"}\n'
        )
        book = run_replay(DATA / "three_bus.yaml", bids, MarketConfig())
        assert book.trade_log == []
        assert [b.id for b in book.requests] == ["r1"]

    def test_missing_network_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError) as caught:
            run_replay(tmp_path / "none.yaml", DATA / "bids_reevaluation.jsonl", MarketConfig())
        assert caught.value.exit_code == 2

    def test_infeasible_baseline_exit_code(self, tmp_path):
        path = write_three_bus(tmp_path, limit=19)
        with pytest.raises(InfeasibleBaselineError, match="line 2-3") as caught:
            run_replay(path, DATA / "bids_reevaluation.jsonl", MarketConfig())
        assert caught.value.exit_code == 3

    def test_writes_outputs(self, tmp_path):
        out = tmp_path / "out"
        book = run_replay(
            DATA / "three_bus.yaml", DATA / "bids_reevaluation.jsonl", MarketConfig(), out_dir=out
        )
        assert (out / "trades.jsonl").exists() and (out / "book.json").exists()
        assert read_trade_log(out / "trades.jsonl") == book.trade_log


class TestTradeLogRoundTrip:
    def test_write_read(self, tmp_path):
        book = run_replay(DATA / "three_bus.yaml", DATA / "bids_reevaluation.jsonl", MarketConfig())
        path = tmp_path / "trades.jsonl"
        write_trade_log(book.trade_log, path)
        assert read_trade_log(path) == book.trade_log

    def test_fractional_round_is_an_input_error(self, tmp_path):
        book = run_replay(DATA / "three_bus.yaml", DATA / "bids_reevaluation.jsonl", MarketConfig())
        records = [json.loads(line) for line in trade_log_lines(book.trade_log)]
        path = tmp_path / "trades.jsonl"
        path.write_text("".join(json.dumps({**r, "round": 1.5}) + "\n" for r in records))
        with pytest.raises(InputError, match=r"trades\.jsonl:1: round: expected an integer"):
            read_trade_log(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("binding_lines", "2-3", "binding_lines is not a list"),
            ("offer_id", 5, "offer_id is not a str"),
            ("price_eur_per_kw", "0.04", "price_eur_per_kw: expected a number"),
            ("quantity_kw", True, "quantity_kw: expected a number, got True"),
            ("round", False, "round: expected a number, got False"),
        ],
    )
    def test_mistyped_field_is_an_input_error(self, tmp_path, field, value, message):
        book = run_replay(DATA / "three_bus.yaml", DATA / "bids_reevaluation.jsonl", MarketConfig())
        records = [json.loads(line) for line in trade_log_lines(book.trade_log)]
        path = tmp_path / "trades.jsonl"
        path.write_text("".join(json.dumps({**r, field: value}) + "\n" for r in records))
        with pytest.raises(InputError, match=rf"trades\.jsonl:1: {message}"):
            read_trade_log(path)

    def test_lines_are_deterministic(self):
        first = run_replay(DATA / "fifteen_bus.yaml", DATA / "bids_fifteen_bus.jsonl", MarketConfig())
        second = run_replay(DATA / "fifteen_bus.yaml", DATA / "bids_fifteen_bus.jsonl", MarketConfig())
        assert trade_log_lines(first.trade_log) == trade_log_lines(second.trade_log)


class TestBookRoundTrip:
    def test_dump_reload_dump_is_identical(self, tmp_path):
        config = MarketConfig()
        book = run_replay(DATA / "fifteen_bus.yaml", DATA / "bids_fifteen_bus.jsonl", config)
        path = tmp_path / "book.json"
        path.write_text(book_json(book))

        network, _ = load_network(DATA / "fifteen_bus.yaml")
        reloaded = load_book(path, network, config)
        assert dump_book(reloaded) == dump_book(book)
        assert book_json(reloaded).encode() == path.read_bytes()

    def test_reloaded_book_keeps_clearing_consistently(self, tmp_path):
        from flexmarket import Bid

        config = MarketConfig()
        book = run_replay(DATA / "fifteen_bus.yaml", DATA / "bids_fifteen_bus.jsonl", config)
        path = tmp_path / "book.json"
        path.write_text(book_json(book))
        network, _ = load_network(DATA / "fifteen_bus.yaml")
        reloaded = load_book(path, network, config)

        probe = Bid("probe", "request", "down", "10", 5.0, 0.05, "conditional")
        twin = Bid("probe", "request", "down", "10", 5.0, 0.05, "conditional")
        original_matches = book.submit_bid(probe)
        reloaded_matches = reloaded.submit_bid(twin)
        assert [m.quantity_kw for m in original_matches] == [m.quantity_kw for m in reloaded_matches]
        assert trade_log_lines(book.trade_log[-1:]) == trade_log_lines(reloaded.trade_log[-1:])

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda d: d.pop("accepted_matches"), r"missing \['accepted_matches'\]"),
            (lambda d: d["offers"][0].pop("sequence"), r"offers\[0\]: missing \['sequence'\]"),
            (lambda d: d["accepted_matches"][0].pop("quantity_kw"), r"accepted_matches\[0\]"),
            (lambda d: d.update(round="late"), "round: expected a number"),
            (lambda d: d.update(round=1.5), "round: expected an integer, got 1.5"),
            (lambda d: d.update(match_counter=True), "match_counter: expected a number, got True"),
            (
                lambda d: d["offers"][0].update(price_eur_per_kw=False),
                r"offers\[0\]: price_eur_per_kw: expected a number, got False",
            ),
            (
                lambda d: d["offers"][0].update(sequence=2.5),
                r"offers\[0\]: sequence: expected an integer",
            ),
            (lambda d: d.update(offers={}), "offers is not a list"),
            (
                lambda d: d["offers"][0].update(quantity_kw="5"),
                r"offers\[0\]: quantity_kw: expected a number",
            ),
        ],
    )
    def test_truncated_dump_is_an_input_error(self, tmp_path, damage, message):
        book = run_replay(DATA / "fifteen_bus.yaml", DATA / "bids_fifteen_bus.jsonl", MarketConfig())
        data = dump_book(book)
        damage(data)
        path = tmp_path / "book.json"
        path.write_text(json.dumps(data))
        network, _ = load_network(DATA / "fifteen_bus.yaml")
        with pytest.raises(InputError, match=message):
            load_book(path, network, MarketConfig())

    def test_shuffled_resting_bids_resume_like_the_dump(self, tmp_path):
        config = MarketConfig(policy="both")
        bids = load_bids(DATA / "bids_fifteen_bus.jsonl")
        network, baseline = load_network(DATA / "fifteen_bus.yaml")
        book = new_book(network, baseline, config)
        for bid in bids[:8]:
            book.submit_bid(bid)
        data = dump_book(book)
        assert len(data["requests"]) + len(data["offers"]) >= 3

        logs = []
        for shuffle in (False, True):
            if shuffle:
                for key in ("requests", "offers"):
                    random.Random(7).shuffle(data[key])
                    data[key].reverse()  # a one- or two-bid pool still moves
            path = tmp_path / f"book-{shuffle}.json"
            path.write_text(json.dumps(data))
            reloaded = load_book(path, network, config)
            for bid in load_bids(DATA / "bids_fifteen_bus.jsonl")[8:]:
                reloaded.submit_bid(bid)
            logs.append(trade_log_lines(reloaded.trade_log))
        assert logs[0] == logs[1]
        assert any(e.outcome == "matched" for e in reloaded.trade_log)

    def test_a_resumed_book_takes_a_new_bid_file(self, tmp_path):
        config = MarketConfig()
        first = run_replay(DATA / "three_bus.yaml", DATA / "bids_reevaluation.jsonl", config)
        path = tmp_path / "book.json"
        path.write_text(book_json(first))
        more = tmp_path / "more.jsonl"
        more.write_text(
            '{"id": "o9", "side": "offer", "direction": "up", "bus": 3, '
            '"quantity_kw": 5, "price_eur_per_kw": 0.04}\n'
            '{"id": "r9", "side": "request", "direction": "up", "bus": 2, '
            '"quantity_kw": 5, "price_eur_per_kw": 0.05, "conditionality": "conditional"}\n'
        )
        network, baseline = load_network(DATA / "three_bus.yaml")
        resumed = load_book(path, network, config)
        bids = load_bids(more)
        for bid in bids:
            resumed.submit_bid(bid)
        assert [b.sequence for b in bids] == [5, 6]

        whole = new_book(network, baseline, config)
        for bid in load_bids(DATA / "bids_reevaluation.jsonl") + load_bids(more):
            whole.submit_bid(bid)
        assert resumed.trade_log[-1].outcome == "matched"
        assert first.trade_log + resumed.trade_log == whole.trade_log
        assert book_json(resumed) == book_json(whole)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda d: d["offers"][1].update(id=d["offers"][0]["id"]), "duplicate bid id"),
            (
                lambda d: d["offers"][1].update(sequence=d["offers"][0]["sequence"]),
                "duplicate sequence number",
            ),
            (lambda d: d.update(sequence=1), "is after 1"),
            (
                lambda d: d.update(round=d["round"] + 1),
                r"book\.json: round \d+ and sequence \d+ differ",
            ),
            (lambda d: d["offers"][0].update(bus="99"), "unknown bus '99'"),
            (
                lambda d: d["injection_kw"].update({"99": 0.0}),
                r"book\.json: baseline names unknown buses: \['99'\]",
            ),
            (lambda d: d["injection_kw"].pop("5"), r"book\.json: dispatch has no entry for bus '5'"),
            (
                lambda d: d.update(match_counter=0),
                r"book\.json: match m\d+: id is above match_counter 0",
            ),
            (
                lambda d: d["accepted_matches"][0].update(quantity_kw=-10),
                r"book\.json: match m\d+: quantity_kw -10 is not a finite number > 0",
            ),
            (
                lambda d: d["accepted_matches"][0].update(quantity_kw=0),
                r"book\.json: match m\d+: quantity_kw 0 is not a finite number > 0",
            ),
        ],
    )
    def test_inconsistent_dump_is_an_input_error(self, tmp_path, damage, message):
        book = run_replay(DATA / "fifteen_bus.yaml", DATA / "bids_fifteen_bus.jsonl", MarketConfig())
        data = dump_book(book)
        damage(data)
        path = tmp_path / "book.json"
        path.write_text(json.dumps(data))
        network, _ = load_network(DATA / "fifteen_bus.yaml")
        with pytest.raises(InputError, match=message):
            load_book(path, network, MarketConfig())

    def test_infeasible_dumped_baseline_is_not_an_input_error(self, tmp_path):
        book = run_replay(DATA / "fifteen_bus.yaml", DATA / "bids_fifteen_bus.jsonl", MarketConfig())
        data = dump_book(book)
        data["injection_kw"]["5"] += 1e6
        path = tmp_path / "book.json"
        path.write_text(json.dumps(data))
        network, _ = load_network(DATA / "fifteen_bus.yaml")
        with pytest.raises(InfeasibleBaselineError, match="baseline infeasible"):
            load_book(path, network, MarketConfig())

    def test_cut_off_dump_is_an_input_error(self, tmp_path):
        book = run_replay(DATA / "fifteen_bus.yaml", DATA / "bids_fifteen_bus.jsonl", MarketConfig())
        path = tmp_path / "book.json"
        path.write_text(book_json(book)[:200])
        network, _ = load_network(DATA / "fifteen_bus.yaml")
        with pytest.raises(InputError, match="invalid JSON"):
            load_book(path, network, MarketConfig())
