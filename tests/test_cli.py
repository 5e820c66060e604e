"""The command-line adapter: byte parity with the library, exit codes, formats."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import chaincliq.cli as cli
import chaincliq.oracle as oracle
from chaincliq import (
    SINGLE_STEP,
    SearchConfig,
    SearchRecord,
    alon_witness,
    best_witness,
    build_difference_graph,
    enumerate_chains,
    local_search_min_ratio,
    max_cliquepair_free_family,
    max_independent_set,
    random_chain,
    read_chain,
    write_chain,
    write_difference_graph,
    write_family_report,
    write_oracle_report,
    write_record,
    write_witness,
)
from chaincliq.cli import run_cli

DATA = Path(__file__).parent / "data"


def gen_chain_file(tmp_path, n=3, r=4, seed=1):
    chain = random_chain(n, r, SINGLE_STEP, seed)
    path = tmp_path / "chain.json"
    path.write_text(write_chain(chain) + "\n")
    return chain, path


class TestGen:
    def test_stdout_matches_library_bytes(self, capsys):
        assert run_cli(["gen", "--n", "3", "--r", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out == write_chain(random_chain(3, 4, SINGLE_STEP, 1)) + "\n"

    def test_out_file_matches_library_bytes(self, tmp_path):
        target = tmp_path / "c.json"
        assert run_cli(["gen", "--n", "4", "--r", "5", "--seed", "9", "--out", str(target)]) == 0
        expected = write_chain(random_chain(4, 5, SINGLE_STEP, 9)) + "\n"
        assert target.read_text() == expected

    def test_geometric_step_dist_flag(self, capsys):
        assert run_cli(["gen", "--n", "4", "--r", "3", "--seed", "2",
                        "--step-dist", "geometric:0.5"]) == 0
        chain = read_chain(capsys.readouterr().out)
        assert chain.r == 3

    def test_infeasible_length_is_a_domain_error(self, capsys):
        assert run_cli(["gen", "--n", "2", "--r", "5"]) == 1
        err = capsys.readouterr().err
        assert "r exceeds C(n,2)+1" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_is_a_domain_error(self, seed, capsys):
        assert run_cli(["gen", "--n", "3", "--r", "2", "--seed", seed]) == 1
        assert "seed" in capsys.readouterr().err

    def test_bad_step_dist_is_a_usage_error(self):
        for dist in ("zipf", "geometric:abc", "geometric:2"):
            assert run_cli(["gen", "--n", "3", "--r", "2", "--step-dist", dist]) == 2

    def test_default_step_dist_is_the_shared_single_step(self, tmp_path):
        assert cli._build_parser().parse_args(["gen", "--n", "3", "--r", "2"]).step_dist is SINGLE_STEP
        texts = []
        for i, extra in enumerate([[], [], ["--step-dist", "single"]]):
            target = tmp_path / f"c{i}.json"
            assert run_cli(["gen", "--n", "7", "--r", "20", "--seed", "4",
                            "--out", str(target), *extra]) == 0
            texts.append(target.read_bytes())
        assert texts[0] == texts[1] == texts[2]


class TestUsageErrors:
    def test_unknown_flag(self):
        assert run_cli(["gen", "--n", "3", "--r", "2", "--frobnicate"]) == 2

    def test_unknown_subcommand(self):
        assert run_cli(["transmogrify"]) == 2

    def test_missing_subcommand(self):
        assert run_cli([]) == 2

    def test_help_exits_zero(self):
        assert run_cli(["--help"]) == 0


class TestDeriveWitnessOracle:
    def test_derive_matches_library(self, tmp_path, capsys):
        chain, path = gen_chain_file(tmp_path)
        assert run_cli(["derive", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == write_difference_graph(build_difference_graph(chain)) + "\n"

    def test_witness_method_alon_matches_library(self, tmp_path, capsys):
        chain, path = gen_chain_file(tmp_path)
        assert run_cli(["witness", "--in", str(path), "--method", "alon"]) == 0
        out = capsys.readouterr().out
        assert out == write_witness(alon_witness(build_difference_graph(chain))) + "\n"

    def test_oracle_matches_library(self, tmp_path, capsys):
        chain, path = gen_chain_file(tmp_path)
        assert run_cli(["oracle", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == write_oracle_report(max_independent_set(build_difference_graph(chain))) + "\n"

    def test_missing_input_file_is_a_domain_error(self, capsys):
        assert run_cli(["derive", "--in", "/nonexistent/chain.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_chain_document_is_a_domain_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "chaincliq-chain-v1", "n": 3, "graphs": [[[1,2]], [[1,3]]]}')
        assert run_cli(["witness", "--in", str(path)]) == 1
        assert "not nested" in capsys.readouterr().err


class TestVerify:
    def test_end_to_end_gen_then_verify(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        assert run_cli(["gen", "--n", "3", "--r", "4", "--seed", "1", "--out", str(path)]) == 0
        assert run_cli(["verify", "--in", str(path)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert summary["all_pass"] is True
        names = [c["name"] for c in summary["checks"]]
        assert names == [
            "lemma-abcd", "lemma-123", "triangle-free",
            "witness-greedy-good", "witness-alon-triples", "oracle-alpha",
        ]
        assert captured.err.count("PASS") == len(names)

    def test_oracle_check_runs_past_64_indices(self, tmp_path, capsys):
        chain, path = gen_chain_file(tmp_path, n=12, r=65, seed=4)
        assert run_cli(["verify", "--in", str(path)]) == 0
        captured = capsys.readouterr()
        checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
        alpha = max_independent_set(build_difference_graph(chain)).alpha
        assert checks["oracle-alpha"]["pass"] is True
        assert checks["oracle-alpha"]["detail"].startswith(f"alpha {alpha} vs witness sizes")
        assert f"PASS oracle-alpha: alpha {alpha}" in captured.err
        assert "SKIP" not in captured.err

    def test_large_r_chain_verifies(self, tmp_path, capsys):
        chain, path = gen_chain_file(tmp_path, n=30, r=250, seed=6)
        assert run_cli(["verify", "--in", str(path)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        alpha = max_independent_set(build_difference_graph(chain)).alpha
        assert summary["all_pass"] is True and summary["r"] == 250
        assert summary["checks"][-1]["name"] == "oracle-alpha"
        assert summary["checks"][-1]["detail"].startswith(f"alpha {alpha} vs witness sizes")
        assert "SKIP" not in captured.err

    def test_empty_records_file_is_a_domain_error(self, tmp_path, capsys):
        path = tmp_path / "records.ldjson"
        path.write_text("")
        assert run_cli(["verify", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "no records" in captured.err

    def test_zero_denominator_ratio_is_a_domain_error(self, tmp_path, capsys):
        records = tmp_path / "records.ldjson"
        assert run_cli(["search", "--n", "4", "--r", "5", "--budget", "20",
                        "--seed", "3", "--out", str(records)]) == 0
        doc = json.loads(records.read_text())
        doc["ratio"] = "1/0"
        records.write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        assert run_cli(["verify", "--in", str(records)]) == 1
        assert "field 'ratio'" in capsys.readouterr().err

    def test_verify_records_file(self, tmp_path, capsys):
        records = tmp_path / "records.ldjson"
        assert run_cli(["search", "--n", "4", "--r", "5", "--budget", "150",
                        "--seed", "3", "--out", str(records)]) == 0
        capsys.readouterr()
        assert run_cli(["verify", "--in", str(records), "--verify"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["subject"] == "records"
        assert summary["records"] == 1 and summary["alpha_recomputed"] is True

    def test_verify_tampered_records_fails(self, tmp_path, capsys):
        records = tmp_path / "records.ldjson"
        assert run_cli(["search", "--n", "4", "--r", "5", "--budget", "150",
                        "--seed", "3", "--out", str(records)]) == 0
        doc = json.loads(records.read_text())
        doc["alpha"] += 1
        doc["ratio"] = str(Fraction(doc["alpha"], 5))
        records.write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        assert run_cli(["verify", "--in", str(records), "--verify"]) == 1
        assert "alpha verification mismatch" in capsys.readouterr().err

    def test_impossible_record_metadata_fails(self, tmp_path, capsys):
        records = tmp_path / "records.ldjson"
        assert run_cli(["search", "--n", "4", "--r", "5", "--budget", "20",
                        "--seed", "3", "--out", str(records)]) == 0
        doc = json.loads(records.read_text())
        doc["move_trace_length"] = 21
        records.write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        assert run_cli(["verify", "--in", str(records), "--verify"]) == 1
        assert "line 1: field 'move_trace_length'" in capsys.readouterr().err

    def test_record_below_the_proven_floor_fails(self, tmp_path, capsys):
        chain = random_chain(11, 56, SINGLE_STEP, 4)
        records = tmp_path / "records.ldjson"
        rec = SearchRecord(chain, 1, Fraction(1, 56), 0, 1, 0, "2026-01-01T00:00:00Z")
        records.write_text(write_record(rec) + "\n")
        assert run_cli(["verify", "--in", str(records)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "below the proven floor 9" in captured.err

    @pytest.mark.parametrize("name", ["chain-v1.json", "chain-v2.json"])
    def test_chain_file_of_either_version_verifies(self, name, capsys):
        assert run_cli(["verify", "--in", str(DATA / name)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["subject"] == "chain" and summary["r"] == 12 and summary["all_pass"] is True

    def test_pretty_chain_document_verifies(self, tmp_path, capsys):
        chain, _ = gen_chain_file(tmp_path)
        path = tmp_path / "pretty.json"
        path.write_text(json.dumps(json.loads(write_chain(chain)), indent=2) + "\n")
        assert run_cli(["verify", "--in", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["subject"] == "chain" and summary["all_pass"] is True

    def test_other_single_document_names_its_tag(self, tmp_path, capsys):
        chain, _ = gen_chain_file(tmp_path)
        path = tmp_path / "dgraph.json"
        path.write_text(write_difference_graph(build_difference_graph(chain)) + "\n")
        assert run_cli(["verify", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unsupported format tag 'chaincliq-dgraph-v1'" in captured.err

    def test_failed_check_exits_one(self, tmp_path, capsys, monkeypatch):
        _, path = gen_chain_file(tmp_path)
        monkeypatch.setattr(oracle, "verify_lemma_abcd", lambda dg: (1, 2, 3, 4))
        assert run_cli(["verify", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert "FAIL lemma-abcd: violation (1, 2, 3, 4)\n" in captured.err
        assert captured.err.count("PASS") == 5
        summary = json.loads(captured.out)
        assert summary["all_pass"] is False
        assert summary["checks"][0] == {
            "name": "lemma-abcd", "pass": False, "detail": "violation (1, 2, 3, 4)"
        }

    def search_records(self, tmp_path, capsys, seeds=(3,)):
        records = tmp_path / "records.ldjson"
        for seed in seeds:
            assert run_cli(["search", "--n", "4", "--r", "5", "--budget", "20",
                            "--seed", str(seed), "--out", str(records)]) == 0
        capsys.readouterr()
        return records

    def assert_refused(self, path, capsys, message):
        assert run_cli(["verify", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_pretty_record_is_refused(self, tmp_path, capsys):
        records = self.search_records(tmp_path, capsys)
        records.write_text(json.dumps(json.loads(records.read_text()), indent=2) + "\n")
        self.assert_refused(records, capsys, "error: line 1: malformed JSON")

    def test_blank_line_between_records_is_refused(self, tmp_path, capsys):
        records = self.search_records(tmp_path, capsys, seeds=(3, 4))
        first, second = records.read_text().splitlines()
        records.write_text(f"{first}\n\n{second}\n")
        self.assert_refused(records, capsys, "error: line 2: empty line in records file")

    def test_record_with_alpha_zero_is_refused(self, tmp_path, capsys):
        records = self.search_records(tmp_path, capsys)
        doc = json.loads(records.read_text())
        doc["alpha"] = 0
        records.write_text(json.dumps(doc) + "\n")
        self.assert_refused(records, capsys, "line 1: field 'alpha' must be an integer in [1, 5]")

    def test_document_that_is_not_an_object_is_refused(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]\n")
        self.assert_refused(path, capsys, "error: chain document must be a JSON object")

    def test_each_records_line_is_decoded_once(self, tmp_path, capsys, monkeypatch):
        records = tmp_path / "records.ldjson"
        for seed in range(3):
            assert run_cli(["search", "--n", "4", "--r", "5", "--budget", "20",
                            "--seed", str(seed), "--out", str(records)]) == 0
        calls = []
        raw_decode = json.decoder.JSONDecoder.raw_decode

        def counting(self, *args, **kwargs):
            calls.append(1)
            return raw_decode(self, *args, **kwargs)

        monkeypatch.setattr(json.decoder.JSONDecoder, "raw_decode", counting)
        assert run_cli(["verify", "--in", str(records)]) == 0
        monkeypatch.undo()
        assert json.loads(capsys.readouterr().out)["records"] == 3
        assert len(calls) == 3


class TestEnumerate:
    def test_streams_every_chain_in_order(self, capsys):
        assert run_cli(["enumerate", "--n", "2", "--r", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        chains = [read_chain(line) for line in lines]
        assert [g.mask for c in chains for g in c.graphs] == [0, 1]

    def test_out_file(self, tmp_path):
        target = tmp_path / "chains.ldjson"
        assert run_cli(["enumerate", "--n", "3", "--r", "2", "--out", str(target)]) == 0
        assert len(target.read_text().splitlines()) == 19


class TestConjecture:
    def test_matches_library(self, capsys):
        assert run_cli(["conjecture", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out == write_family_report(max_cliquepair_free_family(2)) + "\n"

    def test_oversized_n_is_a_domain_error(self, capsys):
        assert run_cli(["conjecture", "--n", "5"]) == 1
        assert "cutoff" in capsys.readouterr().err


class TestSearch:
    def test_stdout_record_parses(self, capsys):
        assert run_cli(["search", "--n", "3", "--r", "3", "--budget", "50", "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "chaincliq-record-v1"
        assert doc["seed"] == 5 and doc["budget"] == 50

    def test_negative_seed_is_a_domain_error(self, tmp_path, capsys):
        records = tmp_path / "records.ldjson"
        assert run_cli(["search", "--n", "4", "--r", "5", "--budget", "20",
                        "--seed", "-3", "--out", str(records)]) == 1
        assert "seed" in capsys.readouterr().err
        assert not records.exists()

    def test_help_says_out_appends(self, capsys):
        assert run_cli(["search", "--help"]) == 0
        assert "append the record to this records file" in capsys.readouterr().out

    def test_seeded_runs_reproduce_outside_metadata(self, capsys):
        assert run_cli(["search", "--n", "4", "--r", "5", "--budget", "100", "--seed", "8"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert run_cli(["search", "--n", "4", "--r", "5", "--budget", "100", "--seed", "8"]) == 0
        second = json.loads(capsys.readouterr().out)
        first.pop("timestamp")
        second.pop("timestamp")
        assert first == second


class TestRemovedFlags:
    @pytest.mark.parametrize("argv", [
        ["oracle", "--in", "chain.json", "--cutoff", "10"],
        ["verify", "--in", "chain.json", "--cutoff", "10"],
        ["enumerate", "--n", "2", "--r", "1", "--pretty"],
        ["search", "--n", "4", "--r", "5", "--out", "records.ldjson", "--pretty"],
    ])
    def test_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv) == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []


def library_outputs(tmp_path):
    """argv and the library writer's text for each subcommand that prints one document."""
    chain, path = gen_chain_file(tmp_path, n=4, r=6, seed=3)
    dg = build_difference_graph(chain)
    return {
        "gen": (["gen", "--n", "4", "--r", "6", "--seed", "3"], write_chain(chain)),
        "derive": (["derive", "--in", str(path)], write_difference_graph(dg)),
        "witness": (["witness", "--in", str(path)], write_witness(best_witness(dg))),
        "oracle": (["oracle", "--in", str(path)], write_oracle_report(max_independent_set(dg))),
        "conjecture": (["conjecture", "--n", "3"],
                       write_family_report(max_cliquepair_free_family(3))),
    }


SINGLE_DOCUMENT_COMMANDS = ["gen", "derive", "witness", "oracle", "conjecture"]


class TestOutputBytes:
    @pytest.mark.parametrize("command", SINGLE_DOCUMENT_COMMANDS)
    def test_stdout_is_the_library_writer_output_unparsed(self, command, tmp_path, capsys,
                                                          monkeypatch):
        argv, expected = library_outputs(tmp_path)[command]
        # without --pretty the output path must not parse the document again
        monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=json.dumps))
        capsys.readouterr()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_enumerate_stdout_is_the_library_writer_output(self, capsys):
        assert run_cli(["enumerate", "--n", "2", "--r", "2"]) == 0
        expected = "".join(write_chain(c) + "\n" for c in enumerate_chains(2, 2))
        assert capsys.readouterr().out == expected

    def test_search_stdout_is_the_library_writer_output(self, capsys):
        assert run_cli(["search", "--n", "4", "--r", "5", "--budget", "60", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        record = local_search_min_ratio(
            SearchConfig(n=4, r=5, budget=60, seed=2), timestamp=json.loads(out)["timestamp"]
        )
        assert out == write_record(record) + "\n"

    def test_verify_stdout_is_canonical_json(self, tmp_path, capsys):
        _, path = gen_chain_file(tmp_path)
        assert run_cli(["verify", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out)) + "\n"


class TestPretty:
    @pytest.mark.parametrize("command", SINGLE_DOCUMENT_COMMANDS)
    def test_pretty_parses_back_to_the_same_document(self, command, tmp_path, capsys):
        argv, expected = library_outputs(tmp_path)[command]
        capsys.readouterr()
        assert run_cli([*argv, "--pretty"]) == 0
        pretty = capsys.readouterr().out
        assert "\n  " in pretty
        assert json.loads(pretty) == json.loads(expected)

    def test_pretty_verify_and_search_parse_back(self, tmp_path, capsys):
        _, path = gen_chain_file(tmp_path)
        for argv in (["verify", "--in", str(path)],
                     ["search", "--n", "4", "--r", "5", "--budget", "30", "--seed", "1"]):
            assert run_cli(argv) == 0
            plain = json.loads(capsys.readouterr().out)
            assert run_cli([*argv, "--pretty"]) == 0
            pretty = capsys.readouterr().out
            assert "\n  " in pretty
            plain.pop("timestamp", None)
            assert {k: v for k, v in json.loads(pretty).items() if k != "timestamp"} == plain

    def test_pretty_is_indented_but_equivalent(self, tmp_path, capsys):
        chain, path = gen_chain_file(tmp_path)
        assert run_cli(["derive", "--in", str(path), "--pretty"]) == 0
        pretty = capsys.readouterr().out
        assert "\n  " in pretty
        assert json.loads(pretty) == json.loads(
            write_difference_graph(build_difference_graph(chain))
        )


PARSE_CORPUS = [
    ["gen", "--n", "7", "--r", "20"],
    ["gen", "--n", "7", "--r", "20", "--seed", "3", "--step-dist", "geometric:0.5",
     "--out", "c.json", "--pretty"],
    ["derive", "--in", "c.json"],
    ["derive", "--in", "c.json", "--out", "d.json", "--pretty"],
    ["witness", "--in", "c.json"],
    ["witness", "--in", "c.json", "--method", "alon", "--pretty"],
    ["oracle", "--in", "c.json"],
    ["oracle", "--in", "c.json", "--out", "o.json", "--pretty"],
    ["verify", "--in", "c.json"],
    ["verify", "--in", "records.ldjson", "--verify", "--pretty"],
    ["enumerate", "--n", "3", "--r", "2"],
    ["enumerate", "--n", "3", "--r", "2", "--out", "e.ldjson"],
    ["conjecture", "--n", "3"],
    ["conjecture", "--n", "3", "--out", "f.json", "--pretty"],
    ["search", "--n", "5", "--r", "8"],
    ["search", "--n", "5", "--r", "8", "--budget", "40", "--seed", "2", "--pretty"],
    ["search", "--n", "5", "--r", "8", "--out", "records.ldjson"],
    ["search", "--n", "5", "--r", "8", "--out", "records.ldjson", "--pretty"],
    ["gen", "--n", "7", "--r", "20", "--step-dist", "zipf"],
    [],
    ["transmogrify"],
    ["--help"],
    ["witness", "--help"],
]


def parse_outcome(parser, argv, capsys):
    """The namespace argv parses to, or the exit code and output of a refused parse."""
    capsys.readouterr()
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def run_sequence(workdir, monkeypatch, capsys):
    """Exit code, output and --out bytes of each call of a fixed run_cli sequence."""
    monkeypatch.chdir(workdir)
    valid = [
        argv
        for extra in ([], ["--pretty"])
        for argv in (
            ["gen", "--n", "7", "--r", "20", "--seed", "5", "--out", "chain.json", *extra],
            ["derive", "--in", "chain.json", *extra],
            ["witness", "--in", "chain.json", "--method", "alon", *extra],
            ["oracle", "--in", "chain.json", "--out", "oracle.json", *extra],
            ["verify", "--in", "chain.json", *extra],
        )
    ]
    usage_error = ["witness", "--in", "chain.json", "--method", "nope"]
    results = []
    for argv in [*valid, usage_error, *valid]:
        code = run_cli(argv)
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        results.append((argv, code, captured.out, captured.err, files))
    return results


class TestParserCache:
    def test_cached_parser_parses_like_a_fresh_one(self, capsys):
        expected = [parse_outcome(cli._build_parser.__wrapped__(), argv, capsys)
                    for argv in PARSE_CORPUS]
        order = list(range(len(PARSE_CORPUS))) * 15
        random.Random(12).shuffle(order)
        for k in order:
            assert parse_outcome(cli._build_parser(), PARSE_CORPUS[k], capsys) == expected[k]

    def test_cached_parser_runs_a_sequence_like_fresh_ones(self, tmp_path, monkeypatch, capsys):
        for side in ("fresh", "cached"):
            (tmp_path / side).mkdir()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
            fresh = run_sequence(tmp_path / "fresh", patch, capsys)
        cached = run_sequence(tmp_path / "cached", monkeypatch, capsys)
        assert cached == fresh
        half = len(cached) // 2  # the calls after the usage error repeat the ones before it
        assert [r[:4] for r in cached[:half]] == [r[:4] for r in cached[half + 1:]]

    def test_import_builds_no_parser(self):
        code = ("import chaincliq, chaincliq.cli\n"
                "assert chaincliq.cli._build_parser.cache_info().currsize == 0")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr

    def test_parser_is_built_once_per_process(self, capsys):
        cli._build_parser.cache_clear()
        assert run_cli(["enumerate", "--n", "2", "--r", "1"]) == 0
        assert run_cli(["conjecture", "--n", "2"]) == 0
        assert run_cli(["enumerate", "--n", "2", "--r", "1", "--pretty"]) == 2
        assert cli._build_parser.cache_info().misses == 1


def test_python_dash_m_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "chaincliq", "gen", "--n", "3", "--r", "2", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["format"] == "chaincliq-chain-v2"


def test_cli_search_record_matches_library(tmp_path):
    records = tmp_path / "records.ldjson"
    assert run_cli(["search", "--n", "4", "--r", "6", "--budget", "200",
                    "--seed", "21", "--out", str(records)]) == 0
    doc = json.loads(records.read_text())
    expected = local_search_min_ratio(
        SearchConfig(n=4, r=6, budget=200, seed=21), timestamp=doc["timestamp"]
    )
    from chaincliq import write_record

    assert records.read_text() == write_record(expected) + "\n"
