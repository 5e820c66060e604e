"""Every reader and every file-reading subcommand fails cleanly on bad input.

Inputs are valid chain, difference-graph, witness and record documents
with one value, at any depth, replaced by an arbitrary JSON value, or
arbitrary text. A reader may only return or raise ValueError, and a
subcommand may only exit 0, 1 or 2. Pinned inputs that once escaped as a
traceback or hung must fail within a second.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from chaincliq import (
    SINGLE_STEP,
    SearchRecord,
    best_witness,
    build_difference_graph,
    load_records,
    max_independent_set,
    random_chain,
    read_chain,
    read_difference_graph,
    read_witness,
    write_chain,
    write_difference_graph,
    write_record,
    write_witness,
)
from chaincliq.cli import run_cli

from strategies import chains, one_value_replaced, text_chars

STAMP = "2026-01-01T00:00:00Z"
DEEP = "[" * 100_000

READERS = (read_chain, read_difference_graph, read_witness)
COMMANDS = (["derive"], ["witness"], ["oracle"], ["verify"], ["verify", "--verify"])


def valid_documents(chain):
    """Chain, difference-graph, witness and record documents of one chain."""
    dg = build_difference_graph(chain)
    alpha = max_independent_set(dg).alpha
    record = SearchRecord(chain, alpha, Fraction(alpha, chain.r), 0, 1, 0, STAMP)
    return {
        "chain": write_chain(chain),
        "dgraph": write_difference_graph(dg),
        "witness": write_witness(best_witness(dg)),
        "record": write_record(record),
    }


SAMPLE = valid_documents(random_chain(5, 8, SINGLE_STEP, 3))


def sample_with(kind, field, value):
    doc = json.loads(SAMPLE[kind])
    doc[field] = value
    return json.dumps(doc)


PINNED = (
    DEEP,
    '{"format": "chaincliq-chain-v1", "n": 3, "graphs": [' + DEEP,
    sample_with("record", "ratio", "1e100000000"),
    sample_with("witness", "guarantee", "1e100000000"),
)


@st.composite
def mutated_documents(draw):
    """A valid document with one value, at a drawn depth, replaced."""
    chain = draw(chains(max_n=7, max_r=20))
    text = draw(st.sampled_from(list(valid_documents(chain).values())))
    return draw(one_value_replaced(text))


def run_quietly(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return run_cli(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(st.one_of(mutated_documents(), st.text(text_chars, max_size=40)))
@example(PINNED[0])
@example(PINNED[1])
@example(PINNED[2])
@example(PINNED[3])
def test_readers_and_cli_fail_only_cleanly(workdir, text):
    path = workdir / "input.json"
    path.write_text(text, encoding="utf-8")
    for read, args in [(r, (text,)) for r in READERS] + [
        (load_records, (path,)), (load_records, (path, True)),
    ]:
        try:
            read(*args)
        except ValueError:
            pass
    for command in COMMANDS:
        assert run_quietly([command[0], "--in", str(path), *command[1:]]) in (0, 1, 2)


class TestPinnedInputs:
    @pytest.mark.parametrize("read", READERS, ids=lambda f: f.__name__)
    def test_deep_nesting_is_malformed_json(self, read):
        with pytest.raises(ValueError, match="malformed JSON"):
            read(DEEP)

    @pytest.mark.parametrize("command", ["derive", "verify"])
    def test_deep_nesting_file_is_a_domain_error(self, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text(DEEP)
        with pytest.raises(ValueError, match="line 1: malformed JSON"):
            load_records(path)
        assert run_quietly([command, "--in", str(path)]) == 1

    def test_huge_exponent_ratio_is_rejected_at_once(self, tmp_path):
        path = tmp_path / "records.ldjson"
        path.write_text(PINNED[2] + "\n")
        start = time.perf_counter()
        with pytest.raises(ValueError, match="field 'ratio'.*inconsistent"):
            load_records(path)
        assert run_quietly(["verify", "--in", str(path)]) == 1
        assert time.perf_counter() - start < 1.0

    def test_huge_exponent_guarantee_is_rejected_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="field 'guarantee'"):
            read_witness(PINNED[3])
        assert time.perf_counter() - start < 1.0

    def test_noncanonical_ratio_is_rejected(self, tmp_path):
        ratio = Fraction(json.loads(SAMPLE["record"])["ratio"])
        path = tmp_path / "records.ldjson"
        doubled = f"{2 * ratio.numerator}/{2 * ratio.denominator}"
        path.write_text(sample_with("record", "ratio", doubled) + "\n")
        with pytest.raises(ValueError, match="field 'ratio'.*inconsistent"):
            load_records(path)

    @pytest.mark.parametrize("value", ["2/4", "4/2", "01", "1.5", "-1", " 1", 1])
    def test_noncanonical_guarantee_is_rejected(self, value):
        with pytest.raises(ValueError, match="field 'guarantee'"):
            read_witness(sample_with("witness", "guarantee", value))
