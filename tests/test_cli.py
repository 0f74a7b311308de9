"""Command-line interface: outputs, exit codes, JSON payload schemas."""

import csv
import io
import json
import sys

import pytest

from szk import shatter
from szk.cli import main
from tests.conftest import validate_payload


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, schema, *argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0, err
    payload = json.loads(out)
    validate_payload(schema, payload)
    return payload


class TestHumanOutput:
    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "normalize", "Q^3 + Z_(2)")
        assert code == 0
        assert out.strip() == "Z_(2)"

    def test_equiv(self, capsys):
        code, out, _ = run(capsys, "equiv", "Q", "Q^w")
        assert code == 0 and out.strip() == "equivalent"
        code, out, _ = run(capsys, "equiv", "Q", "Z_(2)")
        assert code == 0 and out.strip() == "not equivalent"

    def test_invariants(self, capsys):
        code, out, _ = run(capsys, "invariants", "Z(2^3)^2")
        assert code == 0
        assert "U(2,2) = 4" in out
        assert "bounded exponent: True" in out

    def test_rank(self, capsys):
        code, out, _ = run(capsys, "rank", "Z_(2)^w + Z_(3)^w")
        assert code == 0
        assert "dp-rank: 2" in out
        assert "witness [tf-quotients]" in out

    def test_rank_infinite(self, capsys):
        code, out, _ = run(capsys, "rank", "tail(2,w)")
        assert code == 0
        assert "dp-rank: inf" in out
        assert "strong: False" in out

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "Q")
        assert code == 0
        assert "dp-minimal: True" in out

    def test_vc(self, capsys):
        code, out, _ = run(capsys, "vc", "Z_(2)^w + Z_(3)^w", "--m", "3")
        assert code == 0
        assert out.splitlines() == ["vc(1) = 2", "vc(2) = 4", "vc(3) = 6"]

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "Z(2^3)^2", "tor(2)")
        assert code == 0
        assert "cardinality: 4" in out
        assert "exponent: 2" in out

    def test_index(self, capsys):
        code, out, _ = run(capsys, "index", "Z(2^3)^2", "tor(4)", "tor(2)")
        assert code == 0 and out.strip() == "4"
        code, out, _ = run(capsys, "index", "Z(2^3)^w", "top", "tor(2)")
        assert code == 0 and out.strip() == "inf"

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "witness", "Z_(2)^w")
        assert code == 0
        assert "[tf-quotients] div(2,1,0)" in out

    def test_breadth(self, capsys):
        code, out, _ = run(capsys, "breadth", "Z_(2)^w + Z_(3)^w",
                           "--pool-bound", "2", "--max-depth", "4")
        assert code == 0
        assert "depth: 2" in out
        assert "exhausted: True" in out

    def test_shatter_csv(self, capsys):
        code, out, _ = run(capsys, "shatter", "--orders", "4",
                           "--formulas", "tor(2)", "--n", "2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "pi", "pow2"]
        assert rows[1:] == [["0", "1", "1"], ["1", "2", "2"], ["2", "2", "4"]]

    def test_fuzz(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--count", "5", "--seed", "3")
        assert code == 0
        assert "5 descriptions checked, zero disagreements" in out


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "rank", "Z(6)")
        assert code == 1
        assert "error:" in err

    def test_bad_flag_value(self, capsys):
        code, _, err = run(capsys, "vc", "Q", "--m", "0")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_oracle_bound_error(self, capsys):
        code, _, err = run(capsys, "breadth", "Q", "--pool-bound", "0")
        assert code == 1

    def test_closed_stdout(self, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["fuzz", "--count", "2"]) == 1

    def test_out_of_memory(self, capsys, monkeypatch):
        # a real shatter on Z(1000)+Z(1000) needs O(|G|^2) bits; the compute
        # step is stubbed to fail the way that allocation does
        def exhausted(*_args):
            raise MemoryError

        monkeypatch.setattr(shatter, "coset_family", exhausted)
        code, out, err = run(capsys, "shatter", "--orders", "1000", "1000",
                             "--formulas", "tor(2)")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestJsonPayloads:
    def test_normalize(self, capsys):
        payload = run_json(capsys, "normal_form", "normalize", "Q^3")
        assert payload["normal_form"] == "Q^w"

    def test_equiv(self, capsys):
        payload = run_json(capsys, "equiv", "equiv", "Q", "Q^w")
        assert payload["equivalent"] is True

    def test_invariants(self, capsys):
        payload = run_json(capsys, "invariant_report", "invariants",
                           "Z(2^3)^2 + tail(3)")
        assert {"p": 2, "n": 2, "value": 4} in payload["U"]
        assert payload["U_tail"] == [{"p": 3, "cutoff": 0, "value": 3}]

    def test_rank(self, capsys):
        payload = run_json(capsys, "rank_report", "rank", "Z(2^1)^w + Z(8)^w")
        assert payload["dp"] == 2
        assert payload["case"] == 2

    def test_classify(self, capsys):
        payload = run_json(capsys, "classify", "classify", "tail(2,w)")
        assert payload["finite_dp"] is False

    def test_vc(self, capsys):
        payload = run_json(capsys, "vc_report", "vc", "Q", "--m", "2")
        assert payload["values"] == [{"m": 1, "vc": 1}, {"m": 2, "vc": 2}]

    def test_eval(self, capsys):
        payload = run_json(capsys, "profile", "eval", "Z(2^3)", "tor(2)")
        assert payload["blocks"][0]["local"] == {"depth": 2}

    def test_index(self, capsys):
        payload = run_json(capsys, "index", "index", "Z(2^3)^2",
                           "tor(4)", "tor(2)")
        assert payload["index"] == {"value": 4, "factors": [{"p": 2, "e": 2}]}

    def test_witness(self, capsys):
        payload = run_json(capsys, "witness", "witness", "Z_(2)^w")
        assert payload["families"][0]["formulas"] == ["div(2,1,0)"]

    def test_breadth(self, capsys):
        payload = run_json(capsys, "breadth_result", "breadth",
                           "Z(2^inf)^w + Z(3^inf)^w",
                           "--pool-bound", "1", "--max-depth", "4")
        assert payload["depth"] == 2
        assert sorted(payload["witness"]) == ["tor(2)", "tor(3)"]

    def test_fuzz(self, capsys):
        payload = run_json(capsys, "fuzz", "fuzz", "--count", "3",
                           "--seed", "9")
        assert payload["disagreements"] == []
