"""Command-line interface: outputs, exit codes, JSON payload schemas."""

import csv
import importlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

import szk
from szk import cli, rank, shatter
from szk.cli import main
from szk.core import is_prime
from szk.dsl import parse_formula, parse_group, render_group
from szk.normalize import derived_sets, invariants, normalize
from tests.conftest import (MANY_FAILING_LEAVES, ROOT, run_szk,
                            validate_payload)


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

    def test_fuzz_builds_no_witnesses(self, capsys, monkeypatch):
        def refuse(_ds):
            raise AssertionError("fuzz built witness families")

        monkeypatch.setattr(rank, "_seed_witnesses", refuse)
        code, out, err = run(capsys, "fuzz", "--count", "20")
        assert code == 0, err
        assert "20 descriptions checked, zero disagreements" in out

    def test_fuzz_normalizes_each_description_once(self, capsys):
        # the closed form and the oracle both read fuzz's strict form: of
        # the three normalize calls per description, one builds it
        normalize.cache_clear()
        code, out, err = run(capsys, "fuzz", "--count", "20")
        assert code == 0, err
        assert "20 descriptions checked, zero disagreements" in out
        assert normalize.cache_info().misses == 20


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "rank", "Z(6)")
        assert code == 1
        assert "error:" in err

    def test_bad_flag_value(self, capsys):
        code, _, err = run(capsys, "vc", "Q", "--m", "0")
        assert code == 1

    def test_negative_sample_size(self, capsys):
        code, out, err = run(capsys, "shatter", "--orders", "4",
                             "--formulas", "tor(2)", "--n", "-1")
        assert code == 1 and out == ""
        assert err == "error: --n must be at least 0\n"

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_fuzz_disagreement(self, capsys, monkeypatch, flags):
        monkeypatch.setattr(cli, "_fuzz_one", lambda desc: "disagreement")
        code, out, _ = run(capsys, *flags, "fuzz", "--count", "2")
        assert code == 2
        if flags:
            assert json.loads(out)["disagreements"] == ["disagreement"] * 2
        else:
            assert out == "disagreement\ndisagreement\n"

    @pytest.mark.parametrize("argv,err", [
        (["--count", "-3"], "error: --count must be at least 0\n"),
        (["--jobs", "0"], "error: --jobs must be at least 1\n"),
        (["--jobs", "-2"], "error: --jobs must be at least 1\n"),
    ], ids=["count", "jobs-zero", "jobs-negative"])
    def test_fuzz_bad_arguments(self, argv, err):
        cold = run_szk(["--json", "fuzz"] + argv, timeout=10)
        assert (cold.code, cold.out, cold.err) == (1, "", err)

    @pytest.mark.parametrize("count,jobs,workers", [(2, 2, 2), (2, 64, 2),
                                                    (1, 64, None)])
    def test_fuzz_workers_capped_by_items(self, capsys, monkeypatch,
                                          count, jobs, workers):
        import concurrent.futures
        started = []

        def threads(max_workers):
            started.append(max_workers)
            return concurrent.futures.ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", threads)
        code, out, _ = run(capsys, "fuzz", "--count", str(count),
                           "--jobs", str(jobs))
        assert code == 0
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("cpus,workers", [(3, 3), (None, None)],
                             ids=["three", "unknown"])
    def test_fuzz_workers_capped_by_cpus(self, capsys, monkeypatch,
                                         cpus, workers):
        # the pool is never started here: with fork, every worker of an
        # oversubscribed one would start at once
        import concurrent.futures
        started = []

        def threads(max_workers):
            started.append(max_workers)
            return concurrent.futures.ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", threads)
        code, out, _ = run(capsys, "fuzz", "--count", "4", "--jobs", "5000")
        assert (code, out) == (0, "4 descriptions checked, zero disagreements\n")
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("count,jobs", [(2, 2), (1, 8)])
    def test_fuzz_jobs_cold(self, count, jobs):
        # two worker processes at most: --jobs beyond --count is cut to it
        cold = run_szk(["fuzz", "--count", str(count), "--seed", "5",
                        "--jobs", str(jobs)], timeout=60)
        assert cold.code == 0, cold.err
        assert cold.out == "%d descriptions checked, zero disagreements\n" % count

    def test_fuzz_jobs_match_serial(self):
        # more than two windows, each sent to the workers in chunks
        outs = [run_szk(["--json", "fuzz", "--count", "600", "--seed", "1",
                         "--jobs", jobs], timeout=60) for jobs in ("1", "2")]
        assert outs[0].code == 0, outs[0].err
        assert outs[1][:3] == outs[0][:3]
        assert json.loads(outs[0].out) == {"count": 600, "seed": 1,
                                           "disagreements": []}

    def test_fuzz_memory_does_not_grow_with_count(self, capsys, monkeypatch):
        import tracemalloc

        from szk import corpus
        # a stand-in draw that takes the rng's next value and holds about
        # 600 bytes: 100,000 of them held at once would take about 60 MB
        monkeypatch.setattr(corpus, "random_description",
                            lambda rng: [rng.random()] * 64)
        monkeypatch.setattr(cli, "_fuzz_one", lambda desc: None)
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "fuzz", "--count", "100000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (0, "100000 descriptions checked, zero disagreements\n")
        assert peak < 5 * 10 ** 6

    def test_fuzz_submits_one_window_at_a_time(self, capsys, monkeypatch):
        import concurrent.futures
        import random

        from szk import corpus
        held = []    # items submitted and not yet returned, at each submission

        class Recording:
            def __init__(self, max_workers):
                assert max_workers == 2
                self.pending = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                assert chunksize == cli._FUZZ_CHUNK
                items = list(items)
                self.pending += len(items)
                held.append(self.pending)
                return self.results(fn, items)

            def results(self, fn, items):
                for item in items:
                    self.pending -= 1
                    yield fn(item)

        def check(desc):
            return render_group(desc) if len(desc.cyclic) == 2 else None

        count = 2 * cli._FUZZ_WINDOW + 5
        rng = random.Random(9)
        expected = [check(corpus.random_description(rng)) for _ in range(count)]
        expected = [r for r in expected if r is not None]
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(cli, "_fuzz_one", check)
        outs = [run(capsys, "--json", "fuzz", "--count", str(count), "--seed", "9",
                    "--jobs", str(jobs)) for jobs in (1, 2)]
        assert held == [cli._FUZZ_WINDOW, cli._FUZZ_WINDOW, 5]
        assert outs[0] == outs[1]
        assert outs[0][0] == 2 and 0 < len(expected) < count
        assert json.loads(outs[0][1])["disagreements"] == expected

    def test_bad_pool_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("SZK_MAX_POOL", "abc")
        code, out, err = run(capsys, "breadth", "Q")
        assert (code, out) == (1, "")
        assert err == "error: SZK_MAX_POOL must be a positive integer, got 'abc'\n"

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

    def test_shatter(self, capsys):
        payload = run_json(capsys, "shatter", "shatter", "--orders", "4",
                           "--formulas", "tor(2)", "--n", "2")
        assert payload["rows"] == [{"n": 0, "pi": 1, "pow2": 1},
                                   {"n": 1, "pi": 2, "pow2": 2},
                                   {"n": 2, "pi": 2, "pow2": 4}]


# one argument list per subcommand, and the schema of its --json payload
JSON_CALLS = {
    "normalize": ("normal_form", ["Q^3"]),
    "equiv": ("equiv", ["Q", "Z_(2)"]),
    "invariants": ("invariant_report", ["forall_p{Z(P^1)^w} + Z(2^2)"]),
    "rank": ("rank_report", ["tail(2,w)"]),
    "classify": ("classify", ["Z(2^1)^w"]),
    "vc": ("vc_report", ["tail(2,w)", "--m", "2"]),
    "eval": ("profile", ["Q^w", "div(2,1,0)"]),
    "index": ("index", ["Z_(2)", "top", "div(2,1,0)"]),
    "witness": ("witness", ["Q"]),
    "breadth": ("breadth_result", ["Z_(2)", "--pool-bound", "1"]),
    "shatter": ("shatter", ["--orders", "6", "--formulas", "top", "--n", "0"]),
    "fuzz": ("fuzz", ["--count", "1"]),
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_subcommand_takes_json(capsys, command):
    schema, argv = JSON_CALLS[command]
    run_json(capsys, schema, command, *argv)


# the names `szk` exported before its submodules loaded lazily, by home module
PUBLIC_NAMES = {
    "core": ["INFINITE", "OMEGA", "Div", "Index", "PPFormula", "PrimeTailShape",
             "SzmielewDescription", "TailSpec", "Tor", "direct_sum", "div",
             "make_description", "make_prime_tail", "tor", "validate",
             "PoolOverflowError"],
    "dsl": ["ParseError", "SourceSpan", "parse_formula", "parse_group", "render",
            "render_formula", "render_group"],
    "normalize": ["DerivedSets", "InvariantReport", "derived_sets", "invariants",
                  "is_equivalent", "normalize"],
    "ppeval": ["ProfileStats", "SubgroupProfile", "eval_formula", "index_class",
               "meet", "profile_stats"],
    "rank": ["Classification", "RankReport", "VcReport", "WitnessFamily",
             "classify", "dp_rank", "gap_count", "seed_witnesses", "vc_density"],
    "oracle": ["BreadthResult", "InpVerdict", "breadth_search", "candidate_pool",
               "verify_inp"],
    "shatter": ["FinAbGroup", "SetFamily", "coset_family", "shatter_function",
                "subgroup_members", "vc_dim"],
}
SUBMODULES = ["core", "dsl", "ppeval", "rank", "oracle", "shatter"]

# one argument list per subcommand of the cold-call benchmark, and the
# modules each of them must not load
COLD_CALLS = [
    (["normalize", "Q^3 + Z_(2)"], {"ppeval", "rank"}),
    (["rank", "Z(2^1)^w + Z(8)^w"], {"ppeval"}),
    (["classify", "tail(2,w)"], {"ppeval"}),
    (["eval", "Z(2^3)^2", "tor(2) & div(2,1,0)"], {"rank"}),
    (["index", "Z(2^3)^w", "top", "tor(2)"], {"rank"}),
]


class TestColdPath:
    @pytest.mark.parametrize("argv,unused", COLD_CALLS,
                             ids=[a[0] for a, _ in COLD_CALLS])
    def test_loads_only_what_it_runs(self, capsys, argv, unused):
        cold = run_szk(["--json"] + argv, timeout=30)
        assert cold.code == 0, cold.err
        for mod in {"oracle", "shatter", "corpus"} | unused:
            assert "szk." + mod not in cold.modules
        assert {"szk", "szk.core", "szk.dsl", "szk.normalize"} <= cold.modules
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0 and cold.out == out

    def test_public_names_unchanged(self):
        namespace = {}
        exec("from szk import *", namespace)
        for mod, names in PUBLIC_NAMES.items():
            module = importlib.import_module("szk." + mod)
            for name in names:
                assert getattr(szk, name) is getattr(module, name), name
                assert namespace[name] is getattr(module, name), name
        for mod in SUBMODULES:
            assert getattr(szk, mod) is importlib.import_module("szk." + mod)
        public = {n for names in PUBLIC_NAMES.values() for n in names}
        assert set(szk.__all__) == public | set(SUBMODULES)
        assert set(szk.__all__) <= set(dir(szk))

    def test_unknown_name(self):
        with pytest.raises(AttributeError):
            szk.no_such_name

    def test_pool_overflow_error_is_shared(self):
        from szk import core, oracle
        assert oracle.PoolOverflowError is core.PoolOverflowError

    def test_normalize_stays_the_function(self):
        # a fresh process, so that every lazy load happens after the check's
        # module is bound
        script = (
            "import contextlib, importlib, io\n"
            "import szk, szk.cli\n"
            "for argv in (['rank', 'Q'], ['eval', 'Z(2^1)', 'tor(2)'],\n"
            "             ['breadth', 'Z_(2)', '--pool-bound', '1'],\n"
            "             ['shatter', '--orders', '4', '--formulas', 'tor(2)',\n"
            "              '--n', '2'],\n"
            "             ['fuzz', '--count', '1']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert szk.cli.main(argv) == 0, argv\n"
            "module = importlib.import_module('szk.normalize')\n"
            "assert szk.normalize is module.normalize\n"
            "from szk import normalize\n"
            "assert normalize is module.normalize\n")
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestBoundedTime:
    def test_huge_index_value(self):
        # 2^(10^11) is never built: the value is refused by its size, and so
        # are an exponent and invariants of 3^(10^8)
        for argv, timeout in [
                (["eval", "Z(2^1)^99999999999", "top"], 10),
                (["--json", "eval", "Z(3^100000000)", "top"], 2),
                (["--json", "eval", "Z(3^100000000)^w", "top"], 2),
                (["invariants", "Z(3^1)^100000000"], 2),
                (["invariants", "Z(3^inf)^100000000"], 2),
                (["invariants", "tail(3,100000000)"], 2)]:
            cold = run_szk(argv, timeout=timeout)
            assert cold.code == 1 and cold.out == "", argv
            assert cold.err.startswith("error: Exceeds the limit ("), argv
            assert cold.err.count("\n") == 1, argv

    def test_vc_argument_cap(self):
        # the payload holds one value per m: 10^6 of them took 5.6 s
        cold = run_szk(["--json", "vc", "Z_(2)^w", "--m", "100001"], timeout=2)
        assert (cold.code, cold.out) == (1, "")
        assert cold.err == "error: --m must be at most 100000\n"

    @pytest.mark.parametrize("argv,expected", [
        (["rank", "Z(2305843009213693951^1)"], "dp-rank: 0"),
        (["eval", "Z(2^3)", "tor(2305843009213693951)"], "cardinality: 1"),
    ], ids=["rank", "eval"])
    def test_large_prime(self, argv, expected):
        t0 = time.perf_counter()
        cold = run_szk(argv, timeout=10)
        assert time.perf_counter() - t0 < 2
        assert cold.code == 0, cold.err
        assert cold.out.splitlines()[0] == expected

    def test_tail_split_refused(self):
        # one explicit cyclic block per exponent up to 10^12: none is built
        cold = run_szk(["index", "tail(2)", "div(2,1000000000000,0)",
                        "tor(2)"], timeout=2)
        assert cold.code == 1 and cold.out == ""
        assert cold.err == ("error: tail splits need 1000000000000 cyclic "
                            "blocks, cap is 10000\n")

    @pytest.mark.parametrize("text,blocks", [
        ("Z(2^1000000) + tail(2)", 1000000),
        ("tail(2) + tail(2,cutoff=300000)", 300000),
    ], ids=["exponent", "cutoff"])
    def test_sum_cutoff_refused(self, text, blocks):
        # the sum raises the tail's cutoff: its explicit blocks are counted
        # before any is built
        cold = run_szk(["normalize", text], timeout=2)
        assert cold.code == 1 and cold.out == ""
        assert cold.err == ("error: tail splits need %d cyclic blocks, cap is "
                            "10000 (at 0..%d)\n" % (blocks, len(text)))

    def test_shatter_refused_by_size(self):
        # 250,000 cosets of 10^6 bits each: refused before any is built
        cold = run_szk(["shatter", "--orders", "1000", "1000",
                        "--formulas", "tor(2)"], timeout=2)
        assert cold.code == 1 and cold.out == ""
        assert cold.err.startswith("error: coset family needs ")
        assert cold.err.count("\n") == 1

    def test_shatter_refused_by_samples(self):
        # 2,500 cosets pass the mask cap; C(10^4, 2) pairs of points are
        # refused before any is taken
        cold = run_szk(["shatter", "--orders", "100", "100",
                        "--formulas", "tor(2)"], timeout=2)
        assert cold.code == 1 and cold.out == ""
        assert cold.err.startswith("error: pi(2) needs 49995000 samples ")
        assert cold.err.count("\n") == 1

    def test_shatter_table_refused_before_its_first_row(self):
        # pi(0) to pi(2) pass the sample cap and take seconds; pi(3) does not
        cold = run_szk(["shatter", "--orders", "1414"]
                       + ["--formulas", "tor(2)"] * 32 + ["--n", "3"], timeout=1)
        assert cold.code == 1 and cold.out == ""
        assert cold.err.startswith("error: pi(3) needs 470191764 samples ")
        assert cold.err.count("\n") == 1

    def test_shatter_huge_exponent(self):
        # the subgroup is read from 2^(10^8) mod 8; the power is never built
        cold = run_szk(["shatter", "--orders", "8", "--formulas",
                        "div(2,100000000,0)", "--n", "2"], timeout=2)
        assert cold.code == 0, cold.err
        assert cold.out.splitlines() == ["n,pi,pow2", "0,1,1", "1,2,2", "2,3,4"]

    @staticmethod
    def long_group(terms):
        """A sum of ``terms`` terms, each at its own prime, of four kinds."""
        primes = [p for p in range(2, 20 * terms) if is_prime(p)][:terms]
        kinds = ["Z(%d^2)", "Z_(%d)", "Z(%d^inf)^w", "tail(%d,cutoff=1)"]
        return " + ".join(kinds[i % 4] % p for i, p in enumerate(primes))

    def test_long_group(self):
        # the terms are summed once: a pairwise fold over them is quadratic
        text = self.long_group(4000)
        t0 = time.perf_counter()
        desc = parse_group(text)
        assert time.perf_counter() - t0 < 0.5
        assert (len(desc.cyclic), len(desc.tf), len(desc.div),
                len(desc.cyclic_tail)) == (1000, 1000, 1000, 1000)

    def test_each_prime_checked_once(self, monkeypatch):
        # the parser checks each base, and validate does not check it again
        primes = [p for p in range(2, 90000) if is_prime(p)][:8000]
        text = " + ".join("Z(%d^2)^w" % p for p in primes)
        calls = []

        def counting(n):
            calls.append(n)
            return is_prime(n)

        for name in ("szk.core", "szk.dsl"):
            monkeypatch.setattr(importlib.import_module(name), "is_prime",
                                counting)
        t0 = time.perf_counter()
        desc = parse_group(text)
        assert time.perf_counter() - t0 < 0.5
        assert len(desc.cyclic) == 8000 and len(calls) == 8000

    def test_long_formula(self):
        text = " & ".join("tor(%d)" % n if n % 2 else "div(%d,%d,0)" % (p, n)
                          for p in (2, 3, 5, 7) for n in range(1, 5001))
        t0 = time.perf_counter()
        formula = parse_formula(text)
        assert time.perf_counter() - t0 < 0.5
        assert len(formula.atoms) == 20000

    def test_long_group_cold(self):
        text = self.long_group(4000)
        cold = run_szk(["--json", "normalize", text], timeout=2)
        assert cold.code == 0, cold.err
        assert json.loads(cold.out) == {
            "normal_form": render_group(normalize(parse_group(text)))}

    @pytest.mark.parametrize("terms", [("Z(%d^2)^w",),
                                       ("Z(%d^2)", "tail(%d,cutoff=3)")],
                             ids=["omega-cyclic", "cyclic-and-tail"])
    def test_long_group_invariants(self, terms):
        # one table per prime in validate, invariants and rank's partition;
        # scanning every cyclic block per prime took seconds here
        sieve = bytearray([1]) * 90000
        for i in range(2, 300):
            if sieve[i]:
                sieve[i * i::i] = bytes(len(range(i * i, 90000, i)))
        primes = [p for p in range(2, 90000) if sieve[p]][:8000]
        text = " + ".join(terms[i % len(terms)] % p
                          for i, p in enumerate(primes))
        t0 = time.perf_counter()
        strict = normalize(parse_group(text))
        report = invariants(strict)
        partition = rank._partition(strict, derived_sets(strict))
        assert time.perf_counter() - t0 < 1.0
        assert len(report.U) + len(report.U_tail) == 8000
        assert sum(map(len, partition.values())) == 8000

    def test_rank_report_builds_no_witnesses(self):
        # 8,000 divisible primes: their divisible-socles family would be
        # 8,000 moduli of 7,999 primes each
        primes = [p for p in range(2, 90000) if is_prime(p)][:8000]
        desc = parse_group(" + ".join("Z(%d^inf)^w" % p for p in primes))
        t0 = time.perf_counter()
        report = rank.dp_rank(desc)
        classification = rank.classify(desc)
        vc = rank.vc_density(desc, [1, 2])
        assert time.perf_counter() - t0 < 0.5
        assert report.dp == 8000
        assert classification == rank.Classification(True, True, False)
        assert vc.values == {1: 8000, 2: 16000}

    def test_divisible_socles_refused_quickly(self):
        # 2,000 moduli of 1,999 primes each are too long to print; the
        # longest is measured from the product of all the primes before any
        # is built
        primes = [p for p in range(2, 20000) if is_prime(p)][:2000]
        text = " + ".join("Z(%d^inf)^w" % p for p in primes)
        for command in ("rank", "witness"):
            cold = run_szk(["--json", command, text], timeout=1)
            assert cold.code == 1 and cold.out == ""
            assert cold.err == ("error: divisible-socles witness family has "
                                "moduli of over 4300 digits, too long to "
                                "print\n")

    def test_deep_breadth(self):
        # adjacent omega blocks of the split tail conflict in pairs, and the
        # slot scan grows no slot set past such a pair
        cold = run_szk(["breadth", "tail(2,w)", "--pool-bound", "22",
                        "--max-depth", "12"], timeout=2)
        assert cold.code == 0, cold.err
        assert cold.out.splitlines()[0] == "depth: 12"

    def test_failing_leaves_cut_partial_families(self):
        # once a leaf has failed, the member search checks partial families
        # before growing them; without that check this call ran for minutes
        cold = run_szk(["breadth", MANY_FAILING_LEAVES, "--pool-bound", "3",
                        "--max-depth", "5"], timeout=10)
        assert cold.code == 0, cold.err
        assert cold.out.splitlines()[0] == "depth: 5"

    def test_beyond_exact_primality(self):
        cold = run_szk(["rank", "Z(%d^1)" % (33 * 10 ** 23)], timeout=10)
        assert cold.code == 1 and cold.out == ""
        assert cold.err.startswith("error:") and cold.err.count("\n") == 1
