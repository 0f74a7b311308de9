"""The four workloads: inputs, one timed op, and the checks on its output.

Each workload is driven closed-loop by one client (``child.py``) in rounds
over a fixed population of ``population`` items, made by ``prepare`` during
set-up.  It times ``op`` on one item, then runs ``check`` outside the timed
region; later rounds compare ``answer`` with the checked one.  ``extra``
runs only in traced rounds, after the checks, and measures what the timed
op must not include.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import gen
from checks import CheckFailed, expect

VC_MS = (1, 2, 3)
SHATTER_NS = (1, 2, 3)


class Workload:
    name = ""
    population = 1        # items, each timed once per round
    tail_pct = 99.0       # fixed per workload; keeps at least ten items beyond it
    in_process = True     # whether set-up imports szk into this process
    warmup_ops = 0

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.shares = gen.ShapeShares()
        self.schemas = None            # set once set-up is timed

    def setup(self, layers) -> None:
        """Warm up on items outside the measured stream."""
        for i in range(-self.warmup_ops, 0):
            self.op(layers, self.prepare(i, count=False))

    def prepare(self, i: int, count: bool = True):
        raise NotImplementedError

    def op(self, L, x):
        raise NotImplementedError

    def check(self, L, x, out) -> None:
        raise NotImplementedError

    def answer(self, out):
        """What a later round's output must equal: the checked answer."""
        raise NotImplementedError

    def extra(self, L, x, out) -> None:
        pass

    def report(self) -> dict:
        return {"input_shapes": self.shares.as_json()}


# ---------------------------------------------------------------------------


class Queries(Workload):
    """Interactive queries: every public call but the oracle's.

    Even ops take a mixed-rank description with four formulas; odd ops a
    small finite one with six, plus brute-force subgroup members.  Every
    fourth op also shatters one coset family on a 16- or 27-element carrier,
    cycling through ``gen.SHATTER_CASES``.
    """

    name = "queries"
    warmup_ops = 20
    population = 1280     # eight cycles of gen.SHATTER_CASES
    tail_pct = 98.0

    def prepare(self, i, count=True):
        item = gen.queries_item(self.seed, i)
        carrier = gen.shatter_item(self.seed, i // 4) if i % 4 == 3 else None
        if count:
            self.shares.add(item.shape)
        return item, carrier

    def op(self, L, x):
        from szk.normalize import derived_sets_json, invariants_json
        from szk.ppeval import index_json
        from szk.rank import classify_json, rank_json, vc_json
        from szk.shatter import from_description
        item, carrier = x
        g = L.dsl.parse_group(item.text)
        fs = [L.dsl.parse_formula(t) for t in item.formulas]
        strict = L.normalize.normalize(g)
        eq = L.normalize.is_equivalent(g, strict)
        rep = L.rank.dp_rank(g)
        cls = L.rank.classify(g)
        vc = L.rank.vc_density(g, VC_MS)
        wit = L.rank.seed_witnesses(g)
        profiles = [L.ppeval.eval_formula(g, f) for f in fs]
        pairs = list(itertools.combinations(range(len(fs)), 2))
        index = [L.ppeval.index_class(profiles[a], profiles[b]) for a, b in pairs]
        payloads = [
            ("normal_form", {"normal_form": L.dsl.render_group(strict)}),
            ("equiv", {"equivalent": eq}),
            ("invariant_report", invariants_json(L.normalize.invariants(g))),
            ("derived_sets", derived_sets_json(L.normalize.derived_sets(g))),
            ("rank_report", rank_json(rep)),
            ("classify", classify_json(cls)),
            ("vc_report", vc_json(vc)),
            ("witness", {"families": [
                {"tag": w.tag, "formulas": [L.dsl.render_formula(f) for f in w.formulas]}
                for w in wit]}),
        ]
        payloads += [("profile", L.ppeval.profile_json(h)) for h in profiles]
        payloads += [("index", {"index": index_json(v)}) for v in index]
        out = {"g": g, "fs": fs, "rep": rep, "cls": cls, "vc": vc,
               "pairs": pairs, "index": index, "payloads": payloads}
        if item.shape.finite:
            out["stats"] = [L.ppeval.profile_stats(h) for h in profiles]
            concrete = from_description(g)
            out["members"] = [L.shatter.subgroup_members(concrete, f) for f in fs]
        if carrier is not None:
            ctext, ftext = carrier
            cg = from_description(L.dsl.parse_group(ctext))
            h = L.dsl.parse_formula(ftext)
            family = L.shatter.coset_family(cg, [h])
            out["shatter"] = (carrier, cg.size // len(L.shatter.subgroup_members(cg, h)),
                              [L.shatter.shatter_function(family, n) for n in SHATTER_NS])
        return out

    def check(self, L, x, out):
        item, _carrier = x
        g, rep = out["g"], out["rep"]
        for name, payload in out["payloads"]:
            self.schemas.validate(name, payload)
        # render/parse round trips stay equivalent
        nf = out["payloads"][0][1]["normal_form"]
        expect(L.normalize.is_equivalent(g, L.dsl.parse_group(nf)),
               "normal form %r not equivalent to %r", nf, item.text)
        again = L.dsl.render_group(g)
        expect(L.normalize.is_equivalent(g, L.dsl.parse_group(again)),
               "rendering %r not equivalent to %r", again, item.text)
        for f in out["fs"]:
            back = L.dsl.parse_formula(L.dsl.render_formula(f))
            expect(back == f, "formula round trip changed %r", L.dsl.render_formula(f))
        expect(out["payloads"][1][1]["equivalent"], "%r not equivalent to its normal form",
               item.text)
        # the rank answers agree with each other and with the input's shape
        expect((rep.dp is None) == item.shape.infinite_dp,
               "dp %s on %r, whose shape says infinite=%s", rep.dp, item.text,
               item.shape.infinite_dp)
        cls = out["cls"]
        expect(cls.finite_dp == (rep.dp is not None), "classify.finite_dp vs dp %s", rep.dp)
        expect(cls.dp_minimal == (rep.dp == 1), "classify.dp_minimal vs dp %s", rep.dp)
        want = {m: None if rep.dp is None else m * rep.dp for m in VC_MS}
        expect(out["vc"].values == want, "vc %s, want %s", out["vc"].values, want)
        if "members" in out:
            self._check_finite(item, out)
        if "shatter" in out:
            carrier, index, pis = out["shatter"]
            for n, pi in zip(SHATTER_NS, pis):
                expect(pi <= 2 ** n, "pi(%d) = %d > 2^n for %s", n, pi, carrier)
                expect(index <= n or pi == n + 1,
                       "pi(%d) = %d, want n+1 at index %d for %s", n, pi, index, carrier)

    def answer(self, out):
        return (out["payloads"], [len(m) for m in out.get("members", ())],
                out.get("shatter"))

    @staticmethod
    def _check_finite(item, out):
        """Profiles of a finite group against brute-force subgroup members."""
        members = [set(m) for m in out["members"]]
        for s, m in zip(out["stats"], members):
            expect(not s.cardinality.is_infinite and s.cardinality.value() == len(m),
                   "cardinality %s, brute force %d on %r", s.cardinality, len(m), item.text)
        for (a, b), idx in zip(out["pairs"], out["index"]):
            want = len(members[a]) // len(members[a] & members[b])
            expect(not idx.is_infinite and idx.value() == want,
                   "index %s, brute force %d on %r", idx, want, item.text)


# ---------------------------------------------------------------------------


class Fuzz(Workload):
    """``szk fuzz`` traffic: closed-form dp-rank, then the breadth oracle at
    B0 = max exponent + 2 with depth cap dp+1."""

    name = "fuzz"
    warmup_ops = 30
    population = 1200     # three cycles of gen.EXP_CYCLE in every cell
    tail_pct = 98.0

    def prepare(self, i, count=True):
        from szk.dsl import parse_group
        item = gen.fuzz_item(self.seed, i)
        if count:
            self.shares.add(item.shape, item.shape.max_exp + 2)
        return item, parse_group(item.text)

    def op(self, L, x):
        _item, g = x
        rep = L.rank.dp_rank(g)
        b0 = L.normalize.normalize(g).max_exponent() + 2
        return rep, b0, L.oracle.breadth_search(g, b0, rep.dp + 1)

    def check(self, L, x, out):
        item, g = x
        rep, b0, res = out
        expect(b0 == item.shape.max_exp + 2, "B0 %d on %r", b0, item.text)
        expect(res.depth == rep.dp and res.exhausted,
               "oracle depth %d (exhausted %s), closed form %s on %r",
               res.depth, res.exhausted, rep.dp, item.text)
        if res.witness:
            expect(L.oracle.verify_inp(g, res.witness).valid,
                   "oracle witness fails verify_inp on %r", item.text)

    def answer(self, out):
        rep, b0, res = out
        return rep.dp, b0, res.depth, res.exhausted, res.witness

    def extra(self, L, x, out):
        L.oracle.candidate_pool(x[1], out[1])


# ---------------------------------------------------------------------------


class OracleDeep(Workload):
    """One op is one rung of ``gen.ORACLE_LADDER``; the rungs are the items."""

    name = "oracle_deep"
    population = len(gen.ORACLE_LADDER)
    tail_pct = 75.0       # four items: the slowest rung sits beyond it

    def setup(self, layers):
        from szk.dsl import parse_group
        from szk.rank import dp_rank
        self.rungs = []
        for text, B, cap in gen.ORACLE_LADDER:
            g = parse_group(text)
            self.rungs.append((text, g, B, cap, dp_rank(g).dp))
        # warm up on one rung only, G10 at B=3, which builds the largest
        # pool: a full round takes about a second
        _text, g, B, cap, _dp = min(self.rungs, key=lambda r: r[2])
        layers.oracle.breadth_search(g, B, cap)

    def prepare(self, i, count=True):
        if count:
            self.shares.add(gen.ORACLE_SHAPES[i], gen.ORACLE_LADDER[i][1])
        return self.rungs[i]

    def op(self, L, x):
        _text, g, B, cap, _dp = x
        return L.oracle.breadth_search(g, B, cap)

    def check(self, L, x, res):
        from szk.oracle import breadth_json, verdict_json
        text, g, B, cap, dp = x
        self.schemas.validate("breadth_result", breadth_json(res))
        if dp is None:
            expect(res.depth == cap and not res.exhausted,
                   "%s at B=%d: depth %d, want the cap %d", text, B, res.depth, cap)
        else:
            expect(res.depth <= dp, "%s at B=%d: depth %d above dp %d",
                   text, B, res.depth, dp)
        if res.witness:
            verdict = L.oracle.verify_inp(g, res.witness)
            self.schemas.validate("inp_verdict", verdict_json(verdict))
            expect(verdict.valid, "%s at B=%d: witness fails verify_inp", text, B)

    def answer(self, res):
        return res.depth, res.exhausted, res.witness

    def extra(self, L, x, res):
        L.oracle.candidate_pool(x[1], x[2])


# ---------------------------------------------------------------------------


SCHEMA_OF = {"normalize": "normal_form", "rank": "rank_report",
             "classify": "classify", "eval": "profile", "index": "index"}
_IMPORT_LINE = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)")


class CliCold(Workload):
    """One cold ``python -m szk.cli --json ...`` process per op."""

    name = "cli_cold"
    in_process = False
    population = 50       # argument lists; about 7 s a round
    tail_pct = 80.0

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("SZK_MAX_POOL", None)
        self.expected: Dict[int, str] = {}
        self.bare_ms: List[float] = []
        self.import_ms: List[float] = []
        self.module_self_ms: Dict[str, List[float]] = {}

    def _spawn(self, args: List[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable] + args, cwd=self.root, env=self.env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)

    def setup(self, layers):
        self.argvs, self.shapes = zip(*gen.cli_argvs(self.seed, self.population))
        # the first spawn may compile the byte code; the second is cold as measured
        for argv in self.argvs[:2]:
            self._spawn(["-m", "szk.cli"] + argv)

    def prepare(self, i, count=True):
        if count:
            self.shares.add(self.shapes[i])
        return i

    def op(self, L, k):
        return self._spawn(["-m", "szk.cli"] + self.argvs[k])

    def _in_process(self, main, k) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(self.argvs[k])
        expect(code == 0, "in-process cli.main exit %d on %s", code, self.argvs[k])
        return buf.getvalue()

    def check(self, L, k, proc):
        argv = self.argvs[k]
        expect(proc.returncode == 0, "exit %d on %s: %s", proc.returncode, argv,
               proc.stderr.strip()[-200:])
        try:
            payload = json.loads(proc.stdout)
        except ValueError as e:
            raise CheckFailed("unparseable output on %s: %s" % (argv, e))
        self.schemas.validate(SCHEMA_OF[argv[1]], payload)
        if k not in self.expected:
            from szk.cli import main
            self.expected[k] = self._in_process(main, k)
        expect(proc.stdout == self.expected[k],
               "cold output differs from in-process cli.main on %s", argv)

    def answer(self, proc):
        return proc.returncode, proc.stdout

    def extra(self, L, k, proc):
        """Bare interpreter, -X importtime and warm cli.main, interleaved
        with the cold spawns so that machine drift hits all of them."""
        t0 = time.perf_counter()
        self._spawn(["-c", "pass"])
        self.bare_ms.append((time.perf_counter() - t0) * 1e3)
        prof = self._spawn(["-X", "importtime", "-c", "import szk.cli"])
        entries = [(int(s), int(c), len(ind), mod)
                   for s, c, ind, mod in _IMPORT_LINE.findall(prof.stderr)
                   if mod == "szk" or mod.startswith("szk.")]
        expect(bool(entries), "no szk modules in -X importtime output")
        top = min(e[2] for e in entries)
        self.import_ms.append(sum(e[1] for e in entries if e[2] == top) / 1e3)
        for s, _c, _ind, mod in entries:
            self.module_self_ms.setdefault(mod, []).append(s / 1e3)
        self._in_process(L.cli.main, k)
