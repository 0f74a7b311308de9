"""Command-line front end: one table, COMMANDS, with one entry per subcommand.

An entry holds the subcommand's help, its argparse arguments, a payload
function and a text view.  The payload function parses the input, imports
the modules it runs and returns the `--json` payload; the text view renders
that payload alone.  `build_parser` reads the table, and `main` prints the
payload or its text in one place.

Exit codes: 0 success, 1 input error (bad DSL, invalid flags, cap
overflow), 2 internal assertion failure (closed-form disagreement with
itself or with the oracle; must never happen).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

# only what every subcommand needs loads here; each payload function imports
# the rest, so that a cold call compiles no module it does not run
from .core import PoolOverflowError, Record
from .dsl import ParseError, parse_formula, parse_group, render_group
from .normalize import invariants, invariants_json, is_equivalent, normalize


class Command(Record):
    help: str
    args: Tuple[Tuple[str, dict], ...]          # add_argument's name and options
    payload: Callable[[argparse.Namespace], dict]
    text: Callable[[dict], str]


_GROUP = ("group", {})


def _normalize(args) -> dict:
    return {"normal_form": render_group(normalize(parse_group(args.group)))}


def _equiv(args) -> dict:
    return {"equivalent": is_equivalent(parse_group(args.group1),
                                        parse_group(args.group2))}


def _invariants(args) -> dict:
    return invariants_json(invariants(parse_group(args.group)))


def _invariants_text(p: dict) -> str:
    lines = ["U(%d,%d) = %s" % (e["p"], e["n"], e["value"]) for e in p["U"]]
    lines += ["U(%d,n) = %s for n >= %d" % (e["p"], e["value"], e["cutoff"])
              for e in p["U_tail"]]
    lines += ["D(%d) = %s" % (e["p"], e["value"]) for e in p["D_lim"]]
    lines += ["Tf(%d) = %s" % (e["p"], e["value"]) for e in p["Tf_lim"]]
    lines += ["bounded exponent: %s" % p["bounded_exponent"],
              "finite group: %s" % p["finite_group"]]
    if p["quotient_pA_infinite"]:
        lines.append("A/pA infinite at: %s"
                     % ", ".join(map(str, p["quotient_pA_infinite"])))
    if p["torsion_p_infinite"]:
        lines.append("A[p] infinite at: %s"
                     % ", ".join(map(str, p["torsion_p_infinite"])))
    if p["defaults"] is not None:
        lines.append("unlisted primes carry a uniform shape")
    return "\n".join(lines)


def _rank(args) -> dict:
    from . import rank
    return rank.rank_json(rank.dp_rank(parse_group(args.group)))


def _rank_text(p: dict) -> str:
    lines = ["dp-rank: %s" % p["dp"], "case: %s" % p["case"],
             "strong: %s" % p["strong"]]
    lines += ["witness [%s]: %s" % (w["tag"], "; ".join(w["formulas"]))
              for w in p["witness"]]
    return "\n".join(lines)


def _classify(args) -> dict:
    from . import rank
    return rank.classify_json(rank.classify(parse_group(args.group)))


def _vc(args) -> dict:
    if args.m < 1:
        raise ValueError("--m must be at least 1")
    from . import rank
    return rank.vc_json(rank.vc_density(parse_group(args.group),
                                        range(1, args.m + 1)))


def _eval(args) -> dict:
    from . import ppeval
    return ppeval.profile_json(ppeval.eval_formula(parse_group(args.group),
                                                   parse_formula(args.formula)))


def _value(index):
    """The value of an index payload, or "inf"."""
    return index if index == "inf" else index["value"]


def _eval_text(p: dict) -> str:
    lines = ["cardinality: %s" % _value(p["cardinality"]),
             "exponent: %s" % ("unbounded" if p["exponent"] == "inf"
                               else p["exponent"])]
    lines += ["%s %s mult=%s local=%s"
              % (b["kind"], {k: v for k, v in b.items() if k in ("p", "n", "split")},
                 b["mult"], b["local"])
              for b in p["blocks"]]
    return "\n".join(lines)


def _index(args) -> dict:
    from . import ppeval
    g = parse_group(args.group)
    h = ppeval.eval_formula(g, parse_formula(args.formula1))
    k = ppeval.eval_formula(g, parse_formula(args.formula2))
    return {"index": ppeval.index_json(ppeval.index_class(h, k))}


def _witness(args) -> dict:
    from . import rank
    return {"families": rank.witnesses_json(
        rank.seed_witnesses(parse_group(args.group)))}


def _witness_text(p: dict) -> str:
    lines = ["[%s] %s" % (w["tag"], "; ".join(w["formulas"]))
             for w in p["families"]]
    return "\n".join(lines) or "no seed families"


def _breadth(args) -> dict:
    from . import oracle
    return oracle.breadth_json(oracle.breadth_search(
        parse_group(args.group), args.pool_bound, args.max_depth))


def _breadth_text(p: dict) -> str:
    return ("depth: %d\nwitness: %s\nexhausted: %s"
            % (p["depth"], "; ".join(p["witness"]) or "(empty)", p["exhausted"]))


def _shatter(args) -> dict:
    from . import shatter
    if args.n < 0:
        raise ValueError("--n must be at least 0")
    g = shatter.FinAbGroup(tuple(args.orders))
    family = shatter.coset_family(g, [parse_formula(t) for t in args.formulas])
    return {"rows": [{"n": n, "pi": pi, "pow2": pow2}
                     for n, pi, pow2 in shatter.shatter_rows(family, args.n)]}


def _shatter_text(p: dict) -> str:
    # CSV rows end in \r\n, as the csv module writes them; print adds the
    # last \n
    rows = ["%d,%d,%d" % (r["n"], r["pi"], r["pow2"]) for r in p["rows"]]
    return "\r\n".join(["n,pi,pow2"] + rows) + "\r"


def _fuzz_one(desc) -> Optional[str]:
    from . import oracle, rank
    # normalize's memo builds one strict form for the three calls
    dp = rank.dp_rank(desc).dp
    if dp is None:
        return "corpus produced an infinite-rank description: %s" % render_group(desc)
    b0 = normalize(desc).max_exponent() + 2
    result = oracle.breadth_search(desc, b0, dp + 1)
    if result.depth != dp:
        return ("disagreement on %s: closed form %d, oracle %d (B0=%d)"
                % (render_group(desc), dp, result.depth, b0))
    return None


_FUZZ_WINDOW = 256    # descriptions submitted to the worker pool at once
_FUZZ_CHUNK = 32      # descriptions sent to a worker in one round trip


def _fuzz(args) -> dict:
    import itertools
    import random

    from . import corpus
    if args.count < 0:
        raise ValueError("--count must be at least 0")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    rng = random.Random(args.seed)
    descs = (corpus.random_description(rng) for _ in range(args.count))
    jobs = min(args.jobs, args.count)    # never more workers than items
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # one window at a time, so that memory does not grow with --count
            windows = iter(lambda: list(itertools.islice(descs, _FUZZ_WINDOW)), [])
            disagreements = [r for window in windows
                             for r in pool.map(_fuzz_one, window,
                                               chunksize=_FUZZ_CHUNK)
                             if r is not None]
    else:
        disagreements = [r for r in map(_fuzz_one, descs) if r is not None]
    return {"count": args.count, "seed": args.seed,
            "disagreements": disagreements}


def _fuzz_text(p: dict) -> str:
    if p["disagreements"]:
        return "\n".join(p["disagreements"])
    return "%d descriptions checked, zero disagreements" % p["count"]


COMMANDS: Dict[str, Command] = {
    "normalize": Command("strict normal form", (_GROUP,), _normalize,
                         lambda p: p["normal_form"]),
    "equiv": Command("elementary equivalence", (("group1", {}), ("group2", {})),
                     _equiv,
                     lambda p: "equivalent" if p["equivalent"] else "not equivalent"),
    "invariants": Command("Ulm-style invariant report", (_GROUP,), _invariants,
                          _invariants_text),
    "rank": Command("dp-rank with case tag and witnesses", (_GROUP,), _rank,
                    _rank_text),
    "classify": Command("strong / finite dp / dp-minimal", (_GROUP,), _classify,
                        lambda p: "strong: %s\nfinite dp-rank: %s\ndp-minimal: %s"
                        % (p["strong"], p["finite_dp"], p["dp_minimal"])),
    "vc": Command("vc-density values",
                  (_GROUP, ("--m", dict(type=int, default=1, help="largest argument"))),
                  _vc,
                  lambda p: "\n".join("vc(%d) = %s" % (v["m"], v["vc"])
                                      for v in p["values"])),
    "eval": Command("evaluate a formula to a subgroup profile",
                    (_GROUP, ("formula", {})), _eval, _eval_text),
    "index": Command("index [phi : phi & psi]",
                     (_GROUP, ("formula1", {}), ("formula2", {})), _index,
                     lambda p: "%s" % _value(p["index"])),
    "witness": Command("seed witness families", (_GROUP,), _witness, _witness_text),
    "breadth": Command("exhaustive breadth search",
                       (_GROUP, ("--pool-bound", dict(type=int, default=4)),
                        ("--max-depth", dict(type=int, default=6))),
                       _breadth, _breadth_text),
    "shatter": Command("shatter function of coset families",
                       (("--orders", dict(type=int, nargs="+", required=True)),
                        ("--formulas", dict(action="append", required=True)),
                        ("--n", dict(type=int, default=4))),
                       _shatter, _shatter_text),
    "fuzz": Command("closed form vs oracle differential",
                    (("--count", dict(type=int, default=50)),
                     ("--seed", dict(type=int, default=0)),
                     ("--jobs", dict(type=int, default=1))),
                    _fuzz, _fuzz_text),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szk",
        description="Exact dp-rank toolkit for abelian groups given by Szmielew data")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg, options in command.args:
            p.add_argument(arg, **options)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    command = COMMANDS[args.command]
    try:
        payload = command.payload(args)
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json
              else command.text(payload))
        sys.stdout.flush()
        # only fuzz reports disagreements, between the closed form and the oracle
        return 2 if payload.get("disagreements") else 0
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # exit is silent too (the SIGPIPE note in the signal module docs);
        # a stdout without a file descriptor raises UnsupportedOperation
        with contextlib.suppress(OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, ValueError, PoolOverflowError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return 1
    except AssertionError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
