"""Command-line front end: one subcommand per operation, JSON behind --json.

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
from typing import List, Optional

# only what every subcommand needs loads here; each handler imports the rest,
# so that a cold call compiles no module it does not run
from .core import INFINITE, PoolOverflowError
from .dsl import ParseError, parse_formula, parse_group, render_formula, render_group
from .normalize import invariants, invariants_json, is_equivalent, normalize


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _cmd_normalize(args) -> int:
    g = parse_group(args.group)
    text = render_group(normalize(g))
    _emit(args, {"normal_form": text}, text)
    return 0


def _cmd_equiv(args) -> int:
    a, b = parse_group(args.group1), parse_group(args.group2)
    eq = is_equivalent(a, b)
    _emit(args, {"equivalent": eq}, "equivalent" if eq else "not equivalent")
    return 0


def _cmd_invariants(args) -> int:
    g = parse_group(args.group)
    report = invariants(g)
    payload = invariants_json(report)
    lines = []
    for entry in payload["U"]:
        lines.append("U(%d,%d) = %s" % (entry["p"], entry["n"], entry["value"]))
    for entry in payload["U_tail"]:
        lines.append("U(%d,n) = %s for n >= %d"
                     % (entry["p"], entry["value"], entry["cutoff"]))
    for entry in payload["D_lim"]:
        lines.append("D(%d) = %s" % (entry["p"], entry["value"]))
    for entry in payload["Tf_lim"]:
        lines.append("Tf(%d) = %s" % (entry["p"], entry["value"]))
    lines.append("bounded exponent: %s" % report.bounded_exponent)
    lines.append("finite group: %s" % report.finite_group)
    if payload["quotient_pA_infinite"]:
        lines.append("A/pA infinite at: %s"
                     % ", ".join(map(str, payload["quotient_pA_infinite"])))
    if payload["torsion_p_infinite"]:
        lines.append("A[p] infinite at: %s"
                     % ", ".join(map(str, payload["torsion_p_infinite"])))
    if payload["defaults"] is not None:
        lines.append("unlisted primes carry a uniform shape")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_rank(args) -> int:
    from . import rank
    g = parse_group(args.group)
    report = rank.dp_rank(g)
    payload = rank.rank_json(report)
    dp_text = "inf" if report.dp is None else str(report.dp)
    lines = ["dp-rank: %s" % dp_text, "case: %s" % report.case_tag,
             "strong: %s" % report.strong]
    for w in report.witnesses:
        lines.append("witness [%s]: %s"
                     % (w.tag, "; ".join(render_formula(f) for f in w.formulas)))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_classify(args) -> int:
    from . import rank
    g = parse_group(args.group)
    c = rank.classify(g)
    payload = rank.classify_json(c)
    _emit(args, payload,
          "strong: %s\nfinite dp-rank: %s\ndp-minimal: %s"
          % (c.strong, c.finite_dp, c.dp_minimal))
    return 0


def _cmd_vc(args) -> int:
    if args.m < 1:
        raise ValueError("--m must be at least 1")
    from . import rank
    g = parse_group(args.group)
    report = rank.vc_density(g, range(1, args.m + 1))
    payload = rank.vc_json(report)
    lines = ["vc(%d) = %s" % (m, "inf" if v is None else v)
             for m, v in sorted(report.values.items())]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_eval(args) -> int:
    from . import ppeval
    g = parse_group(args.group)
    f = parse_formula(args.formula)
    profile = ppeval.eval_formula(g, f)
    payload = ppeval.profile_json(profile)
    stats = ppeval.profile_stats(profile)
    card = "inf" if stats.cardinality.is_infinite else str(stats.cardinality.value())
    exp = "unbounded" if stats.exponent is INFINITE else str(stats.exponent)
    lines = ["cardinality: %s" % card, "exponent: %s" % exp]
    for b in payload["blocks"]:
        lines.append("%s %s mult=%s local=%s"
                     % (b["kind"],
                        {k: v for k, v in b.items()
                         if k in ("p", "n", "split")},
                        b["mult"], b["local"]))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_index(args) -> int:
    from . import ppeval
    g = parse_group(args.group)
    h = ppeval.eval_formula(g, parse_formula(args.formula1))
    k = ppeval.eval_formula(g, parse_formula(args.formula2))
    idx = ppeval.index_class(h, k)
    payload = {"index": ppeval.index_json(idx)}
    _emit(args, payload, "inf" if idx.is_infinite else str(idx.value()))
    return 0


def _cmd_witness(args) -> int:
    from . import rank
    g = parse_group(args.group)
    fams = rank.seed_witnesses(g)
    payload = {"families": [
        {"tag": w.tag, "formulas": [render_formula(f) for f in w.formulas]}
        for w in fams]}
    lines = ["[%s] %s" % (w.tag, "; ".join(render_formula(f) for f in w.formulas))
             for w in fams] or ["no seed families"]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_breadth(args) -> int:
    from . import oracle
    g = parse_group(args.group)
    result = oracle.breadth_search(g, args.pool_bound, args.max_depth)
    payload = oracle.breadth_json(result)
    _emit(args, payload,
          "depth: %d\nwitness: %s\nexhausted: %s"
          % (result.depth,
             "; ".join(render_formula(f) for f in result.witness) or "(empty)",
             result.exhausted))
    return 0


def _cmd_shatter(args) -> int:
    import csv

    from . import shatter
    if args.n < 0:
        raise ValueError("--n must be at least 0")
    g = shatter.FinAbGroup(tuple(args.orders))
    formulas = [parse_formula(t) for t in args.formulas]
    family = shatter.coset_family(g, formulas)
    rows = shatter.shatter_rows(family, args.n)
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "pi", "pow2"])
    for row in rows:
        writer.writerow(row)
    return 0


def _fuzz_one(seed_desc) -> Optional[str]:
    from . import oracle, rank
    desc = seed_desc
    report = rank.dp_rank(desc)
    if report.dp is None:
        return "corpus produced an infinite-rank description: %s" % render_group(desc)
    b0 = normalize(desc).max_exponent() + 2
    result = oracle.breadth_search(desc, b0, report.dp + 1)
    if result.depth != report.dp:
        return ("disagreement on %s: closed form %d, oracle %d (B0=%d)"
                % (render_group(desc), report.dp, result.depth, b0))
    return None


def _cmd_fuzz(args) -> int:
    import random

    from . import corpus
    rng = random.Random(args.seed)
    descs = [corpus.random_description(rng) for _ in range(args.count)]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_fuzz_one, descs))
    else:
        results = [_fuzz_one(d) for d in descs]
    failures = [r for r in results if r is not None]
    payload = {"count": args.count, "seed": args.seed,
               "disagreements": failures}
    if failures:
        _emit(args, payload, "\n".join(failures))
        return 2
    _emit(args, payload, "%d descriptions checked, zero disagreements" % args.count)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szk",
        description="Exact dp-rank toolkit for abelian groups given by Szmielew data")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="strict normal form")
    p.add_argument("group")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("equiv", help="elementary equivalence")
    p.add_argument("group1")
    p.add_argument("group2")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("invariants", help="Ulm-style invariant report")
    p.add_argument("group")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("rank", help="dp-rank with case tag and witnesses")
    p.add_argument("group")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("classify", help="strong / finite dp / dp-minimal")
    p.add_argument("group")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("vc", help="vc-density values")
    p.add_argument("group")
    p.add_argument("--m", type=int, default=1, help="largest argument")
    p.set_defaults(func=_cmd_vc)

    p = sub.add_parser("eval", help="evaluate a formula to a subgroup profile")
    p.add_argument("group")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("index", help="index [phi : phi & psi]")
    p.add_argument("group")
    p.add_argument("formula1")
    p.add_argument("formula2")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("witness", help="seed witness families")
    p.add_argument("group")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("breadth", help="exhaustive breadth search")
    p.add_argument("group")
    p.add_argument("--pool-bound", type=int, default=4)
    p.add_argument("--max-depth", type=int, default=6)
    p.set_defaults(func=_cmd_breadth)

    p = sub.add_parser("shatter", help="shatter function of coset families")
    p.add_argument("--orders", type=int, nargs="+", required=True)
    p.add_argument("--formulas", action="append", required=True)
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(func=_cmd_shatter)

    p = sub.add_parser("fuzz", help="closed form vs oracle differential")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
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
