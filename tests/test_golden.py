"""Golden transcripts: CLI output with and without `--json`, candidate pools
and a corpus of breadth searches, byte for byte.

The inputs cover every materialized block kind (cyc, tf, div, q, tail,
ptail) with finite and omega multiplicities, finite and omega tails, and a
pool-cap overflow; the text transcript adds every other subcommand and the
input errors.  The breadth corpus runs the oracle on seeded mixed-corpus
groups.  A refactor of the evaluator, the oracle or the CLI must leave all
four transcripts unchanged.  After an intended change of output,
rewrite the files with

    PYTHONPATH=src python -c "import tests.test_golden as g; g.write_golden()"
"""

import contextlib
import io
import random
import shlex
from pathlib import Path

from szk import corpus
from szk.cli import main
from szk.dsl import parse_group, render_formula, render_group
from szk.oracle import breadth_search, candidate_pool

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# groups with finite and omega multiplicities of every block kind
GROUPS = [
    "0",
    "Z(2^3)^2 + Z(3^1)^w",
    "Z_(3) + Z_(5)^w",
    "Z(5^inf) + Z(7^inf)^w",
    "Q^2",
    "Q^w + Z(2^2)",
    "tail(2) + tail(3,w,cutoff=2)",
    "tail(2,w)",
    "forall_p{Z_(P)^2} + Z(2^1)",
    "forall_p{Z(P^1)^w + Z(P^inf)} + Q",
    "Z(2^1)^w + Z(8)^w + tail(3)",
    "Z(2^2)^w + Z(2^5)^w + Z(2^9)^w + Z_(3)^w + Z(5^inf)^w",
]

FINITE_ALL = ("Z(2^3)^2 + Z_(3) + Z(5^inf) + Q + tail(2,cutoff=1)"
              " + forall_p{Z_(P)^2}")
OMEGA_ALL = ("Z(2^3)^w + Z_(3)^w + Z(5^inf)^w + Q^w + tail(2,w,cutoff=1)"
             " + forall_p{Z(P^1)^w}")

FORMULAS = ["top", "tor(2)", "tor(12)", "tor(50)", "div(2,3,1)",
            "div(3,1,0)", "div(5,2,0)", "tor(7)", "div(7,1,0)",
            "tor(4) & div(2,3,1)"]

INDEX_PAIRS = [("top", "tor(2)"), ("tor(4)", "tor(2)"),
               ("tor(4)", "div(2,3,1)"), ("div(3,1,0)", "tor(3)"),
               ("top", "div(3,2,0)"), ("top", "div(5,1,0)"),
               ("tor(25)", "tor(5)"), ("top", "tor(7)"),
               ("div(7,1,0)", "tor(7)"), ("div(2,2,1)", "div(2,1,0)")]

BREADTH = [
    ("Z(2^1)^w + Z(8)^w", 2, 4),
    ("Z_(2)^w + Z(3^inf)^w + Q", 2, 4),
    ("Z(2^1)^w + Z(2^4)^3 + Z_(3)^2 + Z(5^inf)^2", 2, 4),
    ("tail(2) + Z(3^inf)^w", 3, 4),
    ("tail(2,w)", 6, 3),
    ("forall_p{Z_(P)}", 1, 3),
    ("forall_p{Z(P^1)^w} + Z(3^2)^w", 2, 4),
    ("Z(2^1)^w + Z(3^1)^w + Z(5^1)^w", 36, 4),   # pool over the cap
]

# the breadth corpus: groups per seed, pool bounds and depth cap
CORPUS_SEEDS = (2601, 2602)
CORPUS_GROUPS = 100
CORPUS_BOUNDS = (2, 3, 4)
CORPUS_CAP = 5

POOLS = [
    ("Z(2^1)^w + Z(8)^w", 4),
    ("Z_(2)^w + Z(3^inf)^w + Q", 2),
    ("tail(2,w) + Z(3^2)", 3),
    ("forall_p{Z(P^1)^w + Z_(P)} + Z(2^2)^3", 2),
]


def argvs():
    for g in GROUPS:
        for cmd in ("normalize", "invariants", "rank", "classify", "witness"):
            yield [cmd, g]
    for g in (FINITE_ALL, OMEGA_ALL):
        for f in FORMULAS:
            yield ["eval", g, f]
        for f1, f2 in INDEX_PAIRS:
            yield ["index", g, f1, f2]
    for g, b, k in BREADTH:
        yield ["breadth", g, "--pool-bound", str(b), "--max-depth", str(k)]


# the subcommands the --json transcript leaves out, and one-line input errors
TEXT_ONLY = [
    ["equiv", "Q", "Q^w"],
    ["equiv", "Z(2^1)", "Z_(2)"],
    ["vc", "Z(2^1)^w + Z(8)^w", "--m", "3"],
    ["vc", "tail(2,w)", "--m", "3"],
    ["shatter", "--orders", "4", "--formulas", "tor(2)", "--n", "2"],
    ["shatter", "--orders", "8", "2", "--formulas", "tor(2)",
     "--formulas", "div(2,2,1)", "--n", "3"],
    ["fuzz", "--count", "5"],
    ["rank", "Z(6)"],
    ["vc", "Q", "--m", "0"],
    ["breadth", "Q", "--pool-bound", "0"],
    ["shatter", "--orders", "4", "--formulas", "tor(2)", "--n", "-1"],
    ["shatter", "--orders", "4", "--formulas", "tor(2)", "--n", "5"],
    ["shatter", "--orders", "1000", "1000", "--formulas", "tor(2)"],
]


def cli_transcript(flags=("--json",), extra=()) -> str:
    parts = []
    for argv in list(argvs()) + list(extra):
        argv = list(flags) + argv
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        parts.append("$ szk %s\nexit %d\n%s" % (shlex.join(argv), code,
                                                out.getvalue()))
        if err.getvalue():
            parts.append("stderr: " + err.getvalue())
    return "".join(parts)


def text_transcript() -> str:
    return cli_transcript(flags=(), extra=TEXT_ONLY)


def pool_transcript() -> str:
    parts = []
    for g, b in POOLS:
        pool = candidate_pool(parse_group(g), b)
        parts.append("%s @ B=%d\n%s\n" % (g, b, "\n".join(render_formula(f)
                                                          for f in pool)))
    return "".join(parts)


def breadth_corpus() -> str:
    """One line per search: group, pool bound, cap, depth, exhausted and
    witness."""
    lines = []
    for seed in CORPUS_SEEDS:
        rng = random.Random(seed)
        for _ in range(CORPUS_GROUPS):
            desc = corpus.random_description(rng, finite_dp_only=False)
            for B in CORPUS_BOUNDS:
                r = breadth_search(desc, B, CORPUS_CAP)
                lines.append("%s | %d %d | %d %s | %s\n" % (
                    render_group(desc), B, CORPUS_CAP, r.depth, r.exhausted,
                    ", ".join(map(render_formula, r.witness))))
    return "".join(lines)


def write_golden() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    (GOLDEN_DIR / "cli_json.txt").write_text(cli_transcript())
    # bytes, so that the CSV's \r\n line ends are kept as they are
    (GOLDEN_DIR / "cli_text.txt").write_bytes(text_transcript().encode())
    (GOLDEN_DIR / "candidate_pool.txt").write_text(pool_transcript())
    (GOLDEN_DIR / "breadth_corpus.txt").write_text(breadth_corpus())


def test_cli_json_transcript():
    assert cli_transcript() == (GOLDEN_DIR / "cli_json.txt").read_text()


def test_cli_text_transcript():
    assert text_transcript() == (GOLDEN_DIR / "cli_text.txt").read_bytes().decode()


def test_candidate_pool_transcript():
    assert pool_transcript() == (GOLDEN_DIR / "candidate_pool.txt").read_text()


def test_breadth_corpus():
    assert breadth_corpus() == (GOLDEN_DIR / "breadth_corpus.txt").read_text()
