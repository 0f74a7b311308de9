"""Shared fixtures: seeded corpora, JSON schema validation, cold CLI runs,
emptied description memos, and time budgets enforced as the code runs."""

import contextlib
import importlib
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import FrozenSet, List, NamedTuple

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from szk import corpus

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "src" / "szk" / "schemas"

CORPUS_SEED = 12345
CORPUS_SIZE = 200

# every test's budget; the slowest takes about 3 s on a 2-vCPU host
CEILING_S = 30

# a mixed-corpus group whose member search at B = 3, cap 5 fails leaf after
# leaf: checking only complete families, it took minutes there
MANY_FAILING_LEAVES = ("tail(2,cutoff=2) + tail(3,cutoff=2) + tail(5,w,cutoff=3)"
                       " + forall_p{Z(P^2) + Z_(P)^w + Z(P^inf)^w}")


def _registry() -> Registry:
    resources = []
    for path in SCHEMA_DIR.glob("*.json"):
        doc = json.loads(path.read_text())
        resources.append((doc["$id"], Resource.from_contents(doc)))
    return Registry().with_resources(resources)


_REGISTRY = _registry()


# the schema of each subcommand's --json payload
SCHEMAS = {"normalize": "normal_form", "equiv": "equiv",
           "invariants": "invariant_report", "rank": "rank_report",
           "classify": "classify", "vc": "vc_report", "eval": "profile",
           "index": "index", "witness": "witness", "breadth": "breadth_result",
           "shatter": "shatter", "fuzz": "fuzz"}


def validate_payload(schema_name: str, payload) -> None:
    if not schema_name.endswith(".json"):
        schema_name += ".json"
    doc = json.loads((SCHEMA_DIR / schema_name).read_text())
    Draft202012Validator(doc, registry=_REGISTRY).validate(payload)


# The small per-description memos of normalize, rank and ppeval (the oracle's
# large memos have tests of their own that replay them)
DESCRIPTION_MEMOS = tuple(
    getattr(importlib.import_module("szk." + mod), name)
    for mod, name in (("normalize", "normalize"), ("normalize", "_derived_sets"),
                      ("rank", "_rank_of"), ("ppeval", "_materialized")))


def clear_description_memos() -> None:
    for memo in DESCRIPTION_MEMOS:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def empty_description_memos():
    """No test reads a record that an earlier test, perhaps with a layer
    patched, left in a description memo."""
    clear_description_memos()


@contextlib.contextmanager
def within(seconds: float):
    """Fail the test once the block has run for `seconds`; an outer budget
    is paused for the block and resumes with the time it had left."""
    def overrun(_signum, _frame):
        pytest.fail("ran past its %s s budget" % seconds)
    handler = signal.signal(signal.SIGALRM, overrun)
    left, _interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, left)


@pytest.fixture(autouse=True)
def ceiling():
    """A test that stalls fails at the ceiling instead of holding up Tier-1."""
    with within(CEILING_S):
        yield


@pytest.fixture(scope="session")
def finite_dp_corpus():
    rng = random.Random(CORPUS_SEED)
    return [corpus.random_description(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def mixed_corpus():
    rng = random.Random(CORPUS_SEED + 1)
    return [corpus.random_description(rng, finite_dp_only=False)
            for _ in range(CORPUS_SIZE)]


# Runs szk.cli as __main__ the way `python -m szk.cli` does, then writes the
# names of the loaded szk modules to the file named by its first argument.
# The address space is capped at 1 GiB, so that a regression that builds a
# huge integer fails with MemoryError instead of taking the machine's memory.
_RUN_CLI = """\
import atexit, pathlib, resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
out = pathlib.Path(sys.argv.pop(1))
atexit.register(lambda: out.write_text(" ".join(
    m for m in sys.modules if m.partition(".")[0] == "szk")))
runpy.run_module("szk.cli", run_name="__main__", alter_sys=True)
"""


class SzkRun(NamedTuple):
    code: int
    out: str
    err: str
    modules: FrozenSet[str]


def run_szk(argv: List[str], timeout: float) -> SzkRun:
    """One cold `szk` process on `argv` that writes no byte code cache; a run
    that outlasts `timeout` seconds fails the calling test."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("SZK_MAX_POOL", None)
    with tempfile.TemporaryDirectory() as tmp:
        listing = Path(tmp) / "modules"
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _RUN_CLI, str(listing)] + list(argv),
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            pytest.fail("szk %s ran past %s s" % (" ".join(argv), timeout))
        modules = frozenset(listing.read_text().split()
                            if listing.exists() else ())
    return SzkRun(proc.returncode, proc.stdout, proc.stderr, modules)
