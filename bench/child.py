"""One workload in one fresh, single-threaded process (started by run.py).

Set-up (import, inputs, warm-up) is timed from the first line of this file.
With --setup-only the process stops there and prints its set-up time.
Otherwise it drives the workload closed-loop, one client, and prints a
report line and a result line as JSON.

The workload's inputs are a fixed population of items, made from the seed
during set-up.  The run times whole rounds over that population until
--seconds have passed, and every item's time is its median over the rounds.
The host runs at its typical speed most of the time and much faster only in
rare moments, so a median is a steady figure of an item's cost where a
minimum is not.  With --trace 1, plain and traced rounds alternate, and the
two sets of item times give the tracing overhead.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# A single op (or its checks) running longer than this counts as failed, so a
# pathological slowdown fails the run instead of stalling it.
OP_BUDGET_S = 10.0
# Modules whose -X importtime self time the traced cli_cold run reports.
IMPORT_MODULES = ("szk", "szk.core", "szk.dsl", "szk.normalize", "szk.ppeval",
                  "szk.rank", "szk.oracle", "szk.shatter", "szk.corpus", "szk.cli")


class OpOverrun(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpOverrun("op exceeded its %.0f s budget" % OP_BUDGET_S)


def budgeted(fn, *args):
    signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def percentile(sorted_xs, pct):
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = (len(sorted_xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


class Phase:
    """Every timing of every item over the rounds of one kind (plain or
    traced)."""

    def __init__(self, n):
        self.samples = [[] for _ in range(n)]
        self.rounds = 0
        self.attempted = 0
        self.failures = []

    def times(self):
        """Each item's median time over the rounds that timed it."""
        return [statistics.median(ts) for ts in self.samples if ts]


def rate(times):
    """Ops per second at the geometric mean of the items' times.  A few very
    slow items cannot swing it the way they swing a plain total (op_tail_ms
    reports those), and every item's speed-up moves it in proportion."""
    return 1.0 / math.exp(statistics.fmean(math.log(t) for t in times))


def run(work, items, seconds, plain, traced=None, tracer=None):
    """Closed loop for ``seconds``: whole rounds over ``items``, one op at a
    time.  The first round of each kind always completes and runs the full
    output checks; later rounds check that each answer is the one the
    checked round gave.  With a tracer, even rounds run plain and odd rounds
    traced, followed by the workload's ``extra`` calls.

    Returns the plain phase and the traced one (None without a tracer).
    """
    from layers import CHECK, EXTRA, OP
    phases = (Phase(len(items)), Phase(len(items)) if tracer is not None else None)
    answers = [None] * len(items)
    t_end = time.perf_counter() + seconds
    kinds = len([p for p in phases if p is not None])
    rnd = 0
    while True:
        on = tracer is not None and rnd % 2 == 1
        phase, layers, tr = (phases[1], traced, tracer) if on else (phases[0], plain, None)
        full_check = phase.rounds == 0
        for i, x in enumerate(items):
            if rnd >= kinds and time.perf_counter() >= t_end:
                return phases
            if tr is not None:
                tr.op_id = i
                span = tr.begin(OP)
            err = None
            t0 = time.perf_counter()
            try:
                out = budgeted(work.op, layers, x)
            except Exception as e:  # a failed op is counted, and the run goes on
                err = e
            dt = time.perf_counter() - t0
            if tr is not None:
                tr.end(span, failed=err is not None)
            phase.attempted += 1
            if err is None:
                if tr is not None:
                    span = tr.begin(CHECK)
                try:
                    if full_check:
                        budgeted(work.check, layers, x, out)
                        if answers[i] is None:
                            answers[i] = work.answer(out)
                    elif work.answer(out) != answers[i]:
                        err = AssertionError("answer differs from the checked round's")
                except Exception as e:
                    err = e
                if tr is not None:
                    tr.end(span, failed=err is not None)
            if err is None and tr is not None:
                span = tr.begin(EXTRA)
                try:
                    budgeted(work.extra, layers, x, out)
                except Exception as e:
                    err = e
                tr.end(span, failed=err is not None)
            if err is None:
                phase.samples[i].append(dt)
            else:
                phase.failures.append("round %d, item %d: %s: %s"
                                       % (rnd, i, type(err).__name__, err))
        phase.rounds += 1
        rnd += 1


def git_sha():
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(summary, work, untraced, traced):
    from layers import OP, layer_names
    m = {}
    for name in layer_names():
        s = summary.get(name, {"calls": 0, "busy_s": 0.0, "p50_us": 0.0, "failed": 0})
        m[name + ".calls"] = (s["calls"], "count")
        m[name + ".busy_s"] = (s["busy_s"], "s")
        m[name + ".p50_us"] = (s["p50_us"], "us")
        m[name + ".failed"] = (s["failed"], "count")
    op = summary.get(OP, {"calls": 0, "busy_s": 0.0})
    m["op.calls"] = (op["calls"], "count")
    m["op.self_s"] = (op["busy_s"], "s")
    m["trace.spans"] = (sum(s["calls"] for s in summary.values()), "count")
    plain_rate, traced_rate = rate(untraced.times()), rate(traced.times())
    m["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    m["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    m["trace.overhead_pct"] = (100.0 * (1.0 - traced_rate / plain_rate), "%")
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    cli_main = summary.get("cli.main", {"p50_us": 0.0})
    m["cli.python_bare_ms"] = (med(getattr(work, "bare_ms", [])), "ms")
    m["cli.import_ms"] = (med(getattr(work, "import_ms", [])), "ms")
    m["cli.main_warm_ms"] = (cli_main["p50_us"] / 1e3, "ms")
    selfs = getattr(work, "module_self_ms", {})
    for mod in IMPORT_MODULES:
        m["cli.import.%s.self_ms" % mod] = (med(selfs.get(mod, [])), "ms")
    return m


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    os.environ.pop("SZK_MAX_POOL", None)
    sys.path.insert(0, str(SRC))
    import workloads
    from layers import Layers, Tracer

    work = {w.name: w for w in (workloads.Queries, workloads.Fuzz,
                                workloads.OracleDeep, workloads.CliCold)}[args.workload](
        args.seed, ROOT)
    plain = Layers(None) if work.in_process else None
    work.setup(plain)
    items = [work.prepare(i) for i in range(work.population)]
    setup_s = time.perf_counter() - T_START
    import szk
    if not Path(szk.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit("szk imported from %s, not from %s" % (szk.__file__, SRC))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from checks import Schemas
    work.schemas = Schemas(SRC / "szk" / "schemas")
    if plain is None:
        plain = Layers(None)
    signal.signal(signal.SIGALRM, _on_alarm)

    if args.trace:
        tracer = Tracer()
        untraced, measured = run(work, items, args.seconds, plain, Layers(tracer), tracer)
        phases = (untraced, measured)
    else:
        measured, _ = run(work, items, args.seconds, plain)
        phases = (measured,)

    times = sorted(measured.times())
    tail = percentile(times, work.tail_pct)
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    if work.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "workload": work.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "szk_file": str(Path(szk.__file__).relative_to(ROOT)),
        "items": len(items), "rounds": [p.rounds for p in phases],
        "ops_timed": sum(p.attempted for p in phases),
        "op_tail_pct": work.tail_pct,
        "items_beyond_tail": sum(1 for t in times if t > tail),
        "plain_ops_per_s": len(times) / sum(times),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:5],
    }
    report.update(work.report())
    if args.trace:
        summary = tracer.summary()
        metrics = layer_metrics(summary, work, untraced, measured)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / ("trace-%s-%d.json.gz" % (work.name, args.seed))
        dump = tracer.dump()
        dump["per_op_self_us"] = {str(k): round(v * 1e6, 1)
                                  for k, v in tracer.per_op_self().items()}
        dump["summary"] = summary
        with gzip.open(path, "wt") as f:
            json.dump(dump, f)
        report["trace_file"] = str(path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (rate(times), "1/s"),
            "op_p50_ms": (percentile(times, 50.0) * 1e3, "ms"),
            "op_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
