"""The description memos of normalize, rank and ppeval: equal descriptions
share one record, each memo stays at its bound, and no answer depends on
what the memos hold."""

import json
import sys

import pytest

from szk import core
from szk.dsl import parse_formula, parse_group
from szk.normalize import derived_sets, normalize
from szk.ppeval import eval_formula
from szk.rank import dp_rank, rank_json
from tests.conftest import DESCRIPTION_MEMOS, ROOT, clear_description_memos

TEXT = "Z(2^1)^w + Z(2^3)^w + Z_(3)^w + Z(7^inf)^w + tail(5)"
SEED = 1001   # the benchmark's own seed: its queries and fuzz populations


def test_equal_descriptions_share_one_strict_form_and_report():
    a, b = parse_group(TEXT), parse_group(TEXT)
    assert a == b and a is not b
    assert normalize(a) is normalize(b)
    assert dp_rank(a) is dp_rank(b)
    assert derived_sets(a) is derived_sets(b) is dp_rank(a).derived
    f = parse_formula("tor(4) & div(5,3,1)")
    assert eval_formula(a, f).blocks is eval_formula(b, f).blocks


def test_rank_payload_is_a_copy_of_the_shared_report():
    want = json.dumps(rank_json(dp_rank(parse_group(TEXT))))
    payload = rank_json(dp_rank(parse_group(TEXT)))
    payload["epsilons"]["U"] = 7
    payload["partition"]["P1"].append(11)
    payload["derived"]["Tf_inf"].append(11)
    assert json.dumps(rank_json(dp_rank(parse_group(TEXT)))) == want


def test_each_memo_keeps_its_bound():
    bound = core.DESCRIPTION_MEMO
    f = parse_formula("tor(4) & div(3,2,1)")
    for e in range(1, bound + 2):
        desc = parse_group("Z(2^%d)^w + Z_(3) + tail(5)" % e)
        assert derived_sets(desc) == dp_rank(desc).derived
        eval_formula(desc, f)
    for memo in DESCRIPTION_MEMOS:
        info = memo.cache_info()
        assert info.maxsize == bound and info.currsize == bound, memo


@pytest.fixture(scope="module")
def bench():
    """The benchmark's workloads and layers, imported from its directory."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import layers
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return layers, workloads


class _Clearing:
    """In the place of the benchmark's tracer: every layer call first
    empties the description memos."""

    @staticmethod
    def wrap(_name, fn):
        def call(*args, **kwargs):
            clear_description_memos()
            return fn(*args, **kwargs)
        return call


def answers(bench, name, answer):
    """Each item's answer over the workload's population, once with the
    memos kept across the whole run and once emptied before every call."""
    layers, workloads = bench
    workload = getattr(workloads, name)(SEED, ROOT)
    items = [workload.prepare(i, count=False)
             for i in range(workload.population)]
    kept, cleared = layers.Layers(None), layers.Layers(_Clearing())
    return ([answer(workload.op(kept, x)) for x in items],
            [answer(workload.op(cleared, x)) for x in items])


def test_queries_payloads_do_not_depend_on_the_memos(bench):
    kept, cleared = answers(bench, "Queries",
                            lambda out: json.dumps(out["payloads"]))
    assert len(kept) == 1280
    assert kept == cleared


def test_fuzz_answers_do_not_depend_on_the_memos(bench):
    kept, cleared = answers(bench, "Fuzz", lambda out: (
        out[2].depth, out[2].witness, out[2].exhausted))
    assert len(kept) == 1200
    assert kept == cleared
