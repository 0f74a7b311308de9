"""Time budgets enforced as the code runs: `within` and the per-test
ceiling."""

import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import CEILING_S, within


def test_stall_fails_at_its_budget():
    with within(1), pytest.raises(pytest.fail.Exception,
                                  match=r"^ran past its 0.05 s budget$"):
        with within(0.05):
            while True:
                pass


def test_nested_budget_pauses_the_outer_one():
    ceiling = signal.getsignal(signal.SIGALRM)
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= CEILING_S
    with within(5):
        outer = signal.getsignal(signal.SIGALRM)
        with pytest.raises(pytest.fail.Exception):
            with within(0.05):
                assert signal.getsignal(signal.SIGALRM) not in (ceiling, outer)
                while True:
                    pass
        assert signal.getsignal(signal.SIGALRM) is outer
        assert 4 < signal.getitimer(signal.ITIMER_REAL)[0] <= 5
    assert signal.getsignal(signal.SIGALRM) is ceiling
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= CEILING_S


def test_stalled_example_shrinks():
    # each example runs under its own budget, so shrinking goes on past the
    # first stall, down to the smallest example that stalls
    stalled = []

    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(st.integers(0, 100))
    def search(n):
        with within(0.2):
            if n >= 10:
                stalled.append(n)
                while True:
                    pass

    with within(10), pytest.raises(pytest.fail.Exception,
                                   match=r"^ran past its 0.2 s budget\n"):
        search()
    assert len(stalled) > 1 and stalled[-1] == 10
