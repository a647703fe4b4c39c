import os
import signal
import time

import numpy as np
import pytest

from ckdvlab.errors import ChildDied, ChildTraceback, StepUnstable
from ckdvlab.parallel import Forked, map_forked, usable_cpus


def unstable():
    raise StepUnstable("sup|v| grew 12.0x in one step at r=578.7")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_result_comes_back():
    v = np.linspace(0.0, 1.0, 40000)  # more than a pipe buffer holds
    child = Forked(lambda a, b: [(1.5, a, b * a)], v, 2.0)
    [(r, a, b)] = child.result()
    assert r == 1.5 and np.array_equal(a, v) and np.array_equal(b, 2.0 * v)
    assert_no_child_left()


def test_exception_raised_again():
    child = Forked(unstable, label="eps=0.1")
    with pytest.raises(StepUnstable) as info:
        child.result()
    assert str(info.value) == "sup|v| grew 12.0x in one step at r=578.7"
    # caused by the child's traceback, which names the label and the raise
    cause = info.value.__cause__
    assert type(cause) is ChildTraceback
    assert str(cause).startswith("eps=0.1: raised in a forked child\nTraceback")
    assert "in unstable" in str(cause) and str(cause).endswith(
        "StepUnstable: sup|v| grew 12.0x in one step at r=578.7")
    assert_no_child_left()


@pytest.mark.parametrize("end, status", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal SIGKILL"),
    (lambda: os._exit(3), "exit status 3"),
])
def test_child_that_dies_names_label_and_status(end, status):
    child = Forked(end, label="eps=0.08")
    with pytest.raises(ChildDied) as info:
        child.result()
    assert str(info.value) == f"eps=0.08: child ended by {status} without a result"
    assert_no_child_left()


def test_reap_kills_a_running_child():
    child = Forked(time.sleep, 60.0)
    start = time.perf_counter()
    child.reap()
    child.reap()  # a second reap does nothing
    assert time.perf_counter() - start < 10.0
    assert_no_child_left()


def fail_at(*bad):
    """x -> [x, x, x] as an array, raising StepUnstable for the items in bad."""
    def fn(x):
        if x in bad:
            raise StepUnstable(f"case {x}")
        return np.full(3, float(x))
    return fn


@pytest.mark.parametrize("cost", [lambda x: x, lambda x: 1 / x], ids=["last-costly", "first-costly"])
def test_map_forked_is_a_serial_loop(cost):
    # with two or more CPUs the item of highest cost runs in a child
    values, failure = map_forked(fail_at(), [1, 2, 3], cost, str)
    assert failure is None and [list(v) for v in values] == [[1.0] * 3, [2.0] * 3, [3.0] * 3]
    values, failure = map_forked(fail_at(2, 3), [1, 2, 3], cost, str)
    assert [list(v) for v in values] == [[1.0] * 3]
    assert type(failure) is StepUnstable and str(failure) == "case 2"
    # item 1 fails, in a child when its cost ranks first, after this
    # process has failed on item 3
    values, failure = map_forked(fail_at(1, 3), [1, 2, 3], cost, str)
    assert values == [] and str(failure) == "case 1"
    assert_no_child_left()


def test_map_forked_of_nothing():
    assert map_forked(unstable, [], len, str) == ([], None)


@pytest.mark.skipif(usable_cpus() < 2, reason="map_forked forks only with two or more CPUs")
def test_map_forked_child_death():
    values, failure = map_forked(lambda x: os._exit(5) if x == 1 else x, [1, 2, 3],
                                 lambda x: 1 / x, lambda x: f"item {x}")
    assert values == [] and type(failure) is ChildDied
    assert str(failure) == "item 1: child ended by exit status 5 without a result"
    assert_no_child_left()
