import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import sonfis
from sonfis import dynamics, pool
from sonfis.dataset import SplitSpec, gen_synthetic, min_max_normalize, split
from sonfis.dynamics import LoopConfig, NoiseParams, run_sonfis
from sonfis.pool import deal
from sonfis.som import SomParams


def pid_of(group):
    return os.getpid(), group


class TwoArgError(Exception):
    """Pickles, but does not unpickle: its args hold one value, and its
    constructor takes two."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestDeal:
    def test_results_in_group_order(self):
        groups = [list(range(i, 20, 4)) for i in range(4)]
        assert deal(sum, groups, 3) == [sum(group) for group in groups]

    @pytest.mark.parametrize("n_groups, forked", [(3, 2), (3, 3), (4, 1)])
    def test_first_groups_here_last_forked(self, n_groups, forked):
        results = deal(pid_of, list(range(n_groups)), forked)
        assert [group for _, group in results] == list(range(n_groups))
        here = n_groups - forked
        assert [pid == os.getpid() for pid, _ in results] == [True] * here + [False] * forked

    def test_one_group_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("_fork called")

        monkeypatch.setattr(pool, "_fork", no_fork)
        assert deal(pid_of, [0], 1) == [(os.getpid(), 0)]
        assert deal(pid_of, [0], 0) == [(os.getpid(), 0)]

    def test_no_fork_runs_every_group_here(self, monkeypatch):
        monkeypatch.setattr(pool, "_fork", None)
        assert deal(pid_of, [0, 1, 2], 2) == [(os.getpid(), group) for group in range(3)]

    def test_a_fully_forked_deal_leaves_nothing(self):
        assert deal(pid_of, [0, 1], 2)[0][0] != os.getpid()
        assert threading.active_count() == 1
        assert multiprocessing.active_children() == []
        assert_no_child_left()

    def test_a_partly_forked_deal_leaves_nothing(self):
        assert [pid == os.getpid() for pid, _ in deal(pid_of, [0, 1], 1)] == [True, False]
        assert threading.active_count() == 1
        assert_no_child_left()

    def test_a_forked_error_reaches_the_caller(self):
        with pytest.raises(ZeroDivisionError):
            deal(lambda group: 1 / group, [1, 0], 1)

    def test_a_child_without_a_result_raises(self):
        with pytest.raises(RuntimeError, match="without a result"):
            deal(lambda group: os._exit(3) if group else group, [0, 1], 1)
        assert_no_child_left()

    def test_an_error_that_does_not_pickle_names_its_type(self):
        class LocalError(Exception):
            pass

        def fail(group):
            if group == 1:
                raise LocalError("local")
            if group == 2:
                raise TwoArgError(1, 2)
            return group

        with pytest.raises(RuntimeError, match="^LocalError: local$"):
            deal(fail, [0, 1], 1)
        with pytest.raises(RuntimeError, match="^TwoArgError: 1 and 2$"):
            deal(fail, [0, 2], 1)

    def test_an_error_here_reaps_every_child_first(self):
        def fail_here(group):
            if group == 0:
                raise ZeroDivisionError
            time.sleep(0.2)
            return [0.0] * 100_000  # more than a pipe holds

        with pytest.raises(ZeroDivisionError):
            deal(fail_here, [0, 1, 2], 2)
        assert_no_child_left()


def test_a_pooled_segment_whose_child_dies_reruns_here(tmp_path, monkeypatch):
    """A child that ends without a result breaks its segment, which then
    runs again step by step in this process, to the same trajectory."""
    train, test = split(min_max_normalize(gen_synthetic(140, 0.05, 3)), SplitSpec(100, 40))
    cfg = LoopConfig(iterations=6, initial_N=40, seed=5, som=SomParams(epochs=3))
    p = NoiseParams(0.9, 0.001, 0.5)
    parent, extract = os.getpid(), dynamics.extract_granules

    def dies_in_a_child(grid, data):
        if os.getpid() != parent:
            os._exit(3)
        return extract(grid, data)

    serial = tmp_path / "serial.csv"
    run_sonfis(train, test, cfg, p, workers=1).to_csv(serial)
    forks = []
    fork = pool._fork
    monkeypatch.setattr(dynamics, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(dynamics, "extract_granules", dies_in_a_child)
    monkeypatch.setattr(pool, "_fork", lambda: forks.append(1) or fork())
    pooled = tmp_path / "pooled.csv"
    run_sonfis(train, test, cfg, p, workers=2).to_csv(pooled)
    assert forks == [1]
    assert pooled.read_bytes() == serial.read_bytes()
    assert_no_child_left()


def test_pooled_runs_import_no_executor():
    """A pooled loop and a pooled sweep load neither `multiprocessing` nor
    `concurrent.futures`, whose imports cost a sweep about 16 ms."""
    script = """
import sys
from sonfis import dynamics, pool
from sonfis.dataset import SplitSpec, gen_synthetic, min_max_normalize, split
from sonfis.dynamics import LoopConfig, NoiseParams, run_sonfis
from sonfis.som import SomParams
from sonfis.sweep import SweepSpec, run_sweep

train, test = split(min_max_normalize(gen_synthetic(140, 0.05, 3)), SplitSpec(100, 40))
cfg = LoopConfig(iterations=6, initial_N=40, seed=5, som=SomParams(epochs=3))
forks, fork = [], pool._fork
pool._fork = lambda: forks.append(1) or fork()
dynamics.POOL_MIN_WORK = 0
run_sonfis(train, test, cfg, NoiseParams(0.9, 0.001, 0.5), workers=2)
run_sweep(SweepSpec((0.7, 0.9), (0.001,), (0.5,), (2,), 1, cfg, "sonfis", 0), train, test, workers=2)
print(len(forks), sorted(name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(sonfis.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[0] == "3 []"
