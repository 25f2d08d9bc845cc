import multiprocessing
import os
import threading

import pytest

from sonfis import pool
from sonfis.pool import deal


def pid_of(group):
    return os.getpid(), group


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
        def no_pool(*args):
            raise AssertionError("fork_pool called")

        monkeypatch.setattr(pool, "fork_pool", no_pool)
        assert deal(pid_of, [0], 1) == [(os.getpid(), 0)]
        assert deal(pid_of, [0], 0) == [(os.getpid(), 0)]

    def test_no_fork_runs_every_group_here(self, monkeypatch):
        monkeypatch.setattr(pool, "fork_pool", lambda workers, task: None)
        assert deal(pid_of, [0, 1, 2], 2) == [(os.getpid(), group) for group in range(3)]

    def test_a_fully_forked_deal_leaves_nothing(self, settled):
        assert deal(pid_of, [0, 1], 2)[0][0] != os.getpid()
        assert threading.active_count() == 1
        assert multiprocessing.active_children() == []

    def test_a_forked_error_reaches_the_caller(self):
        with pytest.raises(ZeroDivisionError):
            deal(lambda group: 1 / group, [1, 0], 1)
