"""End-to-end acceptance checks: every rate and certificate the toolkit
advertises, at fixed seeds and stated tolerances."""

import threading

import pytest

from convexkit import acceptance, stochastic

_SLOW = {cid for cid, _, seconds in acceptance.CRITERIA if seconds > 0}


@pytest.mark.parametrize(
    "cid",
    [pytest.param(cid, marks=pytest.mark.slow) if cid in _SLOW else cid
     for cid in acceptance.criterion_ids()])
def test_criterion(cid):
    acceptance.run_criterion(cid)


def test_ids_sorted_and_unique():
    ids = acceptance.criterion_ids()
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids)) == 18


def test_clt_instances_run_in_the_calling_thread(monkeypatch):
    calls = []

    def clt_check(A, theta_star, gamma, n, trials, seed=0, noise_scale=1.0):
        calls.append((seed, threading.current_thread() is threading.main_thread()))
        return None, None, 0.0

    started, start = [], threading.Thread.start

    def record_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(stochastic, "clt_check", clt_check)
    monkeypatch.setattr(threading.Thread, "start", record_start)
    acceptance.crit_16_clt()
    assert calls == [(41, True), (42, True)]
    assert started == []
