"""End-to-end acceptance checks: every rate and certificate the toolkit
advertises, at fixed seeds and stated tolerances."""

import threading

import pytest

from convexkit import acceptance, stochastic

_SLOW = {cid for cid, _, slow in acceptance.CRITERIA if slow}


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


def _stub_clt_check(calls, fail_in_worker):
    """A stand-in for stochastic.clt_check that records which thread ran each seed."""
    def clt_check(A, theta_star, gamma, n, trials, seed=0, noise_scale=1.0):
        in_main = threading.current_thread() is threading.main_thread()
        calls.append((seed, in_main))
        if fail_in_worker and not in_main:
            raise RuntimeError("worker failed")
        return None, None, 0.0
    return clt_check


def test_clt_instances_run_side_by_side(monkeypatch):
    calls = []
    monkeypatch.setattr(stochastic, "clt_check", _stub_clt_check(calls, False))
    threads = threading.active_count()
    acceptance.crit_16_clt()
    assert threading.active_count() == threads
    # the calling thread runs one instance itself, a worker the other
    assert sorted(calls) == [(41, True), (42, False)]


def test_clt_worker_exception_reaches_the_caller(monkeypatch):
    calls = []
    monkeypatch.setattr(stochastic, "clt_check", _stub_clt_check(calls, True))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        acceptance.crit_16_clt()
    assert threading.active_count() == threads
    assert sorted(calls) == [(41, True), (42, False)]
