"""End-to-end acceptance checks: every rate and certificate the toolkit
advertises, at fixed seeds and stated tolerances."""

import threading

import numpy as np
import pytest

from convexkit import (acceptance, cli, frankwolfe, gradient, mirror, nonsmooth, problems,
                       proximal, stochastic)
from convexkit.core import norm, record

_SLOW = {cid for cid, parts in acceptance.CRITERIA.items()
         if sum(seconds for _, seconds in parts) >= 0.5}


@pytest.mark.parametrize(
    "cid",
    [pytest.param(cid, marks=pytest.mark.slow) if cid in _SLOW else cid
     for cid in acceptance.CRITERIA])
def test_criterion(cid):
    acceptance.run_criterion(cid)


def test_ids_sorted_and_unique():
    # unique as the keys of a dict; each check has at least one part
    ids = list(acceptance.CRITERIA)
    assert ids == sorted(ids) and len(ids) == 18
    assert all(acceptance.CRITERIA[cid] for cid in ids)
    with pytest.raises(KeyError):
        acceptance.run_criterion("19-unknown")


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
    acceptance.run_criterion("16-clt")
    assert calls == [(41, True), (42, True)]
    assert started == []


def _failed_statement(check):
    with pytest.raises(AssertionError) as info:
        check()
    return str(info.traceback[-1].statement)


def _short_step_fw(problem, loo, x0, N):
    """FW with h = min(1, gap / (beta ||s - x||^2)), which is not affine invariant."""
    def iterates(x):
        while True:
            v, g = problem.value_and_grad(x)
            s = loo(g)
            gap = float((x - s).dot(g))
            yield x, v, norm(g), {"fw_gap": gap}
            d = s - x
            dd = float(d.dot(d))
            x = x + (min(1.0, gap / (problem.beta * dd)) if dd > 0 else 0.0) * d

    return record(iterates, x0, N, problem.f_star), []


# check id, part, the owner and name of the library code that the part runs, the
# defect (a function of the shipped code), and the statement that fails under it
PLANTED = [
    ("03-acceleration", 0, gradient, "run_agd",
     lambda run_agd: lambda p, x0, N: gradient.run_gd(p, 1.0 / p.beta, x0, N),
     "gaps[N] <= bound + 1e-12"),
    ("08-feasibility-lower-bound", 0, problems.ResistingFeasibilityOracle, "query",
     lambda query: lambda oracle, x: -query(oracle, x), "sep @ x"),  # cuts off the box
    ("09-frank-wolfe", 0, frankwolfe, "run_fw", lambda run_fw: _short_step_fw, "Ainv @ xn - zn"),
    ("10-proximal", 0, proximal, "run_ppm",
     lambda run_ppm: lambda q, h, x0, N: run_ppm(q, h / 2.0, x0, N), "new_gap <= gap"),
    ("12-pinsker-bregman", 0, mirror, "bregman_project_simplex",
     lambda project: lambda x: np.full(len(x), 1.0 / len(x)), "slack >= -1e-9"),  # uniform
]


@pytest.mark.parametrize("cid, part, owner, name, defect, statement", PLANTED,
                         ids=["%s-part%d" % row[:2] for row in PLANTED])
def test_a_check_fails_on_a_defect_in_the_code_it_runs(monkeypatch, cid, part, owner, name,
                                                       defect, statement):
    monkeypatch.setattr(owner, name, defect(getattr(owner, name)))
    assert statement in _failed_statement(lambda: acceptance.run_criterion(cid, part))


def test_subgradient_check_runs_the_shipped_psd_strong(monkeypatch):
    # the reference solve stops at its start point, 0: the SVM part has no step R/sqrt(N)
    monkeypatch.setattr(nonsmooth, "run_psd_strong",
                        lambda problem, projector, x0, N, keep="all": (x0, None))
    assert cli._check("05-subgradient") == (
        True, "FAIL 05-subgradient: InvalidInput: step must be positive and finite, not 0.0")
