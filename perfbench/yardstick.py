"""Fixed reference kernels that measure how fast the host runs right now.

A shared virtual machine can change speed by up to 2x within a minute (seen
on a 2-vCPU KVM guest), and a process's CPU time moves with its wall time, so
neither filters that out.
Every timed operation is therefore bracketed by runs of a yardstick kernel
that is part of the benchmark, never of convexkit, and the benchmark reports

    normalized seconds = measured seconds * REFERENCE_S * mean(1 / yardstick seconds)

over yardstick runs just before, during (every tick_s) and just after the
operation: the operation's time on a host where the yardstick takes exactly
REFERENCE_S. A change to convexkit moves the operation's time but not the
yardstick's; a change in host speed moves both. Changing these kernels or
constants re-bases every end-to-end figure.
"""

import signal
import time

import numpy as np

PYTHON_REFERENCE_S = 0.025
BLAS_REFERENCE_S = 0.010

_A5 = np.diag(np.linspace(1.0, 10.0, 5))
_B5 = np.ones(5)
_G = np.random.default_rng(0).standard_normal((1000, 1000))


def python_seconds():
    """Interpreter-bound: 1500 d = 5 gradient steps with the checks a solver loop makes."""
    x = np.zeros(5)
    t0 = time.perf_counter()
    for _ in range(1500):
        g = _A5 @ x - _B5
        value = 0.5 * float(x @ (_A5 @ x)) - float(_B5 @ x)
        if not (np.all(np.isfinite(x)) and abs(value) < 1e12):
            raise ArithmeticError("yardstick diverged")
        x = x - 0.1 * g
        float(np.linalg.norm(g))
    return time.perf_counter() - t0


def blas_seconds():
    """BLAS-bound: 40 power-iteration matvecs at d = 1000 on the BLAS thread pool."""
    x = np.ones(1000)
    t0 = time.perf_counter()
    for _ in range(40):
        x = _G @ x
        x /= np.linalg.norm(x)
    return time.perf_counter() - t0


class Yardstick:
    """One kernel, its reference time, the per-layer metric its samples go to,
    and tick_s, the sampling period inside operations longer than that."""

    def __init__(self, kernel, reference_s, metric, tick_s):
        self.kernel, self.reference_s, self.metric = kernel, reference_s, metric
        self.tick_s = tick_s
        self.samples = []
        self._last = None  # (taken at, seconds) of the latest boundary sample

    def _sample(self):
        k = self.kernel()
        self.samples.append(k)
        return k

    def timed(self, fn):
        """(fn's result, fn's normalized seconds).

        The host speed during fn is the mean speed (1 / kernel seconds) of a
        kernel run just before fn, one just after, and one every tick_s
        during fn, run from a SIGALRM handler between bytecodes; the time
        spent in those handlers is not counted as fn's. A sample from the
        previous call's end is reused as the "before" when under 0.5 s old.
        """
        fresh = self._last is not None and time.perf_counter() - self._last[0] < 0.5
        ks = [self._last[1] if fresh else self._sample()]
        inside = [0.0]

        def tick(signum, frame):
            t = time.perf_counter()
            ks.append(self._sample())
            inside[0] += time.perf_counter() - t

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        ks.append(self._sample())
        self._last = (time.perf_counter(), ks[-1])
        speed = sum(1.0 / k for k in ks) / len(ks)
        return out, (elapsed - inside[0]) * self.reference_s * speed


# The host's speed changes within a second, so sub-second operations need
# samples inside them: with a 1-s tick, single 0.56-s LP solves spread twice
# as much around their median as with a 0.25-s tick. Each sample costs about
# 20 ms, so a 0.25-s tick lengthens a run by about 8%.
TICK_S = 0.25


def python_yardstick(tick_s=TICK_S):
    return Yardstick(python_seconds, PYTHON_REFERENCE_S, "host.python_yardstick_ms", tick_s)


def blas_yardstick():
    return Yardstick(blas_seconds, BLAS_REFERENCE_S, "host.blas_yardstick_ms", TICK_S)
