"""Shared test helpers: the central finite-difference oracle used to verify
every analytic gradient in the package, what the thread tests use to
see and steer threads, and what the process tests use to see pools."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from selfaug import parallel

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def threads_started(monkeypatch) -> list:
    """Every one-thread pool `parallel.thread_pool` has made while the
    test runs, in order: `beside` and the second thread of an eval-mode
    pass each make one."""
    started = []
    thread_pool = parallel.thread_pool

    def spy():
        started.append(thread_pool())
        return started[-1]

    monkeypatch.setattr(parallel, "thread_pool", spy)
    return started


@pytest.fixture
def pools_made(monkeypatch) -> list:
    """The worker count of every pool `parallel.process_pool` builds
    while the test runs, in order."""
    made = []
    process_pool = parallel.process_pool

    def spy(workers, *args):
        made.append(workers)
        return process_pool(workers, *args)

    monkeypatch.setattr(parallel, "process_pool", spy)
    return made


def lanes_meet():
    """A call that blocks each thread's first call until a second thread
    has made its first (for up to 10 s), so that each of an eval-mode
    pass's two threads (its lanes) starts its run before either goes
    on."""
    barrier = threading.Barrier(2, timeout=10)
    seen = set()

    def meet() -> None:
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait()
    return meet


def on_lane_zero() -> bool:
    """Whether the caller runs on lane 0: the thread a test runs on."""
    return threading.current_thread() is threading.main_thread()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One verdict line per acceptance criterion, regardless of capture."""
    verdicts = []
    for outcome, word in (("passed", "PASS"), ("failed", "FAIL"),
                          ("error", "FAIL")):
        for report in terminalreporter.getreports(outcome):
            if "test_acceptance.py::" in report.nodeid:
                verdicts.append((report.nodeid.split("::")[-1], word))
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for name, word in sorted(verdicts):
            terminalreporter.write_line(f"{word}  {name}")


def fd_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar-valued f at x, elementwise.

    Independent oracle for backward(): knows nothing about the graph, only
    re-evaluates f at x +/- h per coordinate.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * h)
    return g


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Relative error at tensor granularity: ||a - n|| / (||a|| + ||n||).

    Norm-level comparison keeps finite-difference truncation noise on
    near-zero entries from swamping the measurement while still flagging any
    wrong sign, scale, or routing in the analytic gradient.
    """
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.linalg.norm(analytic) + np.linalg.norm(numeric)
    # identically-zero gradients (e.g. a parameter the output provably
    # cannot depend on) leave only roundoff on both sides; the floor keeps
    # that from reading as disagreement
    return float(np.linalg.norm(analytic - numeric) / max(denom, 1e-6))
