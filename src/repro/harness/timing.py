"""Timing utilities: wall-clock measurement and best-effort timeouts.

The paper runs every system with a 900-second timeout.  At laptop scale
the harness uses much smaller budgets, enforced with ``signal.setitimer``
when running on the main thread (the usual pytest / script case) and
falling back to unenforced execution otherwise.  Engines that support a
cooperative timeout (the SparqLog engine's Datalog evaluator) additionally
check their own deadline.  :func:`budgeted_call` is how the compliance
runner and the experiment drivers run one query: timed, under the budget,
any failure recorded rather than raised.
"""

from __future__ import annotations

import signal
import threading
import time
from typing import Callable, Optional, Tuple, TypeVar

T = TypeVar("T")


class TimeoutError_(RuntimeError):
    """Raised when a call exceeds its time budget."""


def _is_main_thread() -> bool:
    return threading.current_thread() is threading.main_thread()


def call_with_timeout(function: Callable[[], T], seconds: float) -> T:
    """Run ``function`` with a best-effort wall-clock timeout.

    On the main thread a SIGALRM-based interrupt is installed; elsewhere
    the function simply runs to completion (cooperative engine timeouts
    still apply).
    """
    if seconds is None or seconds <= 0 or not _is_main_thread() or not hasattr(signal, "SIGALRM"):
        return function()

    def _handler(signum, frame):  # pragma: no cover - signal plumbing
        raise TimeoutError_(f"evaluation exceeded {seconds:.1f}s")

    previous_handler = signal.signal(signal.SIGALRM, _handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return function()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)


def time_call(
    function: Callable[[], T], tracer=None, label: str = "call"
) -> Tuple[T, float]:
    """Run ``function`` and return (result, elapsed_seconds).

    With a :class:`repro.obs.tracer.Tracer` attached the measurement is
    also recorded as a ``harness``-category span named ``label``, so
    harness-level timings and the evaluator's phase spans land in one
    trace.  The span is recorded post-hoc (``Tracer.event``) to keep the
    measured region free of tracer bookkeeping.
    """
    start = time.perf_counter()
    result = function()
    elapsed = time.perf_counter() - start
    if tracer is not None and tracer.enabled:
        tracer.event(label, category="harness", duration=elapsed)
    return result, elapsed


def budgeted_call(
    function: Callable[[], T], seconds: Optional[float]
) -> Tuple[Optional[T], Optional[str], Optional[float]]:
    """Run ``function`` timed, under a ``seconds`` budget (``None``: none).

    Returns ``(result, None, elapsed_seconds)``, or ``(None, error, None)``
    when it raised or ran out of time: ``error`` is ``"Type: message"``,
    whatever the engine raised, so an engine reports failure any way it
    likes and the tables count it as an error.
    """
    try:
        result, elapsed = time_call(lambda: call_with_timeout(function, seconds))
    except Exception as error:  # noqa: BLE001 - any failure is the "Error" outcome
        return None, f"{type(error).__name__}: {error}", None
    return result, None, elapsed
