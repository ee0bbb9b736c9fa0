"""Timing proxies the traced run slips in at seams that already take an
object or a callable — ``ForwardOperator(engine)``,
``conjugate_gradient(operator=...)``, ``SolverService.register(builder=...)``.
The program under test is not modified; it is handed a wrapped engine.
"""

from __future__ import annotations

from repro.core.matvec import FFTMatvec

from spans import SpanRecorder

# Distinct from the replay window's "core.matvec.apply" spans: these are
# applies as the program issues them (inside CG, inside a flush).
CALL_SPAN = "core.matvec.call"


class TimedEngine(FFTMatvec):
    """An ``FFTMatvec`` whose four public applies each record one span.

    A subclass rather than a wrapper object: the serving cache sizes and
    releases engines by ``isinstance`` and by their spectrum/arena
    attributes, and a subclass keeps all of that true.
    """

    def __init__(self, *args, recorder: SpanRecorder, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.recorder = recorder

    def matvec(self, *args, **kwargs):
        with self.recorder.span(CALL_SPAN + "@F"):
            return super().matvec(*args, **kwargs)

    def rmatvec(self, *args, **kwargs):
        with self.recorder.span(CALL_SPAN + "@F*"):
            return super().rmatvec(*args, **kwargs)

    def matmat(self, *args, **kwargs):
        with self.recorder.span(CALL_SPAN + "_block@F"):
            return super().matmat(*args, **kwargs)

    def rmatmat(self, *args, **kwargs):
        with self.recorder.span(CALL_SPAN + "_block@F*"):
            return super().rmatmat(*args, **kwargs)


def timed(recorder: SpanRecorder, name: str, fn):
    """``fn`` with a span of ``name`` around every call."""

    def call(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)

    return call
