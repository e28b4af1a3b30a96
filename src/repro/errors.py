"""Exception hierarchy for the VISA reproduction library.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures without masking unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class AssemblerError(ReproError):
    """Raised when assembly source cannot be assembled.

    Carries the source line number (1-based) when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EncodingError(ReproError):
    """Raised when an instruction cannot be encoded or decoded."""


class CompileError(ReproError):
    """Raised by the mini-C compiler for lexical, syntax, or semantic errors."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SimulationError(ReproError):
    """Raised when a simulated program performs an illegal operation."""


class MemoryError_(SimulationError):
    """Raised on invalid memory accesses (misaligned or unmapped)."""


class AnalysisError(ReproError):
    """Raised when static WCET analysis cannot bound a program.

    Typical causes: a loop without a ``.loopbound`` annotation, irreducible
    control flow, or recursion.
    """


class InfeasibleError(ReproError):
    """Raised when no frequency assignment can satisfy the deadline."""


class HyperperiodError(ReproError):
    """Raised when a task set's hyperperiod exceeds the safety cap.

    Pathological period sets (near-coprime floats at nanosecond
    resolution) make the LCM of the periods astronomically large; any
    consumer that iterates jobs over a hyperperiod — the schedule
    simulator, the admission service — would never terminate in useful
    time.  Callers can retry with a larger ``max_ratio`` or pass an
    explicit horizon instead.
    """


class SnapshotError(ReproError):
    """Raised when a simulation-state snapshot cannot be restored.

    Typical causes: a format-version mismatch (the snapshot subsystem
    refuses to interpret payloads written by a different layout) or a
    payload captured from a different runtime kind.
    """


class ProtocolError(ReproError):
    """Raised on malformed or version-mismatched service wire messages."""


class ServiceError(ReproError):
    """Raised by the service client on transport or server-side failures.

    Carries the machine-readable error ``code`` from the response (e.g.
    ``queue_full``, ``draining``, ``timeout``) and, for backpressure
    rejections, the server's suggested ``retry_after`` delay in seconds.
    """

    def __init__(
        self,
        message: str,
        code: str | None = None,
        retry_after: float | None = None,
    ):
        self.code = code
        self.retry_after = retry_after
        super().__init__(message)


class ClaimError(ReproError):
    """Raised when a regenerated experiment breaks one of the paper's
    claims it is checked against (``repro experiment``)."""


class DeadlineMissError(ReproError):
    """Raised if a hard deadline is ever missed during simulation.

    This indicates a bug in the framework (or a deliberately unsafe
    configuration): the whole point of VISA is that this never happens.
    """
