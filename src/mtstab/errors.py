"""Exception types shared across the package.

Grouped by CLI exit code: ValidationError subclasses map to exit code 2,
SizeGuardError to exit code 3, plain I/O failures (OSError) to exit code 1;
a field file that is not JSON is a ValidationError. PoolWorkerError, a pool
child lost, is left uncaught with its traceback.

Every type pickles: a class whose constructor takes other arguments than
its message rebuilds itself from them in __reduce__, so an error raised in
a forked pool child reaches the caller with its type and attributes.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition or invariant."""


class DuplicateValueError(ValidationError):
    def __init__(self, vertex_a, vertex_b, value):
        self.vertex_a = vertex_a
        self.vertex_b = vertex_b
        self.value = value
        super().__init__(
            f"duplicate scalar value {value!r} at vertices {vertex_a} and {vertex_b}"
        )

    def __reduce__(self):
        return type(self), (self.vertex_a, self.vertex_b, self.value)


class DisconnectedDomainError(ValidationError):
    pass


class LengthMismatchError(ValidationError):
    pass


class UnknownVertexError(ValidationError):
    pass


class DimensionError(ValidationError):
    """Grid dimensions too small."""


class AbstractInvariantError(ValidationError):
    """A pruned merge tree violates the abstract merge tree invariants.

    Usually signals a domain whose superlevel sets disconnect at the root,
    i.e. a graph that does not behave like a manifold 1-skeleton.
    """


class NotMinimalError(ValidationError):
    """Two fields do not differ by a minimal vertex perturbation."""


class DomainMismatchError(ValidationError):
    pass


class SchemeMismatchError(ValidationError):
    """Label scheme applied to the wrong kind of tree."""


class SizeGuardError(RuntimeError):
    """An exact (exponential) computation was refused because the input
    exceeds the configured size guard."""

    def __init__(self, what, size, limit):
        self.what = what
        self.size = size
        self.limit = limit
        super().__init__(f"{what}: size {size} exceeds guard {limit}")

    def __reduce__(self):
        return type(self), (self.what, self.size, self.limit)


class PoolWorkerError(RuntimeError):
    """A forked pool child ended without a readable result: it was killed,
    exited early, or its result could not be pickled. status is its exit
    code, or minus the signal that ended it."""

    def __init__(self, pid, status):
        self.pid = pid
        self.status = status
        how = f"signal {-status}" if status < 0 else f"exit code {status}"
        super().__init__(f"pool worker {pid} ended ({how}) without a readable result")

    def __reduce__(self):
        return type(self), (self.pid, self.status)


class InapplicableOperationError(ValueError):
    def __init__(self, step_index, reason):
        self.step_index = step_index
        self.reason = reason
        super().__init__(f"edit operation {step_index} not applicable: {reason}")

    def __reduce__(self):
        return type(self), (self.step_index, self.reason)
