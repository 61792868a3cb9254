"""Exception types shared across the package."""

__all__ = ["DomainError", "NoSolutionError", "AccuracyError", "BlowUpError", "VerdictError"]


class DomainError(ValueError):
    """A parameter lies outside the region where the requested quantity exists."""


class NoSolutionError(DomainError):
    """The root-finding problem has no solution in the admissible interval."""


class AccuracyError(RuntimeError):
    """A computed quantity failed its internal convergence check."""


class BlowUpError(RuntimeError):
    """A time integration left the bounded regime."""

    def __init__(self, t: float, member: int = 0):
        self.t = t
        self.member = member
        super().__init__(f"field blow-up detected at t={t:.6g} in member {member}")


class VerdictError(RuntimeError):
    """A computed result failed one of the paper's checkable claims."""
