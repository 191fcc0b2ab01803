"""Shared exception types, and the integer check that raises one."""


class InvalidConfigurationError(ValueError):
    """A model, law, or run configuration violates a documented precondition."""


class BlowUpError(RuntimeError):
    """Integration produced a non-finite state.

    Carries the simulation time at which the failure was detected, the
    number of steps taken from the start of the run by then (``step``, or
    None when not known) and, for a batched run, the index of the first
    non-finite row (``row``; None for a single run).  With the dissipative
    laws implemented here true solutions stay bounded for all time, so a
    blow-up almost always means the step size is too large for the explicit
    scheme in use.
    """

    def __init__(self, time, message=None, *, step=None, row=None):
        self.time = float(time)
        self.step = step
        self.row = row
        where = "" if row is None else f" in row {row}"
        super().__init__(message or f"non-finite state{where} at t = {self.time:.6g}")


def integral(name, value):
    """``value`` as an int, or InvalidConfigurationError naming ``name``
    when it is not a whole number: 2.5 is rejected, not truncated to 2."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole != value:
        raise InvalidConfigurationError(f"{name} must be an integer, got {value!r}")
    return whole
