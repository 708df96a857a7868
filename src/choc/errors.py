"""Exception types shared across the package."""


class ChocError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(ChocError):
    """Inconsistent objects were combined (grid/time mismatch, bad run config)."""


class ShapeError(ChocError):
    """An array argument has the wrong shape or length."""


class DomainError(ChocError):
    """A scalar argument is outside its mathematical domain."""


class BlowUpError(ChocError):
    """The time integration produced a non-finite or runaway state.

    Attributes
    ----------
    step : int
        Index of the step at which the blow-up was detected: the earliest
        step at which any path of the batch blew up.
    max_abs : float
        Largest absolute value of that path's state at detection time.
    seed : int or None
        Seed of the Wiener path that blew up, when known; sampling the path
        again from it replays the blow-up. Of the paths that blew up at that
        step, the lowest-indexed one.
    path : int or None
        Index of that path in its batch of paths. A sweep of the rows
        controls × paths names the blown-up row by its path.
    """

    def __init__(self, step, max_abs, seed=None, path=None):
        super().__init__(step, max_abs, seed, path)
        self.step = step
        self.max_abs = max_abs
        self.seed = seed
        self.path = path

    def __str__(self):
        where = []
        if self.path is not None:
            where.append(f"ensemble path {self.path}")
        if self.seed is not None:
            where.append(f"Wiener path seed {self.seed}")
        replay = f" ({', '.join(where)})" if where else ""
        return f"state blow-up at step {self.step}: max |y| = {self.max_abs:.3e}{replay}"


class SnapshotFormatError(ChocError):
    """A field snapshot file is malformed (magic, version, or payload)."""


class ConfigParseError(ConfigurationError):
    """A run-config file failed to parse; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
