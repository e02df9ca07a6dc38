"""Exception types shared across the package.

Two broad families: :class:`ValidationError` for inputs that violate a
documented precondition (the CLI maps these to exit code 2), and
:class:`NumericalError` for failures discovered during computation such as
singular matrices or domain violations at evaluation points (exit code 3).
"""


class SemicoopError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SemicoopError):
    """Input or configuration violates a documented precondition.

    ``problems`` collects every violation found so callers can report all
    of them at once instead of failing on the first.
    """

    def __init__(self, message, problems=None):
        super().__init__(message)
        self.problems = list(problems) if problems else [message]

    def __str__(self):
        message = super().__str__()
        if self.problems == [message]:
            return message
        return "\n".join([message] + ["  - " + p for p in self.problems])


class NumericalError(SemicoopError):
    """Computation failed on otherwise well-formed inputs."""


class GridMismatchError(ValidationError):
    """Two fields that must share a grid were built on different grids."""


class SingularMetricError(NumericalError):
    """A per-node matrix could not be inverted or factorized.

    ``node`` is the multi-index of the first offending grid node.
    """

    def __init__(self, node, detail=""):
        self.node = tuple(int(i) for i in node)
        msg = f"singular matrix at grid node {self.node}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DegeneratePolygonError(NumericalError):
    """Signed polygon assembly produced a non-positive area."""


class RangeOverflowError(NumericalError):
    """A value left the representable floating-point range.

    ``node`` locates the first offending entry when the source is a grid.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = tuple(int(i) for i in node) if node is not None else None
