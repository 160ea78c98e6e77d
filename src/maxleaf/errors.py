"""Exception types shared across the package."""


class GraphFormatError(ValueError):
    """Malformed graph or tree text input."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")


class PreconditionError(ValueError):
    """Well-formed input that the requested operation does not accept, such as
    an instance above the exact-search limit or a parameter out of range."""


class InfeasibleError(Exception):
    """The instance admits no spanning out-tree rooted at r (some vertex unreachable)."""


class InternalInvariantError(Exception):
    """A guaranteed property failed to hold; indicates a bug, not bad input."""
