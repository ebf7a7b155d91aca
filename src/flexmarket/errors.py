"""Exception types shared across the package, and how their messages show a value."""


class FlexMarketError(Exception):
    """Base class for all errors raised by this package."""

    #: The exit code the CLI reports this error with.
    exit_code = 2


class InputError(FlexMarketError):
    """A file or record failed schema validation."""


class NetworkError(FlexMarketError):
    """The network description is structurally invalid."""


class UnknownBusError(NetworkError):
    """A bus id does not exist in the network or dispatch."""


class InfeasibleBaselineError(FlexMarketError):
    """The baseline dispatch violates at least one line limit."""

    exit_code = 3


class MarketError(FlexMarketError):
    """A bid or market operation violates the trading rules."""


def shown(value, form=repr) -> str:
    """``form(value)`` for an error message, unless an integer in it is too long to write out."""
    try:
        return form(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"
