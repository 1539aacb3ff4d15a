"""Exception types shared across the package."""


class FedFairError(Exception):
    """Base class for all package errors."""


class SchemaError(FedFairError):
    """Input file does not match its declared schema."""


class RowParseError(FedFairError):
    """A data row could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(line_number, message)  # both args, so a pickle rebuilds it
        self.line_number = line_number

    def __str__(self) -> str:
        return f"line {self.args[0]}: {self.args[1]}"


class ConfigError(FedFairError):
    """A configuration value is invalid or inconsistent."""


class MetricUndefinedError(FedFairError):
    """A metric denominator is empty (e.g. an empty sensitive group)."""


class ProtocolError(FedFairError):
    """Client/server round produced an invalid state or message."""
