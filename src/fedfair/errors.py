"""Exception types shared across the package."""


class FedFairError(Exception):
    """Base class for all package errors."""


class ConfigError(FedFairError):
    """An input is invalid or inconsistent: a config or schema file, a CSV,
    or a value passed in. The message names the input (a file's path, a
    config key or a value) and, for a CSV row, its line."""


class ProtocolError(FedFairError):
    """Client/server round produced an invalid state or message."""
