"""Fairness-aware distributionally robust federated learning simulator.

Simulates p clients and one server training a global logistic model
under an adversary that reweighs training samples through kernel
mixtures, subject to a demographic-parity covariance constraint.
"""

__version__ = "0.1.0"

from fedfair.errors import ConfigError, SchemaError

__all__ = ["ConfigError", "SchemaError", "__version__"]
