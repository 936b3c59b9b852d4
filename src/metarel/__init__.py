"""Hierarchical meta-distribution reliability of wireless networks.

Closed forms and a generic n-layer nested Monte Carlo engine for
higher-order meta-distribution (MD) reliability: a canonical cellular SIR
model with block-ALOHA interferers, and a wideband frequency-hopping THz
SNR model with molecular absorption.
"""

__version__ = "0.1.0"

from .errors import (
    CalibrationError,
    ConfigurationError,
    DomainError,
    IngestError,
    ScenarioError,
    SearchError,
    UsageError,
)
from .mdcore import (
    LayeredModel,
    MdEstimate,
    MdQuery,
    nested_md_estimate,
    reduce_order,
    zeroth_order_reliability,
)

__all__ = [
    "__version__",
    "CalibrationError",
    "ConfigurationError",
    "DomainError",
    "IngestError",
    "ScenarioError",
    "SearchError",
    "UsageError",
    "LayeredModel",
    "MdEstimate",
    "MdQuery",
    "nested_md_estimate",
    "reduce_order",
    "zeroth_order_reliability",
]
