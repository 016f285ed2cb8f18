"""Simulation laboratory for a mediated semi-quantum key distribution
protocol: exact quantum backends, the three-party protocol state machine,
pluggable third-party attack strategies, and a Monte Carlo harness."""

from .bell_algebra import (
    BellType,
    bm_parity,
    chain_relation_holds,
    collapse_partner,
    infer_remote_bit,
    parity,
    xor_rule_holds,
)
from .engine import (
    Backend,
    CapacityError,
    GateName,
    Register,
    UnsupportedOperationError,
    derive_seed,
    new_register,
)

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "BellType",
    "CapacityError",
    "GateName",
    "Register",
    "UnsupportedOperationError",
    "bm_parity",
    "chain_relation_holds",
    "collapse_partner",
    "derive_seed",
    "infer_remote_bit",
    "new_register",
    "parity",
    "xor_rule_holds",
]
