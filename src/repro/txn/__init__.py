"""Multi-key edge read transactions with a selectable consistency ladder."""

from repro.txn.coordinator import (
    DEGRADED_HEADER,
    KeyRead,
    TxnCoordinator,
    TxnResult,
)
from repro.txn.levels import ConsistencyLevel
from repro.txn.registry import TxnContext, TxnRegistry

__all__ = [
    "DEGRADED_HEADER",
    "ConsistencyLevel",
    "KeyRead",
    "TxnContext",
    "TxnCoordinator",
    "TxnRegistry",
    "TxnResult",
]
