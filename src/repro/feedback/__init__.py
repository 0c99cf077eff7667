"""Register-usage feedback: the PTXAS-info loop driving SAFARA, plus the
failure semantics (deadlines, transient/permanent taxonomy, fault
injection) the serving broker builds on."""

from .driver import (
    FeedbackCompiler,
    FeedbackError,
    FeedbackTimeout,
    PermanentFeedbackError,
    TransientFeedbackError,
    backend_latency,
    classify_failure,
    deadline_scope,
    fault_scope,
    latency_scope,
)

__all__ = [
    "FeedbackCompiler",
    "FeedbackError",
    "FeedbackTimeout",
    "PermanentFeedbackError",
    "TransientFeedbackError",
    "backend_latency",
    "classify_failure",
    "deadline_scope",
    "fault_scope",
    "latency_scope",
]
