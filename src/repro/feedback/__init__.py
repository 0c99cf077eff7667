"""Register-usage feedback: the PTXAS-info loop driving SAFARA, plus the
deadline and the test hook the serving broker builds on."""

from .driver import (
    FeedbackCompiler,
    FeedbackTimeout,
    deadline_scope,
    fault_scope,
)

__all__ = [
    "FeedbackCompiler",
    "FeedbackTimeout",
    "deadline_scope",
    "fault_scope",
]
