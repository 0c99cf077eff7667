"""The single source of truth for execution-tier selection.

Executor choice used to be stringly-typed in three places (the CLI
``--executor`` flag, ``CompilerSession``, and the serve ``run`` op), each
with its own ad-hoc validation.  This module owns the enum and the
parser; every layer routes through :func:`parse_executor` so an unknown
value fails the same way everywhere — a :class:`~repro.errors.ConfigError`
naming the valid executors.

Tiers (fastest first):

``codegen``
    Generated straight-line NumPy source (:mod:`repro.codegen.numpy_source`),
    ``exec``'d once and cached as a function object, driving the batched
    runtime of :mod:`repro.gpu.vector_exec`.
``scalar``
    The reference scalar interpreter (:mod:`repro.gpu.interpreter`).
``auto``
    Try ``codegen``, fall back to ``scalar`` when it cannot run.
"""

from __future__ import annotations

import enum

from .errors import ConfigError

__all__ = ["Executor", "EXECUTOR_NAMES", "parse_executor"]


class Executor(str, enum.Enum):
    """Execution tier.  A ``str`` subclass so legacy string comparisons
    (``executor == "codegen"``) and JSON serialisation keep working."""

    AUTO = "auto"
    CODEGEN = "codegen"
    SCALAR = "scalar"

    def __str__(self) -> str:  # repr-stability for logs / traces
        return self.value


#: Valid ``--executor`` values in ladder order (``auto`` first).
EXECUTOR_NAMES: tuple[str, ...] = tuple(e.value for e in Executor)


def parse_executor(value: "str | Executor | None", *, default: Executor = Executor.AUTO) -> Executor:
    """Map a user-supplied executor name onto the enum.

    ``None`` selects ``default``.  Unknown names raise
    :class:`~repro.errors.ConfigError` listing the valid executors, so the
    CLI, ``CompilerSession`` and the serve protocol all reject bad input
    with the same message.
    """
    if value is None:
        return default
    if isinstance(value, Executor):
        return value
    try:
        return Executor(value)
    except ValueError:
        valid = ", ".join(EXECUTOR_NAMES)
        raise ConfigError(
            f"unknown executor {value!r}: valid executors are {valid}"
        ) from None
