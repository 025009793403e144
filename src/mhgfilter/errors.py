"""Exception hierarchy shared by all mhgfilter modules."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(EngineError):
    """Malformed state: duplicate ids, dangling incidences, bad bounds."""


class IntegrityError(EngineError):
    """A multiplicity-conservation constraint is violated."""


class EffectError(EngineError):
    """A rule effect cannot be applied (negative multiplicity, cap overflow)."""


class EnumerationLimitError(EngineError):
    """Grounding enumeration would exceed ``lifted.MAX_GROUNDINGS``."""

    def __init__(self, count: int, limit: int):
        super().__init__(f"enumeration of {count} groundings exceeds cap {limit}")
        self.count = count
        self.limit = limit


class ParseError(EngineError):
    """A domain or trace file could not be parsed."""

    def __init__(self, message: str, source: str = "<input>", line: int | None = None):
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")
        self.source = source
        self.line = line


class TraceInconsistencyError(EngineError):
    """No weighted state explains the observed annotation tuple."""

    def __init__(self, step: int, action: str):
        super().__init__(f"trace inconsistent at step {step} (action {action!r}): "
                         "no predicted state is consistent with the annotation")
        self.step = step
        self.action = action
