"""Exception hierarchy for the engine.

Errors that originate in source text carry a (line, col) location,
1-based, so the CLI can print file:line:col diagnostics.
"""


class VzError(Exception):
    """Base class for all engine errors."""


class SourceError(VzError):
    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.path = None  # the file the location is in, when not the scenario

    def __str__(self):
        if self.line is not None:
            return f"{self.line}:{self.col}: {self.message}"
        return self.message


class ParseError(SourceError):
    pass


class SortMismatch(SourceError):
    pass


class UnknownSymbol(SourceError):
    pass


class ArityMismatch(SourceError):
    pass


class UndeclaredSymbol(SourceError):
    pass


class DuplicateDeclaration(SourceError):
    pass


class ConflictingEffects(VzError):
    def __init__(self, event, fluent, time):
        super().__init__(f"fluent {fluent} both initiated and terminated at {time} (event {event})")
        self.event = event
        self.fluent = fluent
        self.time = time


class HorizonExceeded(VzError):
    pass


class UnknownOccurrence(VzError):
    pass


class UnsupportedFragment(VzError):
    pass


class DepthExceeded(SourceError):
    pass


class InvalidRecord(VzError):
    pass


class Incompatible(VzError):
    pass


class NoAlignment(VzError):
    pass


class UnboundActionVariable(SourceError):
    pass
