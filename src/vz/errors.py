"""Exception hierarchy for the engine.

Errors that originate in source text carry the position of the token
at fault, which ``vz.sexpr.locate`` turns into a 1-based line and
column, so the CLI can print file:line:col diagnostics.
"""


class VzError(Exception):
    """Base class for all engine errors."""


class SourceError(VzError):
    def __init__(self, message, pos=None):
        super().__init__(message)
        self.message = message
        self.pos = pos  # a node's pos in the text read, None when unknown
        self.line = self.col = None  # set by locate
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


class ConflictingEffects(SourceError):
    def __init__(self, event, fluent, time, pos=None):
        super().__init__(f"fluent {fluent} both initiated and terminated at {time} (event {event})",
                         pos)
        self.event = event
        self.fluent = fluent
        self.time = time


class HorizonExceeded(SourceError):
    pass


class UnknownOccurrence(VzError):
    pass


class UnsupportedFragment(VzError):
    pass


class DepthExceeded(SourceError):
    pass


class Incompatible(VzError):
    pass


class NoAlignment(VzError):
    pass


class UnboundActionVariable(SourceError):
    pass
