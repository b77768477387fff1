"""Symbolic engine for event-calculus scenarios, utility-based emotion
fluents, and trait learning by anti-unification."""

__version__ = "0.1.0"


def __getattr__(name):
    """`import vz.cli` leaves the modules that only some subcommands run
    unloaded; `vz.emotions` and the like load one on first access."""
    if name not in ("ec", "emotions", "generalize", "inference", "learner", "utility"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return importlib.import_module(f"{__name__}.{name}")
