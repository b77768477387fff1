"""Symbolic engine for event-calculus scenarios, utility-based emotion
fluents, and trait learning by anti-unification."""

__version__ = "0.1.0"
