"""Trait files: one (trait [(signatures ...)] (pattern ...) (action ...)
[(exemplar a)] [(sources ...)]) record per learnt trait, read against a
scenario's symbols by ``parse_traits`` and written by ``print_trait``.
Only the commands that read or write traits (learn, act and run) load
this module.
"""
from __future__ import annotations

from .errors import DuplicateDeclaration, ParseError, SourceError, UnboundActionVariable
from .printer import print_formula, print_term
from .scenario import (FormulaParser, LearntTrait, ScenarioDoc, expect_sym, parse_sort,
                       section_arg, section_items, sections)
from .sexpr import SList, SSym, locate, read_all
from .terms import Sort, SymbolVariable, Variable, free_variables


def parse_traits(text: str, doc: ScenarioDoc) -> list[LearntTrait]:
    """Read a trait file against the scenario's symbol table."""
    fp = FormulaParser(doc.symbols)
    try:
        return [_parse_trait(sx, fp) for sx in read_all(text)]
    except SourceError as exc:
        raise locate(exc, text)


def _parse_trait(sx, fp) -> LearntTrait:
    if not (isinstance(sx, SList) and sx.items
            and isinstance(sx.items[0], SSym) and sx.items[0].text == "trait"):
        raise ParseError("trait file entries must be (trait ...) records", sx.pos)
    secs = sections(sx.items[1:], {"signatures", "pattern", "action", "exemplar", "sources"})
    fp.freevars, fp.symvars = _parse_signatures(section_items(secs, "signatures"))
    pattern = tuple(map(fp.formula, section_items(secs, "pattern")))
    if "action" not in secs:
        raise ParseError("trait record lacks an (action ...) section", sx.pos)
    action = fp.term(section_arg(secs["action"], "action type"), Sort.ACTION_TYPE)
    exemplar = None
    if "exemplar" in secs:
        arg = section_arg(secs["exemplar"], "agent")
        exemplar = fp.table.agent(expect_sym(arg, "agent name"), arg.pos)
    sources = tuple(expect_sym(i, "situation id") for i in section_items(secs, "sources"))
    try:
        return LearntTrait(pattern, action, exemplar, sources)
    except UnboundActionVariable as exc:
        raise UnboundActionVariable(exc.message, secs["action"].pos)


def _parse_signatures(items):
    """The variables and symbol variables a (signatures ...) section
    declares, by name: (X sort) or (P (arg sorts) result sort)."""
    variables, symbols = {}, {}
    for item in items:
        if not (isinstance(item, SList) and len(item.items) in (2, 3)):
            raise ParseError("a signature is (name sort) or (name (sorts) sort)", item.pos)
        name = expect_sym(item.items[0], "variable name")
        if name in variables or name in symbols:
            raise DuplicateDeclaration(f"duplicate signature {name!r}", item.pos)
        if len(item.items) == 2:
            variables[name] = Variable(name, parse_sort(item.items[1]))
            continue
        if not isinstance(item.items[1], SList):
            raise ParseError("expected argument sort list", item.items[1].pos)
        symbols[name] = SymbolVariable(name, tuple(parse_sort(a) for a in item.items[1].items),
                                       parse_sort(item.items[2]))
    return variables, symbols


def _signature(v) -> str:
    if isinstance(v, SymbolVariable):
        args = " ".join(a.value for a in v.arg_sorts)
        return f"({v.name} ({args}) {v.result_sort.value})"
    return f"({v.name} {v.sort.value})"


def print_trait(trait: LearntTrait) -> str:
    """One (trait ...) record. Its signatures section states what the
    reader could not infer from positions: the signature of each symbol
    variable, and the sort of each action variable, which an event
    position would otherwise read as an event."""
    free = free_variables(trait.action_pattern).union(*map(free_variables, trait.pattern))
    sigs = sorted((v for v in free if isinstance(v, SymbolVariable) or v.sort is Sort.ACTION),
                  key=lambda v: v.name)
    pats = " ".join(print_formula(p) for p in trait.pattern)
    parts = ["(trait"]
    if sigs:
        parts.append(f"(signatures {' '.join(map(_signature, sigs))})")
    parts.append(f"(pattern {pats}) (action {print_term(trait.action_pattern)})")
    if trait.exemplar is not None:
        parts.append(f"(exemplar {trait.exemplar.name})")
    if trait.source_situations:
        parts.append(f"(sources {' '.join(trait.source_situations)})")
    return " ".join(parts) + ")"
