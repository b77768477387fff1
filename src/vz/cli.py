"""Batch command-line front end.

Every subcommand reads scenario files in the s-expression DSL and
writes a deterministic text report (or line-delimited JSON with
--json). Exit codes: 0 success, 1 scenario error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import ec, emotions, learner
from .errors import ParseError, SourceError, VzError
from .generalize import FIRST_ORDER, anti_unify, generalize_sets
from .inference import DEFAULT_MAX_DEPTH, KnowledgeBase, saturate
from .printer import print_formula, print_real, print_term
from .scenario import (_FormulaParser, _expect_sym, _section_arg, _section_items,
                       _sections, check_setting, parse_scenario)
from .sexpr import SList, SSym, read_all
from .subst import Substitution
from .terms import Constant, Sort
from .utility import NuTable, UtilityConfig, mu_bar, nu_bar


class Report:
    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.lines: list[str] = []

    def emit(self, rtype: str, text: str, **fields):
        if self.as_json:
            self.lines.append(json.dumps({"type": rtype, **fields}, sort_keys=True))
        else:
            self.lines.append(text)

    def flush(self, out):
        for line in self.lines:
            print(line, file=out)


# settings that a command-line flag of the same name overrides
_OVERRIDES = ("n", "m", "gamma", "mode")


def _load(path: str, args):
    with open(path, "r", encoding="utf-8") as fh:
        doc = parse_scenario(fh.read())
    if args.horizon is not None:
        doc.horizon = args.horizon
    for key in _OVERRIDES:
        if getattr(args, key) is not None:
            doc.config[key] = getattr(args, key)
    return doc


def _learner_agent(doc) -> Constant:
    if not doc.agents:
        raise VzError("scenario declares no agents")
    return doc.config.get("learner", doc.agents[0])


def cmd_check(args, rep):
    doc = _load(args.file, args)
    rep.emit("check", f"ok: {len(doc.facts)} facts", facts=len(doc.facts))


def _emit_timeline(tl, rep):
    rep.emit("horizon", f"(horizon {tl.horizon})", horizon=tl.horizon)
    for occ in tl.occurrences:
        init = " ".join(sorted(print_term(f) for f in occ.initiated))
        term = " ".join(sorted(print_term(f) for f in occ.terminated))
        rep.emit("occurrence",
                 f"(occurrence {print_term(occ.event)} {occ.time} "
                 f"(initiated {init}) (terminated {term}))",
                 event=print_term(occ.event), time=occ.time,
                 initiated=sorted(print_term(f) for f in occ.initiated),
                 terminated=sorted(print_term(f) for f in occ.terminated))
    for f, t in sorted(tl.holds_set, key=lambda ft: (print_term(ft[0]), ft[1])):
        rep.emit("holds", f"(holds {print_term(f)} {t})", fluent=print_term(f), time=t)


def cmd_project(args, rep):
    doc = _load(args.file, args)
    _emit_timeline(ec.project(doc), rep)


def cmd_utility(args, rep):
    doc = _load(args.file, args)
    tl = ec.project(doc)
    table = NuTable.from_doc(doc)
    cfg = UtilityConfig(tl.horizon)
    for occ in tl.occurrences:
        ev = print_term(occ.event)
        total = mu_bar(occ.event, occ.time, tl, table, doc.agents, cfg)
        rep.emit("mu-bar", f"(mu-bar {ev} {occ.time} {print_real(total)})",
                 event=ev, time=occ.time, value=total)
        for a in doc.agents:
            v = nu_bar(a, occ.event, occ.time, tl, table, cfg)
            rep.emit("nu-bar", f"(nu-bar {a.name} {ev} {occ.time} {print_real(v)})",
                     agent=a.name, event=ev, time=occ.time, value=v)


def _emit_records(records, rep):
    for r in records:
        rep.emit("emotion", emotions.print_record(r),
                 kind=r.kind.value, subject=r.subject.name,
                 object=r.object.name if r.object else None,
                 event=print_term(r.event), event_time=r.event_time,
                 hold_time=r.hold_time)


def cmd_emotions(args, rep):
    doc = _load(args.file, args)
    world = emotions.world_from_doc(doc, ec.project(doc))
    _emit_records(emotions.sweep_emotions(world), rep)


def cmd_infer(args, rep):
    doc = _load(args.file, args)
    kb = KnowledgeBase.of(doc.asserts, max_depth=doc.config.get("max-depth", DEFAULT_MAX_DEPTH),
                          horizon=doc.horizon)
    closed = saturate(kb)
    for line in sorted(print_formula(f) for f in closed.formulas):
        rep.emit("formula", line, formula=line)


def _print_subst(s: Substitution) -> str:
    parts = [f"?{v.name} {print_term(t)}" for v, t in s.var_bindings]
    parts += [f"?{sv.name} {fs.name}" for sv, fs in s.sym_bindings]
    return f"(subst {' '.join(parts)})"


def cmd_generalize(args, rep):
    doc = _load(args.file, args)
    mode = doc.config.get("mode", FIRST_ORDER)
    if doc.groups:
        gen = generalize_sets(doc.groups, mode)
        for p in gen.closed_patterns():
            rep.emit("pattern", print_formula(p), formula=print_formula(p))
        for s in gen.substitutions:
            rep.emit("subst", _print_subst(s), subst=_print_subst(s))
        rep.emit("total", f"(total {'true' if gen.total else 'false'})", total=gen.total)
    elif doc.asserts:
        gen = anti_unify(doc.asserts, mode)
        rep.emit("pattern", print_formula(gen.pattern), formula=print_formula(gen.pattern))
        for s in gen.substitutions:
            rep.emit("subst", _print_subst(s), subst=_print_subst(s))
    else:
        raise VzError("nothing to generalize: no (group ...) or (assert ...) items")


def _learn_pipeline(doc):
    tl = ec.project(doc)
    world = emotions.world_from_doc(doc, tl)
    records = emotions.sweep_emotions(world)
    mode = doc.config.get("mode", FIRST_ORDER)
    crit = learner.TraitCriteria.from_config(doc.config)
    lrn = _learner_agent(doc)
    exemplars = learner.identify_exemplars(records, lrn, crit)
    situations = [learner.Situation.from_observation(o) for o in doc.observations]
    traits = []
    for ex in exemplars:
        if ex.admitted_at is None:
            continue
        history = [s for s in situations if s.agent == ex.exemplar]
        roots = []
        for s in history:
            if s.performed is not None and s.performed.symbol not in roots:
                roots.append(s.performed.symbol)
        for alpha in roots:
            if not learner.detect_trait(history, alpha, crit):
                continue
            chosen = [s for s in history
                      if s.performed is not None and s.performed.symbol == alpha]
            chosen.sort(key=lambda s: (s.time, s.id))
            trait = learner.learn_trait(chosen, [s.performed for s in chosen],
                                        mode, exemplar=ex.exemplar,
                                        min_situations=crit.min_situations)
            traits.append(trait)
    return tl, records, exemplars, traits, lrn


def _emit_exemplar(ex, rep):
    admitted = "never" if ex.admitted_at is None else str(ex.admitted_at)
    rep.emit("exemplar",
             f"(exemplar {ex.learner.name} {ex.exemplar.name} "
             f"{ex.admiration_count} {admitted})",
             learner=ex.learner.name, exemplar=ex.exemplar.name,
             count=ex.admiration_count, admitted_at=ex.admitted_at)


def _emit_trait(trait, rep):
    line = learner_print_trait(trait)
    rep.emit("trait", line, trait=line)


def learner_print_trait(trait) -> str:
    pats = " ".join(print_formula(p) for p in trait.pattern)
    parts = [f"(trait (pattern {pats}) (action {print_term(trait.action_pattern)})"]
    if trait.exemplar is not None:
        parts.append(f"(exemplar {trait.exemplar.name})")
    if trait.source_situations:
        parts.append(f"(sources {' '.join(trait.source_situations)})")
    return " ".join(parts) + ")"


def cmd_learn(args, rep):
    doc = _load(args.file, args)
    _, _, exemplars, traits, _ = _learn_pipeline(doc)
    for ex in exemplars:
        _emit_exemplar(ex, rep)
    for t in traits:
        _emit_trait(t, rep)
    if args.traits:
        with open(args.traits, "w", encoding="utf-8") as fh:
            for t in traits:
                src = " ".join(t.source_situations)
                fh.write(f"; learnt from {t.exemplar.name if t.exemplar else 'unknown'}"
                         f" (sources {src})\n")
                fh.write(learner_print_trait(t) + "\n")


def parse_traits(text: str, doc) -> list:
    """Read a trait file against the scenario's symbol table."""
    fp = _FormulaParser(doc.symbols)
    traits = []
    for sx in read_all(text):
        if not (isinstance(sx, SList) and sx.items
                and isinstance(sx.items[0], SSym) and sx.items[0].text == "trait"):
            raise ParseError("trait file entries must be (trait ...) records", sx.line, sx.col)
        fp.fresh_scope()
        secs = _sections(sx.items[1:], {"pattern", "action", "exemplar", "sources"})
        pattern = tuple(fp.formula(f) for f in _section_items(secs, "pattern"))
        if "action" not in secs:
            raise ParseError("trait record lacks an (action ...) section", sx.line, sx.col)
        action = fp.term(_section_arg(secs["action"], "action type"), Sort.ACTION_TYPE)
        exemplar = None
        if "exemplar" in secs:
            arg = _section_arg(secs["exemplar"], "agent")
            exemplar = doc.symbols.agent(_expect_sym(arg, "agent name"), (arg.line, arg.col))
        sources = tuple(_expect_sym(i, "situation id") for i in _section_items(secs, "sources"))
        traits.append(learner.LearntTrait(pattern, action, exemplar, sources))
    return traits


def _load_traits(path: str, doc) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_traits(text, doc)
    except SourceError as exc:
        exc.path = path
        raise


def _apply_to_queries(doc, traits, lrn, rep):
    for q in doc.queries:
        sigma = learner.Situation(q.id, q.time, q.formulas)
        for trait in traits:
            for event in learner.apply_trait(trait, sigma, lrn):
                rep.emit("proposal",
                         f"(proposal {q.id} (happens {print_term(event)} {q.time}))",
                         query=q.id, event=print_term(event), time=q.time)


def cmd_act(args, rep):
    doc = _load(args.file, args)
    if not args.traits:
        raise VzError("act requires --traits PATH")
    traits = _load_traits(args.traits, doc)
    _apply_to_queries(doc, traits, _learner_agent(doc), rep)


def cmd_run(args, rep):
    doc = _load(args.file, args)
    tl, records, exemplars, traits, lrn = _learn_pipeline(doc)
    _emit_timeline(tl, rep)
    _emit_records(records, rep)
    for ex in exemplars:
        _emit_exemplar(ex, rep)
    for t in traits:
        _emit_trait(t, rep)
    if args.traits:
        traits = _load_traits(args.traits, doc)
    _apply_to_queries(doc, traits, lrn, rep)


_COMMANDS = {
    "check": cmd_check,
    "project": cmd_project,
    "utility": cmd_utility,
    "emotions": cmd_emotions,
    "infer": cmd_infer,
    "generalize": cmd_generalize,
    "learn": cmd_learn,
    "act": cmd_act,
    "run": cmd_run,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--mode", default=None)
        p.add_argument("--json", action="store_true")
        p.add_argument("--traits", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for key in ("horizon",) + _OVERRIDES:
        if getattr(args, key) is not None:
            try:
                check_setting(key, getattr(args, key))
            except SourceError as exc:
                parser.error(f"argument --{key}: {exc.message}")
    rep = Report(args.json)
    try:
        _COMMANDS[args.command](args, rep)
    except SourceError as exc:
        print(f"{exc.path or args.file}:{exc}", file=sys.stderr)
        return 1
    except VzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rep.flush(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
