"""Batch command-line front end.

Every subcommand reads scenario files in the s-expression DSL and
writes a deterministic text report (or line-delimited JSON with
--json). Exit codes: 0 success, 1 scenario error, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys

from . import ec
from .errors import Incompatible, NoAlignment, SourceError, UnboundActionVariable, VzError
from .printer import print_formula, print_real, print_term
from .scenario import check_setting, parse_scenario, parse_traits, print_trait
from .terms import Constant, SymbolVariable
# A command imports the later stages it runs itself, so it starts without the others.


class Report:
    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.lines: list[str] = []
        if as_json:
            import json  # only JSON reports pay for its import
            self.dumps = json.dumps

    def emit(self, rtype: str, text: str, **fields):
        if self.as_json:
            self.lines.append(self.dumps({"type": rtype, **fields}, sort_keys=True))
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
        init = [print_term(f) for f in occ.initiated]
        term = [print_term(f) for f in occ.terminated]
        rep.emit("occurrence",
                 f"(occurrence {print_term(occ.event)} {occ.time} "
                 f"(initiated {' '.join(init)}) (terminated {' '.join(term)}))",
                 event=print_term(occ.event), time=occ.time,
                 initiated=init, terminated=term)
    for f, t in sorted(tl.holds_set, key=lambda ft: (print_term(ft[0]), ft[1])):
        rep.emit("holds", f"(holds {print_term(f)} {t})", fluent=print_term(f), time=t)


def cmd_project(args, rep):
    doc = _load(args.file, args)
    _emit_timeline(ec.project(doc), rep)


def cmd_utility(args, rep):
    from .utility import NuTable, mu_bar, nu_bar
    doc = _load(args.file, args)
    tl = ec.project(doc)
    table = NuTable.from_doc(doc)
    for occ in tl.occurrences:
        ev = print_term(occ.event)
        total = mu_bar(occ.event, occ.time, tl, table, doc.agents, tl.horizon)
        rep.emit("mu-bar", f"(mu-bar {ev} {occ.time} {print_real(total)})",
                 event=ev, time=occ.time, value=total)
        for a in doc.agents:
            v = nu_bar(a, occ.event, occ.time, tl, table, tl.horizon)
            rep.emit("nu-bar", f"(nu-bar {a.name} {ev} {occ.time} {print_real(v)})",
                     agent=a.name, event=ev, time=occ.time, value=v)


def _emit_records(records, rep):
    from . import emotions
    for r in records:
        rep.emit("emotion", emotions.print_record(r),
                 kind=r.kind.value, subject=r.subject.name,
                 object=r.object.name if r.object else None,
                 event=print_term(r.event), event_time=r.event_time,
                 hold_time=r.hold_time)


def cmd_emotions(args, rep):
    from . import emotions
    doc = _load(args.file, args)
    world = emotions.world_from_doc(doc, ec.project(doc))
    _emit_records(emotions.sweep_emotions(world), rep)


def saturate(kb):
    """inference.saturate, looked up here so that perfbench/tracing.py can wrap it."""
    from . import inference
    return inference.saturate(kb)


def cmd_infer(args, rep):
    from .inference import KnowledgeBase
    doc = _load(args.file, args)
    kb = KnowledgeBase.of(doc.asserts, max_depth=doc.config["max-depth"],
                          horizon=doc.horizon)
    closed = saturate(kb)
    for line in sorted(print_formula(f) for f in closed.formulas):
        rep.emit("formula", line, formula=line)


def _print_subst(s: dict) -> str:
    """Variables by name, then symbol variables by name."""
    keys = sorted(s, key=lambda v: (isinstance(v, SymbolVariable), v.name))
    parts = [f"?{v.name} {s[v].name if isinstance(v, SymbolVariable) else print_term(s[v])}"
             for v in keys]
    return f"(subst {' '.join(parts)})"


def cmd_generalize(args, rep):
    from .generalize import anti_unify, generalize_sets
    doc = _load(args.file, args)
    mode = doc.config["mode"]
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
    from . import emotions, learner
    tl = ec.project(doc)
    world = emotions.world_from_doc(doc, tl)
    records = emotions.sweep_emotions(world)
    mode = doc.config["mode"]
    crit = learner.TraitCriteria.from_config(doc.config)
    lrn = _learner_agent(doc)
    exemplars = learner.identify_exemplars(records, lrn, crit)
    traits = []
    for ex in exemplars:
        if ex.admitted_at is None:
            continue
        history = [s for s in doc.observations if s.agent == ex.exemplar]
        roots = []
        for s in history:
            if s.performed is not None and s.performed.symbol not in roots:
                roots.append(s.performed.symbol)
        for alpha in roots:
            if not learner.detect_trait(history, alpha, crit):
                continue
            chosen = [s for s in history
                      if s.performed is not None and s.performed.symbol == alpha]
            # with gamma < 1, detection can accept alpha on fewer than m
            # performing situations, too few to learn from
            if len(chosen) < crit.min_situations:
                continue
            chosen.sort(key=lambda s: (s.time, s.id))
            try:
                trait = learner.learn_trait(chosen, [s.performed for s in chosen],
                                            mode, exemplar=ex.exemplar,
                                            min_situations=crit.min_situations)
            except (UnboundActionVariable, NoAlignment, Incompatible):
                # the situations do not determine the action, or share no
                # formula that generalizes: no trait to learn
                continue
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
    line = print_trait(trait)
    rep.emit("trait", line, trait=line)


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
                fh.write(print_trait(t) + "\n")


def _load_traits(path: str, doc) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_traits(text, doc)
    except SourceError as exc:
        exc.path = path
        raise


def _apply_to_queries(doc, traits, lrn, rep):
    from . import learner
    for q in doc.queries:
        for trait in traits:
            for event in learner.apply_trait(trait, q, lrn):
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
