"""Batch command-line front end.

Every subcommand reads scenario files in the s-expression DSL and
writes a deterministic text report (or line-delimited JSON with
--json). Exit codes: 0 success, 1 scenario error, 2 usage error.
"""
from __future__ import annotations

import argparse
import math
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
        doc = parse_scenario(fh.read(), args.horizon)
    for key in _OVERRIDES:
        if getattr(args, key) is not None:
            doc.config[key] = getattr(args, key)
    return doc


def _learner_agent(doc) -> Constant:
    if not doc.symbols.agents:
        raise VzError("scenario declares no agents")
    return doc.config.get("learner", doc.symbols.agents[0])


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
    text = {f: print_term(f) for f in {f for f, _ in tl.holds_set}}
    for fluent, t in sorted((text[f], t) for f, t in tl.holds_set):
        rep.emit("holds", f"(holds {fluent} {t})", fluent=fluent, time=t)


def cmd_project(args, rep):
    doc = _load(args.file, args)
    _emit_timeline(ec.project(doc), rep)


def _json_real(x: float):
    """JSON has no nan or infinity (RFC 8259): a total that is not finite is null."""
    return x if math.isfinite(x) else None


def cmd_utility(args, rep):
    from .utility import mu_bar, nu_bar
    doc = _load(args.file, args)
    tl = ec.project(doc)
    agents = doc.symbols.agents
    for occ in tl.occurrences:
        ev = print_term(occ.event)
        total = mu_bar(occ, doc.nu, agents, tl.horizon)
        rep.emit("mu-bar", f"(mu-bar {ev} {occ.time} {print_real(total)})",
                 event=ev, time=occ.time, value=_json_real(total))
        for a in agents:
            v = nu_bar(a, occ, doc.nu, tl.horizon)
            rep.emit("nu-bar", f"(nu-bar {a.name} {ev} {occ.time} {print_real(v)})",
                     agent=a.name, event=ev, time=occ.time, value=_json_real(v))


def _emit_records(records, rep):
    from . import emotions
    for r in records:
        if rep.as_json:
            rep.emit("emotion", "", kind=r.kind.value, subject=r.subject.name,
                     object=r.object.name if r.object else None,
                     event=print_term(r.event), event_time=r.event_time,
                     hold_time=r.hold_time)
        else:
            rep.emit("emotion", emotions.print_record(r))


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
    # a failure is reported at the first item of the kind generalized
    keyword = "group" if doc.groups else "assert"
    at = next((loc for head, loc in doc.facts if head == keyword), None)
    if at is None:
        raise VzError("nothing to generalize: no (group ...) or (assert ...) items")
    try:
        if doc.groups:
            gen = generalize_sets(doc.groups, mode)
            patterns = gen.closed_patterns()
        else:
            gen = anti_unify(doc.asserts, mode)
            patterns = [gen.pattern]
    except (Incompatible, NoAlignment) as exc:
        raise SourceError(str(exc), *at) from exc
    for p in patterns:
        rep.emit("pattern", print_formula(p), formula=print_formula(p))
    for s in gen.substitutions:
        rep.emit("subst", _print_subst(s), subst=_print_subst(s))
    if doc.groups:
        rep.emit("total", f"(total {'true' if gen.total else 'false'})", total=gen.total)


def _learn_pipeline(doc):
    from . import emotions, learner
    tl = ec.project(doc)
    world = emotions.world_from_doc(doc, tl)
    records = emotions.sweep_emotions(world)
    config = doc.config
    lrn = _learner_agent(doc)
    exemplars = learner.identify_exemplars(records, lrn, config["n"])
    traits = []
    for ex in exemplars:
        if ex.admitted_at is None:
            continue
        history = [s for s in doc.observations if s.agent == ex.exemplar]
        roots = []
        for s in history:
            if s.performed is not None and learner.action_root(s.performed) not in roots:
                roots.append(learner.action_root(s.performed))
        for alpha in roots:
            if not learner.detect_trait(history, alpha, config["m"], config["gamma"]):
                continue
            chosen = [s for s in history if s.performed is not None
                      and learner.action_root(s.performed) == alpha]
            chosen.sort(key=lambda s: (s.time, s.id))
            try:
                trait = learner.learn_trait(chosen, [s.performed for s in chosen],
                                            config["mode"], exemplar=ex.exemplar,
                                            min_situations=config["m"])
            except (UnboundActionVariable, NoAlignment, Incompatible):
                # the situations do not determine the action, share no
                # formula that generalizes, or are fewer than m (with
                # gamma < 1 detection can accept alpha on fewer): no trait
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
    except (VzError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rep.flush(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
