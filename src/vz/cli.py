"""Batch command-line front end.

Every subcommand reads scenario files in the s-expression DSL and
writes a deterministic text report (or line-delimited JSON with
--json). Exit codes: 0 success, 1 scenario error, 2 usage error.
"""
from __future__ import annotations

import argparse
import math
import sys

from .errors import Incompatible, NoAlignment, SourceError, UnboundActionVariable, VzError
from .printer import print_formula, print_real, print_term
from .scenario import check_setting, parse_scenario, parse_traits, print_trait
from .sexpr import locate
from .terms import Constant, SymbolVariable
# A command imports the later stages it runs itself, so it starts without the others.


# Each record type's text line, from its fields as emitted (text reports only).
_TEXT = {
    "check": lambda facts: f"ok: {facts} facts",
    "horizon": lambda horizon: f"(horizon {horizon})",
    "occurrence": lambda event, time, initiated, terminated: f"(occurrence {event} {time} "
                  f"(initiated {' '.join(initiated)}) (terminated {' '.join(terminated)}))",
    "holds": lambda fluent, time: f"(holds {fluent} {time})",
    "mu-bar": lambda event, time, value: f"(mu-bar {event} {time} {value})",
    "nu-bar": lambda agent, event, time, value: f"(nu-bar {agent} {event} {time} {value})",
    "emotion": lambda kind, subject, object, event, event_time, hold_time: f"({kind} {subject}"
               f"{'' if object is None else ' ' + object} {event} {event_time} {hold_time})",
    "formula": lambda formula: formula,
    "pattern": lambda formula: formula,
    "subst": lambda subst: subst,
    "total": lambda total: f"(total {'true' if total else 'false'})",
    "exemplar": lambda learner, exemplar, count, admitted_at: f"(exemplar {learner} {exemplar} "
                f"{count} {'never' if admitted_at is None else admitted_at})",
    "trait": lambda trait: trait,
    "proposal": lambda query, event, time: f"(proposal {query} (happens {event} {time}))",
}


def _not_json(value):
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class Report:
    """A command's records, each rendered once, when emitted: as its _TEXT line,
    or with --json as {"type": rtype, **fields}; a run of records that differ in
    one int field is rendered once. `real` renders a utility total."""

    _CHUNK = 4096  # the lines encoded and written at a time
    _MARK = "<#>"  # printed verbatim in both renderings; the reader's symbols never hold it

    def __init__(self, as_json: bool):
        self.lines: list[str] = []
        if as_json:
            # json.dumps(..., sort_keys=True)'s C encoder, made once, without the json package
            from _json import encode_basestring_ascii, make_encoder
            encode = make_encoder({}, _not_json, encode_basestring_ascii, None, ": ", ", ",
                                  True, False, True)  # sort_keys, not skipkeys, allow_nan
            self.render = lambda rtype, fields: "".join(encode({"type": rtype, **fields}, 0))
            self.real = lambda x: x if math.isfinite(x) else None  # JSON has no nan or inf
            self._mark = f'"{self._MARK}"'
        else:
            self.render = lambda rtype, fields: _TEXT[rtype](**fields)
            self.real = print_real
            self._mark = self._MARK

    def emit(self, rtype: str, **fields):
        self.lines.append(self.render(rtype, fields))

    def emit_each(self, rtype: str, key: str, ints, **shared):
        """emit(rtype, **shared, key=i) for each int i, from one rendering with
        _MARK in field key, then each i spliced in as str prints it, as both
        renderings do. No shared field may contain _MARK: ValueError."""
        line = self.render(rtype, {**shared, key: self._MARK})
        if line.count(self._MARK) != 1:
            raise ValueError(f"a {rtype} field contains {self._MARK}")
        head, tail = line.split(self._mark)
        self.lines += [f"{head}{i}{tail}" for i in ints]

    def flush(self, out):
        """Write the report past any buffer, _CHUNK lines at a time, so that a failed
        write leaves nothing to retry at exit. An empty report writes nothing."""
        write = out.write  # a text stream, such as io.StringIO
        if hasattr(out, "buffer"):
            out.flush()
            raw = getattr(out.buffer, "raw", out.buffer)

            def write(text):
                data = memoryview(text.encode(out.encoding))
                while data:  # a pipe or a file may take only a part
                    data = data[raw.write(data):]
        for i in range(0, len(self.lines), self._CHUNK):
            write("\n".join(self.lines[i:i + self._CHUNK]) + "\n")


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
    rep.emit("check", facts=len(_load(args.file, args).facts))


def _emit_timeline(tl, rep):
    rep.emit("horizon", horizon=tl.horizon)
    for occ in tl.occurrences:
        rep.emit("occurrence", event=print_term(occ.event), time=occ.time,
                 initiated=[print_term(f) for f in occ.initiated],
                 terminated=[print_term(f) for f in occ.terminated])
    times: dict = {}  # fluent -> the moments it holds at
    for f, t in tl.holds_set:
        times.setdefault(f, []).append(t)
    for fluent, moments in sorted((print_term(f), ts) for f, ts in times.items()):
        rep.emit_each("holds", "time", sorted(moments), fluent=fluent)


def cmd_project(args, rep):
    from . import ec
    _emit_timeline(ec.project(_load(args.file, args)), rep)


def cmd_utility(args, rep):
    from . import ec
    from .utility import moment_index, mu_bar, nu_bar
    doc = _load(args.file, args)
    tl = ec.project(doc)
    agents, index = doc.symbols.agents, moment_index(doc.nu)
    for occ in tl.occurrences:
        rep.emit("mu-bar", event=print_term(occ.event), time=occ.time,
                 value=rep.real(mu_bar(occ, doc.nu, agents, tl.horizon, index)))
        for a in agents:
            rep.emit("nu-bar", agent=a.name, event=print_term(occ.event), time=occ.time,
                     value=rep.real(nu_bar(a, occ, doc.nu, tl.horizon, index)))


def _emit_records(sweep, rep):
    for kind, a, b, occs, moments in sweep.groups:
        for occ in occs:
            rep.emit_each("emotion", "hold_time", moments, kind=kind.value, subject=a.name,
                          object=b.name if b else None, event=print_term(occ.event),
                          event_time=occ.time)


def cmd_emotions(args, rep):
    from . import ec, emotions
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
                          horizon=doc.effective_horizon())
    for line in sorted(map(print_formula, saturate(kb).formulas)):
        rep.emit("formula", formula=line)


def _print_subst(s: dict) -> str:
    """Variables by name, then symbol variables by name."""
    parts = [f"?{v.name} {s[v].name if isinstance(v, SymbolVariable) else print_term(s[v])}"
             for v in sorted(s, key=lambda v: (isinstance(v, SymbolVariable), v.name))]
    return f"(subst {' '.join(parts)})"


def cmd_generalize(args, rep):
    from .generalize import anti_unify, generalize_sets
    doc = _load(args.file, args)
    mode = doc.config["mode"]
    # a failure is reported at the first item of the kind generalized
    keyword = "group" if doc.groups else "assert"
    at = next((pos for head, pos in doc.facts if head == keyword), None)
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
        raise locate(SourceError(str(exc), at), doc.source) from exc
    for p in patterns:
        rep.emit("pattern", formula=print_formula(p))
    for s in gen.substitutions:
        rep.emit("subst", subst=_print_subst(s))
    if doc.groups:
        rep.emit("total", total=gen.total)


def _learn_pipeline(doc):
    from . import ec, emotions, learner
    tl = ec.project(doc)
    sweep = emotions.sweep_emotions(emotions.world_from_doc(doc, tl))
    config = doc.config
    lrn = _learner_agent(doc)
    exemplars = learner.identify_exemplars(sweep.admirations(lrn), lrn, config["n"])
    traits = []
    for ex in exemplars:
        if ex.admitted_at is None:
            continue
        history = [s for s in doc.observations if s.agent == ex.exemplar]
        performing = {}  # action root -> its performing situations, roots in first-performed order
        for s in history:
            if s.performed is not None:
                performing.setdefault(learner.action_root(s.performed), []).append(s)
        for alpha, chosen in performing.items():
            if not learner.detect_trait(history, alpha, config["m"], config["gamma"]):
                continue
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
    return tl, sweep, exemplars, traits, lrn


def _emit_exemplar(ex, rep):
    rep.emit("exemplar", learner=ex.learner.name, exemplar=ex.exemplar.name,
             count=ex.admiration_count, admitted_at=ex.admitted_at)


def _emit_trait(trait, rep) -> str:
    """Report the trait; return its (trait ...) record, the line a trait file holds."""
    line = print_trait(trait)
    rep.emit("trait", trait=line)
    return line


def cmd_learn(args, rep):
    doc = _load(args.file, args)
    _, _, exemplars, traits, _ = _learn_pipeline(doc)
    for ex in exemplars:
        _emit_exemplar(ex, rep)
    lines = [_emit_trait(t, rep) for t in traits]
    if args.traits:
        with open(args.traits, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)


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
        # an event that several traits propose is one proposal, in first-proposed order
        events = dict.fromkeys(e for trait in traits for e in learner.apply_trait(trait, q, lrn))
        for event in map(print_term, events):
            rep.emit("proposal", query=q.id, event=event, time=q.time)


def cmd_act(args, rep):
    doc = _load(args.file, args)
    traits = _load_traits(args.traits, doc)
    _apply_to_queries(doc, traits, _learner_agent(doc), rep)


def cmd_run(args, rep):
    doc = _load(args.file, args)
    tl, sweep, exemplars, traits, lrn = _learn_pipeline(doc)
    _emit_timeline(tl, rep)
    _emit_records(sweep, rep)
    for ex in exemplars:
        _emit_exemplar(ex, rep)
    for t in traits:
        _emit_trait(t, rep)
    if args.traits:
        traits = _load_traits(args.traits, doc)
    _apply_to_queries(doc, traits, lrn, rep)


_COMMANDS = {"check": cmd_check, "project": cmd_project, "utility": cmd_utility,
             "emotions": cmd_emotions, "infer": cmd_infer, "generalize": cmd_generalize,
             "learn": cmd_learn, "act": cmd_act, "run": cmd_run}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)  # every subcommand's arguments
    common.add_argument("file")
    for flag, kind in (("horizon", int), ("n", int), ("m", int), ("gamma", float), ("mode", str)):
        common.add_argument(f"--{flag}", type=kind, default=None)
    common.add_argument("--json", action="store_true")
    common.add_argument("--traits", default=None)
    parser = argparse.ArgumentParser(prog="vz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "act" and not args.traits:
        parser.error("act requires --traits PATH")
    for key in ("horizon",) + _OVERRIDES:
        if getattr(args, key) is not None:
            try:
                check_setting(key, getattr(args, key))
            except SourceError as exc:
                parser.error(f"argument --{key}: {exc.message}")
    rep = Report(args.json)
    try:
        _COMMANDS[args.command](args, rep)
        rep.flush(sys.stdout)  # inside, so that a failed write is an error like any other
    except SourceError as exc:
        print(f"{exc.path or args.file}:{exc}", file=sys.stderr)
        return 1
    except (VzError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
