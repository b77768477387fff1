"""Batch command-line front end.

Every subcommand reads scenario files in the s-expression DSL and
writes a deterministic text report (or line-delimited JSON with
--json). Exit codes: 0 success, 1 scenario error, 2 usage error.
"""
from __future__ import annotations

import gc
import getopt
import math
import sys
from types import SimpleNamespace

from .errors import (Incompatible, NoAlignment, ParseError, SourceError, UnboundActionVariable,
                     VzError)
from .printer import print_formula, print_real, print_term
from .scenario import check_setting, parse_scenario
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


def _read(path: str) -> str:
    """The text of a UTF-8 file, its newlines read as open() reads them; a
    byte that is not UTF-8 is a ParseError at the line and column it starts."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:  # from the one read, whose input was the whole file
        head = exc.object[:exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        err = ParseError(f"not UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})")
        err.line, err.col, err.path = head.count("\n") + 1, len(head) - head.rfind("\n"), path
        raise err from None


def _load(path: str, args):
    doc = parse_scenario(_read(path), args.horizon)
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
    exemplars = learner.identify_exemplars(sweep, lrn, config["n"])
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


def _emit_trait(trait, rep):
    from .traits import print_trait
    rep.emit("trait", trait=print_trait(trait))


def cmd_learn(args, rep):
    doc = _load(args.file, args)
    _, _, exemplars, traits, _ = _learn_pipeline(doc)
    if args.traits:
        from .traits import print_trait
        with open(args.traits, "w", encoding="utf-8") as fh:
            fh.writelines(print_trait(t) + "\n" for t in traits)
    for ex in exemplars:
        _emit_exemplar(ex, rep)
    for t in traits:
        _emit_trait(t, rep)


def _load_traits(path: str, doc) -> list:
    from .traits import parse_traits
    text = _read(path)
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


# Every command's options, as getopt reads them: a long option with "=" takes a value.
_LONG = ["help", "json", "horizon=", "n=", "m=", "gamma=", "mode=", "traits="]
_TYPES = {"horizon": int, "n": int, "m": int, "gamma": float}  # the others are str
_USAGE = (f"usage: vz {{{','.join(_COMMANDS)}}} FILE [--horizon H] [--n N] [--m M]"
          " [--gamma G] [--mode {fo,ho}] [--json] [--traits PATH]")


class Parser:
    """vz's command line, COMMAND FILE, read with getopt: the options may
    stand anywhere among them, a long option may be a unique prefix of its
    name, --key=value is --key value, and -- ends the options."""

    def parse_args(self, argv=None) -> SimpleNamespace:
        try:
            opts, positional = getopt.gnu_getopt(sys.argv[1:] if argv is None else argv,
                                                 "h", _LONG)
        except getopt.GetoptError as exc:
            self.error(exc.msg)
        if ("-h", "") in opts or ("--help", "") in opts:
            print(_USAGE, "", __doc__.strip(), sep="\n")
            sys.exit(0)
        if not positional or positional[0] not in _COMMANDS:
            got = f", not {positional[0]!r}" if positional else ""
            self.error(f"the command is one of {', '.join(_COMMANDS)}{got}")
        if len(positional) != 2:
            self.error("the command takes one FILE" if len(positional) == 1 else
                       f"unrecognized arguments: {' '.join(positional[2:])}")
        args = SimpleNamespace(command=positional[0], file=positional[1], json=False,
                               horizon=None, n=None, m=None, gamma=None, mode=None, traits=None)
        for opt, value in opts:  # a repeated option's last value wins
            key = opt[2:]
            if key in _TYPES:
                try:
                    value = _TYPES[key](value)
                except ValueError:
                    self.error(f"argument {opt}: invalid {_TYPES[key].__name__} value: {value!r}")
            setattr(args, key, True if key == "json" else value)
        return args

    def error(self, message):
        """A usage error: the usage line and message on stderr, then exit 2."""
        print(_USAGE, f"vz: error: {message}", sep="\n", file=sys.stderr)
        sys.exit(2)


def build_parser() -> Parser:
    return Parser()


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


def program():
    """The `vz` process: main on sys.argv with the cyclic collector off, then
    exit. A run makes no reference cycle, so the collector would walk every
    interned term and find nothing; freezing what is left before exit spares
    the interpreter's last collections that walk too. main itself leaves the
    collector as it finds it, for callers in the same process."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    program()
