"""In-process tracing of vz's layers from outside the program.

The tracer replaces public functions in the namespaces their callers
look them up in (for example `vz.emotions.nu_bar` is the binding the
sweep calls, separate from `vz.utility.nu_bar`) with wrappers that
record a span or bump a count, and restores every original afterwards.
Nothing under `src/` changes. Spans are kept in memory as
[name, start_ns, end_ns, parent index, invocation id] and written out
once, when the benchmark ends.
"""
from __future__ import annotations

import time
from collections import Counter

# The spans of report emission: formatting records and lines, and
# writing them out. cli.report_s is the time in these spans that no
# other of them encloses.
REPORT_SPANS = frozenset({"cli.emit", "cli.flush", "cli.emit_timeline", "cli.emit_exemplar",
                          "cli.emit_trait", "cli.print_term", "cli.print_formula",
                          "cli.print_record"})


def _bindings(vz):
    """(owner, attribute, span or count name, result hook) for every
    wrapped binding. A hook receives (tracer, args, result)."""
    cli, ec, emotions, learner = vz.cli, vz.ec, vz.emotions, vz.learner
    generalize, inference = vz.generalize, vz.inference

    def facts(tr, args, doc):
        tr.counts["scenario.facts"] += len(doc.facts)

    def timeline(tr, args, tl):
        tr.counts["ec.holds_pairs"] += len(tl.holds_set)
        tr.counts["ec.occurrences"] += len(tl.occurrences)

    def records(tr, args, out):
        tr.counts["emotions.records"] += len(out)

    def proposals(tr, args, out):
        tr.counts["learner.proposals"] += len(out)

    def derived(tr, args, kb):
        tr.counts["inference.derived"] += len(kb.formulas) - len(args[0].formulas)

    spans = [
        (cli.Report, "emit", "cli.emit", None),
        (cli.Report, "flush", "cli.flush", None),
        (cli, "_emit_timeline", "cli.emit_timeline", None),
        (cli, "_emit_exemplar", "cli.emit_exemplar", None),
        (cli, "_emit_trait", "cli.emit_trait", None),
        (cli, "print_term", "cli.print_term", None),
        (cli, "print_formula", "cli.print_formula", None),
        (emotions, "print_record", "cli.print_record", None),
        (cli, "parse_scenario", "scenario.parse", facts),
        (ec, "project", "ec.project", timeline),
        (emotions, "sweep_emotions", "emotions.sweep", records),
        (emotions, "nu_bar", "utility.nu_bar", None),
        (emotions, "mu_bar", "utility.mu_bar", None),
        (learner, "identify_exemplars", "learner.identify", None),
        (learner, "detect_trait", "learner.detect", None),
        (learner, "learn_trait", "learner.learn", None),
        (learner, "apply_trait", "learner.apply", proposals),
        (learner, "generalize_sets", "generalize.generalize_sets", None),
        (learner, "anti_unify", "generalize.anti_unify", None),
        (cli, "saturate", "inference.saturate", derived),
        (inference, "horn_closure", "inference.horn_closure", None),
        (learner, "horn_closure", "inference.horn_closure", None),
    ]
    counts = [
        (ec.Timeline, "occurrence", "ec.occurrence_lookups"),
        (learner, "check_consistency", "learner.consistency_checks"),
        (ec, "match", "subst.match_calls"),
        (generalize, "match", "subst.match_calls"),
        (learner, "match", "subst.match_calls"),
        (learner, "match", "learner.match_calls"),
        (ec, "apply_substitution", "subst.apply_calls"),
        (generalize, "apply_substitution", "subst.apply_calls"),
        (learner, "apply_substitution", "subst.apply_calls"),
    ]
    counts += [(emotions, name, "emotions.evaluations")
               for name in ("eval_joy", "eval_distress", "eval_happy_for",
                            "eval_occ_table_emotion", "eval_admiration")]
    return spans, counts


class Tracer:
    def __init__(self, vz):
        self.vz = vz
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.invocation = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self):
        spans, counts = _bindings(self.vz)
        for owner, attr, name, hook in spans:
            self._patch(owner, attr, lambda f, name=name, hook=hook: self._span(f, name, hook))
        for owner, attr, name in counts:
            self._patch(owner, attr, lambda f, name=name: self._count(f, name))
        # The command function is the root span; main() looks it up in
        # the _COMMANDS table.
        table = self.vz.cli._COMMANDS
        for cmd, fn in list(table.items()):
            self._patches.append((table, cmd, fn))
            table[cmd] = self._span(fn, "cli.command", None)

    def restore(self) -> bool:
        """Put every original binding back; True when each binding is
        again the object it was before install()."""
        originals = {}
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
            originals[(id(owner), attr)] = (owner, original)
        self._patches.clear()
        return all((owner[attr] if isinstance(owner, dict) else getattr(owner, attr)) is original
                   for (_, attr), (owner, original) in originals.items())

    def _span(self, fn, name, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.invocation]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts[name] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its child spans cover
    (children of one span never overlap: the client is single-threaded)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counts) -> dict:
    """Per-layer times (seconds) and counts of one traced invocation."""
    own = self_times(spans)
    total: Counter = Counter()
    self_by_layer: Counter = Counter()
    report = 0
    for (name, start, end, parent, _), mine in zip(spans, own):
        total[name] += end - start
        self_by_layer[name.split(".")[0]] += mine
        if name in REPORT_SPANS and (parent < 0 or spans[parent][0] not in REPORT_SPANS):
            report += end - start
    s = 1e-9
    evaluations = counts["emotions.evaluations"]
    matches = counts["learner.match_calls"]
    return {
        "scenario.parse_s": total["scenario.parse"] * s,
        "scenario.facts": counts["scenario.facts"],
        "ec.project_s": total["ec.project"] * s,
        "ec.holds_pairs": counts["ec.holds_pairs"],
        "ec.occurrences": counts["ec.occurrences"],
        "ec.occurrence_lookups": counts["ec.occurrence_lookups"],
        "utility.nu_bar_calls": counts["utility.nu_bar"],
        "utility.mu_bar_calls": counts["utility.mu_bar"],
        "utility.self_s": self_by_layer["utility"] * s,
        "emotions.sweep_s": total["emotions.sweep"] * s,
        "emotions.self_s": self_by_layer["emotions"] * s,
        "emotions.evaluations": evaluations,
        "emotions.records": counts["emotions.records"],
        "emotions.records_per_eval": counts["emotions.records"] / evaluations if evaluations else 0.0,
        "learner.identify_s": total["learner.identify"] * s,
        "learner.detect_s": total["learner.detect"] * s,
        "learner.learn_s": total["learner.learn"] * s,
        "learner.apply_s": total["learner.apply"] * s,
        "learner.consistency_checks": counts["learner.consistency_checks"],
        "learner.proposals": counts["learner.proposals"],
        "learner.proposals_per_match": counts["learner.proposals"] / matches if matches else 0.0,
        "generalize.generalize_sets_s": total["generalize.generalize_sets"] * s,
        "generalize.anti_unify_s": total["generalize.anti_unify"] * s,
        "generalize.calls": counts["generalize.generalize_sets"] + counts["generalize.anti_unify"],
        "subst.match_calls": counts["subst.match_calls"],
        "subst.apply_calls": counts["subst.apply_calls"],
        "inference.saturate_s": total["inference.saturate"] * s,
        "inference.horn_closure_calls": counts["inference.horn_closure"],
        "inference.horn_closure_s": total["inference.horn_closure"] * s,
        "inference.derived": counts["inference.derived"],
        "cli.report_s": report * s,
    }
