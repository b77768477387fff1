import itertools

import pytest

from vz.errors import DepthExceeded, UnsupportedFragment
from vz.inference import (KnowledgeBase, _moments_of, _try_moment, entails0,
                          horn_closure, modal_depth, saturate)
from vz.terms import (ACTION, HAPPENS, MODAL_ARITY, And, Application, Atom,
                      Constant, FunctionSymbol, Iff, Implies, Modal, ModalOp,
                      Not, Or, Ought, Sort, Variable, moment)

from conftest import HONESTY, HUNGRY, JACK, JILL, TALKING_WITH

P = Atom(FunctionSymbol("p", (), Sort.BOOLEAN)())
Q = Atom(FunctionSymbol("q", (), Sort.BOOLEAN)())
R = Atom(FunctionSymbol("r", (), Sort.BOOLEAN)())
S = Atom(FunctionSymbol("s", (), Sort.BOOLEAN)())

WAVE = FunctionSymbol("wave", (), Sort.ACTION_TYPE)
DO_WAVE = Atom(Application(HAPPENS, (Application(ACTION, (JACK, WAVE())),
                                     moment(2))))


def K(a, t, f):
    return Modal(ModalOp.KNOWS, (a,), moment(t), f)


def B(a, t, f):
    return Modal(ModalOp.BELIEVES, (a,), moment(t), f)


def I(a, t, f):
    return Modal(ModalOp.INTENDS, (a,), moment(t), f)


def Pm(a, t, f):
    return Modal(ModalOp.PERCEIVES, (a,), moment(t), f)


class TestEntails0:
    def test_modus_ponens(self):
        assert entails0({P, Implies(P, Q)}, Q)

    def test_no_unsupported_conclusion(self):
        assert not entails0({P}, Q)

    def test_conjunction_query(self):
        assert entails0({P, Q}, And((P, Q)))
        assert not entails0({P}, And((P, Q)))

    def test_chained_rules(self):
        assert entails0({P, Implies(P, Q), Implies(And((P, Q)), R)}, R)

    def test_non_horn_rejected(self):
        with pytest.raises(UnsupportedFragment):
            entails0({Or((P, Q))}, P)
        with pytest.raises(UnsupportedFragment):
            entails0({Implies(Or((P, Q)), R)}, R)

    def test_negative_literal_fact(self):
        assert entails0({Not(P)}, Not(P))
        assert not entails0({Not(P)}, P)


class TestSaturate:
    def test_empty_fixpoint(self):
        assert saturate(KnowledgeBase.of([])).formulas == frozenset()

    def test_r4_knowledge_implies_truth(self):
        out = saturate(KnowledgeBase.of([K(JACK, 1, P)]))
        assert P in out.formulas

    def test_r14_obligation_to_known_intention(self):
        ought = Ought(JACK, moment(1), P, DO_WAVE)
        kb = KnowledgeBase.of([B(JACK, 1, P), B(JACK, 1, ought), ought])
        out = saturate(kb)
        assert K(JACK, 1, I(JACK, 1, DO_WAVE)) in out.formulas

    def test_r14_requires_believed_condition(self):
        ought = Ought(JACK, moment(1), P, DO_WAVE)
        out = saturate(KnowledgeBase.of([B(JACK, 1, ought), ought]))
        assert K(JACK, 1, I(JACK, 1, DO_WAVE)) not in out.formulas

    def test_rk_closure_under_consequence(self):
        kb = KnowledgeBase.of([K(JACK, 1, P), K(JACK, 1, Implies(P, Q))])
        out = saturate(kb)
        assert K(JACK, 1, Q) in out.formulas

    def test_rk_temporal_persistence(self):
        out = saturate(KnowledgeBase.of([K(JACK, 1, P)], horizon=3))
        for t in (1, 2, 3):
            assert K(JACK, t, P) in out.formulas
        assert K(JACK, 0, P) not in out.formulas

    def test_rb_does_not_imply_truth(self):
        out = saturate(KnowledgeBase.of([B(JACK, 1, P)]))
        assert P not in out.formulas

    def test_r13_intention_to_later_perception(self):
        out = saturate(KnowledgeBase.of([I(JACK, 1, P)], horizon=3))
        assert Pm(JACK, 2, P) in out.formulas
        assert Pm(JACK, 3, P) in out.formulas
        assert Pm(JACK, 1, P) not in out.formulas

    def test_depth_cap_respected(self):
        kb = KnowledgeBase.of([K(JACK, 1, P)], max_depth=1, horizon=1)
        out = saturate(kb)
        assert all(modal_depth(f) <= 1 for f in out.formulas)

    def test_input_exceeding_depth_rejected(self):
        deep = K(JACK, 1, K(JACK, 1, K(JACK, 1, K(JACK, 1, P))))
        with pytest.raises(DepthExceeded):
            saturate(KnowledgeBase.of([deep], max_depth=3))


def random_kb(rng):
    agents = [JACK, JILL]
    atoms = [P, Q, R, Atom(TALKING_WITH(JACK)), Atom(HONESTY())]

    def formula(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.35:
            return rng.choice(atoms)
        if roll < 0.5:
            a, b = rng.choice(atoms), rng.choice(atoms)
            return Implies(a, b)
        op = rng.choice([ModalOp.KNOWS, ModalOp.BELIEVES, ModalOp.INTENDS])
        return Modal(op, (rng.choice(agents),), moment(rng.randint(0, 3)),
                     formula(depth - 1))

    n = rng.randint(0, 5)
    fs = [formula(2) for _ in range(n)]
    if rng.random() < 0.4:
        ought = Ought(JACK, moment(rng.randint(0, 2)), rng.choice(atoms), DO_WAVE)
        fs.append(ought)
        if rng.random() < 0.7:
            fs.append(B(JACK, int(ought.time.name), ought))
            fs.append(B(JACK, int(ought.time.name), ought.condition))
    return KnowledgeBase.of(fs, max_depth=3, horizon=rng.choice([None, 2, 3]))


def test_saturate_monotone_and_idempotent(rng):
    for _ in range(200):
        kb = random_kb(rng)
        out = saturate(kb)
        assert kb.formulas <= out.formulas
        again = saturate(out)
        assert again.formulas == out.formulas


def test_saturate_keeps_horn_consequences_of_a_later_non_horn_group():
    """jill's group at 2 is Horn in round 0, so q is derived and persisted;
    R_4 then puts r or s into the same group, which from round 1 on carries
    only its bodies. What round 0 derived stays."""
    kb = KnowledgeBase.of([K(JILL, 2, P), K(JILL, 2, Implies(P, Q)),
                           K(JACK, 1, K(JILL, 2, Or((R, S))))], horizon=3)
    out = saturate(kb).formulas
    assert K(JILL, 2, Or((R, S))) in out
    assert K(JILL, 3, Or((R, S))) in out
    assert K(JILL, 2, Q) in out
    assert K(JILL, 3, Q) in out


def _naive_saturate(kb: KnowledgeBase) -> KnowledgeBase:
    """The naive saturation loop: every round re-derives every rule from
    the whole KB and emits each R_K/R_B group to every later moment."""
    for f in kb.formulas:
        if modal_depth(f) > kb.max_depth:
            raise DepthExceeded(f"input formula exceeds depth {kb.max_depth}: {f!r}")

    moments: set[int] = set()
    for f in kb.formulas:
        _moments_of(f, moments)
    if kb.horizon is not None:
        moments |= set(range(kb.horizon + 1))

    formulas = set(kb.formulas)

    def add(f):
        if f not in formulas and modal_depth(f) <= kb.max_depth:
            formulas.add(f)
            return True
        return False

    changed = True
    while changed:
        changed = False
        snapshot = list(formulas)

        for f in snapshot:
            if isinstance(f, Modal) and f.op is ModalOp.KNOWS:
                changed |= add(f.body)

        for op in (ModalOp.KNOWS, ModalOp.BELIEVES):
            groups: dict = {}
            for f in snapshot:
                if isinstance(f, Modal) and f.op is op:
                    t = _try_moment(f.time)
                    if t is not None:
                        groups.setdefault((f.agents, t), set()).add(f.body)
            for (agents, t1), gamma in groups.items():
                try:
                    derivable = set(horn_closure(gamma)) | gamma
                except UnsupportedFragment:
                    derivable = set(gamma)
                for t2 in sorted(m for m in moments if m >= t1):
                    for phi in derivable:
                        changed |= add(Modal(op, agents, moment(t2), phi))

        for f in snapshot:
            if isinstance(f, Modal) and f.op is ModalOp.INTENDS:
                t = _try_moment(f.time)
                if t is None:
                    continue
                for t2 in sorted(m for m in moments if m > t):
                    changed |= add(Modal(ModalOp.PERCEIVES, f.agents, moment(t2), f.body))

        for f in snapshot:
            if not isinstance(f, Ought):
                continue
            believed_cond = Modal(ModalOp.BELIEVES, (f.agent,), f.time, f.condition)
            believed_ought = Modal(ModalOp.BELIEVES, (f.agent,), f.time, f)
            if believed_cond in formulas and believed_ought in formulas:
                intent = Modal(ModalOp.INTENDS, (f.agent,), f.time, f.body)
                changed |= add(Modal(ModalOp.KNOWS, (f.agent,), f.time, intent))

    return KnowledgeBase(frozenset(formulas), kb.max_depth, kb.horizon)


TVAR = Variable("t", Sort.MOMENT)
_PERSISTENT = (ModalOp.KNOWS, ModalOp.BELIEVES)


def oracle_kb(rng):
    """A small KB over every modal operator at its arity, Horn and
    non-Horn bodies (or, iff, an implication with an or antecedent),
    modals nested over them, variable-time modals, and obligations with
    and without the two beliefs R_14 needs."""
    agents = [JACK, JILL]
    atoms = [P, Q, R, S, Not(Q)]
    ops = list(MODAL_ARITY)

    def time():
        return TVAR if rng.random() < 0.08 else moment(rng.randint(0, 3))

    # a few (op, agents, time) groups that many formulas share, so that a
    # group can gather a fact, a rule and, later, a non-Horn body
    shared = [(rng.choice(_PERSISTENT), (rng.choice(agents),), moment(rng.randint(0, 3)))
              for _ in range(2)]

    def modal(op, body):
        if op in _PERSISTENT and rng.random() < 0.6:
            op, who, t = rng.choice(shared)
            return Modal(op, who, t, body)
        who = tuple(rng.choice(agents) for _ in range(MODAL_ARITY[op]))
        return Modal(op, who, time(), body)

    def non_horn():
        return rng.choice([Or((rng.choice(atoms), rng.choice(atoms))),
                           Iff(rng.choice(atoms), rng.choice(atoms)),
                           Implies(Or((P, Q)), rng.choice(atoms))])

    def formula(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return rng.choice(atoms)
        if roll < 0.45:
            return Implies(rng.choice([P, Q, And((P, R))]), rng.choice(atoms))
        if roll < 0.57:
            return non_horn()
        if roll < 0.62:
            return And((rng.choice(atoms), formula(depth - 1)))
        op = rng.choice([ModalOp.KNOWS, ModalOp.BELIEVES] * 3 + ops)
        return modal(op, formula(depth - 1))

    fs = [formula(3) for _ in range(rng.randint(0, 7))]
    for op, who, t in shared:
        if rng.random() < 0.4:
            fs += [Modal(op, who, t, P), Modal(op, who, t, Implies(P, Q))]
        if rng.random() < 0.3:
            # R_4 puts a non-Horn body into the group one round later
            fs.append(modal(ModalOp.KNOWS, Modal(op, who, t, non_horn())))
    for _ in range(rng.choice([0, 0, 1, 2])):
        ought = Ought(rng.choice(agents), time(), rng.choice(atoms), DO_WAVE)
        fs.append(ought)
        for belief in (ought.condition, ought):
            roll = rng.random()
            if roll < 0.4:
                fs.append(Modal(ModalOp.BELIEVES, (ought.agent,), ought.time, belief))
            elif roll < 0.7:
                # reaches the obligation's moment by R_B persistence or R_4
                early = Modal(ModalOp.BELIEVES, (ought.agent,), moment(0), belief)
                fs.append(rng.choice([early, modal(ModalOp.KNOWS, early)]))
    return KnowledgeBase.of(fs, max_depth=rng.randint(0, 4),
                            horizon=rng.choice([None, None, 0, 2, 5]))


def test_saturate_matches_naive_rounds(rng):
    derived = 0
    for _ in range(2000):
        kb = oracle_kb(rng)
        try:
            expected = _naive_saturate(kb)
        except DepthExceeded:
            with pytest.raises(DepthExceeded):
                saturate(kb)
            continue
        out = saturate(kb)
        assert out == expected
        derived += len(out.formulas) - len(kb.formulas)
    assert derived > 0


def test_saturate_derives_nothing_deeper_than_its_input(rng):
    """Why saturate caps only its input: R_4 yields a body, R_13 a
    perception as deep as the intention, R_K/R_B op(agents, t, phi) for a
    phi inside a body already held under op, and R_14 K(I(happens ...)),
    no deeper than the B(ought ...) it needs. So at the tightest max-depth,
    where the naive loop's cap on every added formula would bind first,
    the two loops still agree."""
    derived = 0
    for _ in range(1000):
        kb = oracle_kb(rng)
        deepest = max(map(modal_depth, kb.formulas), default=0)
        kb = KnowledgeBase(kb.formulas, deepest, kb.horizon)
        out = saturate(kb)
        assert max(map(modal_depth, out.formulas), default=0) == deepest
        assert out == _naive_saturate(kb)
        derived += len(out.formulas) - len(kb.formulas)
    assert derived > 0


# ---------------------------------------------------------------------------
# Exhaustive truth-table soundness/completeness for positive Horn KBs.

ATOMS = [P, Q, R, S]
FACT_POOL = [P, Q, R]
RULE_POOL = [Implies(P, Q), Implies(Q, R), Implies(R, S),
             Implies(And((P, Q)), S), Implies(And((Q, S)), P)]


def classical_entails(kb, query_atoms_conj):
    """Truth-table check over the four atoms."""
    def truth(f, val):
        if isinstance(f, Atom):
            return val[f]
        if isinstance(f, And):
            return all(truth(p, val) for p in f.parts)
        if isinstance(f, Implies):
            return (not truth(f.lhs, val)) or truth(f.rhs, val)
        raise AssertionError(f)

    for bits in itertools.product([False, True], repeat=len(ATOMS)):
        val = dict(zip(ATOMS, bits))
        if all(truth(f, val) for f in kb):
            if not all(val[a] for a in query_atoms_conj):
                return False
    return True


def test_entails0_matches_truth_tables_exhaustively():
    """Every subset of a fixed fact/rule pool over 4 atoms; the ground
    Horn fragment makes entails0 sound and complete, so equality holds."""
    pool = FACT_POOL + RULE_POOL
    queries = [[a] for a in ATOMS] + [[P, R], [Q, S]]
    count = 0
    for mask in itertools.product([0, 1], repeat=len(pool)):
        kb = [f for f, m in zip(pool, mask) if m]
        for qs in queries:
            query = qs[0] if len(qs) == 1 else And(tuple(qs))
            assert entails0(kb, query) == classical_entails(kb, qs)
            count += 1
    assert count == 2 ** len(pool) * len(queries)
