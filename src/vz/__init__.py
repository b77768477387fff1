"""Symbolic engine for event-calculus scenarios, utility-based emotion
fluents, and trait learning by anti-unification."""

from .ec import Occurrence, Timeline, effects, project
from .emotions import (EmotionKind, EmotionRecord, Theta, World,
                       eval_admiration, eval_distress, eval_happy_for,
                       eval_joy, eval_occ_table_emotion, sweep_emotions,
                       world_from_doc)
from .generalize import (FIRST_ORDER, HIGHER_ORDER, Generalization,
                         SetGeneralization, anti_unify, generalize_sets)
from .inference import KnowledgeBase, entails0, saturate
from .learner import (ExemplarRecord, LearntTrait, Situation, TraitCriteria,
                      apply_trait, check_consistency, detect_trait,
                      identify_exemplars, learn_trait)
from .printer import print_formula, print_term
from .scenario import ScenarioDoc, parse_scenario
from .subst import Substitution, apply_substitution, match
from .terms import (Application, Atom, Constant, Formula, FunctionSymbol,
                    Sort, Term, Variable, alpha_equal, sort_of)
from .utility import NuTable, mu, mu_bar, nu_bar

__version__ = "0.1.0"
