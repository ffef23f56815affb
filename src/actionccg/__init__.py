"""Semantic parsing and consequence reasoning for manipulation actions.

Detector triplets such as ``Knife Cut Cucumber`` parse, under a small
categorial grammar with lambda-calculus semantics, into logical forms
like ``cut(knife,cucumber) -> divided(cucumber)``.  Action entries are
induced from annotated triplets and weighted by a log-linear model;
parsed events feed a fact base that forward-chains domain rules to
expose consequences no detector reported.
"""

from .chart import Derivation, ParseResult, argmax_parse, parse_all, parse_probability
from .errors import (ActionCCGError, ArityConflictError, BudgetExceededError,
                     ConstantFunctionWarning, DegenerateCorpusError,
                     DuplicateEntryWarning, InductionFailureError,
                     InvalidConfigError, MalformedEventError, NoParseError,
                     NonFiniteWeightError, NonTerminationError,
                     RangeRestrictionError,
                     SkippedSampleWarning,
                     SourceSyntaxError, UnknownTokenError)
from .grammar import (Atom, Backward, Category, Forward, LexEntry, Lexicon,
                      apply_argument, combine, parse_category, render_category,
                      unary_project)
from .corpus import (SequenceFile, data_path, load_axioms, load_corpus,
                     load_gold, load_lexicon, load_sequence, save_corpus,
                     save_lexicon, synthesize_corpus)
from .learning import (TrainConfig, TrainingSample, induce_corpus_entries,
                       fit, induce_entries, inject_templates, log_likelihood,
                       train)
from .reasoning import (AxiomRule, ConsequenceReport, FactBase, Literal,
                        assert_event, forward_chain, parse_axiom,
                        parse_literal, report)
from .syntax import parse_term
from .terms import (And, App, Const, Exists, Forall, Implies, Lam, Not, Or,
                    Pred, Term, Var, alpha_eq, beta_reduce, canonical,
                    free_vars, inverse_lambda, is_beta_normal, render,
                    substitute)

__version__ = "0.1.0"
