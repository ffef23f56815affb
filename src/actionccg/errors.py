"""Error and warning types shared across the package."""

from __future__ import annotations


class ActionCCGError(Exception):
    """Base class for every error this package raises deliberately.

    ``path`` and ``line`` name the data file record that raised it, once a
    loader has attached them with ``located``.
    """

    path: str | None = None
    line: int | None = None

    def located(self, path, line: int) -> "ActionCCGError":
        """This error, its message now prefixed with ``path, line N:``."""
        self.path, self.line = str(path), line
        self.args = (f"{path}, line {line}: {self}",)
        return self


class SourceSyntaxError(ActionCCGError):
    """Malformed text in a term, category, rule, or data file.

    ``offset`` is a 0-based character offset into the offending string.
    """

    def __init__(self, message: str, *, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class NonTerminationError(ActionCCGError):
    """Beta reduction exceeded its step budget."""


class UnknownTokenError(ActionCCGError):
    """One or more tokens have no lexicon entry."""

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        super().__init__("unknown tokens: " + ", ".join(self.tokens))


class NoParseError(ActionCCGError):
    """No full-span derivation with the goal category exists."""

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        super().__init__("no parse for: " + " ".join(self.tokens))


class InductionFailureError(ActionCCGError):
    """A candidate lexical entry did not reproduce its training annotation."""


class DegenerateCorpusError(ActionCCGError):
    """Every training sample was skipped; there is nothing to optimize."""


class MalformedEventError(ActionCCGError):
    """A logical form is not a ground event the fact base can ingest."""


class BudgetExceededError(ActionCCGError):
    """Forward chaining derived more literals than the configured cap."""


class RangeRestrictionError(ActionCCGError):
    """A rule head uses a variable that no body literal binds."""


class ArityConflictError(ActionCCGError):
    """The same predicate name was used with two different arities."""


class NonFiniteWeightError(ActionCCGError):
    """A lexicon weight is infinite or NaN."""


class InvalidConfigError(ActionCCGError):
    """A setting is outside the range it allows."""


class DuplicateEntryWarning(UserWarning):
    """Two lexicon entries for one token share category and semantics."""


class ConstantFunctionWarning(UserWarning):
    """Inverse abstraction found no occurrence of the argument."""


class SkippedSampleWarning(UserWarning):
    """A training sample could not be parsed to its annotation."""
