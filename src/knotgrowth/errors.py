"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific one that applies.
"""


def refuse_assignment(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of the immutable records: the
    tuple records, and those whose ``__init__`` sets each field once
    through ``object.__setattr__``."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class KnotgrowthError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(KnotgrowthError, ValueError):
    """A caller-supplied parameter is malformed or out of range."""


class DomainError(KnotgrowthError, ValueError):
    """A value lies outside the domain an operation is defined on."""


class MoveError(KnotgrowthError, ValueError):
    """A diagram rewrite does not apply at the given site."""


# The closure's default cap on its word universe; here, beside the error
# that enforces it, so the CLI and growth read it without loading the closure.
DEFAULT_WORD_BUDGET = 5_000_000


class ResourceBudgetError(KnotgrowthError, RuntimeError):
    """An enumeration would exceed the configured word budget.  ``required``
    is the count, or its closed form as text past 4 300 digits."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"word universe needs {required} words but the budget is {budget}; "
            f"raise the budget to at least {required}"
        )


class InternalConsistencyError(KnotgrowthError, RuntimeError):
    """An invariant the implementation guarantees was violated; a bug."""
