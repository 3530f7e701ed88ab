"""Exceptions shared across the package."""


class InputError(ValueError):
    """Malformed user input: unknown generators, bad files, bad matrices."""


class BudgetError(RuntimeError):
    """A search or enumeration exceeded its configured budget.

    Raised instead of ever returning a possibly-wrong answer.  The CLI maps
    this to exit code 2.
    """

    @classmethod
    def exceeded(cls, counter, value, budget):
        """The error of a search whose counter passed its budget;
        ``counter`` names the search and what it counts, as in
        ``build_delta tuples``."""
        return cls("%s %d > budget %d" % (counter, value, budget))
