"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
InputError for anything a caller could have passed differently and
NumericalError for iteration/convergence failures.
"""


class InputError(ValueError):
    """Invalid input: bad matrix, malformed file, out-of-range parameter."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced unusable output."""
