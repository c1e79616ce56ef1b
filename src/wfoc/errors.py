"""Error taxonomy shared across the package.

HypothesisError signals a refused construction (a violated precondition,
named by a witness in its message) and maps to CLI exit code 1; any other
InputError maps to exit code 2.
"""


class InputError(ValueError):
    pass


class HypothesisError(InputError):
    pass
