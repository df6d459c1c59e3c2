"""Exception classes shared across the package."""


class ParameterError(ValueError):
    """A numeric parameter is outside its legal range."""


class InfeasibleTargetError(ValueError):
    """The parameter solver cannot reach the requested security targets."""


class AttackImpossibleError(RuntimeError):
    """The attack has no legal move on this transcript (e.g. no flippable slot)."""
