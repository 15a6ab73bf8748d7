"""Exception types shared across the package."""


class DomainError(ValueError):
    """A point lies outside the chart domain of a model."""


class TubularZoneError(ValueError):
    """An operation restricted to the tubular collar was called outside it."""


class IntegrationError(RuntimeError):
    """A time stepper could not complete a step (guard exhaustion, etc.).

    Carries, where known, the grid node, the penalization parameter ``a``,
    the batch row of the first failing path and that path's boundary
    distance at the start of the failing (sub-)step; the message names them.
    """

    def __init__(self, message, node_index=None, a=None, path_index=None, boundary_distance=None):
        self.node_index = node_index
        self.a = a
        self.path_index = path_index
        self.boundary_distance = boundary_distance
        fields = (("node", node_index), ("a", a), ("path", path_index), ("R", boundary_distance))
        context = ", ".join(f"{name}={value!r}" for name, value in fields if value is not None)
        super().__init__(f"{message} ({context})" if context else message)


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested accuracy."""
