"""Exception types raised across the package."""


class TaylorDpError(Exception):
    """Base class for all package errors."""


class ZeroInteriorMass(TaylorDpError):
    """A transition row places all of its mass outside the lattice."""

    def __init__(self, state, action=None):
        self.state = state
        self.action = action
        super().__init__(f"row at state {state} (action {action!r}) has no mass inside the lattice")


class EmptyActionSet(TaylorDpError):
    """A state has no feasible action."""

    def __init__(self, state):
        self.state = state
        super().__init__(f"no feasible action at state {state}")


class SingularSystem(TaylorDpError):
    """The policy-evaluation linear system could not be solved.

    Cannot occur for a stochastic kernel with discount < 1; signals a
    malformed kernel (rows not summing to one, or discount-1 cycles).
    """


class MaxIterationsExceeded(TaylorDpError):
    def __init__(self, iterations, what="iteration"):
        self.iterations = iterations
        super().__init__(f"{what} did not converge within {iterations} iterations")


class NonInwardEta(TaylorDpError):
    """A first-order (FOT) boundary drift does not point into the domain at a grid point."""

    def __init__(self, state, drift):
        self.state = state
        self.drift = drift
        super().__init__(f"FOT boundary drift {drift} does not point inward at boundary state "
                         f"{state}")


class InsufficientNeighborhood(TaylorDpError):
    """Seminorm estimation radius is smaller than the grid spacing."""


class OutOfStencilRange(TaylorDpError):
    """A finite-difference stencil was requested too close to the grid edge."""


class LatticeMismatch(TaylorDpError):
    """Two artifacts being compared live on different lattices or action sets."""


class InfeasibleAction(TaylorDpError):
    """An action outside the feasible set was passed to a kernel.

    state is a lattice state (a tuple) or, where only the flat state axis is
    known, a state index (an int), and the message says which.
    """

    def __init__(self, state, action):
        self.state = state
        self.action = action
        where = f"state index {state}" if isinstance(state, int) else f"state {state}"
        super().__init__(f"action {action!r} infeasible at {where}")
