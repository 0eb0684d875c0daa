"""Exception types shared across the package.

Input and validation problems derive from InputError, failed numerical
processes from SolverError.  The command line maps InputError to exit
code 2 and SolverError to exit code 3.
"""


class CorrpressError(Exception):
    pass


class InputError(CorrpressError):
    """Malformed or inconsistent input data."""


class SolverError(CorrpressError):
    """An iterative procedure failed to reach its target."""


class EmptySuccessor(InputError):
    """States with no successor: the first LISTED of them and their count."""

    LISTED = 20

    def __init__(self, states, count):
        self.states = list(states)[:self.LISTED]
        self.count = count
        more = count - len(self.states)
        super().__init__(f"states with no successor: {self.states}"
                         + (f" and {more} more" if more > 0 else ""))


class DuplicateEdge(InputError):
    def __init__(self, pairs):
        self.pairs = list(pairs)
        super().__init__(f"duplicate edges: {self.pairs}")


class IndexOutOfRange(InputError):
    def __init__(self, pairs, n_states):
        self.pairs = list(pairs)
        self.n_states = n_states
        super().__init__(
            f"edges outside 0..{n_states - 1}: {self.pairs}")


class NotSurjective(InputError):
    def __init__(self, states):
        self.states = list(states)
        super().__init__(f"states with no incoming edge: {self.states}")


class NotBijective(InputError):
    pass


class InvalidPath(InputError):
    def __init__(self, position, edge):
        self.position = position
        self.edge = edge
        super().__init__(f"pair {edge} at position {position} is not an edge")


class InvalidDecomposition(InputError):
    pass


class ShapeMismatch(InputError):
    pass


class TooLarge(InputError):
    pass


class NotStationary(InputError):
    def __init__(self, gap):
        self.gap = gap
        super().__init__(f"measure is not stationary for the kernel (gap {gap:.3e})")


class ModeUnsupported(InputError):
    pass


class NotInvariant(InputError):
    """Raised when an operation requires an invariant measure and the check fails."""

    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"measure is not invariant (witness subset {witness})")


class NotAFunctionOnBlock(InputError):
    def __init__(self, state, successors):
        self.state = state
        self.successors = successors
        super().__init__(
            f"state {state} has {len(successors)} block successors, expected 1")


class NotInvariantOnBlock(InputError):
    pass


class MisalignedBreakpoints(InputError):
    def __init__(self, points, resolution):
        self.points = list(points)
        self.resolution = resolution
        super().__init__(
            f"breakpoints not multiples of 1/{resolution}: {self.points}")


class DegenerateCell(InputError):
    pass


class NotMarkov(InputError):
    pass


class OutOfDomain(InputError):
    def __init__(self, x, lo, hi):
        self.x = x
        super().__init__(f"point {x} outside domain [{lo}, {hi}]")


class ConvergenceFailure(SolverError):
    def __init__(self, iterations, residual=None):
        self.iterations = iterations
        self.residual = residual
        msg = f"no convergence after {iterations} iterations"
        if residual is not None:
            msg += f" (residual {residual:.3e})"
        super().__init__(msg)


class ScalingDiverged(SolverError):
    pass


class MinusInfinitePressure(InputError):
    """The pressure is -inf, so it has no equilibrium state or tangent."""

    def __init__(self):
        super().__init__("the pressure is -inf: every cycle has an edge of "
                         "weight -inf, so there is no equilibrium state and "
                         "no tangent functional")


class NonUniqueDominantClass(CorrpressError):
    def __init__(self, classes):
        self.classes = [tuple(c) for c in classes]
        super().__init__(
            f"{len(self.classes)} spectral classes tie for the maximum")
