"""Exception types shared across the package.

Names mirror the failure they report rather than the module that raises
them, so callers can catch one class regardless of where a check lives.
"""


class RigidityCertError(Exception):
    """Base class for all package errors."""


# kinematics / tensor algebra

class DimensionMismatch(RigidityCertError):
    """Operands have incompatible or unsupported shapes."""


class DeterminantViolation(RigidityCertError):
    """A deformation gradient has non-positive determinant: one matrix, or
    one of a stack (quadrature points, lattice cells, evaluation points)."""


class Singular(RigidityCertError):
    """A matrix is singular or too ill-conditioned to factor reliably."""


# grid fields and cube families

class EmptyDomain(RigidityCertError):
    """A grid field or mesh covers no cells."""


class DegenerateFamily(RigidityCertError):
    """A fitting family carries no information (all members vanish)."""


class BadExponents(RigidityCertError):
    """Integrability exponents violate 1 <= p < q."""


class CubeOverflow(RigidityCertError):
    """A cube mean, oscillation or average overflows float64."""


# constitutive models

class SetEscapesDomain(RigidityCertError):
    """A matrix neighborhood of the Taylor bounds reaches det F <= 0."""


# finite elements

class NewtonStopped(RigidityCertError):
    """Newton stopped short of its tolerance; log is its SolveLog so far."""

    def __init__(self, message, log):
        super().__init__(message)
        self.log = log


class LineSearchStall(NewtonStopped):
    """Backtracking reduced the step below the stall floor."""


class MaxIterations(NewtonStopped):
    """Newton failed to converge within the iteration budget."""


class SingularTangent(RigidityCertError):
    """The tangent stiffness could not be factored."""


class EigenFailure(RigidityCertError):
    """A generalized eigensolve did not converge."""


# rigidity measurements

class DegenerateMean(RigidityCertError):
    """Mean gradient has non-positive determinant, no rotation fit exists."""


class BoundaryMismatch(RigidityCertError):
    """Two fields expected to share boundary values do not."""


# certification

class NonPositiveK(RigidityCertError):
    """Coercivity constant is not positive, no neighborhood radius exists."""


class AssertionViolated(RigidityCertError):
    """Gate conditions held but the certified conclusion failed.

    This is the loud failure mode: it means a claimed sufficient
    condition did not deliver, and must never be downgraded.
    """


class HypothesisUnmet(RigidityCertError):
    """A structural hypothesis (stress-free reference, positivity) fails."""


class PrerequisiteFailed(RigidityCertError):
    """An earlier pipeline stage this result depends on did not pass."""


class NotEquilibrium(PrerequisiteFailed):
    """A state expected to be an equilibrium has a large residual."""


# configuration push-forward

class NotInjective(RigidityCertError):
    """A deformation fails the injectivity checks."""


class DegenerateNormal(RigidityCertError):
    """Transformed facet normal has near-zero length."""


# command line

class ConfigError(RigidityCertError):
    """A scenario file is malformed or inconsistent."""
