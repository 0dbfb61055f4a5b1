"""Exception types shared across the package."""


class HermitiaError(Exception):
    """Base class for all errors raised by this package."""


class NoAdjoint(HermitiaError):
    """The map does not carry the kernel of the domain form into the kernel
    of the codomain form, so no adjoint exists."""


class NotSurjective(HermitiaError):
    """A quotient map was expected to have full row rank but does not."""


class NotPositive(HermitiaError):
    """A form that must be positive (semi)definite is not."""


class OutOfDomain(HermitiaError):
    """A chart point, or a finite-difference stencil around it, leaves the
    domain polydisc of a field."""


class RankJump(HermitiaError):
    """The pointwise rank of a Gram field changes across the stencil
    neighborhood, so constant-rank constructions do not apply."""


class SolverResidual(HermitiaError):
    """The connection equation G * A = dG has no solution to within the
    solver tolerance; the field is not admissible on this chart."""


class NotPositiveAtPoint(HermitiaError):
    """A metric field fails positive-definiteness at the evaluation point."""


class ZeroVector(HermitiaError):
    """A direction argument is zero (or has zero length under the form)."""


class NotHolomorphic(HermitiaError):
    """A map expected to be holomorphic has a nonzero antiholomorphic
    derivative."""


class ConfigError(HermitiaError):
    """Invalid run configuration (bad model id, malformed flag, ...)."""


class NonFinite(HermitiaError):
    """An evaluator returned NaN or inf: a Gram matrix, or the first or
    mixed second derivatives assembled at a point."""
