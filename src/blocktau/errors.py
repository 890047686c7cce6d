"""Exception types shared across the package.

Every failure mode that callers may want to catch has its own class; all of
them derive from BlocktauError so `except BlocktauError` catches anything
raised deliberately by this package.
"""


class BlocktauError(Exception):
    """Base class for all deliberate failures raised by blocktau."""


class DegenerateInput(BlocktauError):
    """Input parameters are degenerate (repeated roots, zero modulus, ...)."""


class SingularVandermonde(BlocktauError):
    """Evaluation points coincide, so the Vandermonde system is singular."""


class AliasError(BlocktauError):
    """Sample grid is too coarse for the requested Fourier band."""


class NearSingularSymbol(BlocktauError):
    """Matrix symbol is numerically singular at some sample point."""


class WindingUndefined(BlocktauError):
    """det of the symbol vanishes (or nearly) somewhere on the circle."""


class BranchError(BlocktauError):
    """A continuous logarithm could not be tracked around the circle."""


class TruncationError(BlocktauError):
    """Requested band cannot hold the result to the required accuracy."""


class QuadratureError(BlocktauError):
    """Contour quadrature failed to reach the required accuracy."""


class ConvergenceError(BlocktauError):
    """An iterative refinement loop exhausted its budget before converging."""


class HypothesisError(BlocktauError):
    """A theorem's hypothesis (winding number, finite norm, ...) fails."""


class SpecError(BlocktauError):
    """A symbol/curve specification violates its structural constraints."""


class FactorizationError(BlocktauError):
    """Wiener-Hopf factorization failed (singular system or bad residual)."""


class BranchMatchError(BlocktauError):
    """Eigenvalue-to-branch matching is ambiguous at some sample point."""
