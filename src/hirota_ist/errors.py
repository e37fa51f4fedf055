"""Exception and warning types shared across the toolkit."""


class HirotaError(Exception):
    """Base class for all toolkit errors."""


class SingularMatrix(HirotaError):
    """Matrix determinant below the singularity threshold."""


class ZeroArgument(HirotaError):
    """Spectral-plane map evaluated at (or too close to) z = 0."""


class BranchPointSingular(HirotaError):
    """Operation requested at (or too close to) a branch point where gamma = 0."""


class IntegrationFailure(HirotaError):
    """Jost propagation met a non-finite field sample or propagator."""


class NoBackground(HirotaError):
    """The field's far-left sample fails Q Q^dag = k0^2 I: it does not settle on a background."""


class SingularWronskian(HirotaError):
    """Jost matrix at the matching point is numerically singular."""


class MissingPartner(HirotaError):
    """A symmetry audit needs a sample at z* or sigma*k0^2/z that is absent."""


class DefocusingUnsupported(HirotaError):
    """Soliton construction requested in the defocusing (sigma = +1) regime."""


class EigenvalueTooCloseToSigma(HirotaError):
    """Seed eigenvalue too close to the real axis; the pole structure degenerates."""


class EigenvalueRegionError(HirotaError):
    """Seed eigenvalue violates the admissible-region precondition."""


class NoSeeds(HirotaError):
    """A soliton spec built from an empty seed list."""


class DuplicateEigenvalue(HirotaError):
    """Two quartet-expanded eigenvalues coincide within tolerance."""


class PoleCollision(HirotaError):
    """Two pole locations of the reflectionless system coincide."""


class SingularSystem(HirotaError):
    """Reflectionless linear system is numerically singular (kappa_inf above 1e12, `solitons.COND_LIMIT`)."""


class PoleHit(HirotaError):
    """Trace-formula product evaluated at one of its pole locations."""


class UnknownPreset(HirotaError):
    """Requested preset name is not in the table."""


class NoConvergenceWarning(UserWarning):
    """A zero search or the Jost truncation did not converge cleanly; reported, not fatal."""
