"""Exception types shared across the package."""


class SiteTransportError(Exception):
    """Base class for all package-specific errors."""


# --- data validation ---

class MixedArityError(SiteTransportError):
    """Rows carry covariate vectors of differing lengths."""


class DegenerateSiteError(SiteTransportError):
    """A site has no treated or no control units and cannot be analyzed."""


class NonBinaryTreatmentError(SiteTransportError):
    """Treatment indicator is not 0 or 1."""


# --- feature maps and kernels ---

class EmptySampleError(SiteTransportError):
    """An operation requiring data received an empty sample."""


class UnfittedMapError(SiteTransportError):
    """A feature map was applied before being fitted."""


class DimensionMismatchError(SiteTransportError):
    """Vector or matrix dimensions are inconsistent."""


class AllPointsIdenticalError(SiteTransportError):
    """Bandwidth resolution failed: every point in the sample is identical."""


# --- QP solver ---

class NonConvexError(SiteTransportError):
    """The quadratic objective matrix has a significantly negative eigenvalue."""


# --- balancing ---

class ModeMismatchError(SiteTransportError):
    """Operation invoked in the wrong balancing mode (linear vs. kernel)."""


class SolverFailedError(SiteTransportError):
    """The QP solver did not return a usable solution."""


class AllZeroWeightsError(SiteTransportError):
    """Effective sample size is undefined for an all-zero weight vector."""


# --- estimators ---

class ConstraintViolationError(SiteTransportError):
    """Weights violate the per-arm sum constraints beyond tolerance."""


class InsufficientArmError(SiteTransportError):
    """An arm has too few units to fit the requested regression."""


class SeparableDataError(SiteTransportError):
    """Logistic regression diverged: the classes are (quasi-)separable."""


# --- heterogeneity ---

class ZeroBaselineError(SiteTransportError):
    """Pseudo-R^2 is undefined when the baseline heterogeneity scale is zero."""


# --- multisite orchestration ---

class AllSitesFailedError(SiteTransportError):
    """Every site failed during a multisite run."""


# --- CLI ---

class SchemaError(SiteTransportError):
    """An input file does not match the expected tabular schema."""


class ConfigError(SiteTransportError):
    """The run configuration is invalid."""
