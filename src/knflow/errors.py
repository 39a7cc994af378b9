"""Exception types shared across the library.

Every error raised by knflow derives from :class:`KNFlowError`, so callers
can catch the whole family at once.  Check *failures* (an inequality that
does not hold) are never exceptions; they are reported through report
objects.  Exceptions mean the computation itself could not be carried out.
"""


class KNFlowError(Exception):
    """Base class for all knflow errors."""


class NanError(KNFlowError):
    """A NaN appeared where a value in [-inf, +inf] was required."""


class ConfigInvalid(KNFlowError):
    """Experiment configuration failed schema validation."""


# -- coefficient kernels -----------------------------------------------------

class NegativeTheta(KNFlowError):
    """Kernel argument theta must be >= 0."""


class ParamOutOfRange(KNFlowError):
    """Scalar parameter outside its documented range."""


class SingularTheta(KNFlowError):
    """theta lies in the singular regime where the ratio coefficient is +inf."""


# -- spaces ------------------------------------------------------------------

class PointOutsideSpace(KNFlowError):
    """Point does not belong to the model space."""


# -- functionals -------------------------------------------------------------

class BasePointOutsideDomain(KNFlowError):
    """Base point has infinite value; the operation needs a finite one."""


class IncompatibleSign(KNFlowError):
    """Closed-form example incompatible with the sign of the parameters."""


class ExpressionError(ConfigInvalid):
    """Malformed or disallowed functional expression."""


# -- convexity checkers ------------------------------------------------------

class EmptyDomain(KNFlowError):
    """No sampling region with finite values could be constructed."""


class BadBracket(KNFlowError):
    """Interval endpoints are not strictly ordered."""


class UnboundedAbove(KNFlowError):
    """A finite upper bound is required but +inf was supplied."""


# -- flows ---------------------------------------------------------------------

class NoOracle(KNFlowError):
    """No closed-form flow registered under this name / parameter signs."""


class BlowUp(KNFlowError):
    """A flow solver gave up: an ODE solve or an R^n proximal step at its limit."""


class NotBoundedBelow(KNFlowError):
    """Proximal objective diverges to -inf along the search."""


# -- reparametrization ---------------------------------------------------------

class NotInCPrime(KNFlowError):
    """Curve energy is not non-increasing; forward time change undefined."""


class NotInCsecondN(KNFlowError):
    """Integral of the exponential transform diverges; inverse time change undefined."""


class DivergentIntegrand(KNFlowError):
    """1/f_N blows up inside the integration window."""


# -- analysis ------------------------------------------------------------------

class StepUnderflow(KNFlowError):
    """Difference step fell below the configured minimum."""


class TooFewSamples(KNFlowError):
    """Operation needs more curve samples than provided."""


class DisjointWindows(KNFlowError):
    """The two curves share no time window."""


class KZero(KNFlowError):
    """Operation requires K != 0."""


class PointOutsideDomain(KNFlowError):
    """Point is outside the finiteness domain of the functional."""


# -- CLI -----------------------------------------------------------------------

class IoError(KNFlowError):
    """Reading or writing an artifact file failed."""
