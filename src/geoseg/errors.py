"""Exception hierarchy for the geoseg pipeline.

All errors that bad input or settings can raise derive from GeosegError,
so the CLI maps them to exit code 2 (input/validation error) in one place;
any other exception is a geoseg bug and exits 3.
"""


class GeosegError(Exception):
    """Base class for all geoseg errors."""


class InvalidValue(GeosegError, ValueError):
    """A setting or value outside its domain, such as a non-finite price or
    a non-positive radius. Also a ValueError, for callers that catch the
    built-in one."""


# -- statistics ------------------------------------------------------------

class ZeroVariance(GeosegError):
    """A correlation input is constant."""


class LengthMismatch(GeosegError):
    """Paired sequences have different lengths."""


class TooFewSamples(GeosegError):
    """Fewer than 3 paired samples; Pearson correlation undefined."""


# -- ingest ----------------------------------------------------------------

class MalformedRow(GeosegError):
    def __init__(self, path, line_no, reason):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class DuplicateSchoolId(GeosegError):
    """Same school id appears twice in the schools file."""


class CoordinateOutOfRange(GeosegError):
    """Latitude or longitude outside valid range, or not finite."""


class NonPositiveArea(GeosegError):
    """Apartment row with area <= 0."""


class EmptyResult(GeosegError):
    """Filtering removed every school."""


# -- geometry / networks ---------------------------------------------------

class TooFewSchools(GeosegError):
    """Distance matrix needs at least 2 schools."""


class KOutOfRange(GeosegError):
    """Neighbor count k outside [1, n-1]."""


class UnknownSchoolId(GeosegError):
    """Student assigned to a school missing from the roster."""


class MismatchedIds(GeosegError):
    """Roster, network or distance matrix list other schools, or in another order."""


class InsufficientNeighbors(GeosegError):
    """School has fewer connected schools than the requested k."""


# -- decay fit -------------------------------------------------------------

class TooFewBins(GeosegError):
    """Fewer than 3 bins eligible for the power-law fit."""


class DegenerateFit(GeosegError):
    """All eligible bin midpoints coincide; slope undefined."""


# -- null model ------------------------------------------------------------

class DegenerateNull(GeosegError):
    """More than half of null simulations were discarded."""


# -- synth -----------------------------------------------------------------

class InvalidConfig(GeosegError):
    """Synthetic-city configuration violates its constraints."""
