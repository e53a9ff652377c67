"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ManifestError(ReproError):
    """A manifest could not be rendered or parsed."""


class ManifestParseError(ManifestError):
    """A manifest document is syntactically or semantically invalid."""


class ProtocolDetectionError(ReproError):
    """A URL could not be mapped to a streaming protocol (Table 1)."""


class PackagingError(ReproError):
    """The packaging pipeline was misconfigured or failed."""


class LadderError(ReproError):
    """A bitrate ladder violates its invariants."""


class DatasetError(ReproError):
    """A telemetry dataset could not be loaded, saved, or validated."""


class CalibrationError(ReproError):
    """Ecosystem-generator calibration parameters are inconsistent."""


class DeliveryError(ReproError):
    """CDN/origin/edge delivery model failure."""


class PlaybackError(ReproError):
    """Playback-session simulation failure."""


class AnalysisError(ReproError):
    """An analysis was run against data that cannot support it."""


class IngestError(DatasetError):
    """The fault-tolerant ingestion pipeline was misconfigured."""


class TestkitError(ReproError):
    """The scenario/oracle harness was misconfigured."""

    # The Test* name would otherwise be collected by pytest when
    # imported into a test module's namespace.
    __test__ = False


class OracleFailure(TestkitError):
    """An oracle's equivalence or metamorphic relation was violated.

    Raised by :class:`repro.testkit.oracles.Check` at the first failing
    elementary assertion; the message names the scenario-independent
    inequality found so a report line is actionable on its own.
    """


class ParallelError(ReproError):
    """The parallel execution layer was misused (bad jobs/chunking)."""


class ChaosError(ReproError):
    """The chaos plane was misconfigured (bad plan, layer, or window)."""


class TransportError(ReproError):
    """A (possibly transient) transport-level delivery failure."""


class ResilienceError(ReproError):
    """Base class for resilience-primitive failures."""


class RetryExhaustedError(ResilienceError):
    """All retry attempts failed; ``last_error`` holds the final cause."""

    def __init__(self, message: str, attempts: int = 0,
                 last_error: "Exception | None" = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class CircuitOpenError(ResilienceError):
    """A circuit breaker is open and rejected the call without trying."""


class AllCdnsFailedError(DeliveryError):
    """Every eligible CDN failed or was circuit-open.

    ``attribution`` carries one entry per CDN tried or skipped, in the
    order the fetcher considered them, so the caller (and the incident
    report) can see *why* each CDN was unavailable rather than only the
    last attempt's error.  Entries are
    :class:`repro.delivery.multicdn.CdnAttempt` instances.
    """

    def __init__(self, message: str, attribution: "tuple" = ()) -> None:
        super().__init__(message)
        self.attribution = tuple(attribution)
