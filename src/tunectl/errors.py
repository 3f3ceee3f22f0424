"""Exception types shared across the package."""

from __future__ import annotations


class TunectlError(Exception):
    """Base class for all package errors."""


class ValidationError(TunectlError):
    """Aggregated semantic or syntactic validation failures.

    ``errors`` holds one human-readable message per violation; parsing
    collects every problem instead of stopping at the first.
    """

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class RenderError(TunectlError):
    """A template placeholder could not be resolved."""


class ExhaustedSearchSpace(TunectlError):
    """The search algorithm has no further candidate to emit."""


class AlgorithmStateError(TunectlError):
    """No algorithm is registered under the requested name."""


class MissingResourceReport(TunectlError):
    """A completed observation lacks the consumed-budget report an
    algorithm requires (Hyperband rung accounting)."""


class CasConflictError(TunectlError):
    """Resource store compare-and-swap failed: stale generation."""


class ResourceExistsError(TunectlError):
    """Create refused: a resource with the same key already exists."""


class StorageUnavailableError(TunectlError):
    """The metric storage backend failed transiently; the call may be retried."""

    retryable = True


class UnknownNamespaceError(TunectlError):
    """A job was submitted to a namespace the cluster does not know."""


class InvalidPayloadError(TunectlError):
    """The run spec's payload cannot execute on this backend (permanent)."""
