"""Exception hierarchy shared across the repro package.

Every subsystem raises subclasses of :class:`ReproError` so that callers can
catch failures at whatever granularity they need.  The leaf classes mirror
the failure modes called out in the paper: bad credentials, whitelist
violations, resource-limit enforcement, rate limiting, and missing
final-submission artifacts.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


# --------------------------------------------------------------------------
# Simulation kernel
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event-kernel errors."""


class StopSimulation(Exception):  # noqa: N818 - control-flow signal, not error
    """Internal signal used to halt :meth:`Simulator.run` early."""

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value


class EmptySchedule(SimulationError):
    """The simulator ran out of events before the requested horizon."""


class Interrupt(Exception):  # noqa: N818 - mirrors simpy naming
    """Thrown into a process that another process interrupted."""

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


# --------------------------------------------------------------------------
# Virtual filesystem
# --------------------------------------------------------------------------


class VfsError(ReproError):
    """Base class for virtual-filesystem errors."""


class FileNotFound(VfsError):
    pass


class NotADirectory(VfsError):
    pass


class IsADirectory(VfsError):
    pass


class FileExists(VfsError):
    pass


class ReadOnlyFilesystem(VfsError):
    pass


# --------------------------------------------------------------------------
# Message broker
# --------------------------------------------------------------------------


class BrokerError(ReproError):
    pass


class UnknownTopic(BrokerError):
    pass


class UnknownChannel(BrokerError):
    pass


class MessageTooLarge(BrokerError):
    pass


class TooManyAttempts(BrokerError):
    """A message exceeded its redelivery budget and was dead-lettered."""


# --------------------------------------------------------------------------
# Object store
# --------------------------------------------------------------------------


class StorageError(ReproError):
    pass


class NoSuchBucket(StorageError):
    pass


class NoSuchKey(StorageError):
    pass


class BucketAlreadyExists(StorageError):
    pass


class UploadNotFound(StorageError):
    pass


class PreconditionFailed(StorageError):
    pass


class ExpiredToken(StorageError):
    """A presigned URL was used after its expiry time."""


class TransientStorageError(StorageError):
    """A retryable storage failure (flaky link, 5xx, injected chaos).

    Unlike :class:`NoSuchKey` and friends — which are permanent and must
    not be retried — callers are expected to retry these under a
    :class:`~repro.faults.RetryPolicy`.
    """


# --------------------------------------------------------------------------
# Document database
# --------------------------------------------------------------------------


class DocDbError(ReproError):
    pass


class DuplicateKeyError(DocDbError):
    pass


class InvalidQuery(DocDbError):
    pass


class InvalidUpdate(DocDbError):
    pass


# --------------------------------------------------------------------------
# Container runtime
# --------------------------------------------------------------------------


class ContainerError(ReproError):
    pass


class ImageNotFound(ContainerError):
    pass


class ImageNotWhitelisted(ContainerError):
    """The requested base image is not on the course whitelist (§V)."""


class ContainerStateError(ContainerError):
    """An operation was attempted in an invalid container state."""


class MemoryLimitExceeded(ContainerError):
    """The container exceeded its RAM cap (default 8 GB, §V)."""


class ContainerTimeout(ContainerError):
    """The container exceeded its maximum lifetime (default 1 hour, §V)."""


class NetworkDisabled(ContainerError):
    """A guest command attempted network access inside the sandbox."""


class CommandNotFound(ContainerError):
    pass


class GuestCommandError(ContainerError):
    """A guest command exited non-zero and the shell aborted the step list."""

    def __init__(self, command: str, exit_code: int, stderr: str = ""):
        super().__init__(f"{command!r} exited with status {exit_code}")
        self.command = command
        self.exit_code = exit_code
        self.stderr = stderr


# --------------------------------------------------------------------------
# Auth
# --------------------------------------------------------------------------


class AuthError(ReproError):
    pass


class InvalidCredentials(AuthError):
    """RAI_ACCESS_KEY / RAI_SECRET_KEY pair failed verification (§V step 2)."""


class SignatureMismatch(AuthError):
    pass


class ProfileError(AuthError):
    """A ``.rai.profile`` file is missing or malformed."""


# --------------------------------------------------------------------------
# Build specification
# --------------------------------------------------------------------------


class BuildSpecError(ReproError):
    pass


class SpecParseError(BuildSpecError):
    pass


class SpecValidationError(BuildSpecError):
    pass


class UnsupportedSpecVersion(BuildSpecError):
    pass


# --------------------------------------------------------------------------
# Core submission system
# --------------------------------------------------------------------------


class RaiError(ReproError):
    pass


class RateLimited(RaiError):
    """A team submitted again within the 30-second window (§V)."""

    def __init__(self, retry_after: float):
        super().__init__(f"rate limited; retry after {retry_after:.1f}s")
        self.retry_after = retry_after


class SubmissionRejected(RaiError):
    """A final submission was missing required files (USAGE, report.pdf)."""


class JobFailed(RaiError):
    pass


class JobDeadlineExceeded(RaiError):
    """A job overran its wall-clock deadline (the paper's 1-hour cap
    applied to the whole job, not just charged container time)."""


class SessionLost(RaiError):
    """An interactive session's request was redelivered: the worker that
    held its container is gone, and the container's state with it."""


# --------------------------------------------------------------------------
# Durability
# --------------------------------------------------------------------------


class DurabilityError(ReproError):
    """Base class for write-ahead-log / snapshot / recovery failures."""


class SimulatedCrash(DurabilityError):
    """Raised by a :class:`~repro.faults.CrashPoint` to model the process
    dying mid-write: the WAL record on disk is torn exactly where the
    crash point cut it, and recovery must cope."""


# --------------------------------------------------------------------------
# Cluster / provisioning
# --------------------------------------------------------------------------


class ClusterError(ReproError):
    pass


class NoCapacity(ClusterError):
    pass


# --------------------------------------------------------------------------
# Grading / release
# --------------------------------------------------------------------------


class GradingError(ReproError):
    pass


class ReleaseError(ReproError):
    pass
