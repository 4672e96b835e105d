"""Container state machine and execution context."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.container.limits import ResourceLimits
from repro.container.shell import Shell
from repro.errors import (
    ContainerStateError,
    ContainerTimeout,
    MemoryLimitExceeded,
    NetworkDisabled,
)
from repro.vfs import VirtualFileSystem


class ContainerState(enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    EXITED = "exited"
    OOM_KILLED = "oom-killed"
    TIMED_OUT = "timed-out"
    DESTROYED = "destroyed"


@dataclass
class ExecResult:
    """Outcome of one build-file command line."""

    command: str
    exit_code: int
    sim_duration: float
    stdout: str
    stderr: str
    error: Optional[str] = None


class ExecContext:
    """What guest commands see while running.

    Provides the container filesystem, environment, output streams, and the
    two accounting channels every command must use:

    - :meth:`charge` — declare consumed simulated seconds (enforces the
      container lifetime cap);
    - :meth:`use_memory` — declare peak resident bytes (enforces the RAM
      cap, turning the container into an OOM kill);
    - :meth:`require_network` — raises unless the sandbox allows network.
    """

    def __init__(self, container: "Container"):
        self.container = container
        self.fs: VirtualFileSystem = container.fs
        self.env = dict(container.env)
        self.cwd = container.workdir
        self._stdout_parts: List[str] = []
        self._stderr_parts: List[str] = []
        self._capture_stack: List[List[str]] = []
        self._charged = 0.0
        self._output_bytes = 0

    # -- output ------------------------------------------------------------

    def write_out(self, text: str) -> None:
        self._write(self._capture_stack[-1] if self._capture_stack
                    else self._stdout_parts, text)
        if not self._capture_stack and self.container.on_output:
            self.container.on_output("stdout", text)

    def write_err(self, text: str) -> None:
        self._write(self._stderr_parts, text)
        if self.container.on_output:
            self.container.on_output("stderr", text)

    def _write(self, sink: List[str], text: str) -> None:
        self._output_bytes += len(text)
        if self._output_bytes > self.container.limits.max_output_bytes:
            raise MemoryLimitExceeded(
                "output limit exceeded (log flood protection)")
        sink.append(text)

    def push_stdout_capture(self) -> List[str]:
        capture: List[str] = []
        self._capture_stack.append(capture)
        return capture

    def pop_stdout_capture(self) -> str:
        return "".join(self._capture_stack.pop())

    def stdout_text(self) -> str:
        return "".join(self._stdout_parts)

    def stderr_text(self) -> str:
        return "".join(self._stderr_parts)

    def reset_streams(self) -> None:
        self._stdout_parts = []
        self._stderr_parts = []

    # -- accounting ------------------------------------------------------------

    def charge(self, seconds: float) -> float:
        """Consume simulated seconds; returns the amount actually charged.

        The charged amount is scaled by the container's ``time_dilation``
        (if set): that is how co-runner contention on a multi-job worker
        reaches the *measured* runtimes programs observe — the effect the
        course's single-job benchmark mode exists to remove (§V).
        """
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        dilation = self.container.time_dilation
        if dilation is not None:
            seconds = seconds * float(dilation())
        self._charged += seconds
        self.container._charge_lifetime(seconds)
        return seconds

    @property
    def charged_seconds(self) -> float:
        return self._charged

    def take_charged(self) -> float:
        """Pop accumulated charged time (per-command accounting)."""
        out = self._charged
        self._charged = 0.0
        return out

    def use_memory(self, peak_bytes: float) -> None:
        if peak_bytes > self.container.limits.memory_bytes:
            raise MemoryLimitExceeded(
                f"needs {peak_bytes / 2**30:.1f} GiB, limit is "
                f"{self.container.limits.memory_bytes / 2**30:.1f} GiB")
        self.container.peak_memory = max(self.container.peak_memory,
                                         peak_bytes)

    def require_network(self, purpose: str = "") -> None:
        if not self.container.limits.network_enabled:
            raise NetworkDisabled(
                f"network access denied inside sandbox"
                f"{': ' + purpose if purpose else ''}")

    # -- hardware ------------------------------------------------------------

    @property
    def gpu(self):
        """The mounted GPU device model, or None without a CUDA volume."""
        return self.container.gpu_device


class Container:
    """One sandboxed job environment.

    Lifecycle: ``CREATED → RUNNING → EXITED | OOM_KILLED | TIMED_OUT →
    DESTROYED``.  Nothing persists between jobs except what was uploaded
    to the file server (§V): a job's container is either destroyed after
    it, or — healthy and returned to a :class:`~repro.container.pool.
    WarmContainerPool` — :meth:`scrub`-bed, reset, and :meth:`recycle`-d
    from the image template for the next job (``generation`` counts the
    reuses).
    """

    _id_counter = 0

    def __init__(self, image, limits: ResourceLimits,
                 mounts, gpu_device=None,
                 on_output: Optional[Callable[[str, str], None]] = None,
                 clock: Optional[Callable[[], float]] = None):
        Container._id_counter += 1
        self.id = f"container-{Container._id_counter:06d}"
        self.image = image
        self._clock = clock
        #: Lifetime reuse count (0 for a fresh container; bumped by
        #: :meth:`recycle` when the warm pool hands it to a new job).
        self.generation = 0
        self._provision(limits, mounts, gpu_device, on_output)

    def _provision(self, limits: ResourceLimits, mounts, gpu_device,
                   on_output) -> None:
        """(Re)build the job-facing state: fs, env, limits, streams."""
        self.limits = limits
        self.state = ContainerState.CREATED
        self.on_output = on_output
        self.peak_memory = 0.0
        self.lifetime_used = 0.0
        #: Optional zero-arg callable returning a runtime multiplier;
        #: workers wire this to their contention-noise model.
        self.time_dilation: Optional[Callable[[], float]] = None
        self.workdir = "/build"
        self.env = {
            "HOME": "/root",
            "PATH": "/usr/local/bin:/usr/bin:/bin",
            "SRC_DIR": "/src",
            "BUILD_DIR": "/build",
        }
        self.gpu_device = gpu_device

        # Base image content: one stamped copy of the image's frozen tree,
        # under a root that predates the container (mtime 0.0).
        now = self._clock() if self._clock is not None else 0.0
        self.fs = VirtualFileSystem(clock=self._clock)
        if self.image is not None:
            self.fs.root.children = self.image.tree().stamped(now).children
        self.fs.makedirs("/build")
        self.fs.makedirs("/tmp")
        for mount in mounts:
            mount.attach(self.fs, now)
            if mount.is_cuda and gpu_device is not None:
                self.env["CUDA_VISIBLE_DEVICES"] = "0"

        self._context = ExecContext(self)
        self._shell = Shell(self)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self.state is not ContainerState.CREATED:
            raise ContainerStateError(f"cannot start from {self.state}")
        self.state = ContainerState.RUNNING

    def _charge_lifetime(self, seconds: float) -> None:
        self.lifetime_used += seconds
        if self.lifetime_used > self.limits.max_lifetime_seconds:
            self.state = ContainerState.TIMED_OUT
            raise ContainerTimeout(
                f"container exceeded max lifetime of "
                f"{self.limits.max_lifetime_seconds:.0f}s")

    def exec_line(self, line: str) -> ExecResult:
        """Run one build-file command line; returns its result.

        Raises nothing for ordinary command failures (they are reported in
        the exit code); resource violations flip the container state and
        surface as an ``error`` on the result.
        """
        if self.state is not ContainerState.RUNNING:
            raise ContainerStateError(
                f"container is {self.state.value}, not running")
        ctx = self._context
        ctx.reset_streams()
        ctx.take_charged()
        error = None
        try:
            exit_code = self._shell.run_line(line)
        except MemoryLimitExceeded as exc:
            self.state = ContainerState.OOM_KILLED
            exit_code, error = 137, f"oom-killed: {exc}"
        except ContainerTimeout as exc:
            exit_code, error = 124, f"timed-out: {exc}"
        except NetworkDisabled as exc:
            exit_code, error = 101, f"network-denied: {exc}"
        return ExecResult(
            command=line,
            exit_code=exit_code,
            sim_duration=ctx.take_charged(),
            stdout=ctx.stdout_text(),
            stderr=ctx.stderr_text(),
            error=error,
        )

    def stop(self) -> None:
        if self.state is ContainerState.RUNNING:
            self.state = ContainerState.EXITED

    def scrub(self) -> None:
        """Reset-on-return sanitisation for warm-pool parking.

        Drops every trace of the last job — filesystem (with its /src and
        /build trees), environment, output sink, timing hooks — while
        keeping the container itself alive for reuse.  A parked container
        holds no tenant data; :meth:`recycle` rebuilds pristine state from
        the image template for the next job.
        """
        if self.state is ContainerState.DESTROYED:
            raise ContainerStateError("cannot scrub a destroyed container")
        if self.state is ContainerState.RUNNING:
            self.state = ContainerState.EXITED
        self.fs = None
        self._context = None
        self._shell = None
        self.on_output = None
        self.time_dilation = None
        self.env = {}
        self.peak_memory = 0.0
        self.lifetime_used = 0.0

    def recycle(self, limits: ResourceLimits, mounts, gpu_device=None,
                on_output: Optional[Callable[[str, str], None]] = None
                ) -> None:
        """Reprovision a scrubbed container for a new job.

        Equivalent to creating a fresh container from the same image
        (fresh ``/src``/``/build`` mounts, default env, zeroed limits
        accounting) without paying the engine's create cost — the warm
        pool's whole point.
        """
        if self.state is ContainerState.DESTROYED:
            raise ContainerStateError("cannot recycle a destroyed container")
        self.generation += 1
        self._provision(limits, mounts, gpu_device, on_output)

    def destroy(self) -> None:
        self.state = ContainerState.DESTROYED
        self.fs = None
        self._context = None
        self._shell = None

    def __repr__(self):
        return f"<Container {self.id} {self.state.value} image={getattr(self.image, 'name', None)!r}>"
