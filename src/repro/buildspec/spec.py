"""Build-spec data model and validation."""

from __future__ import annotations

import shlex
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.errors import SpecValidationError, UnsupportedSpecVersion

#: Spec versions this worker generation understands.  "0.1" is the course
#: format of Listings 1 & 2; "0.2" adds the optional ``resources`` section
#: (§V's "machine requirements" future extension).
SUPPORTED_VERSIONS = ("0.1", "0.2")


@dataclass(frozen=True)
class ResourceRequest:
    """Machine requirements a job may declare (spec version 0.2)."""

    gpus: int = 1
    memory_gb: Optional[float] = None
    cpus: Optional[int] = None

    def validate(self) -> None:
        if self.gpus < 0:
            raise SpecValidationError("resources.gpus must be >= 0")
        if self.memory_gb is not None and self.memory_gb <= 0:
            raise SpecValidationError("resources.memory_gb must be positive")
        if self.cpus is not None and self.cpus < 1:
            raise SpecValidationError("resources.cpus must be >= 1")


@dataclass(frozen=True)
class RaiBuildSpec:
    """One parsed ``rai-build.yml``.

    Immutable (``build_commands`` is stored as a tuple): the parser hands
    the same instance to every job that sent the same text.
    """

    version: str
    image: str
    build_commands: Tuple[str, ...] = ()
    resources: Optional[ResourceRequest] = None
    #: ``rai.cache: false`` opts a spec out of the build-artifact cache
    #: entirely (e.g. benchmarking an intentionally noisy build).
    cache_enabled: bool = True

    def __post_init__(self):
        object.__setattr__(self, "build_commands", tuple(self.build_commands))

    def validate(self, image_whitelist: Optional[Sequence[str]] = None) -> None:
        """Raise a :class:`~repro.errors.BuildSpecError` subclass on any
        problem; the worker surfaces the message to the student (§V step 2).
        """
        if self.version not in SUPPORTED_VERSIONS:
            raise UnsupportedSpecVersion(
                f"rai-build.yml version {self.version!r} is not supported "
                f"(supported: {', '.join(SUPPORTED_VERSIONS)})")
        if not self.image or not str(self.image).strip():
            raise SpecValidationError("rai.image must name a base image")
        if not self.build_commands:
            raise SpecValidationError("commands.build must list at least "
                                      "one command")
        for command in self.build_commands:
            if not isinstance(command, str) or not command.strip():
                raise SpecValidationError(
                    f"commands.build entries must be non-empty strings, "
                    f"got {command!r}")
        if self.resources is not None:
            if self.version == "0.1":
                raise SpecValidationError(
                    "the resources section requires version 0.2")
            self.resources.validate()
        if image_whitelist is not None and self.image not in image_whitelist:
            raise SpecValidationError(
                f"image {self.image!r} is not on the course whitelist")


#: Programs whose effects are fully described by filesystem reads and
#: writes — safe to capture and replay.  Run/grading commands (./ece408,
#: nvprof, /usr/bin/time, cp, echo, ...) are deliberately absent: their
#: value is the *execution* (timing, profiles, grading output), not the
#: files they leave behind, so they always run.
CACHEABLE_PROGRAMS = frozenset({"cmake", "make"})

#: Shell operators that chain sub-commands inside one command line.
_CHAIN_OPERATORS = ("&&", "||", ";", "|")

#: Distinct command lines / build files whose parse is remembered.  A
#: course runs a handful of each, byte-identical across submissions.
PARSE_MEMO_SIZE = 256


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def command_cacheable(command: str) -> bool:
    """True when every sub-command of ``command`` is a cacheable program.

    A single non-cacheable segment poisons the whole line: replaying half
    a pipeline would skip the half whose execution matters.
    """
    try:
        tokens = shlex.split(command)
    except ValueError:
        return False
    if not tokens:
        return False
    segments: List[List[str]] = [[]]
    for token in tokens:
        if token in _CHAIN_OPERATORS:
            segments.append([])
        else:
            segments[-1].append(token)
    for argv in segments:
        if not argv or argv[0] not in CACHEABLE_PROGRAMS:
            return False
    return True
