"""Parse and render ``rai-build.yml`` files.

``parse_build_spec`` and ``render_build_spec`` are exact inverses for any
valid spec, which lets the system round-trip build files without loss
(clients render what facades construct; workers parse what clients send).
"""

from __future__ import annotations

import re
from functools import lru_cache

import yaml

from repro.buildspec.spec import (
    PARSE_MEMO_SIZE,
    RaiBuildSpec,
    ResourceRequest,
)
from repro.errors import SpecParseError

#: A trailing backslash folds a command onto the next line, shell-style.
_CONTINUATION_RE = re.compile(r"\\\s*\n\s*")


def _fold_continuations(command: str) -> str:
    return _CONTINUATION_RE.sub(" ", command)


def _require_mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SpecParseError(f"{what} must be a mapping, "
                             f"got {type(value).__name__}")
    return value


def parse_build_spec(text: str) -> RaiBuildSpec:
    """Parse YAML text into a :class:`RaiBuildSpec`.

    Raises :class:`~repro.errors.SpecParseError` on malformed input; version
    and whitelist problems are deferred to ``spec.validate()`` so the worker
    can report them with the student-facing wording.

    Parsing is a pure function of the text, and almost every job of a
    course sends the same one, so the last ``PARSE_MEMO_SIZE`` distinct
    texts share their (immutable) spec; errors are raised afresh each time.
    """
    if not isinstance(text, (str, bytes)):
        raise SpecParseError(f"rai-build.yml must be text, "
                             f"got {type(text).__name__}")
    return _parse(text)


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse(text) -> RaiBuildSpec:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SpecParseError(f"invalid YAML in rai-build.yml: {exc}") from exc
    doc = _require_mapping(doc, "rai-build.yml")

    rai = _require_mapping(doc.get("rai", {}), "the 'rai' section")
    # YAML reads ``version: 0.1`` as a float; normalise to the string form.
    version = str(rai.get("version", "0.1"))
    image = rai.get("image")
    if image is None:
        raise SpecParseError("rai.image is required")

    commands = _require_mapping(doc.get("commands", {}),
                                "the 'commands' section")
    build = commands.get("build")
    if build is None:
        raise SpecParseError("commands.build is required")
    if isinstance(build, str):
        build = [build]
    if not isinstance(build, list):
        raise SpecParseError("commands.build must be a list of commands")
    build_commands = [_fold_continuations(str(command)) for command in build]

    resources = None
    if "resources" in doc and doc["resources"] is not None:
        res = _require_mapping(doc["resources"], "the 'resources' section")
        try:
            resources = ResourceRequest(
                gpus=int(res.get("gpus", 1)),
                memory_gb=(float(res["memory_gb"])
                           if res.get("memory_gb") is not None else None),
                cpus=(int(res["cpus"])
                      if res.get("cpus") is not None else None),
            )
        except (TypeError, ValueError) as exc:
            raise SpecParseError(f"invalid resources section: {exc}") from exc

    return RaiBuildSpec(version=version, image=str(image),
                        build_commands=build_commands, resources=resources,
                        cache_enabled=bool(rai.get("cache", True)))


def render_build_spec(spec: RaiBuildSpec) -> str:
    """Render a spec back to canonical YAML (inverse of parsing)."""
    rai: dict = {"version": spec.version, "image": spec.image}
    if not spec.cache_enabled:
        rai["cache"] = False
    doc = {
        "rai": rai,
        "commands": {"build": list(spec.build_commands)},
    }
    if spec.resources is not None:
        resources = {"gpus": spec.resources.gpus}
        if spec.resources.memory_gb is not None:
            resources["memory_gb"] = spec.resources.memory_gb
        if spec.resources.cpus is not None:
            resources["cpus"] = spec.resources.cpus
        doc["resources"] = resources
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)
