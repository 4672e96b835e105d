"""The guest shell: what interprets each ``commands:`` line of a build file.

A deliberately small POSIX-flavoured subset, enough to run the paper's
Listings 1 and 2 and realistic variations of them:

- tokenisation with quoting (``shlex`` rules), once per distinct line:
  :func:`split_sequence` and :func:`tokenize` remember their last
  :data:`PARSE_MEMO_SIZE` inputs (expansion and redirection run per call);
- ``&&`` / ``;`` sequencing within one line (``&&`` short-circuits);
- ``$VAR`` / ``${VAR}`` environment expansion;
- ``> file`` and ``>> file`` stdout redirection;
- leading ``VAR=value`` assignments;
- builtins ``cd`` and ``export``;
- program lookup: builtins → registered guest commands (absolute names
  like ``/usr/bin/time`` are resolved by basename) → executable files in
  the container filesystem whose content starts with ``#!rai-exec NAME``.
"""

from __future__ import annotations

import re
import shlex
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.errors import VfsError
from repro.vfs.path import join as path_join

_VAR_RE = re.compile(r"\$(\w+|\{\w+\})")
_ASSIGN_RE = re.compile(r"^(\w+)=(.*)$")


def expand_variables(token: str, env: dict) -> str:
    def repl(match):
        name = match.group(1).strip("{}")
        return str(env.get(name, ""))

    return _VAR_RE.sub(repl, token)


#: Distinct command lines (and their segments) whose parse is remembered.
#: A course runs a handful, byte-identical across submissions.
PARSE_MEMO_SIZE = 256


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def split_sequence(line: str) -> Tuple[Tuple[str, str], ...]:
    """Split a command line on ``&&`` and ``;`` (quote-aware).

    Returns ``((connector, segment), ...)`` where the connector is how the
    segment chains onto the previous one (``""`` for the first).
    """
    segments: List[Tuple[str, str]] = []
    current: List[str] = []
    connector = ""
    i = 0
    in_single = in_double = False
    while i < len(line):
        ch = line[i]
        if ch == "'" and not in_double:
            in_single = not in_single
        elif ch == '"' and not in_single:
            in_double = not in_double
        if not in_single and not in_double:
            if line.startswith("&&", i):
                segments.append((connector, "".join(current).strip()))
                current = []
                connector = "&&"
                i += 2
                continue
            if ch == ";":
                segments.append((connector, "".join(current).strip()))
                current = []
                connector = ";"
                i += 1
                continue
        current.append(ch)
        i += 1
    segments.append((connector, "".join(current).strip()))
    return tuple((c, s) for c, s in segments if s)


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def tokenize(segment: str) -> Tuple[str, ...]:
    """``segment``'s words by ``shlex`` rules; raises ``ValueError`` (not
    remembered) on unbalanced quotes."""
    return tuple(shlex.split(segment, posix=True))


class Shell:
    """Executes command lines inside one container."""

    def __init__(self, container):
        self.container = container

    def run_line(self, line: str) -> int:
        """Run one build-file line; returns the last exit code.

        ``&&`` stops the chain at the first failure; ``;`` does not.
        """
        exit_code = 0
        for connector, segment in split_sequence(line):
            if connector == "&&" and exit_code != 0:
                break
            exit_code = self._run_simple(segment)
        return exit_code

    # -- internals ----------------------------------------------------------

    def _run_simple(self, segment: str) -> int:
        ctx = self.container._context
        try:
            tokens = tokenize(segment)
        except ValueError as exc:
            ctx.write_err(f"sh: parse error: {exc}\n")
            return 2
        # Leading VAR=value assignments.
        while tokens and _ASSIGN_RE.match(tokens[0]) and \
                not tokens[0].startswith("="):
            match = _ASSIGN_RE.match(tokens[0])
            ctx.env[match.group(1)] = expand_variables(match.group(2), ctx.env)
            tokens = tokens[1:]
        if not tokens:
            return 0
        tokens = [expand_variables(t, ctx.env) for t in tokens]

        # Stdout redirection.
        redirect_path: Optional[str] = None
        redirect_append = False
        cleaned: List[str] = []
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok in (">", ">>"):
                if i + 1 >= len(tokens):
                    ctx.write_err("sh: redirection needs a target\n")
                    return 2
                redirect_path = tokens[i + 1]
                redirect_append = tok == ">>"
                i += 2
                continue
            if tok.startswith(">>"):
                redirect_path, redirect_append = tok[2:], True
                i += 1
                continue
            if tok.startswith(">") and len(tok) > 1:
                redirect_path, redirect_append = tok[1:], False
                i += 1
                continue
            cleaned.append(tok)
            i += 1
        tokens = cleaned
        if not tokens:
            return 0

        name, args = tokens[0], tokens[1:]

        # Builtins.
        if name == "cd":
            return self._builtin_cd(ctx, args)
        if name == "export":
            for arg in args:
                match = _ASSIGN_RE.match(arg)
                if match:
                    ctx.env[match.group(1)] = match.group(2)
            return 0
        if name == "true":
            return 0
        if name == "false":
            return 1

        capture = None
        if redirect_path is not None:
            capture = ctx.push_stdout_capture()
        try:
            try:
                code = self._dispatch(ctx, name, args)
            finally:
                if capture is not None:
                    data = ctx.pop_stdout_capture()
                    target = path_join(ctx.cwd, redirect_path)
                    if redirect_append:
                        ctx.fs.append_file(target, data)
                    else:
                        ctx.fs.write_file(target, data)
        except VfsError as exc:
            # A refusal no command reported itself (``touch`` or a ``>``
            # under the read-only /src) fails the command, not the worker.
            ctx.write_err(f"{name}: {exc}\n")
            return 1
        return code

    def _builtin_cd(self, ctx, args) -> int:
        target = args[0] if args else "/"
        path = path_join(ctx.cwd, target)
        if not ctx.fs.isdir(path):
            ctx.write_err(f"cd: no such directory: {target}\n")
            return 1
        ctx.cwd = path
        return 0

    def _dispatch(self, ctx, name: str, args: List[str]) -> int:
        from repro.container.commands import lookup_command

        base = name.rsplit("/", 1)[-1]
        command = lookup_command(base)
        if command is not None and not _looks_like_path_exec(ctx, name):
            return command.run(ctx, args)

        # Executable file in the container ("./ece408").
        path = path_join(ctx.cwd, name)
        if ctx.fs.isfile(path):
            return self._exec_file(ctx, path, args)
        if command is not None:
            return command.run(ctx, args)
        ctx.write_err(f"sh: command not found: {name}\n")
        return 127

    def _exec_file(self, ctx, path: str, args: List[str]) -> int:
        from repro.container.commands import lookup_program

        data = ctx.fs.read_file(path)
        if not data.startswith(b"#!rai-exec "):
            ctx.write_err(f"sh: {path}: cannot execute binary file\n")
            return 126
        header, _, payload = data.partition(b"\n")
        program_name = header[len(b"#!rai-exec "):].decode("ascii").strip()
        program = lookup_program(program_name)
        if program is None:
            ctx.write_err(f"sh: {path}: unknown program {program_name!r}\n")
            return 126
        import json

        config = json.loads(payload.decode("utf-8") or "{}")
        return program.run(ctx, args, config)


def _looks_like_path_exec(ctx, name: str) -> bool:
    """``./foo`` or absolute paths pointing at real files beat builtins."""
    if not (name.startswith("./") or name.startswith("/")):
        return False
    return ctx.fs.isfile(path_join(ctx.cwd, name))
