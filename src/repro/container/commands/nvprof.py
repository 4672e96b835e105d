"""``nvprof``: the CUDA profiler wrapper (Listing 1 lines 10-11).

``nvprof --export-profile timeline.nvprof ./ece408 ...`` runs the program
and writes a kernel timeline file into the working directory; because
``/build`` is uploaded to the file server after the job, "students can
access the timeline.nvprof file and view it using the nvvp viewer" (§V).
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import List

from repro.container.commands import register_command
from repro.container.commands.base import GuestCommand
from repro.gpu.kernels import TIMING_MEMO_SIZE, kernel_timeline
from repro.vfs.path import join as path_join

PROFILER_OVERHEAD_FACTOR = 1.15  # instrumented runs are a little slower


@lru_cache(maxsize=TIMING_MEMO_SIZE)
def _kernels_head(compact: str) -> str:
    """``{"kernels": rows}`` as ``json.dumps(..., indent=1)`` writes it,
    short of the closing ``"\n}"``, from the rows' compact encoding."""
    return json.dumps({"kernels": json.loads(compact)}, indent=1)[:-2]


def export_profile(rows: List[dict], wall: float) -> str:
    """The ``--export-profile`` file:
    ``json.dumps({"kernels": rows, "wall": wall}, indent=1)``.

    ``indent`` selects the pure-Python encoder, while the compact
    encoding runs in C; so the compact text keys a memo of the indented
    kernel table — the same for every job of one (device, batch,
    quality) — and only the job's ``wall`` is encoded per job.
    """
    head = _kernels_head(json.dumps(rows))
    return f'{head},\n "wall": {json.dumps(wall)}\n}}'


class Nvprof(GuestCommand):
    name = "nvprof"

    def run(self, ctx, args: List[str]) -> int:
        export_path = None
        inner: List[str] = []
        i = 0
        while i < len(args):
            arg = args[i]
            if arg == "--export-profile":
                if i + 1 >= len(args):
                    ctx.write_err("nvprof: --export-profile needs a file\n")
                    return 1
                export_path = args[i + 1]
                i += 2
                continue
            if arg.startswith("--export-profile="):
                export_path = arg.split("=", 1)[1]
                i += 1
                continue
            if arg.startswith("--"):
                i += 1  # ignore other nvprof flags
                continue
            inner = args[i:]
            break
        if not inner:
            ctx.write_err("nvprof: no command to profile\n")
            return 1
        if ctx.gpu is None:
            ctx.write_err("nvprof: unable to locate a CUDA device\n")
            return 1

        ctx.write_err(f"==42== NVPROF is profiling process 42, "
                      f"command: {' '.join(inner)}\n")
        before = ctx.container._context.charged_seconds
        exit_code = ctx.container._shell._dispatch(ctx, inner[0], inner[1:])
        wall = ctx.container._context.charged_seconds - before
        ctx.charge(wall * (PROFILER_OVERHEAD_FACTOR - 1.0))

        # Reconstruct the per-kernel timeline from the built binary's
        # profile (the same information nvprof would observe).
        quality, batch = self._job_parameters(ctx, inner)
        rows = kernel_timeline(ctx.gpu, batch, quality)
        if export_path is not None:
            target = path_join(ctx.cwd, export_path)
            ctx.fs.write_file(target, export_profile(rows, wall))
            ctx.write_err(f"==42== Generated result file: {target}\n")
        else:
            ctx.write_err("==42== Profiling result:\n")
            ctx.write_err(f"{'Time(%)':>8} {'Time':>12} Name\n")
            total = sum(r["duration"] for r in rows) or 1.0
            for row in rows:
                ctx.write_err(
                    f"{100 * row['duration'] / total:7.2f}% "
                    f"{row['duration'] * 1e3:10.3f}ms {row['name']}\n")
        return exit_code

    @staticmethod
    def _job_parameters(ctx, inner: List[str]):
        """Recover (quality, batch) for timeline reconstruction."""
        quality = 0.0
        path = path_join(ctx.cwd, inner[0])
        if ctx.fs.isfile(path):
            data = ctx.fs.read_file(path)
            if data.startswith(b"#!rai-exec"):
                _, _, payload = data.partition(b"\n")
                try:
                    quality = float(json.loads(payload or b"{}")
                                    .get("quality", 0.0))
                except (json.JSONDecodeError, TypeError, ValueError):
                    quality = 0.0
        batch = 10
        for arg in inner[1:]:
            name = arg.rsplit("/", 1)[-1]
            if "full" in name:
                from repro.gpu.kernels import FULL_DATASET_SIZE
                batch = FULL_DATASET_SIZE
        return quality, batch


register_command(Nvprof())
