"""The ``ece408`` guest program: the student's CNN inference binary.

Invocation (Listings 1 & 2)::

    ./ece408 /data/test10.hdf5 /data/model.hdf5 [count]

Behaviour is driven by the build-time profile ``make`` extracted from the
student sources:

- ``impl="reference" | "im2col"`` with a small dataset → the NumPy CNN
  actually runs and the **measured** accuracy is printed (the genuine
  correctness path);
- ``impl="analytic"`` or the full dataset → accuracy comes from the
  profile's ``correctness`` and runtime from the GPU roofline model (the
  DESIGN.md substitution for code we cannot execute);
- ``runtime="crash"`` → simulated segfault; ``runtime="hang"`` → burns
  container lifetime until the 1-hour cap kills it;
- declared ``mem_gb`` is charged against the 8 GB container cap;
- ``net="phone-home"`` attempts network access and is denied by the
  sandbox.

The printed ``Elapsed time: ... s`` line is the project's *internal timer*,
which the paper's ranking records (§V, Student Final Submission).

Every submission of a course runs this against the same ``/data`` files, so
the parse, the job time and the inference it asks ``repro.gpu`` for are each
computed once per distinct content; a file that does not parse, or parses
into something the network cannot read, ends the run with exit 66.
"""

from __future__ import annotations

from typing import List

from repro.container.commands import register_program
from repro.container.commands.base import GuestProgram
from repro.errors import VfsError
from repro.gpu.cnn import (
    CnnInputError,
    accuracy,
    check_ece408_inputs,
    generate_model_weights,
    infer,
)
from repro.gpu.hdf5sim import H5SimError, read_h5s
from repro.gpu.kernels import cnn_job_time
from repro.vfs.path import join as path_join

GIB = 1024 ** 3


class Ece408(GuestProgram):
    name = "ece408"

    def run(self, ctx, args: List[str], config: dict) -> int:
        if len(args) < 2:
            ctx.write_err("Usage: ece408 <dataset.hdf5> <model.hdf5> [count]\n")
            return 64

        if ctx.gpu is None:
            ctx.charge(0.05)
            ctx.write_err("CUDA error: no CUDA-capable device is detected\n")
            return 30

        mem_gb = float(config.get("mem_gb", 2.0))
        ctx.use_memory(mem_gb * GIB)

        if config.get("net", "none") == "phone-home":
            ctx.require_network(purpose="student code attempted to "
                                        "open a socket")

        dataset_path = path_join(ctx.cwd, args[0])
        model_path = path_join(ctx.cwd, args[1])
        try:
            dataset = read_h5s(ctx.fs.read_file(dataset_path))
        except (VfsError, H5SimError) as exc:
            return _cannot_load(ctx, "dataset", args[0], exc)
        try:
            weights = read_h5s(ctx.fs.read_file(model_path))
        except (VfsError, H5SimError) as exc:
            return _cannot_load(ctx, "model", args[1], exc)
        try:
            check_ece408_inputs(dataset, weights)
        except CnnInputError as exc:
            path = {"dataset": args[0], "model": args[1]}[exc.source]
            return _cannot_load(ctx, exc.source, path, exc)

        count = int(dataset.get("count", [len(dataset.get("labels", []))])[0])
        if len(args) >= 3:
            try:
                count = min(count, int(args[2])) if count else int(args[2])
            except ValueError:
                ctx.write_err(f"ece408: bad count {args[2]!r}\n")
                return 64
        count = max(count, 1)

        ctx.write_out(f"Loading fashion-mnist data...done ({count} images)\n")
        ctx.write_out("Loading model...done\n")
        ctx.write_out("New Inference\n")

        runtime_mode = config.get("runtime", "ok")
        quality = float(config.get("quality", 0.0))

        if runtime_mode == "hang":
            # Burn lifetime until the container cap fires (raises
            # ContainerTimeout through ctx.charge).
            remaining = (ctx.container.limits.max_lifetime_seconds
                         - ctx.container.lifetime_used)
            ctx.charge(remaining + 1.0)
            return 124  # unreachable: charge raises first

        elapsed = cnn_job_time(ctx.gpu, count, quality)

        if runtime_mode == "crash":
            # Crash partway through the run.
            ctx.charge(elapsed * 0.3)
            ctx.write_err("Segmentation fault (core dumped)\n")
            return 139

        # The charged (possibly contention-dilated) time is what the
        # program's own internal timer observes and prints.
        elapsed = ctx.charge(elapsed)

        impl = config.get("impl", "analytic")
        images = dataset.get("images")
        if impl in ("reference", "im2col") and images is not None and \
                len(images) <= 100:
            # The genuine numerical path: run the real NumPy CNN.
            run_weights = weights if _has_network_weights(weights) else \
                generate_model_weights()
            logits = infer(images[:count], run_weights, impl=impl)
            acc = accuracy(logits, dataset["labels"][:count])
        else:
            acc = float(config.get("correctness", 1.0))

        ctx.write_out(f"Correctness: {acc:.4f} Model: ece408\n")
        ctx.write_out(f"Elapsed time: {elapsed:.6f} s\n")
        return 0


def _cannot_load(ctx, what: str, path: str, exc: Exception) -> int:
    ctx.charge(0.05)
    ctx.write_err(f"ece408: cannot load {what} {path}: {exc}\n")
    return 66


def _has_network_weights(datasets: dict) -> bool:
    return any(key.endswith(".weight") for key in datasets)


class NvidiaSmi(GuestProgram):
    """The ``nvidia-smi`` stub mounted by the CUDA volume."""

    name = "nvidia-smi"

    def run(self, ctx, args: List[str], config: dict) -> int:
        ctx.charge(0.02)
        if ctx.gpu is None:
            ctx.write_err("NVIDIA-SMI has failed: no devices were found\n")
            return 6
        gpu = ctx.gpu
        ctx.write_out(
            f"+-----------------------------------------------------+\n"
            f"| {gpu.name:<30} {gpu.mem_gb:5.0f}GiB  {gpu.sm_count:3d} SMs |\n"
            f"+-----------------------------------------------------+\n")
        return 0


register_program(Ece408())
register_program(NvidiaSmi())
