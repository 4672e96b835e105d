"""Mapping CNN work onto simulated device time.

A student submission is characterised by an **optimisation quality** in
``[0, 1]``: 0 is the untouched serial baseline, 1 is a fully tuned GPU
kernel.  Quality maps to roofline efficiencies through a staged model of
the optimisations the course teaches (global-memory coalescing → shared
memory tiling → register blocking/unrolling), producing the 3-4 orders of
magnitude spread between the ~30-minute baseline and the sub-second top
teams seen in Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Tuple

from repro.gpu.cnn import Network, build_ece408_network
from repro.gpu.device import CPUDevice, GPUDevice

#: The course's full evaluation dataset size (Listing 2 runs with 10000).
FULL_DATASET_SIZE = 10000
#: The small development dataset (test10.hdf5).
SMALL_DATASET_SIZE = 10

#: Fixed job overheads: process/toolkit startup, reading the HDF5 dataset
#: from disk, and staging it across PCIe.  These set the ~0.2 s floor under
#: which no submission can go — which is exactly where the leading edge of
#: Figure 2's histogram sits.
STARTUP_SECONDS = 0.05
DISK_BANDWIDTH_BPS = 200e6
PCIE_BANDWIDTH_BPS = 8e9
IMAGE_BYTES = 28 * 28 * 4

#: Efficiency of the provided serial baseline on the host CPU: scalar,
#: cache-hostile loop nest.  Calibrated so the full dataset takes ~30
#: simulated minutes, the paper's stated baseline runtime (§VI).
BASELINE_CPU_EFFICIENCY = 0.015

#: Amdahl residual: fraction of baseline work still serial at quality q is
#: ``SERIAL_COEF * (1-q)**4`` — unported code paths, host-side layout
#: shuffles, per-image Python-side loops.  This term, not raw kernel speed,
#: is what stretches weak submissions to the 2-minute tail of Figure 2.
SERIAL_COEF = 0.07


def job_overhead(batch: int, on_gpu: bool) -> float:
    """Startup + dataset-read (+ PCIe staging) seconds for a run."""
    data = batch * IMAGE_BYTES
    t = STARTUP_SECONDS + data / DISK_BANDWIDTH_BPS
    if on_gpu:
        t += data / PCIE_BANDWIDTH_BPS
    return t


@dataclass(frozen=True)
class KernelProfile:
    """Achieved efficiencies for one submission's kernels."""

    compute_efficiency: float
    bandwidth_efficiency: float
    launch_batching: float  # fraction of launches fused/amortised, [0,1)

    @staticmethod
    def from_quality(quality: float) -> "KernelProfile":
        """Map an optimisation-quality scalar to roofline efficiencies.

        The curve is deliberately super-linear: early optimisations
        (coalescing) buy bandwidth, late ones (tiling, unrolling) buy
        compute, and the last decile is where the top teams separate.
        """
        q = max(0.0, min(1.0, quality))
        bandwidth = 0.02 + 0.78 * q ** 1.5
        compute = 0.005 + 0.695 * q ** 2.5
        batching = 0.9 * q
        return KernelProfile(compute_efficiency=compute,
                             bandwidth_efficiency=bandwidth,
                             launch_batching=batching)


def estimate_kernel_time(device: GPUDevice, flops: float, bytes_moved: float,
                         profile: KernelProfile) -> float:
    """Simulated seconds for one kernel on ``device`` at this profile."""
    return device.time_for(flops, bytes_moved,
                           compute_efficiency=profile.compute_efficiency,
                           bandwidth_efficiency=profile.bandwidth_efficiency)


#: Distinct (device, batch, quality) inputs kept per function.
TIMING_MEMO_SIZE = 1024
#: Images the course harness issues per kernel launch.
MINI_BATCH = 256


class _KernelRow(NamedTuple):
    start: float
    duration: float
    name: str
    flops: float
    bytes: float


def _kernel_rows(device: GPUDevice, batch: int, quality: float,
                 network: Network) -> Tuple[_KernelRow, ...]:
    """One immutable row per kernel the network launches."""
    profile = KernelProfile.from_quality(quality)
    rows = []
    t = 0.0
    for cost in network.layer_costs(batch):
        if cost["flops"] == 0 and cost["bytes"] == 0:
            continue
        dt = estimate_kernel_time(device, cost["flops"], cost["bytes"], profile)
        rows.append(_KernelRow(t, dt, f"{cost['name']}_kernel",
                               cost["flops"], cost["bytes"]))
        t += dt
    return tuple(rows)


@lru_cache(maxsize=TIMING_MEMO_SIZE)
def _job_time(device, batch: int, quality: float) -> float:
    network = build_ece408_network()
    if isinstance(device, CPUDevice):
        compute = device.time_for(network.total_flops(batch),
                                  network.total_bytes(batch),
                                  efficiency=BASELINE_CPU_EFFICIENCY)
        return job_overhead(batch, on_gpu=False) + compute
    q = max(0.0, min(1.0, quality if quality is not None else 0.5))
    # Work is issued mini-batch by mini-batch; better implementations fuse
    # layers and stream batches, reducing per-launch overhead.
    n_batches = max(1, -(-batch // MINI_BATCH))
    # Launch overhead repeats per mini-batch, discounted by fusion.
    extra_launches = (n_batches - 1) * \
        (1.0 - KernelProfile.from_quality(q).launch_batching)
    kernels = 0.0
    for row in _kernel_rows(device, batch, q, network):
        kernels += row.duration + \
            extra_launches * device.kernel_launch_us * 1e-6
    # Amdahl residual: code paths the team has not (yet) moved to the GPU
    # still run at baseline speed.
    baseline_cpu = CPUDevice(name="host", clock_ghz=2.6)
    serial = baseline_cpu.time_for(
        network.total_flops(batch), network.total_bytes(batch),
        efficiency=BASELINE_CPU_EFFICIENCY) * SERIAL_COEF * (1.0 - q) ** 4
    return job_overhead(batch, on_gpu=True) + serial + kernels


@lru_cache(maxsize=TIMING_MEMO_SIZE)
def _default_kernel_rows(device: GPUDevice, batch: int,
                         quality: float) -> Tuple[_KernelRow, ...]:
    return _kernel_rows(device, batch, quality, build_ece408_network())


def cnn_job_time(device, batch: int, quality: float = None) -> float:
    """Total simulated runtime for inferring ``batch`` images.

    For a :class:`GPUDevice`, ``quality`` shapes efficiency and how many
    kernel launches the implementation needs; for a :class:`CPUDevice`
    (the serial baseline) quality is ignored and a fixed low scalar
    efficiency applies.

    The result is kept per ``(device, batch, quality)``: both devices are
    frozen, so a job's second run and its ``nvprof`` run cost a
    dictionary probe.
    """
    return _job_time(device, batch, quality)


def kernel_timeline(device: GPUDevice, batch: int,
                    quality: float) -> List[dict]:
    """Per-kernel rows as an ``nvprof``-style timeline table.

    Kept per ``(device, batch, quality)``; every call returns fresh row
    dictionaries, so a caller may edit its own.
    """
    return [row._asdict()
            for row in _default_kernel_rows(device, batch, quality)]
