"""GPU devices, kernel performance models, and the ECE408 CNN workload.

The course project (paper §I, §VI) was "a high-performance CUDA
implementation of a convolutional neural network inference step", graded
against a provided serial CPU baseline that "took around 30 minutes to
complete using the full dataset".  Since no CUDA hardware is available
offline, this subpackage supplies the substitution described in DESIGN.md:

- a **real** NumPy CNN forward pass (:mod:`repro.gpu.cnn`) in two forms —
  a deliberately naive serial reference and a vectorised im2col
  implementation — so correctness/accuracy checking is genuine;
- an **analytic device model** (:mod:`repro.gpu.device`) for the NVIDIA
  K40 (AWS G2) and K80 (AWS P2) GPUs the course used, with a roofline
  kernel-time estimate (:mod:`repro.gpu.kernels`) that converts the CNN's
  FLOP/byte counts plus a student "optimisation quality" into simulated
  runtime;
- an **HDF5-like container** (:mod:`repro.gpu.hdf5sim`) for the model
  weights and test datasets (``model.hdf5``, ``test10.hdf5``,
  ``testfull.hdf5``).

Parsing a container, inference, job time and the ``nvprof`` timeline are
functions of content: each is computed once per distinct input, inside the
function the guest programs already call, and what is shared is read-only.
"""

from repro.gpu.device import GPUDevice, CPUDevice, DEVICE_CATALOG, get_device
from repro.gpu.kernels import KernelProfile, estimate_kernel_time, cnn_job_time
from repro.gpu.cnn import (
    Network,
    build_ece408_network,
    generate_model_weights,
    generate_dataset,
    infer,
    accuracy,
)
from repro.gpu.hdf5sim import write_h5s, read_h5s, list_datasets

__all__ = [
    "GPUDevice",
    "CPUDevice",
    "DEVICE_CATALOG",
    "get_device",
    "KernelProfile",
    "estimate_kernel_time",
    "cnn_job_time",
    "Network",
    "build_ece408_network",
    "generate_model_weights",
    "generate_dataset",
    "infer",
    "accuracy",
    "write_h5s",
    "read_h5s",
    "list_datasets",
]
