"""Deriving Table I by probing each system."""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.base import BaselineJob, SubmissionSystem

#: Jobs the scalability probe asks an operator to absorb.
BURST = 20

FEATURES = ("Configurability", "Isolation", "Scalability",
            "Accessibility", "Testing Uniformity")

#: Expected Table I values, for the benchmark's paper-vs-measured check.
PAPER_TABLE_1: Dict[str, Dict[str, bool]] = {
    "Student-Provided": {"Configurability": True, "Isolation": True,
                         "Scalability": True, "Accessibility": False,
                         "Testing Uniformity": False},
    "Torque/PBS": {"Configurability": True, "Isolation": True,
                   "Scalability": True, "Accessibility": True,
                   "Testing Uniformity": False},
    "WebGPU": {"Configurability": False, "Isolation": True,
               "Scalability": True, "Accessibility": True,
               "Testing Uniformity": True},
    "Jenkins": {"Configurability": True, "Isolation": True,
                "Scalability": True, "Accessibility": False,
                "Testing Uniformity": True},
    "QwikLabs": {"Configurability": False, "Isolation": True,
                 "Scalability": True, "Accessibility": True,
                 "Testing Uniformity": False},
    "RAI": {"Configurability": True, "Isolation": True,
            "Scalability": True, "Accessibility": True,
            "Testing Uniformity": True},
}


def probe_configurability(system: SubmissionSystem) -> bool:
    """Submit a job demanding a custom image and profiler commands."""
    job = BaselineJob(
        owner="cfg-probe",
        image="webgpu/rai:minimal",
        commands=["cmake /src", "make",
                  "nvprof --export-profile timeline.nvprof "
                  "./ece408 /data/test10.hdf5 /data/model.hdf5"],
        # Configurability is about toolchain control, not GPU ownership —
        # the accessibility probe covers hardware.
        needs_gpu=False,
    )
    outcome = system.submit(job)
    return bool(outcome.accepted and outcome.ran_requested_commands
                and outcome.used_requested_image)


def probe_isolation(system: SubmissionSystem) -> bool:
    """Submit jobs that try to reach outside their own sandbox."""
    for mischief in ("read_other_user", "write_host", "network"):
        outcome = system.submit(BaselineJob(owner="iso-probe",
                                            mischief=mischief))
        if outcome.escaped_sandbox:
            return False
    return True


def probe_scalability(system: SubmissionSystem) -> bool:
    """Can the operator add meaningful capacity against a burst of
    :data:`BURST` jobs?"""
    before = system.capacity()
    added = system.add_capacity(BURST)
    return added >= BURST or before >= BURST


def probe_accessibility(system: SubmissionSystem) -> bool:
    """Remote student, no GPU of their own, no local infrastructure."""
    if not system.remote_accessible_without_hardware:
        return False
    outcome = system.submit(BaselineJob(owner="remote-probe",
                                        needs_gpu=True))
    return bool(outcome.accepted and outcome.had_gpu)


def probe_uniformity(system: SubmissionSystem) -> bool:
    """Does grading run through a staff-enforced identical procedure,
    even when the student supplies their own build steps?"""
    job = BaselineJob(owner="uni-probe",
                      commands=["echo my-own-procedure"])
    outcome = system.grading_run(job)
    return bool(outcome.enforced_grading_procedure)


_PROBES = {
    "Configurability": probe_configurability,
    "Isolation": probe_isolation,
    "Scalability": probe_scalability,
    "Accessibility": probe_accessibility,
    "Testing Uniformity": probe_uniformity,
}


def evaluate_system(system: SubmissionSystem) -> Dict[str, bool]:
    """Run all five probes against one system."""
    return {feature: _PROBES[feature](system) for feature in FEATURES}


def feature_matrix(systems: List[SubmissionSystem]) -> Dict[str, Dict[str, bool]]:
    """Table I, measured."""
    return {system.name: evaluate_system(system) for system in systems}


def render_matrix(matrix: Dict[str, Dict[str, bool]]) -> str:
    """ASCII rendering in the paper's layout."""
    width = max(len(name) for name in matrix) + 2
    header = "System".ljust(width) + " | " + " | ".join(
        f"{f:^18}" for f in FEATURES)
    lines = [header, "-" * len(header)]
    for name, row in matrix.items():
        cells = " | ".join(
            f"{'✓' if row[f] else '✗':^18}" for f in FEATURES)
        lines.append(name.ljust(width) + " | " + cells)
    return "\n".join(lines)
