"""A build file naming an image the registry does not hold rejects one
job; it never stops the worker.

Whitelist validation only sees names, so an unknown image passes ``admit``
whenever the whitelist lists it (or is unset) and surfaces as
``ImageNotFound`` from the pull in ``acquire`` — the failure table's
``ContainerError``-at-acquire row.
"""

import pytest

from repro.buildspec import DEFAULT_BUILD_YAML
from repro.container.image import ImageRegistry, default_registry
from repro.core.job import JobStatus
from repro.core.system import RaiSystem

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}
UNKNOWN_IMAGE_YAML = DEFAULT_BUILD_YAML.replace("webgpu/rai:root",
                                                "nosuch/image:1")


def listed_but_never_added() -> ImageRegistry:
    registry = default_registry()
    registry._whitelist = ["webgpu/rai:root", "nosuch/image:1"]
    return registry


def no_whitelist_at_all() -> ImageRegistry:
    registry, course = ImageRegistry(), default_registry()
    for image in course._images.values():
        registry.add(image, whitelisted=False)
    assert registry.whitelist == []
    return registry


@pytest.mark.parametrize("make_registry",
                         [listed_but_never_added, no_whitelist_at_all])
def test_unknown_image_is_rejected_and_worker_lives(make_registry):
    system = RaiSystem(seed=5, registry=make_registry())
    worker = system.add_worker()
    bad = system.new_client(team="bad")
    bad.stage_project(FILES)
    bad.project_fs.write_file("/rai-build.yml", UNKNOWN_IMAGE_YAML)
    result = system.run(bad.submit())
    assert result.status is JobStatus.REJECTED
    assert result.exit_code is None
    rejections = [text for _, stream, text in result.log
                  if stream == "stderr" and text.startswith("✗")]
    assert len(rejections) == 1
    assert rejections[0].startswith("✗ job rejected: ")
    assert "nosuch/image:1" in rejections[0]
    submissions = system.db.collection("submissions")
    assert submissions.find({"job_id": result.job_id}).count() == 0

    good = system.new_client(team="good")
    good.stage_project(FILES)
    assert system.run(good.submit()).status is JobStatus.SUCCEEDED
    assert worker.is_running and worker.active_jobs == 0
    assert worker.slot_count == 1
    assert system.broker.dead_letter_count() == 0
