"""Table I: the feature matrix is derived by probing live systems."""

import pytest

from repro.baselines import (
    JenkinsCI,
    QwikLabsSystem,
    RaiFacade,
    StudentProvidedSystem,
    TorqueCluster,
    WebGPUSystem,
    evaluate_system,
    feature_matrix,
)
from repro.baselines.features import FEATURES, PAPER_TABLE_1, render_matrix
from repro.sim import Simulator


@pytest.fixture(scope="module")
def matrix():
    sim = Simulator()
    systems = [StudentProvidedSystem(), TorqueCluster(sim), WebGPUSystem(),
               JenkinsCI(), QwikLabsSystem(), RaiFacade()]
    return feature_matrix(systems)


class TestTable1:
    def test_matches_paper_exactly(self, matrix):
        assert matrix == PAPER_TABLE_1

    def test_rai_is_the_only_all_check_row(self, matrix):
        full_rows = [name for name, row in matrix.items()
                     if all(row.values())]
        assert full_rows == ["RAI"]

    def test_every_axis_evaluated_for_every_system(self, matrix):
        for row in matrix.values():
            assert set(row) == set(FEATURES)

    def test_render(self, matrix):
        text = render_matrix(matrix)
        assert "RAI" in text and "✓" in text and "✗" in text


class TestIndividualProbes:
    def test_webgpu_blocks_profilers(self):
        row = evaluate_system(WebGPUSystem())
        assert not row["Configurability"]
        assert row["Testing Uniformity"]

    def test_student_provided_gpu_gap(self):
        """§II: 70% of students had no CUDA GPU → not accessible."""
        row = evaluate_system(StudentProvidedSystem())
        assert not row["Accessibility"]

    def test_torque_no_uniformity(self):
        row = evaluate_system(TorqueCluster(Simulator()))
        assert row["Configurability"]
        assert not row["Testing Uniformity"]

    def test_jenkins_not_accessible(self):
        row = evaluate_system(JenkinsCI())
        assert not row["Accessibility"]

    def test_qwiklabs_canned_catalog(self):
        row = evaluate_system(QwikLabsSystem())
        assert not row["Configurability"]
        assert not row["Testing Uniformity"]

    def test_rai_isolation_probes_are_real(self):
        """The RAI isolation column is measured by actual attack jobs."""
        from repro.baselines.base import BaselineJob

        facade = RaiFacade()
        for mischief in ("read_other_user", "write_host", "network"):
            outcome = facade.submit(BaselineJob(owner="attacker",
                                                mischief=mischief))
            assert not outcome.escaped_sandbox, mischief
