"""Model agreement across the three wavelength regimes."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from kljnsim import compare
from kljnsim.compare import compare_models, write_comparison_csv
from kljnsim.network import build_distributed, rg58
from kljnsim.solver import TransientSolver


@pytest.fixture(scope="module")
def reports():
    cable = rg58(1000.0)
    return {
        bw: compare_models(cable, 1000.0, 9000.0, bw, seed=3)
        for bw in (250e3, 25e3, 250.0)
    }


class TestRegimes:
    def test_gamma_values(self, reports):
        assert reports[250e3].gamma == pytest.approx(0.8)
        assert reports[25e3].gamma == pytest.approx(8.0)
        assert reports[250.0].gamma == pytest.approx(800.0)

    def test_quasi_static_indistinguishable(self, reports):
        assert reports[250.0].nrmsd < 0.01
        assert reports[250.0].verdict == "indistinguishable"

    def test_intermediate_similar(self, reports):
        assert reports[25e3].nrmsd < 0.1
        assert reports[25e3].verdict == "similar"

    def test_wave_regime_disagrees(self, reports):
        assert reports[250e3].verdict == "waves"

    def test_strict_ordering(self, reports):
        assert reports[250e3].nrmsd > reports[25e3].nrmsd > reports[250.0].nrmsd

    def test_csv_dump(self, reports, tmp_path):
        path = tmp_path / "cmp.csv"
        write_comparison_csv(reports[250.0], path)
        header = path.read_text().splitlines()[0]
        assert header == "t,u_lumped,u_distributed"


def test_run_shorter_than_the_settle_ramp_rejected():
    # at 250 Hz the ramp is 2 / B = 8 ms; nrmsd is read from the records after it
    with mock.patch.object(compare, "transient_solve") as solve:
        with pytest.raises(ValueError, match=r"duration_s \(0.001 s\).*0.008 s settle ramp"):
            compare_models(rg58(100.0), 1e3, 9e3, 250.0, duration_s=0.001)
    assert solve.call_count == 0
    assert compare_models(rg58(100.0), 1e3, 9e3, 250.0, duration_s=0.0085).nrmsd < 0.01


class TestRefinementOracle:
    def test_doubling_segments_changes_little(self):
        # at gamma = 800 the 100-segment ladder is fully converged
        bw = 250.0
        dt = 1.0 / (256.0 * bw)
        n = 12800
        rng = np.random.default_rng(17)
        from kljnsim.noise import NoiseSpec, generate

        na = generate(NoiseSpec(bw, 1.0, n * dt, dt, seed=18)).samples.copy()
        nb = generate(NoiseSpec(bw, 3.0, n * dt, dt, seed=19)).samples.copy()
        ramp_n = 512
        ramp = 0.5 * (1 - np.cos(np.pi * np.arange(ramp_n) / ramp_n))
        na[:ramp_n] *= ramp
        nb[:ramp_n] *= ramp
        traces = {}
        for segs in (100, 200):
            cable = dataclasses.replace(rg58(1000.0), n_segments=segs)
            solver = TransientSolver(build_distributed(1000.0, 9000.0, cable), dt)
            u = solver.assemble_inputs(n, {"ua": na, "ub": nb})
            traces[segs] = solver.run(np.zeros(solver.n_states), u, record_stride=32)[0][:, 0]
        skip = len(traces[100]) // 10
        a, b = traces[100][skip:], traces[200][skip:]
        nrmsd = np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(b**2))
        assert nrmsd < 0.01
