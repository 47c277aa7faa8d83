"""Model agreement across the three wavelength regimes."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from kljnsim import compare
from kljnsim.compare import compare_models, write_comparison_csv
from kljnsim.network import build_distributed, rg58
from kljnsim.noise import NoiseSpec, generate, rms_for_resistor
from kljnsim.protocol import T_EFF_DEFAULT, derive_seed
from kljnsim.solver import TransientSolver

from conftest import source_steps


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


@pytest.mark.parametrize(
    "bandwidth_hz, duration_s, match",
    [
        (0.0, None, "bandwidth_hz"),
        (-250.0, None, "bandwidth_hz"),
        (float("nan"), None, "bandwidth_hz"),
        (float("inf"), None, "bandwidth_hz"),
        (250.0, float("nan"), "duration_s"),
        (250.0, float("inf"), "duration_s"),
    ],
    ids=["bandwidth_zero", "bandwidth_negative", "bandwidth_nan", "bandwidth_inf",
         "duration_nan", "duration_inf"],
)
def test_invalid_arguments_named_before_any_build(bandwidth_hz, duration_s, match):
    with mock.patch.object(compare, "TransientSolver") as build:
        with pytest.raises(ValueError, match=match):
            compare_models(rg58(100.0), 1e3, 9e3, bandwidth_hz, duration_s=duration_s)
    assert build.call_count == 0


def test_run_shorter_than_one_record_rejected():
    # at 250 Hz a record is 32 steps of 1 / (256 B), 0.5 ms
    with mock.patch.object(compare, "TransientSolver") as build:
        with pytest.raises(ValueError, match=r"duration_s \(0.0004 s\).*one record of 32 steps"):
            compare_models(rg58(100.0), 1e3, 9e3, 250.0, duration_s=0.0004)
    assert build.call_count == 0
    report = compare_models(rg58(100.0), 1e3, 9e3, 250.0, duration_s=0.0005)
    assert len(report.times) == 1 and report.nrmsd < 0.01


class TestStationaryTrace:
    def test_meets_plain_stepping_after_start_up(self, reports):
        # the same lines through the 1000 m ladder, stepped from rest under
        # a cosine switch-on; the traces meet once its start-up has decayed
        bw, seed = 250.0, 3
        dt = 1.0 / (256.0 * bw)
        parties = [(rms_for_resistor(r, T_EFF_DEFAULT, bw), derive_seed(seed, 0, purpose))
                   for r, purpose in ((1e3, 0), (9e3, 1))]
        n = 12800
        solver = TransientSolver(build_distributed(1e3, 9e3, rg58(1000.0)), dt)
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(512) / 512))
        noise = {}
        for name, (rms, s) in zip(("ua", "ub"), parties):
            noise[name] = generate(NoiseSpec(bw, rms, n * dt, dt, seed=s)).samples.copy()
            noise[name][:512] *= ramp
        y, _ = solver.run(np.zeros(solver.n_states), source_steps(solver, n, noise))
        stepped = y[31::32, solver.probe_names.index("u_cha")]
        stationary = reports[bw].u_distributed
        skip = len(stepped) // 10

        def deviation(trace):
            return np.max(np.abs(trace - stepped)[skip:]) / np.max(np.abs(stepped))

        assert deviation(stationary) < 1e-10
        # one line's phase turned by a quarter fails the same bound
        n_pad, lines = compare.party_lines(bw, n * dt, dt, parties)
        lines[0, 100] *= 1j
        shifted = compare.stationary_records(solver.netlist, dt, n_pad, lines, len(stepped))
        assert deviation(shifted) > 1e-10


class TestRefinementOracle:
    def test_doubling_segments_changes_little(self):
        # at gamma = 800 the 100-segment ladder is fully converged
        bw = 250.0
        dt = 1.0 / (256.0 * bw)
        n_pad, lines = compare.party_lines(bw, 12800 * dt, dt, [(1.0, 18), (3.0, 19)])
        traces = {}
        for segs in (100, 200):
            cable = dataclasses.replace(rg58(1000.0), n_segments=segs)
            traces[segs] = compare.stationary_records(build_distributed(1000.0, 9000.0, cable),
                                                      dt, n_pad, lines, 400)
        a, b = traces[100], traces[200]
        nrmsd = np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(b**2))
        assert nrmsd < 0.01
