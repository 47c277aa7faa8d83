"""Netlist builders: component values, sum rules, killer transform."""

import dataclasses
import math

import numpy as np
import pytest

from kljnsim.network import (
    Branch,
    CableSpec,
    Netlist,
    apply_capacitor_killer,
    build_distributed,
    build_lumped,
    cutoff_frequency,
    rg58,
    wavelength_ratio,
)


class TestCableSpec:
    def test_rg58_velocity_consistent(self):
        cable = rg58(1000.0)
        assert cable.velocity_m_s == pytest.approx(
            1.0 / np.sqrt(cable.l_per_m * cable.c_per_m), rel=0.01
        )

    def test_characteristic_impedance_50_ohm(self):
        assert rg58(100.0).characteristic_impedance() == pytest.approx(50.0)

    @pytest.mark.parametrize("l_per_m, c_per_m", [(0.0, 100e-12), (250e-9, 0.0)],
                             ids=["no_L", "no_C"])
    def test_velocity_infinite_without_l_or_c(self, l_per_m, c_per_m):
        cable = CableSpec(0.021, l_per_m, c_per_m, 1000.0, 10)
        assert cable.velocity_m_s == math.inf
        assert wavelength_ratio(cable, 250.0) == math.inf

    def test_negative_per_meter_rejected(self):
        with pytest.raises(ValueError):
            CableSpec(-0.021, 250e-9, 100e-12, 1000.0, 10)

    def test_default_segmentation(self):
        assert rg58(1000.0).n_segments == 100
        assert rg58(100.0).n_segments == 10


class TestBuildLumped:
    def test_canonical_values_at_1000m(self):
        nl = build_lumped(1000.0, 9000.0, rg58(1000.0))
        vals = {br.name: br.value for br in nl.branches}
        assert vals["rs0"] == pytest.approx(10.5)
        assert vals["ls0"] == pytest.approx(125e-6)
        assert vals["cs1"] == pytest.approx(100e-9)

    def test_capacitance_scales_with_length(self):
        nl = build_lumped(1000.0, 9000.0, rg58(100.0))
        vals = {br.name: br.value for br in nl.branches}
        assert vals["cs1"] == pytest.approx(10e-9)

    def test_zero_capacitance_no_cap_branch(self):
        cable = dataclasses.replace(rg58(1000.0), c_per_m=0.0)
        nl = build_lumped(1000.0, 9000.0, cable)
        assert not any(br.kind == "C" for br in nl.branches)

    def test_probes_present(self):
        nl = build_lumped(1000.0, 9000.0, rg58(1000.0))
        assert set(nl.probes) == {"u_cha", "i_cha", "u_chb", "i_chb"}

    def test_resistive_cable_without_inductance_ends_at_b(self):
        # the series resistor must join the two ends, not dangle
        nl = build_lumped(1000.0, 9000.0, CableSpec(0.021, 0.0, 100e-12, 1000.0, 1))
        br = {b.name: b for b in nl.branches}
        assert (br["rs0"].a, br["rs0"].b) == ("a", "b")
        assert br["cs1"].a == "b"
        assert nl.probes["u_chb"] == ("v", "b")


class TestBuildDistributed:
    def test_sum_rule_exact(self):
        cable = rg58(1000.0)
        nl = build_distributed(1000.0, 9000.0, cable)
        total = {"R": 0.0, "L": 0.0, "C": 0.0}
        for br in nl.branches:
            if br.name in ("ra", "rb"):
                continue
            if br.kind in total:
                total[br.kind] += br.value
        assert total["R"] == pytest.approx(21.0, rel=1e-12)
        assert total["L"] == pytest.approx(250e-6, rel=1e-12)
        assert total["C"] == pytest.approx(100e-9, rel=1e-12)

    def test_single_segment_is_single_pi(self):
        cable = dataclasses.replace(rg58(1000.0), n_segments=1)
        nl = build_distributed(1000.0, 9000.0, cable)
        caps = [br for br in nl.branches if br.kind == "C"]
        assert len(caps) == 2
        assert all(c.value == pytest.approx(50e-9) for c in caps)
        assert {c.a for c in caps} == {"a", "b"}

    def test_end_caps_are_half(self):
        nl = build_distributed(1000.0, 9000.0, rg58(1000.0))
        caps = {br.a: br.value for br in nl.branches if br.kind == "C"}
        assert caps["a"] == pytest.approx(0.5e-9)
        assert caps["b"] == pytest.approx(0.5e-9)
        assert caps["w50"] == pytest.approx(1e-9)

    def test_ideal_cable_collapses_to_one_node(self):
        ideal = CableSpec(0.0, 0.0, 0.0, 10.0, 4)
        nl = build_distributed(1000.0, 9000.0, ideal)
        # Alice's and Bob's probes share the single wire node
        assert nl.probes["u_cha"] == nl.probes["u_chb"]


class TestDiagnostics:
    def test_wavelength_ratio_point_eight(self):
        assert wavelength_ratio(rg58(1000.0), 250e3) == pytest.approx(0.8)

    def test_wavelength_ratio_800(self):
        assert wavelength_ratio(rg58(1000.0), 250.0) == pytest.approx(800.0)

    def test_gamma_one_when_length_equals_wavelength(self):
        cable = rg58(800.0)
        assert wavelength_ratio(cable, 250e3) == pytest.approx(1.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            wavelength_ratio(rg58(100.0), 0.0)

    def test_cutoff_1000m(self):
        assert cutoff_frequency(1e3, 9e3, 100e-9) == pytest.approx(1768.4, rel=1e-3)

    def test_cutoff_100m(self):
        assert cutoff_frequency(1e3, 9e3, 10e-9) == pytest.approx(17684.0, rel=1e-3)

    def test_cutoff_symmetric(self):
        r, c = 2200.0, 47e-9
        assert cutoff_frequency(r, r, c) == pytest.approx(1.0 / (np.pi * r * c))

    def test_cutoff_zero_capacitance_rejected(self):
        with pytest.raises(ValueError):
            cutoff_frequency(1e3, 9e3, 0.0)


class TestCapacitorKiller:
    def test_replaces_shield_tie_with_follower(self):
        nl = build_distributed(1000.0, 9000.0, rg58(1000.0))
        killed = apply_capacitor_killer(nl, "alice")
        kinds = {br.name: br.kind for br in killed.branches}
        assert "vsh" not in kinds
        assert kinds["ekill"] == "E"
        ekill = killed.branch("ekill")
        assert ekill.value == 1.0
        assert ekill.ctrl_a == "a"

    def test_tap_at_bob(self):
        nl = build_distributed(1000.0, 9000.0, rg58(1000.0))
        killed = apply_capacitor_killer(nl, "bob")
        assert killed.branch("ekill").ctrl_a == "b"

    def test_no_capacitors_warns_and_is_noop(self):
        cable = dataclasses.replace(rg58(1000.0), c_per_m=0.0)
        nl = build_distributed(1000.0, 9000.0, cable)
        with pytest.warns(UserWarning):
            out = apply_capacitor_killer(nl, "alice")
        assert out == nl

    def test_unknown_tap_rejected(self):
        nl = build_distributed(1000.0, 9000.0, rg58(1000.0))
        with pytest.raises(ValueError):
            apply_capacitor_killer(nl, "eve")

    def test_unknown_tap_rejected_without_shield_capacitors(self):
        cable = dataclasses.replace(rg58(1000.0), c_per_m=0.0)
        nl = build_distributed(1000.0, 9000.0, cable)
        with pytest.raises(ValueError, match="tap_end"):
            apply_capacitor_killer(nl, "carol")


class TestNetlistFormat:
    def test_text_dump_golden(self):
        cable = dataclasses.replace(rg58(20.0), n_segments=2)
        nl = build_distributed(1000.0, 9000.0, cable)
        expected = (
            "V ua sa 0 ua\n"
            "R ra sa a 1000\n"
            "V ub sb 0 ub\n"
            "R rb sb b 9000\n"
            "R rs0 a m0 0.21\n"
            "L ls0 m0 w1 2.5e-06\n"
            "R rs1 w1 m1 0.21\n"
            "L ls1 m1 b 2.5e-06\n"
            "C cs0 a sh 5e-10\n"
            "C cs1 w1 sh 1e-09\n"
            "C cs2 b sh 5e-10\n"
            "V vsh sh 0 0\n"
            "* probe u_cha v a\n"
            "* probe i_cha i ra\n"
            "* probe u_chb v b\n"
            "* probe i_chb i rb\n"
        )
        assert nl.to_text() == expected

    def test_duplicate_branch_name_rejected(self):
        with pytest.raises(ValueError):
            Netlist(
                branches=(
                    Branch("R", "r1", "a", "0", 1.0),
                    Branch("R", "r1", "a", "0", 2.0),
                )
            )

    @pytest.mark.parametrize(
        "branch",
        [
            Branch("r", "r1", "x", "0", 1.0),
            Branch("I", "i1", "x", "0", 1e-3),
            Branch("E", "e1", "y", "0", 1.0),
            Branch("E", "e1", "y", "0", 1.0, ctrl_a="x"),
        ],
        ids=["lowercase_kind", "current_source", "e_without_control", "e_without_ctrl_b"],
    )
    def test_malformed_branch_rejected(self, branch):
        # an unknown kind used to be an open circuit without a word
        with pytest.raises(ValueError, match=repr(branch.name)):
            Netlist(branches=(Branch("V", "u", "x", "0", 1.0), branch))

    def test_probe_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            Netlist(
                branches=(Branch("R", "r1", "a", "0", 1.0),),
                probes={"p": ("v", "nope")},
            )
