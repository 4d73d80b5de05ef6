"""The benchmark's references agree with the library on inputs where both
are trusted; metric names match BENCHMARK.json; traced counts repeat for a
fixed seed; calibration scales by the interpolated reference time."""

import json
import math

import numpy as np
import pytest

import oracles
import run
from workloads import ATOM_TOL, WORKLOADS, csv_window_shape
from radial_gabor.bessel import sph_bessel_values
from radial_gabor.frames import build_frame
from radial_gabor.lattice import LatticeSpec, covered_2d, lattice_table
from radial_gabor.profiles import (
    GaussianSpec,
    make_profile,
    norm,
    normalized_gaussian_window,
    profile_from_csv,
    profile_to_csv,
)


def test_grid_and_norms_match_the_library():
    for d in (2, 3, 5):
        radii, weights = oracles.grid(8.0, 1024, d)
        g = GaussianSpec(1.7, 0.8)
        prof = make_profile(d, 8.0, 1024, g)
        assert np.array_equal(radii, prof.radii)
        assert oracles.l2_norm(prof.values, weights) == pytest.approx(norm(prof), rel=1e-13)
        assert oracles.gaussian_norm(g.amp, g.alpha, d) == pytest.approx(norm(prof), rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_plane_wave_average_matches_library(d):
    t = np.linspace(0.0, 12.0, 2001)
    assert np.max(np.abs(oracles.plane_wave_average(d, t) - sph_bessel_values(d, t))) < 1e-9


@pytest.mark.parametrize("d, J", [(2, 6), (3, 4), (4, 3)])
def test_gaussian_closed_form_matches_frame_atoms(d, J):
    window = normalized_gaussian_window(d)
    fr = build_frame(window, LatticeSpec(a=0.5, b=0.5, d=d, jk_max=J))
    t = fr.table
    for i in range(len(fr)):
        ref = oracles.gaussian_atom(window.radii, 2.0 ** (d / 4.0), math.pi, d, t.r[i], t.s[i], t.c[i], t.mu[i])
        assert np.max(np.abs(fr.atom_matrix[i] - ref)) < 1e-12 * math.sqrt(t.mu[i])


def test_quadrature_reference_matches_csv_window_atoms(tmp_path):
    radii, weights = oracles.grid(8.0, 1024, 3)
    shape = make_profile(3, 8.0, 1024, csv_window_shape)
    path = tmp_path / "window.csv"
    profile_to_csv(shape.with_values(shape.values / oracles.l2_norm(shape.values, weights)), path)
    window = profile_from_csv(path, 3)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    ref_window = oracles.spline_window(data[:, 0], data[:, 1] + 1j * data[:, 2], 8.0)
    fr = build_frame(window, LatticeSpec(a=0.5, b=0.5, d=3, jk_max=3))
    t = fr.table
    for i in range(len(fr)):
        ref = oracles.quadrature_atom(ref_window, radii, 3, t.r[i], t.s[i], t.c[i], t.mu[i], 8.0)
        assert np.max(np.abs(fr.atom_matrix[i] - ref)) < ATOM_TOL * math.sqrt(t.mu[i])


def test_covering_oracle_agrees_with_covered_2d():
    spec = LatticeSpec(a=0.5, b=0.5, d=2, jk_max=30)
    t = lattice_table(spec)
    oracle = oracles.CoveringOracle(t.j, t.k, t.c, spec.a, spec.b)
    pts = np.random.default_rng(3).uniform(-5.0, 5.0, size=(40, 4))
    verdicts = [oracle.verdict(p[:2], p[2:]) for p in pts]
    decided = [(v, covered_2d(p[:2], p[2:], spec)) for v, p in zip(verdicts, pts) if v is not None]
    assert len(decided) >= 35
    assert {v for v, _ in decided} == {True, False}
    assert all(v == lib for v, lib in decided)


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _traced_counts(capsys):
    assert run.main(["--workload", "covering-scan", "--seed", "5", "--seconds", "0.1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def test_counts_repeat_exactly_for_a_fixed_seed(capsys):
    first = _traced_counts(capsys)
    assert first["lattice.angle_count_calls"] > 0 and 0.0 < first["lattice.covered_fraction"] < 1.0
    assert _traced_counts(capsys) == first


def test_calibration_scales_by_interpolated_reference_time():
    cal = run.Calibration()
    cal.at, cal.ref = [0.0, 10.0], [run.REF_NOMINAL_S, 2.0 * run.REF_NOMINAL_S]
    assert cal.scale([0.0, 5.0, 10.0, 20.0]).tolist() == pytest.approx([1.0, 1.0 / 1.5, 0.5, 0.5])
    cal.sample()
    assert len(cal.ref) == 3 and cal.ref[-1] > 0.0
