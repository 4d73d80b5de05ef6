"""Command-line interface behavior: outputs, schemas, exit codes and
byte-level determinism."""

import json
import os
import warnings

import numpy as np
import pytest

from radial_gabor.cli import main
from radial_gabor.lattice import index_count


def run(argv):
    return main(argv)


class TestLattice:
    def test_row_count_matches_index_count(self, tmp_path, capsys):
        assert run(["lattice", "--d", "2", "--J", "4", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "lattice.csv").read_text().strip().splitlines()
        assert lines[0] == "j,k,ell,r,s,c,mu"
        assert len(lines) - 1 == index_count(4)

    def test_invalid_parameter_exit_code(self, tmp_path, capsys):
        assert run(["lattice", "--J", "0", "--out", str(tmp_path)]) == 1

    def test_overflowing_weights_exit(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["lattice", "--d", "300", "--J", "40", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "parameter d" in err and "Traceback" not in err
        assert not (tmp_path / "lattice.csv").exists()

    def test_unparseable_flag_exit_code(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["lattice", "--J", "not-a-number", "--out", str(tmp_path)])
        assert exc.value.code == 1


class TestEmbed:
    def test_compact_verdict(self, tmp_path, capsys):
        code = run(
            ["embed", "--p", "1", "--q", "2", "--s", "0", "--t", "0", "--d", "2",
             "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "embed.json").read_text())
        assert payload["status"] == "Compact"
        assert payload["alpha"] == 0.5
        assert payload["threshold"] == 0.5
        assert payload["entropy_decay"] == pytest.approx(2.0 / 3.0)
        assert payload["approx_decay"] == pytest.approx(1.0 / 6.0)
        out = capsys.readouterr().out
        assert json.loads(out)["status"] == "Compact"

    def test_infinite_q_serialized(self, tmp_path, capsys):
        code = run(
            ["embed", "--p", "1", "--q", "inf", "--s", "0", "--t", "0", "--d", "3",
             "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "embed.json").read_text())
        assert payload["q"] == "inf"
        assert payload["status"] == "Compact"

    def test_negative_infinity_serialized(self, tmp_path, capsys):
        assert run(["embed", "--p", "1", "--q", "2", "--s=-inf", "--t", "0", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "embed.json").read_text())["s"] == "-inf"

    def test_borderline_continuous(self, tmp_path, capsys):
        run(["embed", "--p", "1", "--q", "2", "--s", "0", "--t", "0.5", "--d", "2",
             "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "embed.json").read_text())
        assert payload["status"] == "Continuous"

    def test_p_above_q_not_embedded(self, tmp_path, capsys):
        assert run(["embed", "--p", "2", "--q", "1", "--s", "0", "--t", "0", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "embed.json").read_text())
        assert payload["status"] == "NotEmbedded"
        assert payload["alpha"] == -0.5
        assert payload["threshold"] == "-inf"
        assert payload["entropy_decay"] is None and payload["approx_decay"] is None
        assert json.loads(capsys.readouterr().out) == payload

    @pytest.mark.parametrize(
        "s,t,parameter",
        [("nan", "0", "parameter s"), ("0", "nan", "parameter t"), ("inf", "inf", "parameters s, t")],
        ids=["s-nan", "t-nan", "both-inf"],
    )
    def test_undefined_weight_difference_rejected(self, s, t, parameter, tmp_path, capsys):
        assert run(["embed", "--p", "1", "--q", "2", "--s", s, "--t", t, "--out", str(tmp_path)]) == 1
        assert parameter in capsys.readouterr().err
        assert not (tmp_path / "embed.json").exists()


class TestOmega:
    def test_figure_data_emission(self, tmp_path, capsys):
        code = run(
            ["omega", "--d", "2", "--r", "4", "--s", "0", "--c", "1",
             "--window", "gauss", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "omega.csv").read_text().strip().splitlines()
        assert lines[0] == "theta,re,im"
        assert len(lines) - 1 == 1024
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        # zero frequency keeps the output real; peak sits near theta = r
        assert np.max(np.abs(rows[:, 2])) < 1e-10
        assert abs(rows[np.argmax(rows[:, 1]), 0] - 4.0) < 0.5

    def test_identity_point_returns_window(self, tmp_path, capsys):
        code = run(
            ["omega", "--d", "2", "--r", "0", "--s", "0", "--c", "1",
             "--window", "gauss", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "omega.csv").read_text().strip().splitlines()[1:]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert np.max(np.abs(rows[:, 1] - np.exp(-rows[:, 0] ** 2))) < 1e-12
        assert np.max(np.abs(rows[:, 2])) < 1e-15

    def test_unallocatable_node_count_exit(self, tmp_path, capsys):
        assert run(["omega", "--r", "1e200", "--s", "1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "parameter r" in err and "Traceback" not in err
        assert not (tmp_path / "omega.csv").exists()


class TestStft:
    def test_grid_rows(self, tmp_path, capsys):
        code = run(
            ["stft", "--r", "0,1", "--s", "0,1", "--c", "0.5", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "stft.csv").read_text().strip().splitlines()
        assert lines[0] == "r,s,c,re,im,abs"
        assert len(lines) - 1 == 4
        first = [float(v) for v in lines[1].split(",")]
        assert first[5] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("flag", ["r", "s", "c"])
    def test_empty_list_rejected(self, flag, tmp_path, capsys):
        assert run(["stft", f"--{flag}", "", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"parameter {flag}: must name at least one value" in err
        assert not (tmp_path / "stft.csv").exists()


class TestFrame:
    def test_reconstruction_summary(self, tmp_path, capsys):
        code = run(
            ["frame", "--d", "2", "--J", "6", "--tol", "1e-4", "--out", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "frame_summary.json").read_text())
        assert summary["atoms"] == index_count(6)
        assert summary["converged"] is True
        assert summary["relative_error"] <= 1e-4
        lines = (tmp_path / "frame_coeffs.csv").read_text().strip().splitlines()
        assert lines[0] == "j,k,ell,re,im"
        assert len(lines) - 1 == index_count(6)

    @pytest.mark.parametrize(
        "flag,value,parameter",
        [("--tol", "nan", "tol"), ("--tol", "inf", "tol"),
         ("--max-iter", "0", "max_iter"), ("--max-iter", "-5", "max_iter")],
    )
    def test_rejected_solver_parameter(self, flag, value, parameter, tmp_path, capsys):
        assert run(["frame", "--J", "4", f"{flag}={value}", "--out", str(tmp_path)]) == 1
        assert f"parameter {parameter}" in capsys.readouterr().err
        assert not (tmp_path / "frame_summary.json").exists()

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        code = run(
            ["frame", "--d", "2", "--J", "3", "--tol", "1e-12", "--max-iter", "4",
             "--out", str(tmp_path)]
        )
        assert code == 2

    def test_failed_write_keeps_previous_output(self, tmp_path, monkeypatch, capsys):
        old = b"j,k,ell,re,im\nprevious run\n"
        (tmp_path / "frame_coeffs.csv").write_bytes(old)

        def fail(src, dst):
            raise OSError("simulated failure of the final rename")

        monkeypatch.setattr(os, "replace", fail)
        assert run(["frame", "--d", "2", "--J", "3", "--out", str(tmp_path)]) == 3
        assert "simulated" in capsys.readouterr().err
        assert (tmp_path / "frame_coeffs.csv").read_bytes() == old
        assert list(tmp_path.glob("*.tmp")) == []

    def test_out_naming_regular_file_exit_code(self, tmp_path, capsys):
        target = tmp_path / "not-a-directory"
        target.write_bytes(b"keep me\n")
        assert run(["frame", "--d", "2", "--J", "3", "--out", str(target)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert target.read_bytes() == b"keep me\n"

    def test_outputs_follow_umask(self, tmp_path, capsys):
        previous = os.umask(0o022)
        try:
            assert run(["lattice", "--d", "2", "--J", "3", "--out", str(tmp_path)]) == 0
            assert run(["frame", "--d", "2", "--J", "3", "--out", str(tmp_path)]) == 0
        finally:
            os.umask(previous)
        for name in ("lattice.csv", "frame_coeffs.csv"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o644


class TestApprox:
    def test_csv_schema(self, tmp_path, capsys):
        code = run(
            ["approx", "--d", "2", "--J", "8", "--n-list", "0,2,8,32",
             "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "approx.csv").read_text().strip().splitlines()
        assert lines[0] == "n,radial_error,baseline_error,slope_fit"
        assert len(lines) - 1 == 4
        rows = [line.split(",") for line in lines[1:]]
        ns = [int(r[0]) for r in rows]
        assert ns == [0, 2, 8, 32]
        radial = [float(r[1]) for r in rows]
        baseline = [float(r[2]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(radial, radial[1:]))
        assert all(b <= a + 1e-10 for a, b in zip(baseline, baseline[1:]))

    def test_nterm_rows_follow_sorted_n(self, tmp_path, capsys):
        # one dual solve serves every n; each row must carry the error that
        # nterm_greedy reports for its own n, whatever the order of --n-list
        from radial_gabor.approximation import nterm_greedy
        from radial_gabor.cli import _window_profile
        from radial_gabor.frames import build_frame
        from radial_gabor.lattice import LatticeSpec

        argv = ["approx", "--d", "2", "--J", "5", "--n-points", "512", "--no-baseline"]
        assert run(argv + ["--n-list", "8,1,4", "--out", str(tmp_path / "a")]) == 0
        assert run(argv + ["--n-list", "1,4,8", "--out", str(tmp_path / "b")]) == 0
        text = (tmp_path / "a" / "approx.csv").read_text()
        assert text == (tmp_path / "b" / "approx.csv").read_text()
        fr = build_frame(_window_profile("normalized", 2, 8.0, 512), LatticeSpec(0.5, 0.5, 2, 5))
        target = _window_profile("gauss2", 2, 8.0, 512)
        for line in text.splitlines()[1:]:
            n, err = line.split(",")[:2]
            assert float(err) == nterm_greedy(target, fr, int(n), 2.0, 0.0)[1]

    def test_oversized_n_rejected(self, tmp_path, capsys):
        code = run(
            ["approx", "--d", "2", "--J", "2", "--n-list", "0,500", "--out", str(tmp_path)]
        )
        assert code == 1

    def test_empty_n_list_rejected(self, tmp_path, capsys):
        assert run(["approx", "--n-list", "", "--out", str(tmp_path)]) == 1
        assert "parameter n_list" in capsys.readouterr().err
        assert not (tmp_path / "approx.csv").exists()

    @pytest.mark.parametrize(
        "argv,parameter",
        [
            (["--n-list=-1,2", "--no-baseline"], "parameter n_list"),
            (["--d", "3", "--J", "8", "--n-list", "0,2,8"], "parameter baseline"),
            (["--mode", "linear", "--p", "4", "--q", "2"], "parameter p: --mode linear requires p <= q"),
        ],
        ids=["negative-n", "baseline-d3", "linear-p-above-q"],
    )
    def test_rejected_before_frame_build(self, argv, parameter, tmp_path, monkeypatch, capsys):
        from radial_gabor import cli

        def no_build(*args, **kwargs):
            raise AssertionError("the frame was built before the parameters were checked")

        monkeypatch.setattr(cli, "build_frame", no_build)
        assert run(["approx", *argv, "--out", str(tmp_path)]) == 1
        assert parameter in capsys.readouterr().err
        assert not (tmp_path / "approx.csv").exists()

    def test_nterm_accepts_p_above_q(self, tmp_path, monkeypatch):
        # the n-term rule is defined for p > q, so the run reaches the build
        from radial_gabor import cli

        class Built(Exception):
            pass

        def build(*args, **kwargs):
            raise Built

        monkeypatch.setattr(cli, "build_frame", build)
        with pytest.raises(Built):
            run(["approx", "--p", "4", "--q", "2", "--no-baseline", "--out", str(tmp_path)])

    def test_unconverged_dual_exit_code(self, tmp_path, capsys):
        code = run(
            ["approx", "--d", "2", "--J", "6", "--n-points", "512", "--n-list", "0,2,8,16",
             "--no-baseline", "--max-iter", "3", "--out", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("non-convergence: ")
        assert not (tmp_path / "approx.csv").exists()

    def test_nterm_slope_skips_solver_floor(self, tmp_path, capsys):
        # at tol = 1e-3 the n = 24 error sits below 20 tol ||f||, where it
        # measures the dual solve, so the fit must leave it out as
        # linear_approx does
        from radial_gabor.cli import _window_profile
        from radial_gabor.embeddings import fit_decay_slope
        from radial_gabor.profiles import norm

        tol = 1e-3
        code = run(
            ["approx", "--d", "2", "--J", "5", "--n-points", "512", "--tol", str(tol),
             "--no-baseline", "--n-list", "0,1,2,4,8,16,24", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = [line.split(",") for line in (tmp_path / "approx.csv").read_text().splitlines()[1:]]
        floor = 20.0 * tol * norm(_window_profile("gauss2", 2, 8.0, 512))
        ns = [int(r[0]) for r in rows]
        errors = [float(r[1]) for r in rows]
        assert any(n > 0 and 1e-10 < e <= floor for n, e in zip(ns, errors))
        kept = [(n, e) for n, e in zip(ns, errors) if n > 0 and e > floor]
        expected, _ = fit_decay_slope([n for n, _ in kept], [e for _, e in kept])
        assert float(rows[0][3]) == expected


class TestCovering:
    def test_small_run(self, tmp_path, capsys):
        code = run(
            ["covering", "--num-points", "40", "--J", "16", "--box", "2",
             "--seed", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "covering.json").read_text())
        assert payload["num_points"] == 40
        assert 0.8 <= payload["fraction"] <= 1.0

    @pytest.mark.parametrize("num_points", ["0", "-3"])
    def test_nonpositive_num_points_rejected(self, num_points, tmp_path, capsys):
        assert run(["covering", "--num-points", num_points, "--out", str(tmp_path)]) == 1
        assert "parameter num_points" in capsys.readouterr().err
        assert not (tmp_path / "covering.json").exists()

    @pytest.mark.parametrize("box", ["0", "-5", "inf", "1e308"])
    def test_nonpositive_box_rejected(self, box, tmp_path, monkeypatch, capsys):
        from radial_gabor import cli

        def no_scan(*args, **kwargs):
            raise AssertionError("points were checked before the parameters")

        monkeypatch.setattr(cli, "covered_2d", no_scan)
        assert run(["covering", "--box", box, "--num-points", "5", "--out", str(tmp_path)]) == 1
        assert "parameter box: must be positive" in capsys.readouterr().err
        assert not (tmp_path / "covering.json").exists()


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv,parameter,output",
        [
            (["lattice", "--a", "nan", "--J", "3"], "parameter a", "lattice.csv"),
            (["lattice", "--a", "inf"], "parameter a", "lattice.csv"),
            (["frame", "--a", "nan", "--J", "3", "--n-points", "256"], "parameter a", "frame_coeffs.csv"),
            (["omega", "--s", "1", "--c", "nan"], "parameter c", "omega.csv"),
            (["omega", "--s", "inf"], "parameter s", "omega.csv"),
            (["omega", "--r", "nan"], "parameter r", "omega.csv"),
        ],
        ids=["lattice-a-nan", "lattice-a-inf", "frame-a-nan", "omega-c-nan", "omega-s-inf", "omega-r-nan"],
    )
    def test_rejected(self, argv, parameter, output, tmp_path, capsys):
        assert run([*argv, "--out", str(tmp_path)]) == 1
        assert parameter in capsys.readouterr().err
        assert not (tmp_path / output).exists()


class TestRejectedParameterNamed:
    @pytest.mark.parametrize(
        "argv,message,output",
        [
            (["lattice", "--J", "0"], "parameter jk_max: truncation must be at least 1, got 0", "lattice.csv"),
            (["lattice", "--d", "1"], "parameter d: dimension must be at least 2, got 1", "lattice.csv"),
            (["embed", "--p", "0.5", "--q", "2", "--s", "0", "--t", "0"], "parameter p: must lie in [1, inf], got 0.5",
             "embed.json"),
        ],
        ids=["lattice-J-0", "lattice-d-1", "embed-p-half"],
    )
    def test_message_names_parameter(self, argv, message, output, tmp_path, capsys):
        assert run([*argv, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / output).exists()


class TestConfigFile:
    def test_config_defaults_and_override(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("J=3\nd=2\n")
        out1 = tmp_path / "one"
        assert run(["lattice", "--config", str(config), "--out", str(out1)]) == 0
        assert len((out1 / "lattice.csv").read_text().strip().splitlines()) - 1 == index_count(3)
        out2 = tmp_path / "two"
        assert run(
            ["lattice", "--config", str(config), "--J", "5", "--out", str(out2)]
        ) == 0
        assert len((out2 / "lattice.csv").read_text().strip().splitlines()) - 1 == index_count(5)

    def test_config_equals_form(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("J=3\n")
        assert run(["lattice", f"--config={config}", "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "lattice.csv").read_text().strip().splitlines()) - 1 == index_count(3)

    def test_abbreviated_flag_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("J=3\n")
        with pytest.raises(SystemExit) as exc:
            run(["lattice", "--conf", str(config), "--out", str(tmp_path)])
        assert exc.value.code == 1
        assert not (tmp_path / "lattice.csv").exists()

    def test_missing_config_exit(self, tmp_path):
        assert run(["lattice", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1

    def test_malformed_config_exit(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just some text\n")
        assert run(["lattice", "--config", str(config), "--out", str(tmp_path)]) == 1


class TestDeterminism:
    COMMANDS = [
        (["lattice", "--d", "2", "--J", "3"], ["lattice.csv"]),
        (["embed", "--p", "1", "--q", "2", "--s", "0", "--t", "0", "--d", "2"], ["embed.json"]),
        (["omega", "--d", "2", "--r", "2", "--s", "1", "--c", "0.5", "--n-points", "256"], ["omega.csv"]),
        (["stft", "--r", "0,1", "--s", "1", "--c", "0.5", "--n-points", "256"], ["stft.csv"]),
        (
            ["frame", "--d", "2", "--J", "4", "--tol", "1e-3", "--n-points", "512"],
            ["frame_coeffs.csv", "frame_summary.json"],
        ),
        (
            ["approx", "--d", "2", "--J", "5", "--n-list", "0,2,8", "--n-points", "512"],
            ["approx.csv"],
        ),
        (
            ["covering", "--num-points", "25", "--J", "12", "--box", "1.5", "--seed", "11"],
            ["covering.json"],
        ),
    ]

    @pytest.mark.parametrize("argv,outputs", COMMANDS, ids=[c[0][0] for c in COMMANDS])
    def test_byte_identical_reruns(self, argv, outputs, tmp_path, capsys):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run(argv + ["--seed", "7", "--out", str(dir_a)]) in (0, 2)
        assert run(argv + ["--seed", "7", "--out", str(dir_b)]) in (0, 2)
        for name in outputs:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
