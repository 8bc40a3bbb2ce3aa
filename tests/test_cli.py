import csv
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import polarcube
from polarcube import random_scene, read_spsi, write_spsi
from polarcube.cli import main

RNG = np.random.default_rng(612)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = [ln for ln in captured.out.strip().split("\n") if ln]
    config = json.loads(lines[0])["config"] if lines else None
    summary = json.loads(lines[-1]).get("summary") if code == 0 else None
    return code, config, summary, captured.err


def write_cube(path, h=16, w=16, c=3, seed=5):
    img = random_scene(h, w, c, np.random.default_rng(seed),
                       wavelengths=500.0 + 10 * np.arange(c))
    write_spsi(path, img)
    return img


class TestRoundtrip:
    def test_noiseless_roundtrip_reports_tiny_error(self, capsys):
        code, config, summary, _ = run_cli(
            capsys, "roundtrip", "--camera", "hyperspectral", "--noise", "0",
            "--seed", "7", "--size", "24", "--channels", "5",
        )
        assert code == 0
        assert config["camera"]["kind"] == "hyperspectral"
        assert summary["max_rel_error"] < 1e-5

    def test_trichromatic_roundtrip(self, capsys):
        code, _, summary, _ = run_cli(
            capsys, "roundtrip", "--camera", "trichromatic", "--noise", "0",
            "--seed", "3", "--size", "64",
        )
        assert code == 0
        assert summary["mse"] < 1e-3

    def test_seed_required(self, capsys):
        code, *_ = run_cli(capsys, "roundtrip", "--camera", "hyperspectral")
        assert code == 2


class TestSimulateReconstruct:
    def test_pipeline_through_files(self, capsys, tmp_path):
        raw_path = str(tmp_path / "raw.spsi")
        cube_path = str(tmp_path / "cube.spsi")
        code, _, summary, _ = run_cli(
            capsys, "simulate", "--camera", "hyperspectral", "--seed", "11",
            "--height", "12", "--width", "12", "--channels", "4", "--out", raw_path,
        )
        assert code == 0
        assert summary["frames"] == 16
        code, _, summary, _ = run_cli(capsys, "reconstruct", raw_path, "--out", cube_path)
        assert code == 0
        assert summary["valid_fraction"] == 1.0
        assert read_spsi(cube_path).channels == 4

    def test_identical_seed_gives_byte_identical_output(self, capsys, tmp_path):
        out_a, out_b = str(tmp_path / "a.spsi"), str(tmp_path / "b.spsi")
        for out in (out_a, out_b):
            code, *_ = run_cli(
                capsys, "simulate", "--camera", "hyperspectral", "--seed", "4",
                "--height", "8", "--width", "8", "--channels", "2",
                "--noise", "0.01", "--out", out,
            )
            assert code == 0
        assert (tmp_path / "a.spsi").read_bytes() == (tmp_path / "b.spsi").read_bytes()

    def test_resolved_config_printed_first(self, capsys, tmp_path):
        code, config, _, _ = run_cli(
            capsys, "simulate", "--camera", "hyperspectral", "--seed", "1",
            "--height", "8", "--width", "8", "--channels", "2",
            "--out", str(tmp_path / "r.spsi"),
        )
        assert code == 0
        assert config["seed"] == 1
        assert config["camera"]["height"] == 8
        assert "solver" in config and "pca" in config


class TestValidateAndStats:
    def test_validate_synthetic_cube(self, capsys, tmp_path):
        path = str(tmp_path / "cube.spsi")
        write_cube(path)
        code, _, summary, _ = run_cli(capsys, "validate", path)
        assert code == 0
        assert summary["valid_fraction"] == 1.0

    def test_validate_counts_nonfinite_valid_entries(self, capsys, tmp_path):
        path = str(tmp_path / "cube.spsi")
        img = random_scene(8, 8, 3, np.random.default_rng(5))
        img.mask[2, 3, 1] = False
        img.data[2, 3, 1, 0] = np.inf  # masked: not counted
        img.data[4, 5, 2, 3] = np.nan
        write_spsi(path, img)
        code, _, summary, _ = run_cli(capsys, "validate", path)
        assert code == 0
        assert summary["nonfinite_valid"] == 1

    def test_aolp_gradient_stats_support(self, capsys, tmp_path):
        cube_path = str(tmp_path / "cube.spsi")
        csv_path = str(tmp_path / "grad.csv")
        write_cube(cube_path)
        code, _, summary, _ = run_cli(
            capsys, "stats", cube_path, "--feature", "aolp-gradient", "--out", csv_path,
        )
        assert code == 0
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        lows = [float(r[k]) for r in rows for k in r if k.startswith("bin_left")]
        highs = [float(r[k]) for r in rows for k in r if k.startswith("bin_right")]
        assert min(lows) >= -np.pi / 2 - 1e-9
        assert max(highs) <= np.pi / 2 + 1e-9

    @pytest.mark.parametrize("feature", ["s1", "rho", "pol-unpol", "dolp-gradient"])
    def test_stats_pools_every_input_file(self, capsys, tmp_path, feature):
        paths = [str(tmp_path / f"cube{k}.spsi") for k in range(3)]
        cubes = [write_cube(path, h=9 + k, seed=k) for k, path in enumerate(paths)]
        out = str(tmp_path / "got_")
        code, *_ = run_cli(capsys, "stats", *paths, "--feature", feature, "--out", out)
        assert code == 0
        if feature == "pol-unpol":
            found = dict(zip(("polarized.csv", "unpolarized.csv"),
                             polarcube.pol_unpol_histograms(cubes)))
        elif feature == "dolp-gradient":
            found = {"": polarcube.feature_gradient_histograms(cubes, "dolp")}
        elif feature == "s1":
            found = {"": polarcube.stokes_histograms(cubes, "s1")}
        else:
            found = {"": polarcube.Histogram.from_samples(
                np.concatenate([v[ok] for v, ok in (polarcube.feature_plane(c, feature)
                                                     for c in cubes)]), label=feature)}
        for suffix, hist in found.items():
            polarcube.export_csv(hist, str(tmp_path / f"want_{suffix}"))
            with open(f"{out}{suffix}", "rb") as got, open(tmp_path / f"want_{suffix}", "rb") as want:
                assert got.read() == want.read()

    def test_features_and_decompose(self, capsys, tmp_path):
        cube_path = str(tmp_path / "cube.spsi")
        write_cube(cube_path)
        code, _, summary, _ = run_cli(
            capsys, "features", cube_path, "--out", str(tmp_path / "feat_"),
        )
        assert code == 0
        assert 0.0 <= summary["rho"]["mean"] <= 1.0
        code, _, summary, _ = run_cli(
            capsys, "decompose", cube_path, "--out", str(tmp_path / "dec_"),
        )
        assert code == 0
        pol = read_spsi(str(tmp_path / "dec_polarized.spsi"))
        unpol = read_spsi(str(tmp_path / "dec_unpolarized.spsi"))
        assert np.all(pol.data >= 0)
        assert pol.data.shape == unpol.data.shape


    def test_decompose_histograms_pool_the_valid_pixels(self, capsys, tmp_path):
        cube_path = str(tmp_path / "cube.spsi")
        img = random_scene(8, 8, 2, np.random.default_rng(9))
        img.data[3, 4, 1] = [1.0, 0.9, 0.9, 0.0]  # rho = 1.27 > 1 + dop_tol
        write_spsi(cube_path, img)
        code, *_ = run_cli(capsys, "decompose", cube_path, "--out", str(tmp_path / "dec_"))
        assert code == 0
        pol = read_spsi(str(tmp_path / "dec_polarized.spsi"))
        n_valid = int(pol.mask.sum())
        assert n_valid == img.mask.size - 1 and not pol.mask[3, 4, 1]
        for part in ("polarized", "unpolarized"):
            with open(tmp_path / f"dec_{part}_hist.csv") as fh:
                total = sum(int(row["count"]) for row in csv.DictReader(fh))
            assert total == n_valid, part
        assert pol.data[3, 4, 1] == 0.0  # planes are zero outside their mask


class TestCodecCommands:
    def test_pca_fit_and_code(self, capsys, tmp_path):
        cube_path = str(tmp_path / "cube.spsi")
        write_cube(cube_path, h=16, w=16)
        cb_path = str(tmp_path / "codebook.spsi")
        code, _, summary, _ = run_cli(
            capsys, "pca-fit", cube_path, "--patch", "2", "--bases", "16",
            "--out", cb_path,
        )
        assert code == 0
        code, _, summary, _ = run_cli(
            capsys, "pca-code", cube_path, "--codebook", cb_path,
            "--out", str(tmp_path / "decoded.spsi"),
        )
        assert code == 0
        assert summary["mse"] >= 0
        assert summary["bpp_with_codebook"] > summary["bpp_coefficients"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cube_is_numerical_error(self, capsys, tmp_path, bad):
        cube_path = str(tmp_path / "cube.spsi")
        img = random_scene(8, 8, 2, np.random.default_rng(3))
        img.data[5, 2, 1, 0] = bad
        write_spsi(cube_path, img)
        out = tmp_path / "codebook.spsi"
        code, _, _, err = run_cli(capsys, "pca-fit", cube_path, "--patch", "2", "--bases", "4",
                                  "--out", str(out))
        assert code == 4
        error = json.loads(err)
        assert error["class"] == "numerical"
        assert "non-finite" in error["error"]
        assert not out.exists()

    @pytest.mark.parametrize("element", [0, 3])
    def test_single_element_codebook_is_config_error(self, capsys, tmp_path, element):
        cube_path = str(tmp_path / "cube.spsi")
        img = write_cube(cube_path, h=8, w=8)
        cb_path = str(tmp_path / "codebook.spsi")
        write_spsi(cb_path, polarcube.pca_fit_image(img, 2, 4, element=element))
        out = tmp_path / "decoded.spsi"
        code, _, _, err = run_cli(capsys, "pca-code", cube_path, "--codebook", cb_path,
                                  "--out", str(out))
        assert code == 2
        error = json.loads(err)
        assert error["class"] == "config"
        assert f"element {element}" in error["error"]
        assert not out.exists()

    @pytest.mark.parametrize("bases", [0, 17])
    def test_bases_outside_the_basis_is_config_error(self, capsys, tmp_path, bases):
        cube_path = str(tmp_path / "cube.spsi")
        write_cube(cube_path, h=8, w=8)
        cb_path = str(tmp_path / "codebook.spsi")
        code, *_ = run_cli(capsys, "pca-fit", cube_path, "--patch", "2", "--bases", "16",
                           "--out", cb_path)
        assert code == 0
        out = tmp_path / "decoded.spsi"
        code, _, _, err = run_cli(capsys, "pca-code", cube_path, "--codebook", cb_path,
                                  "--bases", str(bases), "--out", str(out))
        assert code == 2
        assert json.loads(err)["class"] == "config"
        assert not out.exists()

    def test_inr_fit_and_code(self, capsys, tmp_path):
        cube_path = str(tmp_path / "cube.spsi")
        write_cube(cube_path, h=8, w=8, c=2)
        model_path = str(tmp_path / "model.spsi")
        loss_path = str(tmp_path / "loss.csv")
        code, _, summary, _ = run_cli(
            capsys, "inr-fit", cube_path, "--layers", "2", "--net-width", "8",
            "--steps", "60", "--seed", "2", "--out", model_path,
            "--loss-csv", loss_path,
        )
        assert code == 0
        assert summary["parameters"] > 0
        with open(loss_path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["step"] == "0"
        code, _, summary, _ = run_cli(
            capsys, "inr-code", model_path, "--reference", cube_path,
            "--out", str(tmp_path / "inr_decoded.spsi"),
        )
        assert code == 0
        assert "psnr" in summary


class TestDenoise:
    def test_median_denoise(self, capsys, tmp_path):
        raw_path = str(tmp_path / "raw.spsi")
        run_cli(capsys, "simulate", "--camera", "hyperspectral", "--seed", "9",
                "--height", "8", "--width", "8", "--channels", "2",
                "--noise", "0.05", "--out", raw_path)
        out_path = str(tmp_path / "filtered.spsi")
        code, _, summary, _ = run_cli(
            capsys, "denoise", raw_path, "--median", "3", "--out", out_path,
        )
        assert code == 0
        assert read_spsi(out_path).frames.shape == read_spsi(raw_path).frames.shape

    @pytest.mark.parametrize("window", ["4", "2", "0"])
    def test_bad_median_window_is_config_error(self, capsys, tmp_path, window):
        raw_path = str(tmp_path / "raw.spsi")
        run_cli(capsys, "simulate", "--camera", "hyperspectral", "--seed", "9",
                "--height", "8", "--width", "8", "--channels", "2", "--out", raw_path)
        code, _, _, err = run_cli(capsys, "denoise", raw_path, "--median", window,
                                  "--out", str(tmp_path / "x.spsi"))
        assert code == 2
        assert json.loads(err)["class"] == "config"
        assert not (tmp_path / "x.spsi").exists()

    def test_burst_average_ignores_median_window(self, capsys, tmp_path):
        paths = [str(tmp_path / f"raw{seed}.spsi") for seed in (9, 10)]
        for seed, path in zip((9, 10), paths):
            run_cli(capsys, "simulate", "--camera", "hyperspectral", "--seed", str(seed),
                    "--height", "8", "--width", "8", "--channels", "2",
                    "--noise", "0.05", "--out", path)
        code, _, summary, _ = run_cli(capsys, "denoise", paths[0], "--burst", paths[1],
                                      "--median", "4", "--out", str(tmp_path / "x.spsi"))
        assert code == 0
        assert summary["averaged"] == 2

    def test_median_window_checked_before_input_is_read(self, capsys, tmp_path):
        code, *_ = run_cli(capsys, "denoise", str(tmp_path / "missing.spsi"),
                           "--median", "2", "--out", str(tmp_path / "x.spsi"))
        assert code == 2


class TestSfpStats:
    def test_normal_stack_statistics(self, capsys, tmp_path):
        from polarcube import NormalMapStack

        n = RNG.normal(size=(6, 6, 3, 3))
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        stack_path = str(tmp_path / "normals.spsi")
        write_spsi(stack_path, NormalMapStack(n))
        code, _, summary, _ = run_cli(
            capsys, "sfp-stats", stack_path, "--out", str(tmp_path / "sfp_"),
        )
        assert code == 0
        assert set(summary["outputs"]) == {"std_x", "std_y", "std_z",
                                           "std_azimuth", "std_elevation"}
        assert summary["mean_std_x"] >= 0


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"no_such_key": 1}')
        code, *_ = run_cli(capsys, "validate", "whatever.spsi", "--config", str(cfg))
        assert code == 2

    def test_missing_input_is_io_error(self, capsys):
        code, _, _, err = run_cli(capsys, "validate", "/nonexistent/cube.spsi")
        assert code == 3

    def test_wrong_container_kind_is_config_error(self, capsys, tmp_path):
        cube_path = str(tmp_path / "cube.spsi")
        write_cube(cube_path, h=8, w=8, c=2)
        code, *_ = run_cli(capsys, "reconstruct", cube_path,
                           "--out", str(tmp_path / "x.spsi"))
        assert code == 2

    def test_threads_env_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("POLARCUBE_THREADS", "1")
        code, config, _, _ = run_cli(
            capsys, "simulate", "--camera", "hyperspectral", "--seed", "1",
            "--height", "8", "--width", "8", "--channels", "2",
            "--out", str(tmp_path / "r.spsi"),
        )
        assert code == 0
        assert config["threads"] == 1

    def test_entry_point_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "polarcube.cli", "roundtrip", "--camera",
             "hyperspectral", "--noise", "0", "--seed", "7", "--size", "16",
             "--channels", "3"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        last = json.loads(result.stdout.strip().split("\n")[-1])
        assert last["summary"]["max_rel_error"] < 1e-5


class TestNumpyOnly:
    def test_cli_runs_with_scipy_unimportable(self, tmp_path):
        # ``sys.modules["scipy"] = None`` makes every ``import scipy...`` fail.
        script = textwrap.dedent("""
            import json, os, sys
            sys.modules["scipy"] = None
            import polarcube.cli
            loaded = sorted(name for name, module in sys.modules.items()
                            if name.split(".")[0] == "scipy" and module is not None)
            work = sys.argv[1]
            raw = os.path.join(work, "raw.spsi")
            codes = [
                polarcube.cli.main(["roundtrip", "--seed", "1", "--size", "16",
                                    "--channels", "3"]),
                polarcube.cli.main(["simulate", "--seed", "1", "--height", "16",
                                    "--width", "16", "--channels", "3", "--noise", "0.01",
                                    "--out", raw]),
                polarcube.cli.main(["denoise", raw, "--median", "3",
                                    "--out", os.path.join(work, "denoised.spsi")]),
            ]
            print(json.dumps({"scipy_modules": loaded, "exit_codes": codes}))
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(polarcube.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.strip().split("\n")[-1])
        assert report["scipy_modules"] == []
        assert report["exit_codes"] == [0, 0, 0]
