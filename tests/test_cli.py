import ast
import contextlib
import csv
import inspect
import io
import itertools
import json
import os
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import polarcube
from polarcube import random_scene, read_spsi, write_spsi
from polarcube import cli
from polarcube.cli import _COMMANDS, _KEYS, _SHARED, main

from conftest import clipped_cube, flagged_entries, pool_settings

RNG = np.random.default_rng(612)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # the parser refused the arguments
        code = exc.code
    captured = capsys.readouterr()
    lines = [ln for ln in captured.out.strip().split("\n") if ln]
    config = json.loads(lines[0])["config"] if lines else None
    summary = json.loads(lines[-1]).get("summary") if code == 0 else None
    return code, config, summary, captured.err


def write_circular_cube(tmp_path):
    """No linear part anywhere: rho, dolp and docp have samples, aolp has none."""
    data = np.zeros((8, 8, 2, 4))
    data[..., 0], data[..., 3] = 1.0, RNG.uniform(-0.5, 0.5, (8, 8, 2))
    cube_path = str(tmp_path / "circular.spsi")
    write_spsi(cube_path, polarcube.StokesImage(data))
    return cube_path


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
        code, config, summary, _ = run_cli(
            capsys, "roundtrip", "--camera", "trichromatic", "--noise", "0",
            "--seed", "3", "--size", "64",
        )
        assert code == 0
        assert config["camera"]["channels"] == 3
        assert summary["mse"] < 1e-3

    def test_seed_required(self, capsys):
        code, *_ = run_cli(capsys, "roundtrip", "--camera", "hyperspectral")
        assert code == 2

    def test_config_file_seed_is_echoed_as_an_integer(self, capsys, tmp_path):
        cfg_path = tmp_path / "seed.json"
        cfg_path.write_text('{"seed": "3"}')
        code, config, _, _ = run_cli(capsys, "roundtrip", "--config", str(cfg_path),
                                     "--size", "8", "--channels", "2")
        assert code == 0
        assert config["seed"] == 3 and isinstance(config["seed"], int)


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
        assert set(config) == {"camera", "noise", "scene", "seed"}


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

    @pytest.mark.parametrize("feature", ["s1", "rho", "docp", "pol-unpol", "dolp-gradient",
                                         "poincare-s1s2", "poincare-s1s3",
                                         "s0 aolp pol-unpol cop-gradient poincare-s1s3 docp"])
    def test_stats_pools_every_input_file(self, capsys, tmp_path, feature):
        paths = [str(tmp_path / f"cube{k}.spsi") for k in range(3)]
        cubes = [write_cube(path, h=9 + k, seed=k) for k, path in enumerate(paths)]
        out = str(tmp_path / "got_")
        if " " in feature:  # one walk: each name writes what its single-name command writes
            names = feature.split()
            flags = [arg for name in names for arg in ("--feature", name)]
            for n in (1, 2):
                with pool_settings(n, 64):  # small blocks
                    code, _, summary, _ = run_cli(capsys, "stats", *paths, *flags,
                                                  "--out", str(tmp_path / f"got{n}_"))
                assert code == 0 and sorted(summary) == sorted(names)
                for name in names:
                    alone = f"alone_{name}_"
                    code, _, want, _ = run_cli(capsys, "stats", *paths, "--feature", name,
                                               "--out", str(tmp_path / alone))
                    assert code == 0
                    pairs = ([(f"got{n}_{part}.csv", f"{alone}{part}.csv")
                              for part in ("polarized", "unpolarized")] if name == "pol-unpol"
                             else [(f"got{n}_{name}.csv", alone)])
                    for got, single in pairs:
                        assert (tmp_path / got).read_bytes() == (tmp_path / single).read_bytes()
                    got = {key: value for key, value in summary[name].items()
                           if key not in ("out", "outputs")}
                    assert got == {key: value for key, value in want.items()
                                   if key not in ("out", "outputs")}
            return
        code, *_ = run_cli(capsys, "stats", *paths, "--feature", feature, "--out", out)
        assert code == 0
        if feature == "pol-unpol":
            found = dict(zip(("polarized.csv", "unpolarized.csv"),
                             polarcube.pol_unpol_histograms(cubes)))
        elif feature == "dolp-gradient":
            found = {"": polarcube.feature_gradient_histograms(cubes, "dolp")}
        elif feature == "s1":
            found = {"": polarcube.stokes_histograms(cubes, "s1")}
        elif feature == "docp":
            found = {"": polarcube.docp_distribution(cubes)}
        elif feature.startswith("poincare-"):
            found = {"": polarcube.poincare_density(cubes, plane=f"s1-{feature[-2:]}")}
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

    @pytest.mark.parametrize("bins", [[], ["--bins", "7"]], ids=["default-bins", "7-bins"])
    def test_features_is_a_five_name_stats_call_with_means(self, capsys, tmp_path, bins):
        cube_path = str(tmp_path / "cube.spsi")
        write_cube(cube_path, h=40, w=33)
        names = ("rho", "dolp", "docp", "aolp", "cop")
        with pool_settings(2, 64):  # blocks, so a mean adds partial sums
            code, _, summary, _ = run_cli(capsys, "features", cube_path, *bins,
                                          "--out", str(tmp_path / "feat_"))
        assert code == 0
        code, _, want, _ = run_cli(capsys, "stats", cube_path, *bins,
                                   *[arg for name in names for arg in ("--feature", name)],
                                   "--out", str(tmp_path / "st_"))
        assert code == 0 and sorted(summary) == sorted(want) == sorted(names)
        cube = read_spsi(cube_path)
        for name in names:
            got = tmp_path / f"feat_{name}.csv"
            assert got.read_bytes() == (tmp_path / f"st_{name}.csv").read_bytes()
            values, valid = polarcube.feature_plane(cube, name)
            mean = summary[name].pop("mean")
            assert mean == pytest.approx(np.mean(values[valid], dtype=np.float64), rel=1e-12)
            assert summary[name] == {**want[name], "out": str(got)}

    def test_one_input_is_read_once_and_pooled_inputs_at_most_twice(self, capsys, tmp_path,
                                                                     monkeypatch):
        paths = [str(tmp_path / f"cube{k}.spsi") for k in range(2)]
        for k, path in enumerate(paths):
            write_cube(path, seed=k)
        reads, read = [], polarcube.read_spsi
        monkeypatch.setattr(polarcube, "read_spsi", lambda path: reads.append(path) or read(path))
        for argv, want in ((["features", paths[0]], paths[:1]),  # two passes: means, ranges
                           (["stats", paths[0], "--feature", "s0"], paths[:1]),
                           (["stats", *paths, "--feature", "s0"], paths * 2)):
            reads.clear()
            code, *_ = run_cli(capsys, *argv, "--out", str(tmp_path / "o_"))
            assert code == 0 and reads == want

    def test_features_writes_no_csv_when_a_feature_fails(self, capsys, tmp_path):
        cube_path = write_circular_cube(tmp_path)
        code, _, _, err = run_cli(capsys, "features", cube_path, "--out", str(tmp_path / "feat_"))
        assert code == 4
        assert json.loads(err)["error"] == "aolp: no samples for aolp histogram"
        assert not list(tmp_path.glob("feat_*.csv"))

    def test_stats_writes_no_csv_when_a_statistic_fails(self, capsys, tmp_path):
        cube_path = write_circular_cube(tmp_path)
        code, config, _, err = run_cli(capsys, "stats", cube_path, "--feature", "rho",
                                       "--feature", "aolp", "--out", str(tmp_path / "st_"))
        assert code == 4 and config is not None  # after the echo, in the walk
        assert "aolp" in json.loads(err)["error"]
        assert not list(tmp_path.glob("st_*"))

    @pytest.mark.parametrize("names,failing", [
        (["s0", "pol-unpol"], "s0"), (["pol-unpol", "s0"], "pol-unpol"),
        (["poincare-s1s2", "docp"], "poincare-s1s2"), (["s0"], None)])
    def test_empty_selection_error_names_its_statistic(self, capsys, tmp_path, names, failing):
        cube_path = str(tmp_path / "empty.spsi")
        write_spsi(cube_path, polarcube.StokesImage(np.ones((4, 4, 2, 4)),
                                                    mask=np.zeros((4, 4, 2), bool)))
        flags = [arg for name in names for arg in ("--feature", name)]
        code, _, _, err = run_cli(capsys, "stats", cube_path, *flags, "--out",
                                  str(tmp_path / "st_"))
        assert code == 4
        message = "no valid pixels after filtering"  # a single name keeps its message
        assert json.loads(err)["error"] == (f"{failing}: {message}" if failing else message)
        assert not list(tmp_path.glob("st_*"))

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

    def test_pca_code_counts_its_float64_codebook_at_64_bits(self, capsys, tmp_path):
        cube_path, cb_path = str(tmp_path / "cube.spsi"), str(tmp_path / "codebook.spsi")
        write_cube(cube_path, h=16, w=12)
        code, *_ = run_cli(capsys, "pca-fit", cube_path, "--patch", "4", "--bases", "8",
                           "--out", cb_path)
        assert code == 0
        with open(cb_path, "rb") as fh:
            assert fh.read()[20] == 1  # the dtype byte: binary64
        codebook = read_spsi(cb_path)
        code, _, summary, _ = run_cli(capsys, "pca-code", cube_path, "--codebook", cb_path,
                                      "--out", str(tmp_path / "decoded.spsi"))
        assert code == 0
        coefficients = (16 // 4) * (12 // 4) * 8
        values = coefficients + codebook.mean.size + codebook.basis.size + codebook.sigma.size
        assert summary["bpp_coefficients"] == 64 * coefficients / (16 * 12)
        assert summary["bpp_with_codebook"] == 64 * values / (16 * 12)

    def test_pca_code_prints_the_quality_of_the_cube_it_writes(self, capsys, tmp_path):
        cube = clipped_cube()
        assert cube.mask[:24, :20].mean() < 0.9  # masked entries that patches cover
        cube_path, cb_path = str(tmp_path / "cube.spsi"), str(tmp_path / "codebook.spsi")
        write_spsi(cube_path, cube)
        write_spsi(cb_path, polarcube.pca_fit_image(cube, 4, 12))
        out = str(tmp_path / "decoded.spsi")
        code, _, summary, _ = run_cli(capsys, "pca-code", cube_path, "--codebook", cb_path,
                                      "--bases", "5", "--out", out)
        assert code == 0
        fit = polarcube.quality(cube, read_spsi(out))
        assert summary["mse"] == pytest.approx(fit.mse, rel=1e-9, abs=0)
        assert summary["psnr"] == pytest.approx(fit.psnr, rel=1e-9, abs=0)
        cube.mask[:24, :20] = False  # no entry that a patch covers is valid
        write_spsi(cube_path, cube)
        out = tmp_path / "unscored.spsi"
        code, _, _, err = run_cli(capsys, "pca-code", cube_path, "--codebook", cb_path,
                                  "--out", str(out))
        assert code == 4 and json.loads(err)["class"] == "numerical"
        assert not out.exists()

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
    def test_single_element_codebook_codes_that_element(self, capsys, tmp_path, element):
        cube_path = str(tmp_path / "cube.spsi")
        img = write_cube(cube_path, h=9, w=8)
        codebook = polarcube.pca_fit_image(img, 2, 4, element=element)
        cb_path = str(tmp_path / "codebook.spsi")
        write_spsi(cb_path, codebook)
        out = str(tmp_path / "decoded.spsi")
        code, _, summary, _ = run_cli(capsys, "pca-code", cube_path, "--codebook", cb_path,
                                      "--out", out)
        assert code == 0
        want = polarcube.pca_decode(polarcube.pca_encode(img, codebook))
        got = read_spsi(out)
        assert isinstance(got, polarcube.ScalarCube)
        assert np.array_equal(got.data, want.data) and np.array_equal(got.mask, want.mask)
        assert np.array_equal(got.wavelengths, img.wavelengths)
        assert got.mask[:8].all() and not got.mask[8:].any()  # the last row has no patch
        covered = img.data[:8, :, :, element]
        assert summary["mse"] == pytest.approx(np.mean((got.data[:8] - covered) ** 2))

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

    @pytest.mark.parametrize("h, w, c", [(8, 8, 5), (16, 8, 2)], ids=["channels", "height"])
    def test_reference_of_another_shape_is_config_error(self, capsys, tmp_path, monkeypatch,
                                                        inputs, h, w, c):
        # the network was fit on an 8 x 8 x 2 cube; the shapes are checked before any decode
        monkeypatch.setattr(polarcube, "inr_decode", None)
        reference = str(tmp_path / "reference.spsi")
        write_cube(reference, h=h, w=w, c=c)
        out = tmp_path / "decoded.spsi"
        code, _, _, err = run_cli(capsys, "inr-code", inputs["model"], "--reference", reference,
                                  "--out", str(out))
        assert code == 2
        error = json.loads(err)
        assert error["class"] == "config"
        assert f"({h}, {w}, {c})" in error["error"] and "(8, 8, 2)" in error["error"]
        assert not out.exists()


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

    def test_burst_average_refuses_median_window(self, capsys, tmp_path):
        paths = [str(tmp_path / f"raw{seed}.spsi") for seed in (9, 10)]
        for seed, path in zip((9, 10), paths):
            run_cli(capsys, "simulate", "--camera", "hyperspectral", "--seed", str(seed),
                    "--height", "8", "--width", "8", "--channels", "2",
                    "--noise", "0.05", "--out", path)
        code, config, _, _ = run_cli(capsys, "denoise", paths[0], "--burst", paths[1],
                                     "--median", "4", "--out", str(tmp_path / "x.spsi"))
        assert code == 2 and config is None
        assert not (tmp_path / "x.spsi").exists()
        code, _, summary, _ = run_cli(capsys, "denoise", paths[0], "--burst", paths[1],
                                      "--out", str(tmp_path / "x.spsi"))
        assert code == 0
        assert summary["averaged"] == 2

    def test_burst_without_a_capture_exits_2_before_the_echo(self, capsys, tmp_path):
        raw_path = str(tmp_path / "raw.spsi")
        run_cli(capsys, "simulate", "--seed", "9", "--height", "8", "--width", "8",
                "--channels", "2", "--out", raw_path)
        code, config, _, err = run_cli(capsys, "denoise", raw_path, "--burst",
                                       "--out", str(tmp_path / "d.spsi"))
        assert code == 2 and config is None
        assert json.loads(err)["class"] == "config"
        assert not (tmp_path / "d.spsi").exists()

    SIZE = ["--height", "8", "--width", "8"]
    NOISY = [*SIZE, "--channels", "2", "--noise", "0.05"]

    @pytest.mark.parametrize("first, other", [
        (NOISY, [*NOISY, "--config", "qwp.json"]),  # other QWP angles
        (NOISY, [*NOISY, "--config", "exposure.json"]),
        (NOISY, [*SIZE, "--channels", "2"]),  # noiseless: levels -inf and inf, not 0 and 1
        (NOISY, ["--camera", "trichromatic", *SIZE, "--noise", "0.05"]),  # a layout, not tags
        # equal cubes but for their wavelength tables
        (["--scene", "a.spsi", "--noise", "0.05"], ["--scene", "b.spsi", "--noise", "0.05"]),
        (NOISY, ["--height", "16", "--width", "16", "--channels", "2", "--noise", "0.05"]),
    ], ids=["qwp", "exposure", "noiseless", "mosaic", "wavelengths", "size"])
    def test_burst_of_another_setup_exits_2_after_the_echo(self, capsys, tmp_path,
                                                           monkeypatch, first, other):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "qwp.json").write_text('{"camera": {"qwp_angles_deg": [10, -35, 70, -80]}}')
        (tmp_path / "exposure.json").write_text('{"camera": {"exposure": 2.0}}')
        cube = write_cube("a.spsi", h=8, w=8, c=2)
        write_spsi("b.spsi", polarcube.StokesImage(cube.data, cube.wavelengths + 100.0))
        for seed, path, flags in ((9, "raw.spsi", first), (10, "other.spsi", other)):
            code, *_ = run_cli(capsys, "simulate", "--seed", str(seed), *flags, "--out", path)
            assert code == 0
        code, config, _, err = run_cli(capsys, "denoise", "raw.spsi", "--burst", "other.spsi",
                                       "--out", "d.spsi")
        assert code == 2 and config == {}  # after the echo
        error = json.loads(err)
        assert error["class"] == "config"
        assert error["error"].startswith("other.spsi differs from raw.spsi in its configurations")
        assert not (tmp_path / "d.spsi").exists()

    @pytest.mark.parametrize("camera", ["hyperspectral", "trichromatic"])
    @pytest.mark.parametrize("inputs, denoise", [
        (4, ["--burst", "raw1.spsi", "raw2.spsi", "raw3.spsi"]), (1, ["--median", "3"]),
    ], ids=["burst", "median"])
    def test_denoise_keeps_every_clipped_sample_flagged(self, capsys, tmp_path, monkeypatch,
                                                        camera, inputs, denoise):
        # a mean over a clipped sample can fall below the clipping threshold, and a median
        # can put an unclipped neighbour in its place
        monkeypatch.chdir(tmp_path)
        write_spsi("scene.spsi", polarcube.smooth_scene(16, 16, 3, np.random.default_rng(3)))
        (tmp_path / "clip.json").write_text('{"noise": {"saturation": 0.5}}')
        paths = [f"raw{seed}.spsi" for seed in range(inputs)]
        for seed, path in enumerate(paths):
            code, *_ = run_cli(capsys, "simulate", "--scene", "scene.spsi", "--camera", camera,
                               "--seed", str(seed), "--noise", "0.02", "--config", "clip.json",
                               "--out", path)
            assert code == 0
        code, *_ = run_cli(capsys, "denoise", paths[0], *denoise, "--out", "denoised.spsi")
        assert code == 0
        code, *_ = run_cli(capsys, "reconstruct", "denoised.spsi", "--out", "cube.spsi")
        assert code == 0
        flagged = np.any([flagged_entries(read_spsi(path)) for path in paths], axis=0)
        assert flagged.any()
        assert not (read_spsi("cube.spsi").mask & flagged).any()

    def test_median_window_checked_before_input_is_read(self, capsys, tmp_path):
        code, *_ = run_cli(capsys, "denoise", str(tmp_path / "missing.spsi"),
                           "--median", "2", "--out", str(tmp_path / "x.spsi"))
        assert code == 2


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One input file of each kind the commands read, written once."""
    d = tmp_path_factory.mktemp("inputs")
    f = {name: str(d / f"{name}.spsi") for name in (
        "cube", "raw", "raw2", "codebook", "codebook2", "model", "normals")}
    for name, table in (("tri", {"camera": {"kind": "trichromatic"}}),
                        ("pinhole", {"camera": {"kind": "pinhole"}}),
                        ("checker", {"scene": {"kind": "checker"}}), ("seed_x", {"seed": "x"}),
                        ("bins_half", {"stats": {"bins": 3.5}}),
                        ("bins_many", {"stats": {"bins": "many"}}), ("threads", {"threads": 2}),
                        ("uniform", {"scene": {"kind": "uniform"}})):
        f[name] = str(d / f"{name}.json")
        with open(f[name], "w") as fh:
            json.dump(table, fh)
    img = write_cube(f["cube"], h=8, w=8, c=2)
    write_spsi(f["codebook"], polarcube.pca_fit_image(img, 2, 8))
    write_spsi(f["codebook2"], polarcube.pca_fit_image(img, 2, 4))
    n = np.random.default_rng(8).normal(size=(6, 6, 3, 3))
    write_spsi(f["normals"], polarcube.NormalMapStack(n / np.linalg.norm(n, axis=-1,
                                                                              keepdims=True)))
    with contextlib.redirect_stdout(io.StringIO()):
        for seed, raw in ((9, "raw"), (10, "raw2")):
            assert main(["simulate", "--seed", str(seed), "--height", "8", "--width", "8",
                         "--channels", "2", "--noise", "0.05", "--out", f[raw]]) == 0
        assert main(["inr-fit", f["cube"], "--steps", "3", "--layers", "2",
                     "--net-width", "4", "--seed", "1", "--out", f["model"]]) == 0
    return f


# For every subcommand: the keys its echo must hold, its positional arguments,
# the flags of a base run, a non-default value for every option it offers, and
# a config file for the --config run.  Inputs are named by "{cube}", "{raw}", ...
WALK = {
    # noisy, so that the seed still counts with --scene
    "simulate": ({"camera", "noise", "scene", "seed"}, [],
                 {"--seed": "1", "--noise": "0.02", "--out": "o.spsi"}, {
        "--camera": "trichromatic", "--height": "8", "--width": "8", "--channels": "3",
        "--noise": "0.01", "--seed": "2", "--scene": "{cube}", "--out": "p.spsi"},
        {"noise": {"sigma": 0.01}}),
    "reconstruct": ({"solver"}, ["{raw}"], {"--out": "o.spsi"}, {"--out": "p.spsi"},
                    {"solver": {"dop_tol": -0.5}}),
    "features": ({"stats"}, ["{cube}"], {"--out": "o_"}, {"--bins": "7", "--out": "p_"},
                 {"stats": {"bins": 7}}),
    "decompose": ({"solver", "stats"}, ["{cube}"], {"--out": "o_"},
                  {"--bins": "7", "--out": "p_"}, {"solver": {"dop_tol": -0.5}}),
    "validate": ({"solver"}, ["{cube}"], {}, {}, {"solver": {"dop_tol": -0.5}}),
    "denoise": (set(), ["{raw}"], {"--out": "o.spsi"},
                {"--median": "5", "--burst": "{raw2}", "--out": "p.spsi"}, {"stats": {"bins": 7}}),
    "pca-fit": ({"pca"}, ["{cube}"], {"--patch": "2", "--bases": "4", "--out": "o.spsi"},
                {"--patch": "4", "--bases": "6", "--out": "p.spsi"}, {"pca": {"bases": 6}}),
    "pca-code": (set(), ["{cube}"], {"--codebook": "{codebook}", "--out": "o.spsi"},
                 {"--codebook": "{codebook2}", "--bases": "2", "--out": "p.spsi"},
                 {"pca": {"bases": 6}}),
    "inr-fit": ({"inr", "seed"}, ["{cube}"],
                {"--steps": "3", "--layers": "2", "--net-width": "4", "--seed": "1",
                 "--out": "o.spsi"},
                {"--layers": "3", "--net-width": "6", "--steps": "4", "--lr": "0.01",
                 "--batch": "16", "--loss-csv": "loss.csv", "--seed": "2", "--out": "p.spsi"},
                {"inr": {"steps": 4}}),
    "inr-code": (set(), ["{model}"], {"--out": "o.spsi"},
                 {"--reference": "{cube}", "--out": "p.spsi"}, {"inr": {"steps": 4}}),
    "stats": ({"stats"}, ["{cube}"], {"--feature": "s0", "--out": "o.csv"},
              {"--feature": "dolp", "--bins": "7", "--out": "p.csv"}, {"stats": {"bins": 7}}),
    "sfp-stats": ({"stats"}, ["{normals}"], {"--out": "o_"}, {"--bins": "7", "--out": "p_"},
                  {"stats": {"bins": 7}}),
    "roundtrip": ({"camera", "noise", "scene", "solver", "seed"}, [], {"--seed": "1"}, {
        "--camera": "trichromatic", "--height": "16", "--width": "16", "--channels": "3",
        "--noise": "0.01", "--seed": "2", "--size": "16", "--out": "o.spsi"},
        {"noise": {"sigma": 0.01}}),
}


def _config_keys(table, prefix=""):
    for key, value in table.items():
        if isinstance(value, dict):
            yield from _config_keys(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _lookup(config, key):
    for part in key.split("."):
        config = config[part]
    return config


def _held(config, key):
    try:
        _lookup(config, key)
    except KeyError:
        return False
    return True


def _argv(inputs, positional, flags):
    argv = [a.format(**inputs) for a in positional]
    for flag, value in flags.items():
        argv += [flag, value.format(**inputs)]
    return argv


def _runner(capsys, monkeypatch, tmp_path, inputs, command, positional):
    """``run(flags)``: ``command`` in a new directory; its echo, and its summary and files."""
    runs = itertools.count()

    def run(flags):
        here = tmp_path / f"run{next(runs)}"
        here.mkdir()
        monkeypatch.chdir(here)
        argv = _argv(inputs, positional, flags)
        code, config, summary, err = run_cli(capsys, command, *argv)
        assert code == 0, (argv, err)
        summary.pop("seconds", None)  # wall time
        return config, (summary, {p.name: p.read_bytes() for p in here.iterdir()})

    return run


def _assert_echoed_iff_changed(base, got, expected, what):
    """Each key of ``expected`` that the echo holds has its value, and the run changed an
    output; a run that set only keys the echo does not hold changed neither the echo nor
    an output."""
    held = {key: value for key, value in expected.items() if _held(got[0], key)}
    for key, value in held.items():
        assert str(_lookup(got[0], key)) == str(value), (what, key)
    if expected and not held:
        assert got == base, f"{what} changed an output, but the echo shows none of its keys"
    else:
        assert got[1] != base[1], f"{what} changed no output"


ROUNDTRIP = ("roundtrip", ["--seed", "1", "--size", "8", "--channels", "2"])
SIMULATE = {"--height": "8", "--width": "8", "--channels": "2", "--out": "o.spsi"}
NOISY_SIMULATE = {**SIMULATE, "--seed": "1", "--noise": "0.02"}
UNIFORM = {"scene": {"kind": "uniform"}}
# Every key that no flag sets, varied in a config file: (command, positional arguments, flags,
# the config file of the base run, that of the variant run).  A noiseless uniform scene reads
# neither scene.rho_max nor a seed.
CONFIG_WALK = [
    *(("simulate", [], NOISY_SIMULATE, {}, table) for table in (
        {"scene": {"kind": "random"}}, UNIFORM, {"scene": {"rho_max": 0.3}},
        {"camera": {"exposure": 2.0}}, {"camera": {"lp_angle_deg": 30}},
        {"camera": {"qwp_angles_deg": [10, -35, 70, -80]}}, {"noise": {"shot_gain": 0.01}},
        {"noise": {"saturation": 0.5}}, {"noise": {"black": 0.1}})),
    ("simulate", [], SIMULATE, UNIFORM, {"scene": {"kind": "uniform", "rho_max": 0.3}}),
    ("roundtrip", [], {"--size": "8", "--channels": "2"}, UNIFORM,
     {"scene": {"kind": "uniform", "rho_max": 0.3}}),
    ("roundtrip", [], {"--seed": "1", "--size": "8", "--channels": "2"}, {},
     {"solver": {"dop_tol": -0.5}}),
    *(("inr-fit", ["{cube}"], {"--steps": "3", "--layers": "2", "--net-width": "4",
                               "--seed": "1", "--out": "o.spsi"}, {}, table)
      for table in ({"inr": {"k_spatial": 4}}, {"inr": {"k_channel": 3}})),
]


def _varied(base_table, table):
    """The keys that ``table`` sets to other values than ``base_table``."""
    before = dict(_config_keys(base_table))
    return {key: value for key, value in _config_keys(table)
            if key not in before or before[key] != value}


class TestDeclarations:
    def test_every_config_key_is_declared_once_with_a_default_its_rule_passes(
            self, capsys, tmp_path):
        source = ast.parse(inspect.getsource(cli))
        table, = (node.value for node in source.body if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "_KEYS")
        declared = [key.value for key in table.keys]
        assert sorted(declared) == sorted(set(declared)) == sorted(_KEYS)  # no key twice
        every = {}
        for key, (default, rule) in _KEYS.items():
            assert default is None or rule(default) is default, key
            section, _, name = key.rpartition(".")
            (every.setdefault(section, {}) if section else every)[name] = default
        for command in _COMMANDS.values():  # a keyed flag has its key's rule and no other
            for flag, keys, kwargs in command.flags + _SHARED:
                assert all(kwargs["type"] is _KEYS[key][1] for key in keys), flag
        cfg_path = tmp_path / "every.json"
        cfg_path.write_text(json.dumps(every))  # every key, at its default, from the file
        argv = [*ROUNDTRIP[1], "--out", str(tmp_path / "o.spsi")]
        code, config, _, _ = run_cli(capsys, "roundtrip", *argv)
        assert code == 0
        assert run_cli(capsys, "roundtrip", *argv, "--config", str(cfg_path))[:2] == (0, config)
        assert {key for key, _ in _config_keys(config)} <= set(_KEYS)

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_every_offered_flag_is_echoed_or_changes_the_output(self, capsys, tmp_path,
                                                                 monkeypatch, inputs, command):
        echoed, positional, base, values, config_file = WALK[command]
        keys = {flag: flag_keys for flag, flag_keys, _ in _COMMANDS[command].flags}
        assert {flag for flag in keys if flag.startswith("--")} == set(values)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config_file))
        run = _runner(capsys, monkeypatch, tmp_path, inputs, command, positional)
        before = run(base)
        assert set(before[0]) == echoed
        variants = [(flag, {**base, flag: value}, {key: value for key in keys[flag]})
                    for flag, value in values.items()]
        from_file = dict(_config_keys(config_file))
        # base flags that set a key the file sets would override it
        kept = {flag: value for flag, value in base.items()
                if not from_file.keys() & set(keys[flag])}
        variants.append(("--config", {**kept, "--config": str(cfg_path)}, from_file))
        for flag, flags, expected in variants:
            got = run(flags)
            if flag != "--config":  # a flag sets only keys that the command reads
                assert all(_held(got[0], key) for key in expected), (flag, got[0])
            _assert_echoed_iff_changed(before, got, expected, f"{command} {flag}")

    @pytest.mark.parametrize("command, positional, flags, base_table, table", CONFIG_WALK, ids=[
        f"{command}-" + "+".join(f"{key}={value}" for key, value in _config_keys(table))
        for command, _, _, _, table in CONFIG_WALK])
    def test_every_echoed_config_key_changes_the_output(self, capsys, tmp_path, monkeypatch,
                                                        inputs, command, positional, flags,
                                                        base_table, table):
        run = _runner(capsys, monkeypatch, tmp_path, inputs, command, positional)
        runs = []
        for name, content in (("base.json", base_table), ("variant.json", table)):
            (tmp_path / name).write_text(json.dumps(content))
            runs.append(run({**flags, "--config": str(tmp_path / name)}))
        _assert_echoed_iff_changed(*runs, _varied(base_table, table), command)

    @pytest.mark.parametrize("command, argv", [
        ("simulate", ["--scene", "{cube}", "--height", "8"]),
        ("simulate", ["--scene", "{cube}", "--width", "8"]),
        ("simulate", ["--scene", "{cube}", "--height", "8", "--width", "8",
                      "--channels", "2"]),
        ("simulate", ["--camera", "trichromatic", "--channels", "5", "--seed", "1"]),
        ("simulate", ["--config", "{tri}", "--channels", "5", "--seed", "1"]),
        ("simulate", ["--scene", "{cube}", "--seed", "1"]),
        ("roundtrip", ["--size", "16", "--height", "32", "--seed", "1"]),
        ("roundtrip", ["--size", "16", "--width", "32", "--seed", "1"]),
        ("validate", ["{cube}"]),
        ("reconstruct", ["{raw}", "--seed", "3"]),
        ("denoise", ["{raw}", "--burst", "{raw2}", "--median", "4"]),
        ("stats", ["{cube}", "--feature", "cop-gradient", "--bins", "50"]),
        ("stats", ["{cube}", "--feature", "s0", "--feature", "cop-gradient", "--bins", "50"]),
        ("stats", ["{cube}", "--feature", "s0", "--feature", "rho", "--feature", "s0"]),
        # a seed that something reads but nobody gave
        ("simulate", ["--height", "8", "--width", "8"]),
        ("simulate", ["--scene", "{cube}", "--noise", "0.01"]),
        ("roundtrip", ["--size", "8"]),
        ("inr-fit", ["{cube}", "--steps", "3"]),
        ("simulate", ["--config", "{seed_x}"]),
        # kinds, windows and features that do not exist
        ("simulate", ["--config", "{pinhole}", "--seed", "1"]),
        ("roundtrip", ["--config", "{checker}", "--seed", "1"]),
        ("denoise", ["{raw}", "--median", "4"]),
        ("denoise", ["{raw}", "--median", "0"]),
        ("denoise", ["{raw}", "--median", "-1"]),
        ("stats", ["{cube}", "--feature", "hue"]),
        ("stats", ["{cube}", "--feature", "pol-unpol-gradient"]),
        ("stats", ["{cube}", "--feature", "s0", "--feature", "hue"]),
        # values outside their flag's rule, from the flag or the config file
        ("features", ["{cube}", "--bins", "0"]),
        ("pca-fit", ["{cube}", "--patch", "0"]),
        ("inr-fit", ["{cube}", "--seed", "1", "--steps", "-1"]),
        ("inr-fit", ["{cube}", "--seed", "1", "--lr", "-1"]),
        ("inr-fit", ["{cube}", "--seed", "1", "--layers", "1"]),
        ("simulate", ["--seed", "-1"]),
        ("simulate", ["--seed", "1", "--height", "0"]),
        ("roundtrip", ["--camera", "trichromatic", "--size", "6", "--seed", "1"]),
        ("features", ["{cube}", "--config", "{bins_half}"]),
        ("features", ["{cube}", "--bins", "1025"]),  # above the 1,024-bin bound
        ("decompose", ["{cube}", "--bins", "1025"]),
        ("stats", ["{cube}", "--feature", "s0", "--bins", "1025"]),
        ("sfp-stats", ["{normals}", "--bins", "1025"]),
        ("stats", ["{cube}", "--feature", "s0", "--config", "{bins_many}"]),
        # a seed that nothing reads: a noiseless uniform scene
        ("simulate", ["--config", "{uniform}", "--seed", "1"]),
        ("roundtrip", ["--config", "{uniform}", "--seed", "1"]),
    ])
    def test_overridden_or_unoffered_flag_exits_2_before_the_echo(self, capsys, tmp_path,
                                                                   inputs, command, argv):
        out = tmp_path / "x.out"
        code, config, _, err = run_cli(capsys, command, *[a.format(**inputs) for a in argv],
                                       "--out", str(out))
        assert code == 2
        assert config is None
        assert json.loads(err)["class"] == "config"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, argv, table, key", [
        ("features", ["{cube}", "--out", "o_"], {"stats": {"bins": 3.5}}, "stats.bins"),
        ("stats", ["{cube}", "--feature", "s0", "--out", "o.csv"], {"stats": {"bins": True}},
         "stats.bins"),
        *[(command, [*argv, "--out", "o_"], {"stats": {"bins": 1025}}, "stats.bins")
          for command, argv in (("features", ["{cube}"]), ("decompose", ["{cube}"]),
                                ("stats", ["{cube}", "--feature", "s0"]),
                                ("sfp-stats", ["{normals}"]))],
        ("roundtrip", [], {"seed": -1}, "seed"),
        ("roundtrip", ["--seed", "1"], {"camera": {"height": 0}}, "camera.height"),
        ("roundtrip", ["--seed", "1"], {"noise": {"sigma": float("nan")}}, "noise.sigma"),
        ("pca-fit", ["{cube}", "--out", "c.spsi"], {"pca": {"patch_size": "2.5"}},
         "pca.patch_size"),
        ("inr-fit", ["{cube}", "--seed", "1", "--out", "m.spsi"], {"inr": {"steps": -1}},
         "inr.steps"),
        ("inr-fit", ["{cube}", "--seed", "1", "--out", "m.spsi"], {"inr": {"lr": 0}}, "inr.lr"),
        # keys that no flag sets, in sections the command reads or not
        (*ROUNDTRIP, {"camera": {"qwp_angles_deg": "x"}}, "camera.qwp_angles_deg"),
        (*ROUNDTRIP, {"camera": {"qwp_angles_deg": []}}, "camera.qwp_angles_deg"),
        (*ROUNDTRIP, {"camera": {"qwp_angles_deg": [30, None]}}, "camera.qwp_angles_deg"),
        (*ROUNDTRIP, {"camera": {"lp_angle_deg": "north"}}, "camera.lp_angle_deg"),
        (*ROUNDTRIP, {"camera": {"exposure": 0}}, "camera.exposure"),
        (*ROUNDTRIP, {"noise": {"shot_gain": -1}}, "noise.shot_gain"),
        (*ROUNDTRIP, {"noise": {"saturation": None}}, "noise.saturation"),
        (*ROUNDTRIP, {"noise": {"black": 1.0}}, "noise.black"),  # not below the saturation
        (*ROUNDTRIP, {"scene": {"rho_max": 2}}, "scene.rho_max"),
        (*ROUNDTRIP, {"scene": {"rho_max": "most"}}, "scene.rho_max"),
        (*ROUNDTRIP, {"camera": {"kind": "pinhole"}}, "camera.kind"),
        (*ROUNDTRIP, {"solver": {"dop_tol": float("inf")}}, "solver.dop_tol"),
        ("validate", ["{cube}"], {"scene": {"rho_max": -0.1}}, "scene.rho_max"),
        ("validate", ["{cube}"], {"scene": {"kind": "checker"}}, "scene.kind"),
        ("validate", ["{cube}"], {"inr": {"k_spatial": 1.5}}, "inr.k_spatial"),
        ("validate", ["{cube}"], {"inr": {"k_channel": -1}}, "inr.k_channel"),
        ("pca-code", ["{cube}", "--codebook", "{codebook}", "--out", "d.spsi"],
         {"pca": {"bases": 0}}, "pca.bases"),
    ])
    def test_config_value_outside_its_keys_rule_names_the_key(self, capsys, tmp_path,
                                                              monkeypatch, inputs, command,
                                                              argv, table, key):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(table))
        here = tmp_path / "run"
        here.mkdir()
        monkeypatch.chdir(here)
        code, config, _, err = run_cli(capsys, command, *[a.format(**inputs) for a in argv],
                                       "--config", str(cfg_path))
        assert code == 2 and config is None
        error = json.loads(err)
        assert error["class"] == "config" and error["error"].startswith(f"{key} must be ")
        assert list(here.iterdir()) == []

    def test_scene_input_drops_the_synthetic_scene_from_the_echo(self, capsys, tmp_path,
                                                                  inputs):
        code, config, summary, _ = run_cli(capsys, "simulate", "--scene", inputs["cube"],
                                           "--out", str(tmp_path / "raw.spsi"))
        assert code == 0
        assert set(config) == {"camera", "noise"}  # nothing reads a seed
        assert not {"height", "width", "channels"} & set(config["camera"])
        assert (summary["height"], summary["width"], summary["frames"]) == (8, 8, 8)

    def test_trichromatic_camera_drops_the_retarder_angles_from_the_echo(self, capsys, tmp_path):
        cfg_path = tmp_path / "angles.json"
        cfg_path.write_text('{"camera": {"qwp_angles_deg": [0, 45, 90, 135], "lp_angle_deg": 30}}')
        argv = ["--camera", "trichromatic", "--seed", "1"]
        runs = []
        for extra in ([], ["--config", str(cfg_path)]):
            out = tmp_path / f"mosaic{len(runs)}.spsi"
            code, config, _, _ = run_cli(capsys, "simulate", *argv, "--height", "16", "--width",
                                         "16", "--out", str(out), *extra)
            assert code == 0
            assert not {"qwp_angles_deg", "lp_angle_deg"} & set(config["camera"])
            code, echo, summary, _ = run_cli(capsys, "roundtrip", *argv, "--size", "16", *extra)
            assert code == 0
            summary.pop("seconds")
            runs.append((config, out.read_bytes(), echo, summary))
        assert runs[0] == runs[1]  # nothing the trichromatic camera reads changed

    def test_noiseless_capture_drops_the_noise_levels_from_the_echo(self, capsys, tmp_path):
        cfg_path = tmp_path / "levels.json"
        cfg_path.write_text('{"noise": {"saturation": 0.3, "black": 0.1}}')
        runs = []
        for extra in ([], ["--config", str(cfg_path)]):
            code, config, summary, _ = run_cli(capsys, "roundtrip", *ROUNDTRIP[1], *extra)
            assert code == 0
            assert set(config["noise"]) == {"sigma", "shot_gain"}
            summary.pop("seconds")
            runs.append((config, summary))
        assert runs[0] == runs[1] and runs[0][1]["valid_fraction"] == 1.0
        code, config, _, _ = run_cli(capsys, "roundtrip", *ROUNDTRIP[1], "--noise", "0.01",
                                     "--config", str(cfg_path))
        assert code == 0  # noise reads them
        assert (config["noise"]["saturation"], config["noise"]["black"]) == (0.3, 0.1)

    def test_scene_input_echoes_the_seed_that_its_noise_reads(self, capsys, tmp_path, inputs):
        cfg_path = tmp_path / "noisy.json"
        cfg_path.write_text('{"noise": {"sigma": 0.01}}')
        written = []
        for seed in ("1", "2"):
            out = tmp_path / f"raw{seed}.spsi"
            code, config, _, _ = run_cli(capsys, "simulate", "--scene", inputs["cube"],
                                         "--config", str(cfg_path), "--seed", seed,
                                         "--out", str(out))
            assert code == 0
            assert set(config) == {"camera", "noise", "seed"}
            assert config["seed"] == int(seed)
            written.append(out.read_bytes())
        assert written[0] != written[1]
        out = tmp_path / "unseeded.spsi"
        code, config, _, _ = run_cli(capsys, "simulate", "--scene", inputs["cube"],
                                     "--config", str(cfg_path), "--out", str(out))
        assert code == 2 and config is None  # the noise needs a seed
        assert not out.exists()

    def test_cop_gradient_echoes_its_five_bins(self, capsys, tmp_path, inputs):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"stats": {"bins": 50}}')
        out = tmp_path / "cop.csv"
        code, config, _, _ = run_cli(capsys, "stats", inputs["cube"], "--feature", "cop-gradient",
                                     "--config", str(cfg_path), "--out", str(out))
        assert code == 0
        assert config["stats"]["bins"] == 5
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 5
        # among other names, the echo holds the bins that they read
        out = tmp_path / "several_"
        code, config, _, _ = run_cli(capsys, "stats", inputs["cube"], "--feature", "cop-gradient",
                                     "--feature", "s0", "--config", str(cfg_path),
                                     "--out", str(out))
        assert code == 0
        assert config["stats"]["bins"] == 50
        for name, rows in (("cop-gradient", 5), ("s0", 50)):
            with open(f"{out}{name}.csv") as fh:
                assert len(list(csv.DictReader(fh))) == rows

    def test_bins_are_bounded_at_1024(self, capsys, tmp_path, inputs):
        out = tmp_path / "s0.csv"
        code, config, _, _ = run_cli(capsys, "stats", inputs["cube"], "--feature", "s0",
                                     "--bins", "1024", "--out", str(out))
        assert code == 0 and config["stats"]["bins"] == 1024
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 1024
        out.unlink()
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"stats": {"bins": 1025}}')
        code, config, _, err = run_cli(capsys, "stats", inputs["cube"], "--feature", "s0",
                                       "--config", str(cfg_path), "--out", str(out))
        assert (code, config) == (2, None)
        assert json.loads(err)["error"] == "stats.bins must be an integer in [1, 1024], got 1025"
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_pca_code_ignores_the_pca_section(self, capsys, tmp_path, inputs):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"pca": {"bases": 4}}')
        decoded = []
        for extra in ([], ["--config", str(cfg_path)]):
            out = tmp_path / f"decoded{len(decoded)}.spsi"
            code, config, _, _ = run_cli(capsys, "pca-code", inputs["cube"], "--codebook",
                                         inputs["codebook"], "--out", str(out), *extra)
            assert code == 0
            assert config == {}
            decoded.append(out.read_bytes())
        assert decoded[0] == decoded[1]


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
    @pytest.mark.parametrize("argv, named", [
        (["validate", "{cube}", "--out", "unused.csv"], "polarcube validate"),
        (["validate", "{cube}", "--no-such-flag"], "polarcube validate"),
        (["simulate", "--seed", "1"], "polarcube simulate"),
        (["stats", "{cube}", "--feature", "s0", "--bins", "many", "--out", "o.csv"],
         "polarcube stats"),
        (["no-such-command"], "polarcube"),
        ([], "polarcube"),
    ])
    def test_argument_errors_are_one_json_config_line(self, capsys, tmp_path, monkeypatch,
                                                      inputs, argv, named):
        monkeypatch.chdir(tmp_path)
        code, config, _, err = run_cli(capsys, *[a.format(**inputs) for a in argv])
        assert code == 2 and config is None
        line, = err.splitlines()
        error = json.loads(line)
        assert error["class"] == "config"
        assert error["error"].startswith(f"{named}: ")
        assert list(tmp_path.iterdir()) == []

    def test_help_stays_plain_text(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: polarcube validate") and captured.err == ""

    def test_unknown_config_key_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"no_such_key": 1}')
        code, *_ = run_cli(capsys, "validate", "whatever.spsi", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config file: "),
        (b"{", "config file is not valid JSON: "),
        (b"\xff\xfe{}", "config file is not valid JSON: "),
        (b"[1, 2]", "config file must hold a JSON object"),
        (b'{"camera": 3}', "config key 'camera' must be a table"),
    ], ids=["missing", "not-json", "not-utf8", "not-an-object", "section-not-a-table"])
    def test_unusable_config_file_exits_2_before_the_echo(self, capsys, tmp_path, monkeypatch,
                                                          text, message):
        cfg_path = tmp_path / "config.json"
        if text is not None:
            cfg_path.write_bytes(text)
        here = tmp_path / "run"
        here.mkdir()
        monkeypatch.chdir(here)
        code, config, _, err = run_cli(capsys, "roundtrip", "--seed", "1", "--size", "8",
                                       "--out", "o.spsi", "--config", str(cfg_path))
        assert code == 2 and config is None
        error = json.loads(err)
        assert error["class"] == "config" and error["error"].startswith(message)
        assert list(here.iterdir()) == []

    @pytest.mark.parametrize("offset, fmt, value, message", [
        (20, "<B", 7, "unknown dtype code 7"),
        (6, "<H", 9, "unknown container kind 9"),
    ], ids=["dtype", "kind"])
    def test_unknown_header_code_is_io_error(self, capsys, tmp_path, inputs, offset, fmt,
                                             value, message):
        with open(inputs["cube"], "rb") as fh:
            blob = bytearray(fh.read())
        struct.pack_into(fmt, blob, offset, value)
        path = tmp_path / "patched.spsi"
        path.write_bytes(bytes(blob))
        code, _, _, err = run_cli(capsys, "validate", str(path))
        assert code == 3
        assert json.loads(err) == {"error": message, "class": "io"}

    def test_missing_input_is_io_error(self, capsys):
        code, _, _, err = run_cli(capsys, "validate", "/nonexistent/cube.spsi")
        assert code == 3

    @pytest.mark.parametrize("argv, wrong", [
        (["simulate", "--scene", "{raw}", "--out", "o.spsi"], "raw"),
        (["reconstruct", "{cube}", "--out", "o.spsi"], "cube"),
        (["features", "{raw}", "--out", "o_"], "raw"),
        (["decompose", "{raw}", "--out", "o_"], "raw"),
        (["validate", "{raw}"], "raw"),
        (["denoise", "{cube}", "--out", "o.spsi"], "cube"),
        (["denoise", "{raw}", "--burst", "{cube}", "--out", "o.spsi"], "cube"),
        (["pca-fit", "{raw}", "--out", "o.spsi"], "raw"),
        (["pca-code", "{raw}", "--codebook", "{codebook}", "--out", "o.spsi"], "raw"),
        (["pca-code", "{cube}", "--codebook", "{cube}", "--out", "o.spsi"], "cube"),
        (["inr-fit", "{raw}", "--seed", "1", "--out", "o.spsi"], "raw"),
        (["inr-code", "{cube}", "--out", "o.spsi"], "cube"),
        (["inr-code", "{model}", "--reference", "{raw}", "--out", "o.spsi"], "raw"),
        (["stats", "{raw}", "--feature", "s0", "--out", "o.csv"], "raw"),
        (["stats", "{cube}", "{raw}", "--feature", "s0", "--out", "o.csv"], "raw"),
        (["sfp-stats", "{cube}", "--out", "o_"], "cube"),
    ])
    def test_wrong_container_kind_is_config_error(self, capsys, tmp_path, monkeypatch,
                                                  inputs, argv, wrong):
        monkeypatch.chdir(tmp_path)
        code, _, _, err = run_cli(capsys, *[a.format(**inputs) for a in argv])
        assert code == 2
        error = json.loads(err)
        assert error["class"] == "config"
        assert error["error"].startswith(f"{inputs[wrong]} does not hold ")
        assert list(tmp_path.iterdir()) == []

    def test_running_out_of_memory_is_numerical(self, capsys, tmp_path, monkeypatch, inputs):
        # the inputs passed every check; the work then ran out of memory
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(polarcube, "reconstruct_image", exhausted)
        monkeypatch.chdir(tmp_path)
        code, _, _, err = run_cli(capsys, "reconstruct", inputs["raw"], "--out", "o.spsi")
        assert code == 4
        line, = err.splitlines()
        assert json.loads(line) == {"error": "cannot allocate", "class": "numerical"}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "roundtrip"])
    @pytest.mark.parametrize("angles", [[10, 10, 10, 10], [10, 20, 30], [0, 45, 90, 0]],
                             ids=["rank 1", "three angles", "rank 2"])
    def test_a_qwp_set_that_cannot_be_inverted_exits_2_before_the_echo(
            self, capsys, tmp_path, monkeypatch, command, angles):
        monkeypatch.chdir(tmp_path)
        with open("angles.json", "w") as fh:
            json.dump({"camera": {"qwp_angles_deg": angles}}, fh)
        code, config, _, err = run_cli(capsys, command, "--seed", "1", "--height", "4",
                                       "--width", "4", "--channels", "2", "--config",
                                       "angles.json", "--out", "o.spsi")
        assert code == 2 and config is None
        error = json.loads(err)
        assert error["class"] == "config"
        assert error["error"].startswith("camera.qwp_angles_deg cannot be inverted: ")
        assert os.listdir() == ["angles.json"]

    @pytest.mark.parametrize("table", [[510.0, 500.0], [500.0, float("nan")]],
                             ids=["descending", "nan"])
    def test_scene_wavelength_table_must_increase(self, capsys, tmp_path, monkeypatch, table):
        monkeypatch.chdir(tmp_path)
        write_spsi("scene.spsi", random_scene(4, 4, 2, RNG, wavelengths=table))
        code, _, _, err = run_cli(capsys, "simulate", "--scene", "scene.spsi",
                                  "--out", "o.spsi")
        assert code == 4
        line, = err.splitlines()
        assert json.loads(line)["class"] == "numerical"
        assert os.listdir() == ["scene.spsi"]

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_no_thread_setting_is_offered(self, capsys, tmp_path, monkeypatch, inputs,
                                          command):
        # BLAS takes its standard variables, and the block pool the process's affinity
        _, positional, base, _, _ = WALK[command]
        monkeypatch.chdir(tmp_path)
        argv = _argv(inputs, positional, base)
        for extra in (["--threads", "2"], ["--config", inputs["threads"]]):
            code, config, _, err = run_cli(capsys, command, *argv, *extra)
            assert code == 2 and config is None
            line, = err.splitlines()
            assert json.loads(line)["class"] == "config"
            assert list(tmp_path.iterdir()) == []

    def test_polarcube_threads_changes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("POLARCUBE_THREADS", raising=False)
        argv = ["simulate", *_argv({}, [], NOISY_SIMULATE)]
        runs = []
        for value in (None, "0", "x", "2"):
            if value is not None:
                monkeypatch.setenv("POLARCUBE_THREADS", value)
            code, config, summary, _ = run_cli(capsys, *argv)
            runs.append((code, config, summary, (tmp_path / "o.spsi").read_bytes()))
        assert runs[0][0] == 0 and runs.count(runs[0]) == len(runs)

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
