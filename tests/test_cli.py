"""Configuration parsing, data writers, and end-to-end CLI behavior."""

import json
import math
import os
import resource
import stat
import subprocess
import sys

import numpy as np
import pytest
from stages import traced_stages

from biphoton.cli import main
from biphoton.config import (
    ConfigError,
    RunConfig,
    build_config,
    parse_config,
    parse_quantity,
)
from biphoton.writers import (
    WriteError,
    read_grd,
    write_csv,
    write_grd,
    write_pgm,
)


class TestParseQuantity:
    def test_lengths(self):
        assert parse_quantity("355nm", "length") == pytest.approx(355e-9)
        assert parse_quantity("507um", "length") == pytest.approx(507e-6)
        assert parse_quantity("507µm", "length") == pytest.approx(507e-6)
        assert parse_quantity("5mm", "length") == pytest.approx(5e-3)
        assert parse_quantity("2cm", "length") == pytest.approx(2e-2)
        assert parse_quantity("1.5m", "length") == pytest.approx(1.5)

    def test_angles(self):
        assert parse_quantity("32.9deg", "angle") == \
            pytest.approx(math.radians(32.9))
        assert parse_quantity("0.5rad", "angle") == pytest.approx(0.5)

    def test_bare_numbers_are_si(self):
        assert parse_quantity(5e-3, "length") == 5e-3
        assert parse_quantity("0.005", "length") == 5e-3

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError, match="lightyears"):
            parse_quantity("3lightyears", "length", key="lightyears")
        with pytest.raises(ConfigError):
            parse_quantity("abc", "angle")


class TestConfig:
    def test_empty_config_is_paper_defaults(self):
        cfg = build_config({})
        assert cfg.pump.wavelength == pytest.approx(355e-9)
        assert cfg.pump.waist == pytest.approx(507e-6)
        assert cfg.setup.kind == "single"
        assert cfg.setup.length == pytest.approx(5e-3)
        assert cfg.setup.theta_p == pytest.approx(math.radians(32.9))
        assert cfg.z == pytest.approx(5e-3)
        assert cfg.grid.n == 64

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"crystal": {"theta_p": "32.90deg"}}))
        cfg = parse_config(str(path),
                           {"crystal": {"theta_p": "32.96deg"}})
        assert cfg.setup.theta_p == pytest.approx(math.radians(32.96))

    def test_gap_without_double_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"crystal": {"gap": "2mm"}})

    @pytest.mark.parametrize("data", [
        {"grid": {"memory_budget": 1}}, {"coincidence": {"dark_rate": 0}},
        {"coincidence": {"quantum_efficiency": 0}},
        {"coincidence": {"quantum_efficiency": 1}},
        {"coincidence": {"mu_pairs": 0}}, {"coincidence": {"n_frames": 1}},
        {"coincidence": {"seed": 0}}],
        ids=["budget-1", "dark-0", "qe-0", "qe-1", "mu-0", "frames-1",
             "seed-0"])
    def test_range_edges_accepted(self, data):
        section, = data
        (key, value), = data[section].items()
        assert getattr(getattr(build_config(data), section), key) == value

    @pytest.mark.parametrize("m", [0, 1])
    def test_m_below_two_names_the_rule(self, m):
        # 1 divides every n: the message names the rule that refused it.
        with pytest.raises(ConfigError, match=f"entanglement.m must be >= 2 "
                           f"and divide grid.n = 64, got {m}$"):
            build_config({"entanglement": {"m": m}})

    def test_unknown_key_names_path(self):
        with pytest.raises(ConfigError, match="waistt"):
            build_config({"pump": {"waistt": "507um"}})

    def test_fingerprint_stable_and_sensitive(self):
        a = build_config({})
        b = build_config({})
        c = build_config({"z": "6mm"})
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert len(a.fingerprint()) == 16
        # The defaults, taken from the constants of fields and coincidence,
        # keep the values and types that every artifact's fingerprint holds.
        assert a.fingerprint() == RunConfig().fingerprint() \
            == "33592b955cfc988b"

    @pytest.mark.parametrize("data", [
        {}, {"z": "6mm"},
        {"crystal": {"kind": "double", "length": "1mm", "gap": "4mm"}},
        {"pump": {"waist": "480um"}, "grid": {"n": 32},
         "coincidence": {"seed": 5, "mu_pairs": 3}},
    ])
    def test_fingerprint_is_sha256_of_canonical_json(self, data):
        import hashlib

        cfg = build_config(data)
        d = cfg.to_dict()
        del d["outdir"], d["formats"]
        canonical = json.dumps(d, sort_keys=True, separators=(",", ":"))
        assert cfg.fingerprint() == \
            hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def test_fingerprint_through_hashlib_fallback(self):
        # With neither built-in module, the fingerprint comes from hashlib.
        res = TestFreshProcess.python("-c", (
            "import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from biphoton.config import RunConfig, sha256\n"
            "print(sha256.__module__, RunConfig().fingerprint())"))
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["_hashlib", "33592b955cfc988b"]

    def test_double_crystal_config(self):
        cfg = build_config({"crystal": {"kind": "double", "length": "1mm",
                                        "gap": "4mm"}})
        assert cfg.setup.kind == "double"
        assert cfg.setup.gap == pytest.approx(4e-3)


class TestWriters:
    def test_grd_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.random((5, 7))
        path = tmp_path / "a.grd"
        write_grd(values, path, ("x_s", "x_i"), (1e-5, 1e-5), "m",
                  fingerprint="f00d")
        back, header = read_grd(path)
        np.testing.assert_array_equal(back, values)  # bit-exact
        assert header["magic"] == "GRD1"
        assert header["axes"] == ["x_s", "x_i"]
        assert header["fingerprint"] == "f00d"

    def test_grd_refuses_non_finite(self, tmp_path):
        values = np.array([[1.0, np.nan]])
        with pytest.raises(WriteError):
            write_grd(values, tmp_path / "bad.grd", ("a", "b"),
                      (1.0, 1.0), "m")
        values[0, 1] = np.inf
        with pytest.raises(WriteError):
            write_grd(values, tmp_path / "bad.grd", ("a", "b"),
                      (1.0, 1.0), "m")
        assert not (tmp_path / "bad.grd").exists()

    @pytest.mark.parametrize("delta", [np.nan, np.inf], ids=["nan", "inf"])
    def test_grd_refuses_non_finite_deltas(self, tmp_path, delta):
        # The header is JSON: NaN or Infinity in it is not.
        with pytest.raises(WriteError):
            write_grd(np.ones((2, 2)), tmp_path / "bad.grd", ("a", "b"),
                      (1.0, delta), "m")
        assert not (tmp_path / "bad.grd").exists()

    @pytest.mark.parametrize("header", [
        b"\xff\xfe", b"GRD1", b'["GRD1"]', b'{"magic": "GRD1"}',
        b'{"magic": "GRD1", "shape": [-1, -8]}',
        b'{"magic": "GRD1", "shape": "ab"}'],
        ids=["not-utf8", "not-json", "list", "no-shape", "negative-shape",
             "string-shape"])
    def test_grd_refuses_malformed_header(self, tmp_path, header):
        # Each header is followed by 8 float64 values, the payload of a
        # shape whose extents multiply to 8: only the header is wrong.
        path = tmp_path / "bad.grd"
        path.write_bytes(header + b"\n" + np.ones(8).tobytes())
        with pytest.raises(WriteError, match="GRD1"):
            read_grd(path)

    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=oct)
    def test_grd_mode_follows_umask(self, tmp_path, umask):
        # The temporary file is owner-only; the artifact gets the mode a
        # plain open() would give it.
        path = tmp_path / "a.grd"
        old = os.umask(umask)
        try:
            write_grd(np.ones((2, 2)), path, ("a", "b"), (1.0, 1.0), "m")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_pgm_max_normalized(self, tmp_path):
        values = np.random.default_rng(1).random((9, 9)) * 0.3
        path = tmp_path / "a.pgm"
        write_pgm(values, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5")
        payload = raw[raw.index(b"255\n") + 4:]
        pixels = np.frombuffer(payload, dtype=np.uint8)
        assert pixels.size == values.size
        assert pixels.max() == 255

    def test_csv_shape(self, tmp_path):
        values = np.arange(9.0).reshape(3, 3)
        path = tmp_path / "a.csv"
        write_csv(values, path, ("x_s", "x_i"), fingerprint="f00d")
        lines = path.read_text().strip().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 4  # header row + 3 data rows
        assert "x_s" in data[0]
        assert len(data[1].split(",")) == len(values[0])


def test_every_config_flag_names_a_schema_key():
    # A flag's dest is its config path, "section.key"; every other option
    # of the top-level parser is one of the known few.
    from biphoton import cli, config

    others = set()
    for action in cli._build_parser()._actions:
        if "." in action.dest:
            section, key = action.dest.split(".")
            assert key in config._SCHEMA[section], action.option_strings
        else:
            others.add(action.dest)
    assert others == {"help", "config", "out", "single", "double", "z",
                      "command"}


class TestCliCommands:
    def run(self, *args, outdir):
        return main(["--out", str(outdir), *args])

    def test_collinear_angle_exit0(self, tmp_path, capsys):
        assert self.run("collinear-angle", outdir=tmp_path) == 0
        out = capsys.readouterr().out
        assert "32.9139 deg (0.574456 rad)" in out

    def test_simulate_mom_writes_outputs(self, tmp_path):
        code = self.run("--n", "16", "simulate", "mom", outdir=tmp_path)
        assert code == 0
        assert (tmp_path / "joint_mom_av.grd").exists()
        assert (tmp_path / "joint_mom_av.csv").exists()
        assert (tmp_path / "joint_mom_av.pgm").exists()
        _, header = read_grd(tmp_path / "joint_mom_av.grd")
        assert header["fingerprint"]

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            assert self.run("--n", "16", "simulate", "pos", outdir=out) == 0
        assert (a / "joint_pos_av.grd").read_bytes() == \
            (b / "joint_pos_av.grd").read_bytes()

    def test_config_error_exit2(self, tmp_path, capsys):
        code = self.run("--d", "2mm", "simulate", "pos", outdir=tmp_path)
        assert code == 2
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"grid": {"n": "abc"}}, {"grid": {"c1": "x"}},
        {"entanglement": {"m": "q"}}, {"coincidence": {"roi": 5}},
        {"grid": {"n": 16.9}}, {"grid": {"boundary_tol": "nan"}},
        {"grid": {"boundary_tol": -1}}, {"grid": {"boundary_tol": 0}},
        {"grid": {"memory_budget": 0}}, {"grid": {"c1": -1}},
        {"grid": {"c2": -1}}, {"coincidence": {"seed": -1}},
        {"coincidence": {"mu_pairs": -1}}, {"coincidence": {"n_frames": 0}},
        {"coincidence": {"quantum_efficiency": 2}}],
        ids=["n-text", "c1-text", "m-text", "roi-scalar", "n-fraction",
             "tol-nan", "tol-negative", "tol-zero", "budget-zero",
             "c1-negative", "c2-negative", "seed-negative", "mu-negative",
             "frames-zero", "qe-above-one"])
    def test_malformed_value_exit2(self, tmp_path, capsys, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert self.run("--config", str(cfg), "ef", outdir=tmp_path) == 2
        section, = data
        key, = data[section]
        assert f"config: {section}.{key}: " in capsys.readouterr().err
        assert not (tmp_path / "ef_report.json").exists()

    @pytest.mark.parametrize("flag", [
        ("--seed", "-1"), ("--mu-pairs", "-1"), ("--frames", "0")],
        ids=["seed", "mu-pairs", "frames"])
    def test_camera_flag_out_of_range_exit2(self, tmp_path, capsys, flag):
        # Refused by the configuration, before the factors are built.
        assert self.run("--n", "16", *flag, "frames", "synth",
                        outdir=tmp_path) == 2
        assert "config: coincidence." in capsys.readouterr().err
        assert not (tmp_path / "frames.bpfs").exists()

    def test_scan_z_failed_engine_pass_exit3(self, tmp_path, capsys):
        # The shared engine pass of a z scan fails every point; each is
        # reported, and the scan still exits 3.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 8, "c1": 0.2, "c2": 0.05}}))
        assert self.run("--config", str(cfg), "scan", "z", "--values",
                        "0mm,5mm", outdir=tmp_path) == 3
        captured = capsys.readouterr()
        assert captured.out.count("ERROR SupportTruncationError") == 2
        assert "scan: every point failed" in captured.err
        assert not (tmp_path / "scan_z.csv").exists()

    def test_conflicting_kind_flags_exit2(self, tmp_path):
        code = self.run("--single", "--double", "collinear-angle",
                        outdir=tmp_path)
        assert code == 2

    def test_compute_error_exit3(self, tmp_path, capsys):
        # Deliberately undersized momentum extent trips the truncation guard.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 8, "c1": 0.2, "c2": 0.05}}))
        code = main(["--out", str(tmp_path), "--config", str(cfg),
                     "simulate", "pos"])
        assert code == 3
        err = capsys.readouterr().err
        assert "fields" in err

    @pytest.mark.parametrize("command", [
        ("simulate", "pos"), ("ef",), ("scan", "z", "--values", "5mm"),
        ("conditional",), ("singles",)],
        ids=["simulate-pos", "ef", "scan-z", "conditional", "singles"])
    def test_grid_boundary_tol_honoured(self, tmp_path, command):
        # At n = 8 the boundary ratio is about 0.12: over the default
        # tolerance 0.1, under the configured 0.5.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 8, "boundary_tol": 0.5}}))
        assert self.run("--config", str(cfg), *command, outdir=tmp_path) == 0

    def test_conditional_tight_extent_exit3(self, tmp_path, capsys):
        # The direct conditional keeps the truncation guard.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 8, "c1": 0.2, "c2": 0.05}}))
        assert self.run("--config", str(cfg), "conditional",
                        outdir=tmp_path) == 3
        assert "boundary magnitude" in capsys.readouterr().err
        assert not (tmp_path / "conditional_pos.grd").exists()

    def test_conditional_memory_budget_exit3(self, tmp_path, capsys):
        # The factors of the direct conditional honour grid.memory_budget,
        # as those of ef and singles do.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 16, "memory_budget": 1024}}))
        assert self.run("--config", str(cfg), "conditional",
                        outdir=tmp_path) == 3
        assert "(> budget 1024 bytes)" in capsys.readouterr().err
        assert not (tmp_path / "conditional_pos.grd").exists()

    def test_degenerate_condition_exit3(self, tmp_path, capsys, monkeypatch):
        from biphoton import fields

        def degenerate(*args, **kwargs):
            raise fields.DegenerateConditionError("no probability")

        monkeypatch.setattr(fields, "_conditional_direct", degenerate)
        assert self.run("--n", "16", "conditional", outdir=tmp_path) == 3
        assert "fields: no probability" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ("simulate", "pos"), ("simulate", "mom"), ("ef",),
        ("scan", "z", "--values", "0mm,5mm"), ("conditional",), ("singles",),
        ("frames", "synth")],
        ids=["simulate-pos", "simulate-mom", "ef", "scan-z", "conditional",
             "singles", "frames-synth"])
    def test_joint_commands_skip_4d_path(self, tmp_path, command):
        code, stages, _ = traced_stages(
            lambda: self.run("--n", "16", *command, outdir=tmp_path), False)
        assert code == 0
        assert not {"4D amplitude", "4D transform"} & {s.what for s in stages}

    @pytest.mark.parametrize("command", [
        ("ef",), ("scan", "z", "--values", "0mm,5mm,10mm"),
        ("simulate", "pos"), ("simulate", "mom"), ("singles",),
        ("conditional",), ("frames", "synth")],
        ids=["ef", "scan-z", "simulate-pos", "simulate-mom", "singles",
             "conditional", "frames-synth"])
    def test_one_pair_table_pass_per_command(self, tmp_path, command):
        # The boundary guard and the factor build read one set of pair
        # tables: one pair-tables stage per configuration.
        code, stages, _ = traced_stages(lambda: self.run(
            "--n", "32", "--frames", "100", *command, outdir=tmp_path), False)
        assert code == 0
        assert [s.what for s in stages].count("pair tables") == 1

    def test_ef_report_grid_diagnostics(self, tmp_path):
        for out in ("a", "b"):
            assert self.run("--n", "16", "ef", outdir=tmp_path / out) == 0
        raw = (tmp_path / "a" / "ef_report.json").read_bytes()
        assert raw == (tmp_path / "b" / "ef_report.json").read_bytes()
        grid = json.loads(raw)["grid"]
        from biphoton import fields

        assert set(grid) == {"boundary_ratio", "rank", "interpolation_error"}
        assert 0 < grid["boundary_ratio"] <= 0.1
        cfg = parse_config(None, {"grid": {"n": 16}})
        grid16 = fields.MomentumGrid4.auto(cfg.pump, cfg.setup, n=16)
        assert grid["rank"] == fields.amplitude_factors(
            fields.Pipeline(cfg.pump, cfg.setup, grid16)).rank
        assert 0.0 < grid["interpolation_error"] <= 1e-12

    def test_ef_report(self, tmp_path):
        assert self.run("--n", "16", "ef", outdir=tmp_path) == 0
        report = json.loads((tmp_path / "ef_report.json").read_text())
        assert report["ef_min_ebits"] > 0
        assert report["m"] == 16
        # The grid extent keys reach the computation, not only the fingerprint.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 16, "c2": 3.0}}))
        wide = tmp_path / "wide"
        assert self.run("--config", str(cfg), "ef", outdir=wide) == 0
        wide_report = json.loads((wide / "ef_report.json").read_text())
        assert wide_report["fingerprint"] != report["fingerprint"]
        assert wide_report["ef_min_ebits"] != report["ef_min_ebits"]

    def test_scan_theta_csv(self, tmp_path):
        code = self.run("--n", "16", "scan", "theta",
                        "--values", "32.9deg,32.94deg", outdir=tmp_path)
        assert code == 0
        lines = (tmp_path / "scan_theta.csv").read_text().strip().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 3  # header + 2 points

    def test_frames_pipeline(self, tmp_path):
        # The stack is synthesized with a non-default pitch; coincide runs
        # with the default config, and its outputs describe the stack.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"coincidence": {"pitch": "8um"}}))
        code = self.run("--config", str(cfg), "--n", "16", "--frames", "50",
                        "--seed", "5", "frames", "synth", outdir=tmp_path)
        assert code == 0
        stack = tmp_path / "frames.bpfs"
        assert stack.exists()
        with open(stack, "rb") as fh:
            stack_header = json.loads(fh.readline())
        code = self.run("frames", "coincide", "--stack", str(stack),
                        outdir=tmp_path)
        assert code == 0
        _, header = read_grd(tmp_path / "coincidence_xx.grd")
        assert header["deltas"] == [8e-6, 8e-6]
        assert header["fingerprint"] == stack_header["fingerprint"]
        csv_head = (tmp_path / "coincidence_xx.csv").read_text().splitlines()[0]
        assert csv_head == f"# fingerprint={stack_header['fingerprint']}"

    @pytest.mark.parametrize("formats, expected", [
        (None, {"delta_kz.grd", "phi_mag.grd", "phi_mag.pgm"}),
        (["csv"], set()),
        (["grd"], {"delta_kz.grd", "phi_mag.grd"}),
        (["pgm", "csv"], {"phi_mag.pgm"}),
    ], ids=["default", "csv", "grd", "pgm-csv"])
    def test_phasematch_map_follows_formats(self, tmp_path, formats,
                                            expected):
        out = tmp_path / "out"
        args = ["--n", "16", "phasematch-map"]
        if formats is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"output": {"formats": formats}}))
            args = ["--config", str(cfg)] + args
        assert self.run(*args, outdir=out) == 0
        assert set(os.listdir(out)) == expected

    @pytest.mark.parametrize("formats, expected", [
        (None, {"coincidence_xx.grd", "coincidence_xx.csv"}),
        (["csv"], {"coincidence_xx.csv"}),
        (["grd", "pgm"], {"coincidence_xx.grd"}),
        (["pgm"], set()),
    ], ids=["default", "csv", "grd-pgm", "pgm"])
    def test_coincide_follows_formats(self, tmp_path, formats, expected):
        stack = tmp_path / "frames.bpfs"
        code = self.run("--n", "16", "--frames", "20", "frames", "synth",
                        "--stack", str(stack), outdir=tmp_path)
        assert code == 0
        out = tmp_path / "out"
        args = ["frames", "coincide", "--stack", str(stack)]
        if formats is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"output": {"formats": formats}}))
            args = ["--config", str(cfg)] + args
        assert self.run(*args, outdir=out) == 0
        assert set(os.listdir(out)) == expected

    def test_frames_small_roi_exit3_before_factors(self, tmp_path, capsys,
                                                   monkeypatch):
        # The ROI is checked against the grid before the factor build.
        from biphoton import fields

        def refuse(*args, **kwargs):
            raise AssertionError("position_factors reached")

        monkeypatch.setattr(fields, "position_factors", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"coincidence": {"roi": [2, 2]}}))
        code = self.run("--config", str(cfg), "--n", "16", "--frames", "10",
                        "frames", "synth", outdir=tmp_path)
        assert code == 3
        assert "does not cover the distribution support" in \
            capsys.readouterr().err
        assert not (tmp_path / "frames.bpfs").exists()

    def test_frames_store_memory_budget_exit3(self, tmp_path, capsys):
        # A budget that admits the n = 16 factor build and a 2-frame stack,
        # but not the store of 100 000 frames, whose offsets alone need
        # 1.6 MB: refused before the pairs are drawn.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 16, "memory_budget": 10**6}}))
        assert self.run("--config", str(cfg), "--frames", "2", "frames",
                        "synth", outdir=tmp_path / "short") == 0
        capsys.readouterr()
        assert self.run("--config", str(cfg), "--frames", "100000", "frames",
                        "synth", outdir=tmp_path / "long") == 3
        err = capsys.readouterr().err
        assert err.startswith("memory: frame store need")
        assert "(> budget 1000000 bytes)" in err
        assert not (tmp_path / "long" / "frames.bpfs").exists()

    def test_allocation_failure_exit3(self, tmp_path, capsys, monkeypatch):
        # A failed numpy allocation raises a MemoryError of numpy's own
        # module: it exits 3 labelled "memory:", as a budget refusal does.
        from biphoton import fields

        def allocate(*args):
            return np.empty(2**50)  # 8 PiB: refused by the allocator at once

        monkeypatch.setattr(fields, "singles_direct", allocate)
        assert self.run("singles", outdir=tmp_path) == 3
        assert capsys.readouterr().err.startswith(
            "memory: Unable to allocate 8.00 PiB")

    @pytest.mark.parametrize("header", [b"not json\n",
                                        b'{"magic": "BPFS1"}\n'],
                             ids=["not-json", "magic-only"])
    def test_coincide_malformed_header_exit3(self, tmp_path, capsys, header):
        stack = tmp_path / "bad.bpfs"
        stack.write_bytes(header + b"\x00" * 64)
        code = self.run("frames", "coincide", "--stack", str(stack),
                        outdir=tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("coincidence: ") and str(stack) in err
        assert not (tmp_path / "coincidence_xx.grd").exists()

    def check_edited_header_exit3(self, tmp_path, capsys, edit):
        """``frames coincide`` on a 3-frame 4 x 4 stack whose JSON header
        ``edit`` changed exits 3 and writes no map."""
        from biphoton.coincidence import DetectorModel, FrameStack, save_frames

        stack = tmp_path / "frames.bpfs"
        save_frames(FrameStack(np.zeros((3, 2, 4, 4), dtype=np.uint16), 0,
                               DetectorModel(roi=(4, 4))), stack)
        header, payload = stack.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        edit(header)
        stack.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        code = self.run("frames", "coincide", "--stack", str(stack),
                        outdir=tmp_path)
        assert code == 3
        assert capsys.readouterr().err.startswith("coincidence: ")
        assert not any(tmp_path.glob("coincidence_xx.*"))

    @pytest.mark.parametrize("key", ["pitch", "dark_rate"])
    def test_coincide_non_finite_detector_exit3(self, tmp_path, capsys, key):
        # json reads NaN; the detector refuses it, so no GRD is written.
        self.check_edited_header_exit3(
            tmp_path, capsys,
            lambda header: header["detector"].update({key: math.nan}))

    @pytest.mark.parametrize("key, value", [
        ("fingerprint", {"not": "a fingerprint"}), ("seed", -1),
        ("seed", True), ("seed", 1.5)],
        ids=["fingerprint-dict", "seed-negative", "seed-bool", "seed-float"])
    def test_coincide_bad_provenance_exit3(self, tmp_path, capsys, key,
                                           value):
        # The stack's seed and fingerprint go into the map's headers: a
        # fingerprint that is not a string, or a seed that is not an
        # int >= 0, is refused.
        self.check_edited_header_exit3(
            tmp_path, capsys, lambda header: header.update({key: value}))

    @pytest.mark.parametrize("top, det", [
        ({"ny": True, "nx": 16}, {"roi": [True, 16]}),
        ({"ny": 1, "nx": 16}, {"roi": [True, 16]}), ({}, {"roi": [4.0, 4]}),
        ({}, {"pitch": True}), ({}, {"quantum_efficiency": True})],
        ids=["ny-bool", "roi-bool", "roi-float", "pitch-bool", "qe-bool"])
    def test_coincide_non_int_header_exit3(self, tmp_path, capsys, top, det):
        # bool is an int subclass and 4.0 == 4: the stack's sizes and ROI
        # are plain ints, and its detector numbers are not true or false.
        # (ny, nx) = (1, 16) keeps the payload's size.
        def edit(header):
            header.update(top)
            header["detector"].update(det)

        self.check_edited_header_exit3(tmp_path, capsys, edit)

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIPHOTON_OUTDIR", str(tmp_path))
        assert main(["--n", "16", "simulate", "mom"]) == 0
        assert (tmp_path / "joint_mom_av.grd").exists()


class TestFreshProcess:
    """The CLI in a new interpreter, as a user starts it."""

    @staticmethod
    def python(*args, preexec_fn=None):
        import biphoton

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(biphoton.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, check=False,
                              preexec_fn=preexec_fn, timeout=300)

    def test_import_loads_no_scipy(self):
        res = self.python("-c", "import sys, biphoton.cli; print(sorted("
                          "m for m in sys.modules if m.startswith('scipy')))")
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_cli_loads_no_libcrypto(self, tmp_path):
        # OpenSSL's hashlib costs a process about 3.5 MB of peak RSS; only
        # frames synth, through numpy.random, may load it.
        stack = tmp_path / "frames.bpfs"
        assert main(["--n", "16", "--frames", "20", "--out", str(tmp_path),
                     "frames", "synth"]) == 0
        runs = [["scan", "z", "--values", "0mm,5mm"], ["ef"],
                ["conditional"],
                ["frames", "coincide", "--stack", str(stack)]]
        # The commands print to stdout: the states go out on its last line.
        res = self.python("-c", (
            "import sys, biphoton.cli\n"
            "seen = [(None, '_hashlib' in sys.modules)]\n"
            f"for args in {runs!r}:\n"
            f"    code = biphoton.cli.main(['--n', '16', '--out', "
            f"{str(tmp_path)!r}, *args])\n"
            "    seen.append((code, '_hashlib' in sys.modules))\n"
            "print(seen)"))
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == \
            str([(None, False)] + [(0, False)] * 4)

    def test_ef_n256_fits_3gib_address_space(self, tmp_path):
        cap = 3 * 1024**3

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        res = self.python("-m", "biphoton.cli", "--n", "256", "--out",
                          str(tmp_path), "ef", preexec_fn=limit)
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "ef_report.json").read_text())
        assert report["m"] == 256
        assert report["grid"]["interpolation_error"] <= 1e-12

    def test_frames_n128_fit_3gib_address_space(self, tmp_path):
        cap = 3 * 1024**3

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        res = self.python("-m", "biphoton.cli", "--n", "128", "--frames",
                          "2000", "--out", str(tmp_path), "frames", "synth",
                          preexec_fn=limit)
        assert res.returncode == 0, res.stderr
        res = self.python("-m", "biphoton.cli", "--out", str(tmp_path),
                          "frames", "coincide", "--stack",
                          str(tmp_path / "frames.bpfs"), preexec_fn=limit)
        assert res.returncode == 0, res.stderr
        _, header = read_grd(tmp_path / "coincidence_xx.grd")
        assert header["n_frames"] == 2000
