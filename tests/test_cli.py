"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction as F

import pytest

import apfree
from apfree.cli import _PARAMETERS, _apply_config, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    decoder = json.JSONDecoder()
    objs, idx = [], 0
    while idx < len(out):
        obj, end = decoder.raw_decode(out[idx:])
        objs.append(obj)
        idx += end
        while idx < len(out) and out[idx] in "\r\n ":
            idx += 1
    return objs


class TestArea:
    def test_dual_oracle_pass(self, capsys):
        code, out, _ = run(capsys, "area", "--epsilon", "1/12")
        assert code == 0
        objs = json_lines(out)
        total = next(o for o in objs if o.get("piece") == "total")
        assert F(total["exact"]) >= F(7, 24) - F(1, 12)
        summary = next(o for o in objs if o.get("check") == "area")
        assert summary["oracles_agree"] is True

    def test_piece2_line_present(self, capsys):
        code, out, _ = run(capsys, "area", "--epsilon", "1/24")
        assert code == 0
        right = next(o for o in json_lines(out) if o.get("piece") == "right")
        assert F(right["exact"]) == F(15, 384)

    def test_bad_rational_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["area", "--epsilon", "nonsense"])
        assert exc.value.code == 2

    def test_pieces_clipped_once(self, capsys, monkeypatch):
        """The command reads the clipped areas off the oracle's report
        instead of clipping the three pieces a second time."""
        import apfree.blocks as blocks

        calls, real = [], blocks.piece_clip_specs
        monkeypatch.setattr(blocks, "piece_clip_specs", lambda eps: calls.append(eps) or real(eps))
        assert run(capsys, "area", "--epsilon", "1/12")[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("epsilon, clippings", [("1/12", 3), ("1/4", 6)])
    def test_each_piece_clipped_once_per_oracle(self, capsys, monkeypatch, epsilon, clippings):
        """One clipping per piece gives its area and degenerate flag; at the
        degenerate eps = 1/4 the block's areas clip the three pieces again.
        The spy also takes the name in blocks, should it import its own."""
        import apfree.blocks as blocks
        import apfree.clipping as clipping

        calls, real = [], clipping.clip_halfplanes
        for owner in (clipping, blocks):
            monkeypatch.setattr(owner, "clip_halfplanes",
                                lambda *args: calls.append(args) or real(*args), raising=False)
        assert run(capsys, "area", "--epsilon", epsilon)[0] == 0
        assert len(calls) == clippings


class TestConstruct:
    def test_zm_writes_certified_files(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "construct", "zm", "--moduli", "12,12", "--epsilon", "1/12",
            "--seed", "1", "--outdir", str(tmp_path),
        )
        assert code == 0
        summary = json_lines(out)[0]
        assert summary["verified"] is True
        name = summary["name"]
        set_file = tmp_path / f"{name}.set"
        sidecar = json.loads((tmp_path / f"{name}.json").read_text())
        report = json.loads((tmp_path / f"{name}.report.json").read_text())
        assert set_file.exists()
        assert sidecar["verified"] is True and "watermark" not in sidecar
        assert report["pass"] is True and "elapsed_seconds" not in report

    def test_int_construct(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "construct", "int", "--N", "5000", "--seed", "1",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        assert json_lines(out)[0]["verified"] is True

    def test_fpn_odd_dimension(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "construct", "fpn", "--p", "5", "--n", "3", "--seed", "1",
            "--outdir", str(tmp_path), "--epsilon", "1/12",
        )
        assert code == 0
        summary = json_lines(out)[0]
        sidecar = json.loads((tmp_path / f"{summary['name']}.json").read_text())
        assert sidecar["provenance"]["fiber_modulus"] == 5

    def test_no_verify_watermark(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "construct", "behrend", "--N", "100",
            "--outdir", str(tmp_path), "--no-verify", "--name", "plain",
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "plain.json").read_text())
        assert sidecar["watermark"] == "UNCERTIFIED"
        assert not (tmp_path / "plain.report.json").exists()

    def test_unverified_rerun_removes_the_stale_report(self, capsys, tmp_path):
        """A --no-verify write under the name of a certified set removes its
        report, which would otherwise still certify the old set of size 2
        beside the new uncertified one of size 4."""
        base = ["construct", "zm", "--moduli", "6,6,6,6", "--outdir", str(tmp_path),
                "--name", "s"]
        assert run(capsys, *base, "--seed", "1")[0] == 0
        report = json.loads((tmp_path / "s.report.json").read_text())
        assert report["pass"] is True and report["parameters"]["size"] == 2
        code, out, _ = run(capsys, *base, "--seed", "2", "--no-verify")
        assert code == 0 and json_lines(out)[0]["size"] == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json", "s.set"]
        sidecar = json.loads((tmp_path / "s.json").read_text())
        assert (sidecar["size"], sidecar["watermark"]) == (4, "UNCERTIFIED")

    def test_zm_default_parameters(self, capsys, tmp_path):
        # no epsilon: the two-dimensional request takes the box route
        code, out, _ = run(
            capsys, "construct", "zm", "--moduli", "12,12", "--seed", "1",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        summary = json_lines(out)[0]
        assert summary["verified"] is True
        sidecar = json.loads((tmp_path / f"{summary['name']}.json").read_text())
        assert sidecar["provenance"]["route"] == "box"

    def test_negative_slice_index_is_refused(self, capsys, tmp_path):
        code, out, err = run(capsys, "construct", "zm", "--moduli", "4,4", "--epsilon", "1/4",
                             "--shift", "0,0", "--slice-j", "-1", "--outdir", str(tmp_path))
        assert (code, out, err) == (2, "", "error: slice index -1 is negative\n")
        assert list(tmp_path.iterdir()) == []

    def test_missing_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "zm"])
        assert exc.value.code == 2

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        args = [
            "construct", "zm", "--moduli", "10,6", "--epsilon", "1/12",
            "--seed", "9", "--name", "rep",
        ]
        run(capsys, *args, "--outdir", str(tmp_path / "a"))
        run(capsys, *args, "--outdir", str(tmp_path / "b"))
        for suffix in ("rep.set", "rep.json", "rep.report.json"):
            assert (tmp_path / "a" / suffix).read_bytes() == (
                tmp_path / "b" / suffix
            ).read_bytes()


class TestConfigFile:
    def test_config_supplies_parameters(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "moduli": [12, 12], "epsilon": "1/12", "delta": "1/12",
            "trials": 4, "seed": 1,
        }))
        code, out, _ = run(
            capsys, "construct", "zm", "--config", str(config),
            "--outdir", str(tmp_path), "--name", "cfg",
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "cfg.json").read_text())
        assert sidecar["provenance"]["epsilon"] == "1/12"
        assert sidecar["provenance"]["trials"] == 4
        assert sidecar["provenance"]["seed"] == 1

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"moduli": [12, 12], "epsilon": "1/12", "seed": 1}))
        code, out, _ = run(
            capsys, "construct", "zm", "--config", str(config), "--seed", "2",
            "--outdir", str(tmp_path), "--name", "cfg2",
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "cfg2.json").read_text())
        assert sidecar["provenance"]["seed"] == 2

    def test_unknown_key_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"moduli": [4, 4], "bogus": 1}))
        code, out, err = run(capsys, "construct", "zm", "--config", str(config))
        assert code == 2 and out == ""
        assert err == "error: unknown config key 'bogus'\n"

    # a value for every construct parameter, as a config file spells it
    CONFIG_VALUES = {
        "moduli": ([5, 5], (5, 5)), "p": (5, 5), "n": (2, 2), "N": (300, 300),
        "epsilon": ("1/8", F(1, 8)), "delta": ("1/100", F(1, 100)), "trials": (3, 3),
        "seed": (1, 1), "shift": (["0", "1/2"], (F(0), F(1, 2))), "slice_j": (0, 0),
        "n_override": (4, 4),
    }

    @pytest.mark.parametrize("key", sorted(_PARAMETERS))
    def test_every_parameter_is_a_config_key(self, tmp_path, key):
        config = tmp_path / "run.json"
        value, parsed = self.CONFIG_VALUES[key]
        config.write_text(json.dumps({key: value}))
        parser = build_parser()
        args = parser.parse_args(["construct", "zm", "--config", str(config)])
        _apply_config(args)
        assert getattr(args, key) == parsed

    @pytest.mark.parametrize("base, config", [
        (["zm"], [1, 2]),
        (["zm"], "12,12"),
        (["int"], {"N": 5000.5}),
        (["int-direct"], {"N": 5000.5}),
        (["int"], {"N": None}),
        (["zm"], {"moduli": [12, 12], "trials": "x"}),
        (["zm"], {"moduli": [12, 12.0]}),
        (["zm"], {"moduli": [[12, 12]]}),
        (["zm"], {"moduli": {"a": 12}}),
        (["zm", "--moduli", "12,12"], {"epsilon": [1, 12]}),
        (["zm", "--moduli", "12,12"], {"seed": True}),
        (["zm", "--moduli", "12,12"], {"shift": ["0", "a"]}),
    ])
    def test_bad_config_value_usage_error(self, capsys, tmp_path, base, config):
        """Each value is read by its flag's type: these once ended in
        tracebacks, or (N 5000.5 for int) built from a float bound."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "construct", *base, "--config", str(path),
                             "--outdir", str(tmp_path / "out"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, flags", [
        ({"moduli": [12, 12], "trials": "4"}, ["--moduli", "12,12", "--trials", "4"]),
        ({"moduli": 12}, ["--moduli", "12"]),
        ({"moduli": "12,12", "epsilon": "1/8", "shift": "0,1/2"},
         ["--moduli", "12,12", "--epsilon", "1/8", "--shift", "0,1/2"]),
    ])
    def test_config_value_reads_as_its_flag(self, capsys, tmp_path, config, flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert run(capsys, "construct", "zm", "--config", str(path), "--outdir",
                   str(tmp_path / "a"), "--name", "s")[0] == 0
        assert run(capsys, "construct", "zm", *flags, "--outdir", str(tmp_path / "b"),
                   "--name", "s")[0] == 0
        for suffix in (".set", ".json"):
            assert ((tmp_path / "a" / "s").with_suffix(suffix).read_bytes()
                    == (tmp_path / "b" / "s").with_suffix(suffix).read_bytes())

    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_unreadable_config_usage_error(self, capsys, tmp_path, content):
        config = tmp_path / "run.json"
        if content is not None:
            config.write_text(content)
        code, _, err = run(capsys, "construct", "zm", "--config", str(config))
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestIgnoredParameters:
    """A parameter the chosen route would ignore is a usage error, whether
    it comes from a flag or from a config key."""

    CASES = [
        (["int-direct", "--N", "300"], "--shift", "0,0", "shift", ["0", "0"]),
        (["int-direct", "--N", "300"], "--delta", "1/100", "delta", "1/100"),
        (["int-direct", "--N", "300"], "--slice-j", "0", "slice_j", 0),
        (["zm", "--moduli", "9,7"], "--slice-j", "1", "slice_j", 1),
        (["zm", "--moduli", "9,7"], "--slice-j", "0", "slice_j", 0),
        (["behrend", "--N", "100"], "--epsilon", "1/8", "epsilon", "1/8"),
        (["halfbox", "--p", "5", "--n", "2"], "--trials", "3", "trials", 3),
        (["zm", "--moduli", "5,5"], "--n-override", "4", "n_override", 4),
        # a slice index without --shift, which the shift search once dropped
        (["zm", "--moduli", "3,3", "--epsilon", "1/2"], "--slice-j", "0", "slice_j", 0),
        (["fpn", "--p", "3", "--n", "3"], "--slice-j", "1", "slice_j", 1),
        (["int", "--N", "300"], "--slice-j", "0", "slice_j", 0),
    ]

    @pytest.mark.parametrize("base, flag, value, key, config_value", CASES)
    def test_flag_rejected(self, capsys, tmp_path, base, flag, value, key, config_value):
        code, out, err = run(capsys, "construct", *base, flag, value, "--outdir", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("base, flag, value, key, config_value", CASES)
    def test_config_key_rejected(self, capsys, tmp_path, base, flag, value, key, config_value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: config_value}))
        code, out, err = run(capsys, "construct", *base, "--config", str(config),
                             "--outdir", str(tmp_path / "out"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("base, flag, value", [
        (["behrend", "--N", "100"], "--epsilon", "1/8"),
        (["behrend", "--N", "100"], "--seed", "1"),
        (["halfbox", "--p", "5", "--n", "2"], "--trials", "3"),
        (["fpn", "--p", "5", "--n", "2"], "--N", "300"),
        (["zm", "--moduli", "5,5"], "--n-override", "4"),
        (["int", "--N", "300"], "--moduli", "5,5"),
    ])
    def test_unread_flag_named(self, capsys, tmp_path, base, flag, value):
        # each of these once exited 0 and dropped the flag
        code, out, err = run(capsys, "construct", *base, flag, value, "--outdir", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"error: construct {base[0]} does not read {flag}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", [["zm", "--moduli", "6,6"], ["int-direct", "--N", "100"]])
    def test_zero_trials_usage_error(self, capsys, tmp_path, kind):
        code, out, err = run(capsys, "construct", *kind, "--trials", "0", "--outdir", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("delta", ["1", "3/2"])
    def test_box_delta_outside_unit_interval(self, capsys, tmp_path, delta):
        code, out, err = run(capsys, "construct", "zm", "--moduli", "12,12",
                             "--delta", delta, "--outdir", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"error: delta={delta} outside (0,1)\n"


class TestWarnings:
    """Warnings raised while a command runs reach stderr as one `warning:`
    line each when the command finishes, and not at all on exit 2.  Run as
    a subprocess: in-process, pytest would capture the warnings itself."""

    @staticmethod
    def apfree(*argv, cwd):
        src = str(Path(apfree.__file__).resolve().parents[1])
        return subprocess.run([sys.executable, "-m", "apfree", *argv], cwd=cwd,
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=60)

    def test_exit_two_writes_one_line(self, tmp_path):
        # the loose delta warns before the budget refuses the 10^9 trials
        res = self.apfree("construct", "zm", "--moduli", "4,4", "--delta", "1/2",
                          "--trials", "1000000000", cwd=tmp_path)
        assert res.returncode == 2 and res.stdout == ""
        assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error: ")

    def test_finished_command_writes_one_line_per_warning(self, tmp_path):
        res = self.apfree("construct", "zm", "--moduli", "4,4", "--delta", "1/2", "--trials", "2",
                          "--outdir", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 0
        assert res.stderr == ("warning: delta=1/2 exceeds 1/max(m)=1/4; the construction "
                              "guarantee is void and the output is only trusted after "
                              "brute-force verification\n")


class TestWorkBudget:
    def test_direct_route_huge_dimension_exits_two_at_once(self, capsys, tmp_path):
        """From n = bit length of N on, delta is 1/8 and each further pair
        only shrinks the set; a larger n is refused before any row."""
        t0 = time.perf_counter()
        code, out, err = run(capsys, "construct", "int-direct", "--N", "300", "--n-override",
                             "20000", "--trials", "1", "--outdir", str(tmp_path))
        assert time.perf_counter() - t0 < 1
        assert code == 2 and out == ""
        assert err.startswith("error: n=20000 exceeds the bit length 9") and len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", [["int", "--N", str(10**12)],
                                      ["zm", "--moduli", "9000,9000", "--epsilon", "1/2"],
                                      ["int-direct", "--N", str(10**12)]])
    def test_over_budget_exits_two_quickly(self, capsys, tmp_path, kind):
        """About 5.3e8 tuples per trial (N=10^12), a 9000x9000 block pair
        grid or 10^12 direct-route rows per trial is refused before any is
        made, instead of running for hours."""
        t0 = time.perf_counter()
        code, out, err = run(capsys, "construct", *kind, "--outdir", str(tmp_path))
        assert time.perf_counter() - t0 < 10
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "work budget" in err
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", [["fpn", "--p", "7", "--n", "1000000", "--trials", "3"],
                                      ["fpn", "--p", "1000000007", "--n", "1000000",
                                       "--delta", "1/24", "--trials", "1"]])
    def test_search_over_budget_exits_two_before_sampling(self, capsys, tmp_path, kind):
        """The first tested 10927 pair grids (about 3 s) and the second drew
        10^6 shift coordinates (about 2.5 s) before the budget refused
        them; a search's pair grids are now charged before any shift is
        drawn."""
        t0 = time.perf_counter()
        code, out, err = run(capsys, "construct", *kind, "--outdir", str(tmp_path))
        assert time.perf_counter() - t0 < 1
        assert code == 2 and out == ""
        assert err.startswith("error: 500000 pair grids of ") and "work budget" in err
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n, count", [(1000, "at least 2^657"), (100000, "at least 2^66384")])
    def test_refusal_of_a_huge_product_is_one_short_line(self, capsys, tmp_path, n, count):
        """The slot product of F_3^n has about 3^(n/2) tuples, 23857 digits
        at n = 100000, past what Python formats; the refusal names neither
        that count nor the moduli."""
        code, out, err = run(capsys, "construct", "fpn", "--p", "3", "--n", str(n),
                             "--outdir", str(tmp_path))
        assert code == 2 and out == ""
        assert err == (f"error: slot product of {count} tuples, walked 17 times, exceeds the "
                       "work budget of 16777216 points\n")
        assert len(err.encode()) < 200
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", [["zm", "--moduli", "9000,9000"], ["zm", "--moduli", "3000"],
                                      ["fpn", "--p", "2999", "--n", "2"]])
    def test_large_box_builds_and_certifies(self, capsys, tmp_path, kind):
        """The box tests m1 + m2 coordinates, not the m1 * m2 grid, so large
        moduli stay within the budget."""
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "construct", *kind, "--outdir", str(tmp_path))
        assert time.perf_counter() - t0 < 10
        assert code == 0
        summary = json_lines(out)[0]
        assert summary["verified"] is True and summary["size"] >= 1

    @pytest.mark.parametrize("props", ["block", "all"])
    def test_check_over_budget_exits_two_at_once(self, capsys, props):
        # the 1/999984 grid's (2Q)^2 weight table alone would take 29 TiB
        t0 = time.perf_counter()
        code, out, err = run(capsys, "check", props, "--epsilon", "1/2", "--Q", "999984")
        assert time.perf_counter() - t0 < 5
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "work budget" in err
        assert len(err.splitlines()) == 1

    def test_certificate_over_budget_exits_two_at_once(self, capsys, tmp_path):
        # 13 elements of Z_4^24 with even coordinates: every pair passes the
        # parity filter and has 2^24 midpoint candidates
        lines = [",".join(str(2 * (i >> k & 1)) for k in range(24)) for i in range(1, 14)]
        (tmp_path / "e.set").write_text("".join(line + "\n" for line in lines))
        (tmp_path / "e.json").write_text(json.dumps({"kind": "group", "moduli": [4] * 24}))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", "--set", str(tmp_path / "e.set"))
        assert time.perf_counter() - t0 < 5
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "work budget" in err
        assert len(err.splitlines()) == 1


    @pytest.mark.parametrize("argv", [
        ["construct", "behrend", "--N", str(10**12)],
        ["construct", "halfbox", "--p", "101", "--n", "6"],
        ["compare", "int", "--N", str(10**12)],
        ["density", "--epsilon", "1/12", "--m", "83328"],
        ["construct", "halfbox", "--p", "1000001", "--n", "1"],
        ["density", "--epsilon", "1/12", "--m", "8193"],
    ])
    def test_dense_grid_over_budget_exits_two_at_once(self, capsys, monkeypatch, tmp_path,
                                                      argv):
        # the digit grids (1.82 TiB and 131 GiB), the radius counts (1.82 TiB
        # at p = 1000001) and the density grid (51.7 GiB at m = 83328) once
        # ended in numpy memory-error tracebacks; behrend at 10^12 and the
        # half box 101^6 are now counted and refused at their certificates,
        # before a row is decoded
        monkeypatch.chdir(tmp_path)
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 5
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "budget" in err
        assert len(err.splitlines()) == 1

    def test_verify_all_list_over_cap_exits_two(self, capsys, tmp_path):
        # {1..6000} has about 9e6 progressions but only 1.8e7 pairs
        (tmp_path / "s.set").write_text("".join(f"{k}\n" for k in range(1, 6001)))
        (tmp_path / "s.json").write_text(json.dumps({"kind": "integer", "bound": 6000}))
        code, out, err = run(capsys, "verify", "--all", "--set", str(tmp_path / "s.set"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "progressions" in err
        assert len(err.splitlines()) == 1
        code, _, _ = run(capsys, "verify", "--set", str(tmp_path / "s.set"))
        assert code == 1


class TestThreadsFlag:
    def test_env_var_sets_default(self, monkeypatch):
        from apfree.cli import build_parser

        monkeypatch.setenv("APFREE_THREADS", "2")
        args = build_parser().parse_args(["area", "--epsilon", "1/12"])
        assert args.threads == 2

    def test_bad_env_value_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("APFREE_THREADS", "abc")
        code, out, err = run(capsys, "area", "--epsilon", "1/12")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "APFREE_THREADS" in err
        assert len(err.splitlines()) == 1

    def test_flag_overrides_env(self, monkeypatch, capsys):
        monkeypatch.setenv("APFREE_THREADS", "7")
        code, out, _ = run(
            capsys, "--threads", "1", "check", "facts", "--epsilon", "1/12", "--Q", "24"
        )
        assert code == 0

    def test_parser_cache_follows_env(self, monkeypatch, capsys):
        """main() reuses one parser per APFREE_THREADS value, so each call
        still sees the default of the environment it runs in."""
        import apfree.cli

        seen = []
        real = apfree.cli.check_sweeps

        def spy(kinds, epsilon, Q, threads):
            seen.append(threads)
            return real(kinds, epsilon, Q, 1)

        monkeypatch.setattr(apfree.cli, "check_sweeps", spy)
        for value in ("3", "5", "3"):
            monkeypatch.setenv("APFREE_THREADS", value)
            assert run(capsys, "check", "facts", "--epsilon", "1/12", "--Q", "24")[0] == 0
        monkeypatch.delenv("APFREE_THREADS")
        assert run(capsys, "check", "facts", "--epsilon", "1/12", "--Q", "24")[0] == 0
        assert seen == [3, 5, 3, 1]

    def test_check_all_at_q168_is_the_same_on_two_workers(self, capsys):
        """At eps 1/4, Q = 168 has 1.2e7 band pairs, past the serial limit,
        so with two CPUs to run on, two workers split them."""
        import apfree.gridscan as gridscan

        argv = ["check", "all", "--epsilon", "1/4", "--Q", "168"]
        grid = gridscan._Grid(F(1, 4), 168, ["block"])
        assert grid.band.starts[-1] >= gridscan._SERIAL_PAIRS
        code, out, _ = run(capsys, "--threads", "1", *argv)
        assert code == 0 and out.count('"counterexample": null') == 4
        # stdout is the reports; stderr also prints the elapsed times
        assert run(capsys, "--threads", "2", *argv)[:2] == (code, out)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_a_cap_below_one_is_refused(self, monkeypatch, capsys, value):
        monkeypatch.delenv("APFREE_THREADS", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["--threads", value, "area", "--epsilon", "1/12"])
        assert exc.value.code == 2
        assert f"argument --threads: '{value}' is below 1" in capsys.readouterr().err
        monkeypatch.setenv("APFREE_THREADS", value)
        code, out, err = run(capsys, "area", "--epsilon", "1/12")
        assert (code, out) == (2, "")
        assert err == f"error: APFREE_THREADS='{value}' is below 1\n"

    def test_bad_env_value_after_a_good_one(self, monkeypatch, capsys):
        monkeypatch.setenv("APFREE_THREADS", "2")
        assert run(capsys, "area", "--epsilon", "1/12")[0] == 0
        monkeypatch.setenv("APFREE_THREADS", "abc")
        for argv in (["area", "--epsilon", "1/12"], ["area", "--epsilon", "nonsense"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == "error: APFREE_THREADS='abc' is not an integer\n"

    def test_usage_error_leaves_the_parser_reusable(self, monkeypatch, capsys):
        import apfree.cli

        monkeypatch.delenv("APFREE_THREADS", raising=False)
        apfree.cli._parser.cache_clear()
        fresh = run(capsys, "area", "--epsilon", "1/24")
        with pytest.raises(SystemExit) as exc:
            main(["area", "--epsilon", "nonsense"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, "area", "--epsilon", "1/24") == fresh


class TestCheck:
    def test_block_smoke(self, capsys):
        code, out, _ = run(capsys, "check", "block", "--epsilon", "1/24", "--Q", "48")
        assert code == 0
        report = json_lines(out)[0]
        assert report["pass"] is True and report["counts"]["violations"] == 0

    def test_all_smoke(self, capsys):
        code, out, _ = run(capsys, "check", "all", "--epsilon", "1/12", "--Q", "24")
        assert code == 0
        assert len(json_lines(out)) == 4

    def test_unknown_prop_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "bogus", "--epsilon", "1/12"])
        assert exc.value.code == 2

    def test_bad_grid_usage_error(self, capsys):
        code, out, err = run(capsys, "check", "block", "--epsilon", "1/12", "--Q", "50")
        assert code == 2 and out == ""
        assert err == "error: grid denominator 50 must be a positive multiple of 24\n"

    @pytest.mark.parametrize("q", ["0", "-24"])
    @pytest.mark.parametrize("props", ["all", "facts"])
    def test_nonpositive_grid_usage_error(self, capsys, q, props):
        # Q = 0 once passed as a vacuous certificate: checked 0, pass true
        code, out, err = run(capsys, "check", props, "--epsilon", "1/12", f"--Q={q}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "positive multiple of 24" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("eps", ["0", "1", "5/4", "-1/12"])
    @pytest.mark.parametrize("props", ["block", "all"])
    def test_epsilon_outside_unit_interval(self, capsys, eps, props):
        code, out, err = run(capsys, "check", props, f"--epsilon={eps}", "--Q", "24")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "outside (0,1)" in err
        assert len(err.splitlines()) == 1


class TestCompare:
    HEADER = "construction,universe,size,density,density_approx,certified"

    def test_int_table(self, capsys, tmp_path):
        out_file = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "compare", "int", "--N", "600", "--seed", "1",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == self.HEADER
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert set(rows) == {"behrend", "crt-construction", "direct-construction"}
        for row in rows.values():
            assert row[5] == "True"
            assert F(row[3]) == F(int(row[2]), int(row[1]))
        assert out_file.read_text() == out

    def test_out_replaces_a_longer_file(self, capsys, tmp_path):
        """--out over a longer file leaves exactly the table, no old tail."""
        out_file = tmp_path / "table.csv"
        out_file.write_text("old row\n" * 100)
        code, out, _ = run(capsys, "compare", "fpn", "--p", "5", "--n", "4", "--seed", "1",
                           "--out", str(out_file))
        assert code == 0 and out_file.read_text() == out
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    @pytest.mark.parametrize("target", ["fifo", "devnull link"])
    def test_out_writes_through_a_special_file(self, capsys, tmp_path, target):
        """--out to a FIFO, or to a symlink to the null device, writes
        through it as open(path, "w") does: neither the FIFO nor the link is
        unlinked or replaced by a regular file."""
        out_file = tmp_path / "table.csv"
        reader = None
        if target == "fifo":
            os.mkfifo(out_file)
            # a reader opened first lets the writer open without blocking
            reader = os.open(out_file, os.O_RDONLY | os.O_NONBLOCK)
        else:
            out_file.symlink_to(os.devnull)
        try:
            code, out, _ = run(capsys, "compare", "fpn", "--p", "5", "--n", "4", "--seed", "1",
                               "--out", str(out_file))
            assert code == 0
            if reader is not None:
                assert os.read(reader, 1 << 16).decode() == out
        finally:
            if reader is not None:
                os.close(reader)
        if target == "fifo":
            assert out_file.is_fifo() and not out_file.is_symlink()
        else:
            assert out_file.is_symlink() and out_file.readlink() == Path(os.devnull)
            assert Path(os.devnull).is_char_device()

    def test_out_that_cannot_be_written_prints_no_table(self, capsys, tmp_path):
        """--out into a missing directory exits 2 with one error line and
        no table on stdout: the table once went to stdout before the write
        failed."""
        out_file = tmp_path / "missing" / "t.csv"
        code, out, err = run(capsys, "compare", "fpn", "--p", "5", "--n", "2",
                             "--out", str(out_file))
        assert code == 2 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{out_file}'\n"

    def test_fpn_table(self, capsys):
        code, out, _ = run(capsys, "compare", "fpn", "--p", "5", "--n", "4", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == self.HEADER
        assert {ln.split(",")[0] for ln in lines[1:]} == {"halfbox", "new"}

    @pytest.mark.parametrize("argv", [["construct", "fpn", "--p", "4", "--n", "2"],
                                      ["construct", "fpn", "--p", "9", "--n", "3"],
                                      ["compare", "fpn", "--p", "4", "--n", "2"]])
    def test_fpn_refuses_a_composite_p(self, capsys, monkeypatch, tmp_path, argv):
        """Z_4^2 is not F_4^2: no set is built, and compare prints no table."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: p={argv[3]} is not prime\n"
        assert not list(tmp_path.iterdir())

    def test_header_stable(self, capsys):
        _, out1, _ = run(capsys, "compare", "fpn", "--p", "3", "--n", "2", "--seed", "0")
        _, out2, _ = run(capsys, "compare", "fpn", "--p", "3", "--n", "2", "--seed", "5")
        assert out1.splitlines()[0] == out2.splitlines()[0] == self.HEADER

    @pytest.mark.parametrize("limit,value,label,refusal", [
        # the direct route's 600 rows, walked 17 times, are over the points;
        # the CRT route's largest charge is 799 points
        ("PRODUCT", 1000, "direct-construction",
         "row stream of 600 rows, walked 17 times, exceeds the work budget of 1000 points"),
        # behrend builds, but its certificate is refused
        ("SCAN", 50, "behrend", "integer certificate of 10 elements (90 pairs and candidates) "
                                "exceeds the work budget of 50 pairs and candidates"),
    ])
    def test_refused_route_gets_a_row(self, capsys, monkeypatch, limit, value, label, refusal):
        monkeypatch.setattr(apfree.budget, limit, value)
        code, out, err = run(capsys, "compare", "int", "--N", "600", "--seed", "1")
        assert code == 0
        rows = {ln.split(",")[0]: ln for ln in out.splitlines()[1:]}
        assert list(rows) == ["behrend", "crt-construction", "direct-construction"]
        assert rows.pop(label) == f"{label},600,,,,refused"
        assert all(row.endswith(",True") for row in rows.values())
        assert err == f"warning: {label} refused: {refusal}\n"

    def test_crt_route_below_its_range(self, capsys, tmp_path):
        out_file = tmp_path / "table.csv"
        code, out, err = run(capsys, "compare", "int", "--N", "3", "--out", str(out_file))
        assert code == 0
        assert out == (f"{self.HEADER}\n"
                       "behrend,3,2,2/3,0.666666666666,True\n"
                       "crt-construction,3,,,,refused\n"
                       "direct-construction,3,1,1/3,0.333333333333,True\n")
        assert err == ("warning: crt-construction refused: N=3 is too small for the "
                       "prime-power route (needs N >= 6)\n")
        assert out_file.read_text() == out


class TestDensityCommand:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "density", "--epsilon", "1/12", "--m", "96")
        assert code == 0
        assert json_lines(out)[0]["pass"] is True


class TestVerifyCommand:
    def test_roundtrip(self, capsys, tmp_path):
        run(
            capsys, "construct", "halfbox", "--p", "5", "--n", "2",
            "--outdir", str(tmp_path), "--name", "hb",
        )
        code, out, _ = run(capsys, "verify", "--set", str(tmp_path / "hb.set"))
        assert code == 0
        assert json_lines(out)[0]["pass"] is True

    def test_detects_injected_violation(self, capsys, tmp_path):
        run(
            capsys, "construct", "behrend", "--N", "200",
            "--outdir", str(tmp_path), "--name", "bad",
        )
        set_file = tmp_path / "bad.set"
        elements = [int(x) for x in set_file.read_text().split()]
        x, z = elements[0], elements[1]
        # inject the midpoint of the two smallest same-parity members
        for z2 in elements[1:]:
            if (x + z2) % 2 == 0:
                z = z2
                break
        tampered = sorted(set(elements + [(x + z) // 2]))
        set_file.write_text("".join(f"{v}\n" for v in tampered))
        # the sidecar's size must follow, or the line count alone refuses the file
        sidecar = tmp_path / "bad.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "size": len(tampered)}))
        code, out, _ = run(capsys, "verify", "--set", str(set_file), "--all")
        assert code == 1
        report = json_lines(out)[0]
        assert report["pass"] is False
        assert report["counterexample"] is not None
        assert len(report["counts"]["all_counterexamples"]) >= 1

    @pytest.mark.parametrize("kind", ["integer", "group"])
    def test_all_lists_every_progression(self, capsys, tmp_path, kind):
        if kind == "integer":
            meta, lines = {"kind": "integer", "bound": 9}, ["1", "3", "5", "7", "8"]
            expected = [{"x": 1, "y": 3, "z": 5}, {"x": 3, "y": 5, "z": 7}]
        else:
            meta, lines = {"kind": "group", "moduli": [5]}, ["0", "1", "2", "3"]
            expected = [
                {"x": [0], "y": [3], "z": [1]}, {"x": [0], "y": [1], "z": [2]},
                {"x": [1], "y": [2], "z": [3]}, {"x": [2], "y": [0], "z": [3]},
            ]
        (tmp_path / "a.set").write_text("".join(line + "\n" for line in lines))
        (tmp_path / "a.json").write_text(json.dumps(meta))
        code, out, _ = run(capsys, "verify", "--all", "--set", str(tmp_path / "a.set"))
        assert code == 1
        report = json_lines(out)[0]
        assert report["counts"]["all_counterexamples"] == expected
        assert report["counterexample"] == expected[0]
        assert report["checked"] == math.comb(len(lines), 2)

    def test_truncated_set_file_is_refused(self, capsys, tmp_path):
        run(capsys, "construct", "zm", "--moduli", "6,6,6,6", "--outdir", str(tmp_path),
            "--name", "z")
        set_file, sidecar = tmp_path / "z.set", tmp_path / "z.json"
        lines = set_file.read_text().splitlines()
        meta = json.loads(sidecar.read_text())
        assert meta["size"] == len(lines) == 2
        set_file.write_text(lines[0] + "\n")
        code, out, err = run(capsys, "verify", "--set", str(set_file))
        assert code == 2 and out == ""
        assert err == (f"error: {set_file} has 1 element lines, but its sidecar {sidecar} "
                       "gives size 2\n")
        # a size that is no JSON integer is malformed
        sidecar.write_text(json.dumps({**meta, "size": "1"}))
        code, out, err = run(capsys, "verify", "--set", str(set_file))
        assert code == 2 and out == ""
        assert err == (f"error: malformed set/sidecar at {set_file}: size must be a JSON "
                       'integer, got "1"\n')
        # a hand-written sidecar may leave the size out
        del meta["size"]
        sidecar.write_text(json.dumps(meta))
        code, out, _ = run(capsys, "verify", "--set", str(set_file))
        assert code == 0 and json_lines(out)[0]["checked"] == 0

    def test_exit_code_two_on_garbage(self, capsys, tmp_path):
        (tmp_path / "x.set").write_text("1\n")
        (tmp_path / "x.json").write_text("{\"kind\": \"integer\", \"bound\": 0}")
        code, _, err = run(capsys, "verify", "--set", str(tmp_path / "x.set"))
        assert code == 2
        assert "error" in err

    def test_exit_code_two_on_null_moduli(self, capsys, tmp_path):
        (tmp_path / "y.set").write_text("1,2\n")
        (tmp_path / "y.json").write_text("{\"kind\": \"group\", \"moduli\": null}")
        code, _, err = run(capsys, "verify", "--set", str(tmp_path / "y.set"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("universe,error", [
        ({"kind": "group", "moduli": [0]}, "moduli [0] must be one or more integers of at least 1"),
        ({"kind": "group", "moduli": [-3]},
         "moduli [-3] must be one or more integers of at least 1"),
        ({"kind": "group", "moduli": []}, "moduli [] must be one or more integers of at least 1"),
        ({"kind": "integer", "bound": 0}, "bound 0 is below 1"),
        ({"kind": "integer", "bound": -5}, "bound -5 is below 1"),
    ], ids=["modulus 0", "modulus -3", "no moduli", "bound 0", "bound -5"])
    def test_exit_code_two_on_an_empty_universe(self, capsys, tmp_path, universe, error):
        # the empty set in each of these universes was once certified, exit 0
        (tmp_path / "u.set").write_text("")
        (tmp_path / "u.json").write_text(json.dumps(universe))
        code, out, err = run(capsys, "verify", "--set", str(tmp_path / "u.set"))
        assert code == 2 and out == ""
        assert err == f"error: {error}\n"

    @pytest.mark.parametrize("lines,sidecar", [
        ("1\n2\n", '{"kind": "integer", "bound": 1e400}'),
        ("1\n2\n", '{"kind": "integer", "bound": 2.5}'),
        ("1\n2\n", '{"kind": "integer", "bound": true}'),
        ("1,2\n", '{"kind": "group", "moduli": [1e400, 3]}'),
    ])
    def test_exit_code_two_on_non_integer_sidecar_number(self, capsys, tmp_path, lines, sidecar):
        (tmp_path / "n.set").write_text(lines)
        (tmp_path / "n.json").write_text(sidecar)
        code, _, err = run(capsys, "verify", "--set", str(tmp_path / "n.set"))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be a JSON integer" in err

    @pytest.mark.parametrize("kind", ["grop", "", None, ["integer"]])
    def test_exit_code_two_on_unknown_kind(self, capsys, tmp_path, kind):
        # a "grop" sidecar was once read as an integer set and passed
        (tmp_path / "k.set").write_text("1\n2\n4\n")
        (tmp_path / "k.json").write_text(json.dumps({"kind": kind, "bound": 10,
                                                     "moduli": [3, 3]}))
        code, out, err = run(capsys, "verify", "--set", str(tmp_path / "k.set"))
        assert code == 2 and out == ""
        assert err == (f"error: malformed set/sidecar at {tmp_path / 'k.set'}: kind must be "
                       f'"group" or "integer", got {json.dumps(kind)}\n')

    @pytest.mark.parametrize("provenance", [[1], "x", None, 7])
    def test_exit_code_two_on_non_object_provenance(self, capsys, tmp_path, provenance):
        # these once ended in an AttributeError traceback and exit 1
        (tmp_path / "p.set").write_text("1\n2\n4\n")
        (tmp_path / "p.json").write_text(json.dumps({"kind": "integer", "bound": 10,
                                                     "provenance": provenance}))
        code, out, err = run(capsys, "verify", "--set", str(tmp_path / "p.set"))
        assert code == 2 and out == ""
        assert err == (f"error: malformed set/sidecar at {tmp_path / 'p.set'}: provenance must "
                       f"be a JSON object, got {json.dumps(provenance)}\n")

    @pytest.mark.parametrize("construction", [5, None, ["x"]])
    def test_exit_code_two_on_non_string_construction(self, capsys, tmp_path, construction):
        # the report takes this name as its subject: 5 once printed [5] pass=True
        (tmp_path / "c.set").write_text("1\n2\n4\n")
        (tmp_path / "c.json").write_text(json.dumps({
            "kind": "integer", "bound": 10, "provenance": {"construction": construction}}))
        code, out, err = run(capsys, "verify", "--set", str(tmp_path / "c.set"))
        assert code == 2 and out == ""
        assert err == (f"error: malformed set/sidecar at {tmp_path / 'c.set'}: "
                       f"provenance.construction must be a JSON string, got "
                       f"{json.dumps(construction)}\n")

    def test_exit_code_two_on_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--set", str(tmp_path / "nope.set"))
        assert code == 2


def test_import_leaves_the_process_pool_unloaded():
    """Only a sweep that starts a pool imports it: concurrent.futures pulls
    in multiprocessing, socket and subprocess, which every command would
    otherwise pay for at start-up."""
    src = str(Path(apfree.__file__).resolve().parents[1])
    probe = ("import sys, apfree.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60, check=True)
    assert res.stdout == "[]\n"


def test_only_check_loads_the_sweeps():
    """Importing the package and its command line leaves the grid sweeps
    unloaded; a check loads them when it runs."""
    src = str(Path(apfree.__file__).resolve().parents[1])
    probe = ("import sys, apfree, apfree.cli; "
             "before = 'apfree.gridscan' in sys.modules; "
             "code = apfree.cli.main(['check', 'facts', '--epsilon', '1/12', '--Q', '24']); "
             "print(before, code, 'apfree.gridscan' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60, check=True)
    # after the check's report
    assert res.stdout.splitlines()[-1] == "False 0 True"
