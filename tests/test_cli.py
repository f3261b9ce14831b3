import json
import subprocess
import sys

import pytest

from weldedknots.cli import main

from conftest import TREFOIL_TEXT, subprocess_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tref_gc(tmp_path):
    path = tmp_path / "trefoil.gc"
    path.write_text(TREFOIL_TEXT + "\n")
    return str(path)


@pytest.fixture
def tref_wgd(tmp_path):
    path = tmp_path / "trefoil.wgd"
    path.write_text('{"order": [1, 2, 3], "map": {"1": [2, "+"], "2": [3, "+"], "3": [1, "+"]}}')
    return str(path)


@pytest.fixture
def empty_wgd(tmp_path):
    path = tmp_path / "empty.wgd"
    path.write_text('{"order": [], "map": {}}')
    return str(path)


class TestConvert:
    def test_kink_to_wgd(self, capsys, tmp_path):
        path = tmp_path / "kink.gc"
        path.write_text("O1+ U1+")
        code, out, _ = run(capsys, "convert", "--to", "wgd", str(path))
        assert code == 0
        assert json.loads(out) == {"order": [1], "map": {"1": [1, "+"]}}

    def test_round_trip_through_gauss(self, capsys, tref_gc, tmp_path):
        code, out, _ = run(capsys, "convert", "--to", "wgd", tref_gc)
        wgd_path = tmp_path / "t.wgd"
        wgd_path.write_text(out)
        code, out2, _ = run(capsys, "convert", "--to", "gauss", str(wgd_path))
        assert code == 0
        code, out3, _ = run(capsys, "convert", "--to", "wgd", str(wgd_path))
        assert json.loads(out) == json.loads(out3)

    def test_gauss_diagram_output(self, capsys, tref_gc):
        code, out, _ = run(capsys, "convert", "--to", "gd", tref_gc)
        obj = json.loads(out)
        assert len(obj["points"]) == 6
        assert len(obj["arrows"]) == 3

    def test_decode_error_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.gc"
        path.write_text("O1+ garbage")
        code, _, err = run(capsys, "convert", "--to", "wgd", str(path))
        assert code == 1
        assert "garbage" in err


class TestCanonAndSymmetry:
    def test_canon_rotation_invariant(self, capsys, tmp_path):
        a = tmp_path / "a.wgd"
        a.write_text('{"order": [2, 1, 3], "map": {"1": [3, "+"], "2": [1, "+"], "3": [2, "+"]}}')
        code, out_a, _ = run(capsys, "canon", str(a))
        b = tmp_path / "b.wgd"
        b.write_text('{"order": [1, 3, 2], "map": {"1": [3, "+"], "2": [1, "+"], "3": [2, "+"]}}')
        code, out_b, _ = run(capsys, "canon", str(b))
        assert out_a == out_b

    def test_symmetry_bar_on_code(self, capsys, tref_gc):
        code, out, _ = run(capsys, "symmetry", "--bar", tref_gc)
        assert out.strip() == "O1- U2- O3- U1- O2- U3-"

    def test_symmetry_requires_exactly_one_flag(self, capsys, tref_gc):
        code, _, err = run(capsys, "symmetry", tref_gc)
        assert code == 1
        code, _, err = run(capsys, "symmetry", "--bar", "--reverse", tref_gc)
        assert code == 1

    def test_symmetry_global_on_wgd(self, capsys, tref_wgd):
        code, out, _ = run(capsys, "symmetry", "--global", tref_wgd)
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"order", "map"}


class TestMovesAndApply:
    def test_moves_json_round_trips_into_apply(self, capsys, tmp_path):
        path = tmp_path / "two.gc"
        path.write_text("O1+ O2+ U1+ U2+")
        code, out, _ = run(capsys, "moves", str(path), "--kinds", "OC", "--json")
        sites = json.loads(out)
        assert sites == [{"kind": "OC", "positions": [0, 1], "variant": "oc"}]
        code, out, _ = run(capsys, "apply", str(path), "--site", json.dumps(sites[0]))
        assert code == 0
        assert out.strip() == "O2+ O1+ U1+ U2+"

    def test_apply_stale_site_exit_1(self, capsys, tmp_path):
        path = tmp_path / "kink.gc"
        path.write_text("O1+ U1+")
        site = {"kind": "R2_delete", "positions": [0, 1], "variant": "par+"}
        code, _, err = run(capsys, "apply", str(path), "--site", json.dumps(site))
        assert code == 1

    def test_no_growth_flag(self, capsys, tmp_path):
        path = tmp_path / "kink.gc"
        path.write_text("O1+ U1+")
        code, out, _ = run(capsys, "moves", str(path), "--no-growth", "--json")
        kinds = {s["kind"] for s in json.loads(out)}
        assert "R1_insert" not in kinds and "R2_insert" not in kinds


class TestEquivSimplifyInvariantsAtlas:
    def test_equiv_identical_files(self, capsys, tref_wgd):
        code, out, _ = run(capsys, "equiv", tref_wgd, tref_wgd, "--max-crossings", "5")
        assert code == 0
        assert out.strip() == "equivalent, path length 0"

    def test_equiv_distinguished_by_invariant(self, capsys, tref_wgd, empty_wgd):
        code, out, _ = run(capsys, "equiv", tref_wgd, empty_wgd, "--max-states", "100", "--max-depth", "4")
        assert code == 0
        assert out.startswith("unknown")
        assert "distinguished by invariant" in out

    def test_equiv_json_reports_path(self, capsys, tmp_path, empty_wgd):
        kink = tmp_path / "kink.wgd"
        kink.write_text('{"order": [1], "map": {"1": [1, "+"]}}')
        code, out, _ = run(capsys, "equiv", str(kink), empty_wgd, "--json")
        obj = json.loads(out)
        assert obj["equivalent"] is True
        assert obj["path_length"] == 1

    def test_simplify(self, capsys, tmp_path):
        scrambled = tmp_path / "s.gc"
        scrambled.write_text("U1+ U2+ O1+ O2+")
        code, out, _ = run(capsys, "simplify", str(scrambled))
        assert json.loads(out) == {"order": [], "map": {}}

    def test_invariants_plain_output(self, capsys, tref_gc):
        code, out, _ = run(capsys, "invariants", "--primes", "3,5", tref_gc)
        assert out.splitlines()[0] == "{3: 9, 5: 5}"

    def test_invariants_json_with_groups(self, capsys, tref_gc):
        code, out, _ = run(capsys, "invariants", "--primes", "3", "--groups", "S3", tref_gc, "--json")
        obj = json.loads(out)
        assert obj == {"coloring_counts": {"3": 9}, "hom_counts": {"S3": 12}}

    def test_invariants_bad_prime_exit_1(self, capsys, tref_gc):
        code, _, err = run(capsys, "invariants", "--primes", "4", tref_gc)
        assert code == 1

    def test_atlas_writes_jsonl(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        code, _, _ = run(capsys, "atlas", "--n-max", "1", "-o", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"wgd", "fingerprint", "class", "orbit"}
        assert {json.loads(line)["class"] for line in lines} == {0}

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convert", "--to", "nonsense", "-"])
        assert exc.value.code == 2


def run_process(*argv, cwd):
    """The CLI in a fresh interpreter, so an uncaught exception shows as a
    traceback on stderr instead of failing the test run itself."""
    return subprocess.run(
        [sys.executable, "-m", "weldedknots.cli", *argv],
        cwd=cwd, env=subprocess_env(), capture_output=True, text=True, timeout=60,
    )


class TestBoundaryErrors:
    @pytest.mark.parametrize("argv", [
        ["apply", "kink.gc", "--site", "notjson"],
        ["apply", "kink.gc", "--site", '{"kind": "R1_delete", "positions": []}'],
        ["apply", "kink.gc", "--site", '{"kind": "R1_insert", "positions": [0], "variant": "zz"}'],
        ["canon", "missing.wgd"],
        ["atlas", "--n-max", "0", "-o", "no/such/dir/atlas.jsonl"],
    ])
    def test_exit_1_without_traceback(self, tmp_path, argv):
        (tmp_path / "kink.gc").write_text("O1+ U1+")
        proc = run_process(*argv, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["--seed", "1", "canon", "-"],
        ["canon", "--json", "-"],
        ["simplify", "--json", "-"],
        ["symmetry", "--bar", "--json", "-"],
        ["atlas", "--n-max", "0", "--json"],
    ])
    def test_removed_no_op_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
