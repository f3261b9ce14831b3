import argparse
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys

import pytest

from weldedknots import GaussCode, Passage, encode_gauss_code
from weldedknots.cli import _COMMANDS, build_parser, main, parse_args
from weldedknots.model import OVER, UNDER

from conftest import TREFOIL_TEXT, random_code, subprocess_env


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

    def test_apply_json_reports_code_and_record(self, capsys, tmp_path):
        path = tmp_path / "two.gc"
        path.write_text("O1+ O2+ U1+ U2+")
        site = {"kind": "OC", "positions": [0, 1], "variant": "oc"}
        code, out, _ = run(capsys, "apply", str(path), "--site", json.dumps(site), "--json")
        assert code == 0
        assert json.loads(out) == {
            "code": "O2+ O1+ U1+ U2+",
            "record": {"kind": "OC", "variant": "oc", "removes": [], "inserts": [], "swaps": [[0, 1]]},
        }

    def test_no_growth_flag(self, capsys, tmp_path):
        path = tmp_path / "kink.gc"
        path.write_text("O1+ U1+")
        code, out, _ = run(capsys, "moves", str(path), "--no-growth", "--json")
        kinds = {s["kind"] for s in json.loads(out)}
        assert "R1_insert" not in kinds and "R2_insert" not in kinds

    def test_site_lists_digest(self, capsys, monkeypatch):
        """One digest pins the ``moves`` text of every code with at most two
        crossings and of 30 seeded codes for each n = 3..6: which sites are
        listed, their order and the text format.  The ``equiv`` benchmark
        draws its input through the same site lists."""
        every_small_code = (
            GaussCode(passages)
            for n in range(3)
            for signs in itertools.product((1, -1), repeat=n)
            for passages in itertools.permutations(
                [Passage(role, c, s) for c, s in enumerate(signs, 1) for role in (OVER, UNDER)]
            )
        )
        rng = random.Random(24)
        seeded = (random_code(rng, n) for n in range(3, 7) for _ in range(30))
        digest = hashlib.sha256()
        for code in itertools.chain(every_small_code, seeded):
            monkeypatch.setattr("sys.stdin", io.StringIO(encode_gauss_code(code)))
            status, out, _ = run(capsys, "moves", "-")
            assert status == 0
            digest.update(out.encode())
        assert digest.hexdigest() == "90a9a38fdde4f21bf90ec6a87cee8f83bcd9d8646cc5666bfdd2dc69c05efa56"


# The pinned CLI outputs, one digest each.  Each case lists the (stdin,
# argv) runs whose stdout, concatenated, is hashed; equiv reads A from a.gc
# and B from b.gc in the working directory.
T = TREFOIL_TEXT
W = '{"order": [3, 1, 2], "map": {"3": [3, "+"], "1": [3, "-"], "2": [3, "+"]}}'
A = "U4- U3+ O3+ O4- U2- U1+ O1+ O2-"
B = "U4- O4- O5+ O6- U5+ U6-"
CLI_DIGESTS = {
    # the site list of a code with R1 deletes (one across the basepoint),
    # an R2 delete, an R3 site and OC sites
    "moves": ([("U2- O1- U1- U4+ U5- O3- O4+ O5- U3- O2-", ["moves", "-"])],
              "3ee99294868cd2c9b68b71589aa170e246fa9821ae67afe1afec5983d87869a4"),
    # a path with R2_delete, OC, R1_delete and R2_insert records
    "equiv --json": ([("", ["equiv", "a.gc", "b.gc", "--json"])],
                     "f0034211b46af0e2bea609fdcd8d200e76a8ef5e71901aafcba1d8a1238de70e"),
    "apply, an R3 site": (
        [("O2+ O1+ O3+ U1+ U3+ U2+",
          ["apply", "-", "--site", '{"kind": "R3", "positions": [0, 2, 4], "variant": "r3:100+"}', "--json"])],
        "945ed12ab112dac69b0bae5b76ffd9d00bd2ca2ea54ab2d71c4178dd72350677"),
    "apply, an R1 insert": (
        [("O1+ U1+", ["apply", "-", "--site", '{"kind": "R1_insert", "positions": [1], "variant": "uo-"}', "--json"])],
        "171fd4e4ad8ca1d2071b864fe0ff8eb7aaba2009264da821dbe1563489cc593e"),
    "apply, a shared-slot R2 insert": (
        [("O1+ U1+",
          ["apply", "-", "--site", '{"kind": "R2_insert", "positions": [1, 1], "variant": "anti-:uo"}', "--json"])],
        "82b7e06f12bd8f76fde3ff669cf4ac4a5aa394677ea2738a621aa64ca28bf584"),
    "invariants, every built-in group": (
        [(T, ["invariants", "-", "--primes", "3,5,7", "--groups", "S3,D1,D2,D3,D4,D5,D6", "--json"])],
        "99a74cbdb5b4f350c274347f7b8c9bd1e5bccb3861d9afa6777d773f67075631"),
    # codes as they stand, diagrams in canonical form
    "the six reversals": (
        [(x, ["symmetry", op, "-"]) for x in (T, W) for op in ("--reverse", "--bar", "--global")],
        "f484bda90e220a6150626f483369c6738a8dca625cc97d8596067396d884778f"),
    "canon, convert and simplify": (
        [(W, ["canon", "-"]), (W, ["convert", "--to", "gd", "-"]), (T, ["convert", "--to", "gd", "-"]),
         (A, ["simplify", "-"]), (T, ["simplify", "-"])],
        "0546a096f435e0a64e4b9dc41d901467a0a2851ad090eb122640f3bb7ce9e2aa"),
    # the streamed atlas, where TestAtlas pins build_atlas's records;
    # (4, 5) runs 16 floods and stops 4 of them, where (3, 4) runs 2
    "atlas (2, 4)": ([("", ["atlas", "--n-max", "2", "--max-crossings", "4"])],
                     "4fca65b954e05599dd531f1b7902e4c701bd0bc288134470c6e9a38a1cc4a4ce"),
    "atlas (3, 4)": ([("", ["atlas", "--n-max", "3", "--max-crossings", "4"])],
                     "0dc6c1e4084c048b3ea29eb215fb0cd0a22beb73382948eace67bee8f7e0df09"),
    "atlas (4, 5)": ([("", ["atlas", "--n-max", "4", "--max-crossings", "5"])],
                     "dff120ca16d99f004f131cc1876469fca5ce3754968021d6053c200430faf36e"),
    "atlas (3, 4), primes and groups": (
        [("", ["atlas", "--n-max", "3", "--max-crossings", "4", "--primes", "3,5,7", "--groups", "S3,D4"])],
        "848d9fbbb1f93ea9602b053c0d8d5fb30ac04f1ddc1a60beb4af97ff3b26421c"),
}


@pytest.mark.parametrize("runs, digest", CLI_DIGESTS.values(), ids=CLI_DIGESTS.keys())
def test_ci_digest_in_process(capsys, monkeypatch, tmp_path, runs, digest):
    """Each pinned CLI output, run in process on every supported Python,
    so a gate that cites one of these digests holds without CI."""
    (tmp_path / "a.gc").write_text(A)
    (tmp_path / "b.gc").write_text(B)
    monkeypatch.chdir(tmp_path)
    outputs = []
    for stdin, argv in runs:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == digest


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

    def test_invariants_plain_output_with_groups(self, capsys, tref_gc):
        code, out, _ = run(capsys, "invariants", "--groups", "S3", tref_gc)
        assert (code, out) == (0, "{3: 9, 5: 5}\n{'S3': 12}\n")

    def test_invariants_json_with_groups(self, capsys, tref_gc):
        code, out, _ = run(capsys, "invariants", "--primes", "3", "--groups", "S3", tref_gc, "--json")
        obj = json.loads(out)
        assert obj == {"coloring_counts": {"3": 9}, "hom_counts": {"S3": 12}}

    def test_invariants_of_a_diagram_are_those_of_its_code(self, capsys, tmp_path):
        """A diagram is fingerprinted as it stands, without a conversion:
        a non-canonical one prints what its code prints."""
        wgd = tmp_path / "w.wgd"
        wgd.write_text('{"order": [3, 1, 2], "map": {"3": [3, "+"], "1": [3, "-"], "2": [3, "+"]}}')
        _, text, _ = run(capsys, "convert", "--to", "gauss", str(wgd))
        gc = tmp_path / "w.gc"
        gc.write_text(text)
        outputs = [run(capsys, "invariants", "--primes", "3,5,7", "--groups", "S3,D4", str(path), "--json")
                   for path in (wgd, gc)]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

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

    def test_atlas_repeated_primes_and_groups_count_once(self, capsys, tmp_path):
        outputs = []
        for primes, groups in (("3", "S3"), ("3,3", "S3,s3")):
            out_path = tmp_path / f"atlas-{primes}.jsonl"
            code, _, _ = run(capsys, "atlas", "--n-max", "2", "--primes", primes, "--groups", groups,
                             "-o", str(out_path))
            assert code == 0
            outputs.append(out_path.read_text())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("target", ["no/such/dir/atlas.jsonl", "."])
    def test_atlas_unwritable_output_fails_before_the_build(self, capsys, tmp_path, monkeypatch, target):
        import weldedknots.search

        def no_build(*args, **kwargs):
            raise AssertionError("the atlas was built before the output was opened")

        monkeypatch.setattr(weldedknots.search, "_atlas_records", no_build)
        code, _, err = run(capsys, "atlas", "--n-max", "1", "-o", str(tmp_path / target))
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["--n-max", "3", "--max-crossings", "2"],
        ["--n-max", "-1"],
        ["--n-max", "1", "--primes", "4"],
        ["--n-max", "1", "--groups", "S3,D9"],
    ])
    def test_atlas_bad_arguments_leave_no_file(self, capsys, tmp_path, argv):
        out_path = tmp_path / "atlas.jsonl"
        code, _, err = run(capsys, "atlas", *argv, "-o", str(out_path))
        assert code == 1
        assert err.startswith("error: ")
        assert not out_path.exists()

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convert", "--to", "nonsense", "-"])
        assert exc.value.code == 2


def run_process(*argv, cwd, stdin=None):
    """The CLI in a fresh interpreter, so an uncaught exception shows as a
    traceback on stderr instead of failing the test run itself; ``stdin``
    is the text it reads for an input ``-``."""
    return subprocess.run(
        [sys.executable, "-m", "weldedknots.cli", *argv],
        cwd=cwd, env=subprocess_env(), capture_output=True, text=True, timeout=60, input=stdin,
    )


class TestBoundaryErrors:
    @pytest.mark.parametrize("argv", [
        ["apply", "kink.gc", "--site", "notjson"],
        ["apply", "kink.gc", "--site", '{"kind": "R1_delete", "positions": []}'],
        ["apply", "kink.gc", "--site", '{"kind": "R1_insert", "positions": [0], "variant": "zz"}'],
        ["canon", "missing.wgd"],
        ["atlas", "--n-max", "0", "-o", "no/such/dir/atlas.jsonl"],
        ["apply", "two.gc", "--site", '{"kind": "OC", "positions": [0, 3], "variant": "oc"}'],
        ["canon", "true.wgd"],
        ["invariants", "kink.gc", "--primes", "x"],
        ["atlas", "--n-max", "1", "--primes", "3,x"],
        ["apply", "kink.gc", "--site", '{"kind": "R1_delete", "positions": [0.7, 1.2], "variant": "ou+"}'],
        ["apply", "kink.gc", "--site", '{"kind": "R1_delete", "positions": "01", "variant": "ou+"}'],
        ["apply", "kink.gc", "--site", '{"kind": "R1_delete", "positions": [false, true], "variant": "ou+"}'],
        ["apply", "kink.gc", "--site", '{"kind": "R1_delete", "positions": [0, 1], "variant": 1}'],
        ["apply", "kink.gc", "--site", '[{"kind": "R1_delete", "positions": [0, 1], "variant": "ou+"}]'],
        ["apply", "two.gc", "--site", '{"kind": "OC", "positions": [0, 1], "variant": ""}'],
        ["apply", "two.gc", "--site", '{"kind": "OC", "positions": [0, 1], "variant": "x"}'],
        ["apply", "two.gc", "--site", '{"kind": "OC", "positions": [0, 1]}'],
        # above the largest float, and divisible by 353
        ["atlas", "--n-max", "1", "--primes", str(10**400 + 1)],
        # prime, but 2**64 + 13 is past the bound where the primality test is exact
        ["invariants", "kink.gc", "--primes", "3,18446744073709551629"],
        # one position for a two-position kind
        ["apply", "kink.gc", "--site", '{"kind": "OC", "positions": [0], "variant": "oc"}'],
    ])
    def test_exit_1_without_traceback(self, tmp_path, argv):
        (tmp_path / "kink.gc").write_text("O1+ U1+")
        (tmp_path / "two.gc").write_text("O1+ O2+ U1+ U2+")
        (tmp_path / "true.wgd").write_text('{"order": [true], "map": {"1": [1, "+"]}}')
        proc = run_process(*argv, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_stdin_is_one_input(self, tmp_path):
        """``equiv - -`` would read the kink for a and the empty rest of
        stdin for b, and call them equivalent: it is rejected unread."""
        (tmp_path / "kink.gc").write_text("O1+ U1+")
        proc = run_process("equiv", "-", "-", cwd=tmp_path, stdin="O1+ U1+")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: ") and "stdin" in proc.stderr
        assert "Traceback" not in proc.stderr
        proc = run_process("equiv", "-", "kink.gc", cwd=tmp_path, stdin="O1+ U1+")
        assert (proc.returncode, proc.stdout) == (0, "equivalent, path length 0\n")

    @pytest.mark.parametrize("argv", [
        ["moves", "-", "--kinds", "OC,R9"],
        ["invariants", "-", "--primes", "x"],
        ["equiv", "-", "-"],
    ])
    def test_exit_1_in_process(self, capsys, monkeypatch, argv):
        """The CLI's own argument checks, in process: an unknown move kind,
        a prime that is not an integer, and stdin named twice."""
        monkeypatch.setattr("sys.stdin", io.StringIO("O1+ O2+ U1+ U2+"))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["--seed", "1", "canon", "-"],
        ["canon", "--json", "-"],
        ["simplify", "--json", "-"],
        ["symmetry", "--bar", "--json", "-"],
        ["atlas", "--n-max", "0", "--json"],
        ["convert", "--to", "wgd", "--json", "-"],
    ])
    def test_removed_no_op_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# one argv per subcommand, each setting some of its options
PARSE_CASES = [
    ["convert", "--to", "gd", "in.gc"],
    ["canon"],
    ["moves", "in.gc", "--kinds", "OC,R3", "--no-growth", "--json"],
    ["apply", "--site", "{}", "--json"],
    ["equiv", "a.wgd", "b.wgd", "--max-crossings", "6", "--json"],
    ["simplify", "in.wgd", "--max-states", "9", "--max-depth", "3"],
    ["invariants", "-", "--primes", "3,7", "--groups", "S3,D4"],
    ["symmetry", "--global", "in.wgd"],
    ["atlas", "--n-max", "3", "--max-crossings", "4", "--primes", "3", "-o", "out.jsonl"],
]

MAIN_HELP = """\
usage: weldedknots [-h]
                   {convert,canon,moves,apply,equiv,simplify,invariants,symmetry,atlas}
                   ...

Gauss codes, welded Gauss diagrams, moves, invariants and search.

positional arguments:
  {convert,canon,moves,apply,equiv,simplify,invariants,symmetry,atlas}
    convert             convert between representations
    canon               canonical form of a welded Gauss diagram
    moves               list applicable move sites
    apply               apply one move site
    equiv               bounded equivalence search
    simplify            search for a smaller equivalent diagram
    invariants          coloring and homomorphism counts
    symmetry            reversal operators
    atlas               classify diagrams by the components of the move graph
                        within --max-crossings (default: n-max + 2); --max-
                        states and --max-depth are ignored

options:
  -h, --help            show this help message and exit
"""

ATLAS_HELP = """\
usage: weldedknots atlas [-h] --n-max N_MAX [--max-crossings MAX_CROSSINGS]
                         [--max-states MAX_STATES] [--max-depth MAX_DEPTH]
                         [--primes PRIMES] [--groups GROUPS] [-o OUTPUT]

classify diagrams by the components of the move graph within --max-crossings
(default: n-max + 2); --max-states and --max-depth are ignored

options:
  -h, --help            show this help message and exit
  --n-max N_MAX
  --max-crossings MAX_CROSSINGS
                        crossing cap during search (default: input size + 2)
  --max-states MAX_STATES
  --max-depth MAX_DEPTH
  --primes PRIMES
  --groups GROUPS
  -o OUTPUT, --output OUTPUT
"""

UNKNOWN_COMMAND = """\
usage: weldedknots [-h]
                   {convert,canon,moves,apply,equiv,simplify,invariants,symmetry,atlas}
                   ...
weldedknots: error: argument command: invalid choice: 'frobnicate' (choose from \
'convert', 'canon', 'moves', 'apply', 'equiv', 'simplify', 'invariants', 'symmetry', 'atlas')
"""


def exit_and_output(capsys, parse, argv):
    """The exit code and (stdout, stderr) of ``parse(argv)``, which exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def parse_outcome(capsys, parse, argv):
    """The namespace ``parse(argv)`` returns, or the exit code and
    (stdout, stderr) it exits with."""
    try:
        return parse(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


class TestParser:
    """``main`` parses a named command with that command's parser alone;
    what it parses, prints and exits with equals the full parser's."""

    @pytest.mark.parametrize("argv", PARSE_CASES, ids=[argv[0] for argv in PARSE_CASES])
    def test_namespace_equals_the_full_parser(self, argv):
        args = parse_args(argv)
        assert args == build_parser().parse_args(argv)
        assert args.command == argv[0]

    def test_every_subcommand_has_a_case(self):
        assert [argv[0] for argv in PARSE_CASES] == [name for name, *_ in _COMMANDS]

    @pytest.mark.parametrize("argv", [
        ["--help"], ["atlas", "--help"], ["frobnicate"], [], ["--"], ["-x", "atlas"],
        ["atlas"], ["atlas", "--n-max", "x"], ["equiv", "a"], ["canon", "a", "b"], ["convert", "-h"],
        # usage errors of a named command's own parser:
        # unrecognized arguments reported by the root, missing values by the command
        ["atlas", "--n-max", "1", "--bogus"], ["equiv", "a", "b", "c"],
        ["atlas", "--n-max"], ["simplify", "--max-states"],
    ])
    def test_help_and_usage_errors_equal_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        expected = exit_and_output(capsys, build_parser().parse_args, argv)
        assert exit_and_output(capsys, main, argv) == expected
        assert expected[0] in (0, 2)

    @pytest.mark.parametrize("argv", [
        # "--" ends the options, whether or not anything follows it
        ["canon", "--"], ["atlas", "--n-max", "1", "--"], ["equiv", "a", "--", "-b"],
        # abbreviations: unique, with "=", and ambiguous
        ["atlas", "--n-m", "1"], ["atlas", "--n-max=1", "--max-c", "2"], ["atlas", "--n-max", "1", "--max"],
        # help before a leftover; leftovers among positionals and options
        ["atlas", "--n-max", "1", "-h", "--bogus"], ["moves", "--kinds", "R1+", "x", "y"],
        ["symmetry", "--bar", "a", "--bogus", "b"], ["equiv", "-", "-x"],
        # a repeated option, a short option without its value, a missing required option
        ["convert", "--to", "gd", "--to", "wgd"], ["atlas", "--n-max", "1", "-o"], ["apply", "x.gc"],
    ])
    def test_parses_like_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        expected = parse_outcome(capsys, build_parser().parse_args, argv)
        assert parse_outcome(capsys, parse_args, argv) == expected

    @pytest.mark.parametrize("argv, parsers", [
        *(([name, "-h"], 1) for name, *_ in _COMMANDS),
        (["--help"], 10), (["frobnicate"], 10), ([], 10),
        *((argv, 1) for argv in PARSE_CASES),
        (["atlas", "--n-max", "1", "--bogus"], 11),
    ])
    def test_parsers_built(self, capsys, monkeypatch, argv, parsers):
        """A time-free cost guard: a named command builds its own parser
        only; help, a typo or no command builds all ten, and leftovers
        build all ten after the command's own."""
        built = 0
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            nonlocal built
            built += 1
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        parse_outcome(capsys, parse_args, argv)
        assert built == parsers

    # the bytes of the argparse of 3.10 and 3.11, which CI runs; 3.13 lays
    # out option lists and invalid choices differently
    @pytest.mark.skipif(sys.version_info >= (3, 12), reason="pinned for the argparse of 3.10 and 3.11")
    @pytest.mark.parametrize("argv, code, out, err", [
        (["--help"], 0, MAIN_HELP, ""),
        (["atlas", "--help"], 0, ATLAS_HELP, ""),
        (["frobnicate"], 2, "", UNKNOWN_COMMAND),
    ])
    def test_pinned_help_and_usage(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        assert exit_and_output(capsys, main, argv) == (code, out, err)

    # what holds on every argparse version, where the pins above skip
    @pytest.mark.parametrize("argv", [["atlas", "--n-max", "1", "--bogus"], ["equiv", "a", "b", "c"]])
    def test_leftovers_are_root_usage_errors(self, capsys, monkeypatch, argv):
        """An unknown option or a leftover positional of a named command is
        reported by the root parser, whose usage lists every command."""
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = exit_and_output(capsys, main, argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: weldedknots [-h]")
        assert "{convert,canon,moves,apply,equiv,simplify,invariants,symmetry,atlas}" in err

    def test_command_help_comes_from_its_own_parser(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = exit_and_output(capsys, main, ["atlas", "-h"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: weldedknots atlas")
