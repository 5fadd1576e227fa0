import json
import subprocess
import sys

from gallai_ramsey import cli, read_coloring, verifier
from gallai_ramsey.cli import main
from gallai_ramsey.coloring import RainbowWitness
from gallai_ramsey.targets import Embedding, path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_writes_witness(tmp_path, capsys):
    out = tmp_path / "w.col"
    code, stdout, _ = run(
        capsys, "construct", "--spec", "n=3 k=3 head=cycle i=2,2,2", "-o", str(out)
    )
    assert code == 0
    coloring = read_coloring(out.read_text())
    assert coloring.n == 9


def test_construct_check_pipeline(tmp_path, capsys):
    out = tmp_path / "w.col"
    code, _, _ = run(
        capsys, "construct", "--spec", "n=3 k=3 head=cycle i=2,2,2", "-o", str(out)
    )
    assert code == 0
    code, stdout, _ = run(capsys, "check", "--coloring", str(out), "--targets", "C6,C6,C6")
    assert code == 1
    assert stdout.strip() == "none"


def test_construct_keeps_caller_colors(tmp_path, capsys):
    # color 2 takes the C6: its block comes first, and color 1 the P3
    out = tmp_path / "w.col"
    code, _, _ = run(capsys, "construct", "--spec", "n=3 i=0,2", "-o", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "check", "--coloring", str(out), "--targets", "P3,C6")
    assert code == 1
    assert stdout.strip() == "none"
    code, stdout, _ = run(capsys, "formula", "--gr", "n=3 i=0,2")
    assert code == 0 and stdout.strip() == "6"


def test_construct_json_matches_written_file(tmp_path, capsys):
    out = tmp_path / "w.col"
    code, stdout, _ = run(
        capsys, "construct", "--spec", "n=3 k=3 head=cycle i=2,2,2", "--json", "-o", str(out)
    )
    assert code == 0
    data = json.loads(stdout)
    coloring = read_coloring(out.read_text())
    assert data == {"n": coloring.n, "k": coloring.k, "colors": list(coloring.colors)}


def test_check_finds_target(tmp_path, capsys):
    f = tmp_path / "mono.col"
    f.write_text("6 2\n" + " ".join(["1"] * 15) + "\n")
    code, stdout, _ = run(capsys, "check", "--coloring", str(f), "--targets", "C6,P3", "--json")
    assert code == 0
    hit = json.loads(stdout)["hit"]
    assert hit["target"] == "C6" and hit["color"] == 1


def test_formula_gr(capsys):
    code, stdout, _ = run(capsys, "formula", "--gr", "n=3 k=2 head=cycle i=2,2")
    assert code == 0
    assert stdout.strip() == "8"


def test_formula_classical_and_known(capsys):
    code, stdout, _ = run(capsys, "formula", "--classical", "P7,C8")
    assert code == 0 and stdout.strip() == "10"
    code, stdout, _ = run(capsys, "formula", "--known", "K3", "-k", "4", "--json")
    assert code == 0 and json.loads(stdout) == {"value": 26}
    # two colors give R(C10, C10); three only a bound pair
    code, stdout, _ = run(capsys, "formula", "--known", "C10", "-k", "2", "--json")
    assert code == 0 and json.loads(stdout) == {"value": 14}
    code, stdout, _ = run(capsys, "formula", "--known", "C10", "-k", "3", "--json")
    assert code == 0 and json.loads(stdout) == {"lower": 18, "upper": 27}
    code, stdout, _ = run(capsys, "formula", "--known", "C10", "-k", "3")
    assert code == 0 and stdout.strip() == "between 18 and 27"
    code, _, err = run(capsys, "formula", "--classical", "P5,P5,P5")
    assert code == 2 and "exactly two targets" in err


def test_partition_command(tmp_path, capsys):
    f = tmp_path / "c.col"
    f.write_text("4 2\n1 1 2 1 2 1\n")
    code, stdout, _ = run(capsys, "partition", "--coloring", str(f), "--json")
    assert code == 0
    data = json.loads(stdout)
    assert sorted(v for p in data["parts"] for v in p) == [0, 1, 2, 3]
    assert len(data["between_colors"]) <= 2


def test_partition_of_a_rainbow_triangle_is_none(tmp_path, capsys):
    f = tmp_path / "rainbow.col"
    f.write_text("3 3\n1 2 3\n")
    code, stdout, _ = run(capsys, "partition", "--coloring", str(f))
    assert code == 1 and stdout == "none\n"
    code, stdout, _ = run(capsys, "partition", "--coloring", str(f), "--json")
    assert code == 1 and json.loads(stdout) == {"partition": None}


def test_construct_without_output_prints_the_coloring(capsys):
    code, stdout, _ = run(capsys, "construct", "--spec", "n=3 i=1,0")
    assert code == 0
    assert stdout == "4 2\n1 1 1\n1 1\n1\n"


def test_verify_lower_command(capsys):
    code, stdout, _ = run(capsys, "verify-lower", "--spec", "n=4 k=2 head=cycle i=3,3", "--json")
    assert code == 0
    data = json.loads(stdout)
    assert data["ok"] is True and data["vertices"] == 10 and data["predicted"] == 11


def test_verify_upper_exit_codes(tmp_path, capsys):
    code, stdout, _ = run(capsys, "verify-upper", "-N", "5", "--targets", "P5,P3", "--json")
    assert code == 0
    assert json.loads(stdout)["verdict"] == "all_forced"

    witness = tmp_path / "bad.col"
    code, stdout, _ = run(
        capsys, "verify-upper", "-N", "4", "--targets", "P5,P3", "--json", "-o", str(witness)
    )
    assert code == 1
    report = json.loads(stdout)
    assert report["verdict"] == "bad_coloring"
    assert report["witness_file"] == str(witness)
    assert read_coloring(witness.read_text()).n == 4

    code, stdout, _ = run(
        capsys, "verify-upper", "-N", "6", "--targets", "P5,P5", "--budget", "10", "--json"
    )
    assert code == 3
    assert json.loads(stdout)["verdict"] == "budget"


def test_verify_upper_prints_the_witness_after_the_verdict(capsys):
    code, stdout, _ = run(capsys, "verify-upper", "-N", "5", "--targets", "P5,P5")
    assert code == 1
    verdict, text = stdout.split("\n", 1)
    assert verdict.startswith("verdict: bad_coloring (nodes=")
    witness = read_coloring(text)
    assert witness.n == 5 and witness.k == 2


def test_verify_lower_failure_names_its_defects(capsys, monkeypatch):
    spec = "n=3 i=1,0"
    lower = verifier.verify_lower(cli.parse_spec_string(spec))
    embedding = Embedding(path(5), 2, (0, 1, 2, 3, 4))
    failed = verifier.LowerBoundResult(
        False, lower.witness, RainbowWitness((0, 1, 2)), (2, embedding)
    )
    monkeypatch.setattr(cli, "verify_lower", lambda spec: failed)
    code, stdout, _ = run(capsys, "verify-lower", "--spec", spec)
    assert code == 1
    assert stdout == "failed: rainbow triangle at (0, 1, 2); monochromatic P5 in color 2\n"


def test_verify_upper_no_symmetry_flag(capsys):
    code, stdout, _ = run(
        capsys, "verify-upper", "-N", "5", "--targets", "P5,P3", "--no-symmetry", "--json"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["stats"]["prunes_symmetry"] == 0


def test_compute_gr_command(capsys):
    code, stdout, _ = run(capsys, "compute-gr", "--spec", "n=3 k=2 i=1,0", "--json")
    assert code == 0
    data = json.loads(stdout)
    assert data["status"] == "confirmed" and data["value"] == 5


def test_compute_gr_budget_exits_3(capsys):
    code, stdout, _ = run(capsys, "compute-gr", "--spec", "n=3 i=2,2", "--budget", "1")
    assert code == 3
    assert stdout == "inconclusive: budget exhausted at N=8\n"
    code, stdout, _ = run(capsys, "compute-gr", "--spec", "n=3 i=2,2", "--budget", "1", "--json")
    assert code == 3
    data = json.loads(stdout)
    assert data["status"] == "inconclusive" and data["value"] is None
    assert data["predicted"] == 8 and data["upper_verdict"] == "budget"


def test_compute_gr_discrepancy_exits_1(capsys, monkeypatch):
    spec = "n=3 i=1,0"
    result = verifier.compute_gr(cli.parse_spec_string(spec))
    lower = verifier.LowerBoundResult(False, result.lower.witness, None, None)
    discrepancy = verifier.GrResult(
        result.predicted,
        verifier.DISCREPANCY,
        None,
        lower,
        result.upper_verdict,
        result.upper_stats,
    )
    monkeypatch.setattr(cli, "compute_gr", lambda spec, budget, threads: discrepancy)
    code, stdout, _ = run(capsys, "compute-gr", "--spec", spec)
    assert code == 1
    assert stdout == "discrepancy: formula predicts 5 but lower_ok=False, upper=all_forced\n"


def test_random_command_deterministic(tmp_path, capsys):
    a = tmp_path / "a.col"
    b = tmp_path / "b.col"
    assert run(capsys, "random", "-n", "10", "-k", "3", "--seed", "7", "-o", str(a))[0] == 0
    assert run(capsys, "random", "-n", "10", "-k", "3", "--seed", "7", "-o", str(b))[0] == 0
    assert a.read_text() == b.read_text()


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "formula", "--gr", "bogus")
    assert code == 2
    assert "error:" in err and "usage: gallai formula" in err
    code, _, err = run(capsys, "check", "--coloring", "/nonexistent.col", "--targets", "P3")
    assert code == 2
    assert "usage: gallai check" in err
    code, _, err = run(capsys, "formula", "--known", "C6")
    assert code == 2  # missing -k
    assert "usage: gallai formula" in err
    code, _, err = run(capsys, "verify-upper", "-N", "4", "--targets", "C5,C5")
    assert code == 2  # odd cycles are not searchable targets
    assert "usage: gallai verify-upper" in err
    code, _, err = run(capsys, "verify-upper", "-N", "8", "--targets", "C6,,C6")
    assert code == 2  # an empty entry is not a dropped color
    assert "position 2" in err and "usage: gallai verify-upper" in err
    for entries, pos in (("1,,0", 2), ("2,1,", 3)):
        code, out, err = run(capsys, "compute-gr", "--spec", f"n=3 i={entries}")
        assert code == 2 and out == ""  # no case is decided on the remaining entries
        assert f"position {pos}" in err and "usage: gallai compute-gr" in err


def test_internal_errors_exit_4(tmp_path, capsys, monkeypatch):
    # a crash is neither a usage error (2) nor a definitive negative (1)
    def crash(coloring, targets):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "contains_required", crash)
    f = tmp_path / "mono.col"
    f.write_text("4 1\n" + " ".join(["1"] * 6) + "\n")
    code, out, err = run(capsys, "check", "--coloring", str(f), "--targets", "P3")
    assert code == 4 and out == ""
    assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"


def test_failed_witness_check_exits_4(capsys, monkeypatch):
    # a witness the independent checkers reject is an internal error,
    # not a bad coloring (1)
    def leaves(self, prefix, budget, leaf):
        yield [1] * 6, verifier.SearchStats(nodes=1)

    monkeypatch.setattr(verifier._Search, "leaves", leaves)
    code, out, err = run(capsys, "verify-upper", "-N", "4", "--targets", "P3,P3")
    assert code == 4 and out == ""
    assert err == (
        "internal error: RuntimeError: witness fails contains_required: "
        "monochromatic P3 in color 1\n"
    )


def test_unknown_flags_exit_2(capsys):
    assert run(capsys, "construct", "--bogus")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    code, stdout, _ = run(capsys, "verify-upper", "--help")
    assert code == 0
    assert "--budget" in stdout and "1000000000" in stdout  # default printed


def test_verify_upper_threads(capsys):
    code, stdout, _ = run(
        capsys, "verify-upper", "-N", "6", "--targets", "P5,P5",
        "--threads", "2", "--json",
    )
    assert code == 0
    assert json.loads(stdout)["verdict"] == "all_forced"


def test_nonpositive_threads_exit_2(capsys):
    for threads in ("0", "-3"):
        code, _, err = run(
            capsys, "verify-upper", "-N", "6", "--targets", "P5,P5", "--threads", threads
        )
        assert code == 2
        assert "threads must be positive" in err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gallai_ramsey", "formula", "--gr", "n=3 k=3 i=2,2,2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "10"
