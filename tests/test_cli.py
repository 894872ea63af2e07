import json
import subprocess
import sys

import pytest

from nilentropy import spec_from_json
from nilentropy.cli import main

GOLDEN = (1 + 5 ** 0.5) / 2


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "nilentropy", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_hall_lists_basis(capsys):
    assert main(["hall", "--rank", "2", "--class", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    for k, line in enumerate(lines):
        idx, _entry, weight = line.split("\t")
        assert int(idx) == k
        assert int(weight) in (1, 2, 3)


def test_eval_word(capsys):
    assert main(["eval", "--group", "free:2,2", "--word", "x2 x1"]) == 0
    assert capsys.readouterr().out.strip() == "(1,1,1)"


def test_mul_mixed_inputs(capsys):
    assert main(
        ["mul", "--group", "free:2,2", "--left", "[1,0,0]", "--right", "x2"]
    ) == 0
    assert capsys.readouterr().out.strip() == "(1,1,0)"
    assert main(
        ["mul", "--group", "free:2,2", "--left", "x2", "--right", "x1"]
    ) == 0
    assert capsys.readouterr().out.strip() == "(1,1,1)"


def test_len_reports_both_metrics(capsys):
    assert main(["len", "--group", "free:2,2", "--element", "[0,0,1]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["karidi"] == pytest.approx(1.0)
    assert payload["geodesic"] == 4


def test_len_beyond_cap_is_null(capsys):
    assert main(
        ["len", "--group", "free:2,2", "--element", "[40,0,0]", "--radius-cap", "4"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["geodesic"] is None


def test_aut_check_fib(capsys):
    assert main(
        ["aut-check", "--group", "free:2,3", "--aut", "builtin:fib"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_automorphism"] is True
    assert payload["homologically_trivial"] is False
    assert payload["charpoly"] == [1, -1, -1]
    assert payload["spectral_radius"] == pytest.approx(GOLDEN, abs=1e-9)
    assert payload["unipotent"] is False


def test_grow_csv(capsys):
    assert main(
        [
            "grow", "--group", "free:2,2", "--aut", "builtin:fib",
            "--subject", "x1", "--n", "20", "--mode", "karidi",
        ]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,length,mode"
    assert len(lines) == 21
    assert lines[1] == "1,1.0,karidi"


def test_grow_out_file(tmp_path, capsys):
    path = tmp_path / "series.csv"
    assert main(
        [
            "grow", "--group", "free:2,2", "--aut", "builtin:unipotent-shear",
            "--subject", "x2", "--n", "10", "--out", str(path),
        ]
    ) == 0
    capsys.readouterr()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,length,mode"
    assert len(lines) == 11


def test_grow_output_is_deterministic():
    args = [
        "grow", "--group", "free:2,3", "--aut", "builtin:fib",
        "--subject", "x1", "--n", "15",
    ]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.splitlines()[0] == "n,length,mode"


def test_entropy_report(capsys):
    assert main(
        ["entropy", "--group", "free:2,2", "--aut", "builtin:fib", "--n", "30"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "spectral_radius", "entropy_estimate", "ratio", "window", "residual",
    }
    assert payload["spectral_radius"] == pytest.approx(GOLDEN, abs=1e-9)
    assert 0.95 <= payload["ratio"] <= 1.05
    assert payload["window"] == [15, 30]


def test_entropy_plot_files(tmp_path, capsys):
    prefix = str(tmp_path / "fib")
    assert main(
        [
            "entropy", "--group", "free:2,2", "--aut", "builtin:fib",
            "--n", "16", "--plot", prefix, "--plot-modes", "karidi",
        ]
    ) == 0
    capsys.readouterr()
    lines = (tmp_path / "fib-karidi.dat").read_text().strip().splitlines()
    assert len(lines) == 16
    n, value = lines[0].split()
    assert n == "1"
    float(value)


def test_tower_rows(capsys):
    assert main(
        [
            "tower", "--group", "free:2,3", "--aut", "builtin:fib",
            "--subject", "x1", "--classes", "3,2", "--n", "30",
        ]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    classes = [int(line.split("\t")[0]) for line in lines]
    assert classes == [2, 3]
    for line in lines:
        value = float(line.split("\t")[1])
        assert value == pytest.approx(GOLDEN, rel=0.03)


def test_distortion_trivial_weight(capsys):
    assert main(
        ["distortion", "--group", "free:2,2", "--weight", "1"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == pytest.approx(1.0)


def test_semidirect_report(capsys):
    assert main(
        [
            "semidirect", "--group", "free:2,2",
            "--aut", "builtin:unipotent-shear",
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class"] == 3
    assert payload["hirsch"] == 4
    assert payload["upper_central_length"] == 3


def test_surface_report_and_spec_file(tmp_path, capsys):
    path = tmp_path / "surface.json"
    assert main(
        ["surface", "--genus", "2", "--class", "3", "--out", str(path)]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ranks"] == [4, 5, 16]
    assert payload["hirsch"] == 25
    spec = spec_from_json(json.loads(path.read_text()))
    assert spec.dim == 25
    # the written file round-trips as a --group argument
    assert main(
        ["eval", "--group", str(path), "--word", "x1 x2"]
    ) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("(1,1,")


def test_usage_error_exits_2():
    proc = run_cli("grow", "--group", "free:2,2")
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_computation_error_exits_1(capsys):
    assert main(["eval", "--group", "free:2,2", "--word", "y1"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["eval", "--group", "free:9", "--word", "x1"]) == 1
    capsys.readouterr()
    assert main(
        ["aut-check", "--group", "free:2,2", "--aut", "builtin:nope"]
    ) == 1
    capsys.readouterr()
    assert main(
        ["grow", "--group", "free:2,2", "--aut", "builtin:fib", "--subject", "x1",
         "--n", "3", "--mode", "abelian-lower"]
    ) == 1
    assert capsys.readouterr().err.startswith("error: unknown growth mode 'abelian-lower'")


def test_malformed_relations_exit_1(tmp_path, capsys):
    base = {"rank": 2, "class": 2, "convention": "left-collected"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(base, relations={"2": 5})))
    proc = run_cli("mul", "--group", str(path), "--left", "x1", "--right", "x2")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    path.write_text(json.dumps(dict(base, relations={"2": [5]})))
    assert main(["mul", "--group", str(path), "--left", "x1", "--right", "x2"]) == 1
    assert capsys.readouterr().err.startswith("error:")
