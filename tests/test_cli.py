import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nilentropy import GrowthWarning, SpecFormatError, spec_from_json
from nilentropy.cli import _load_group, main

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


def test_hall_rank_one_at_a_huge_class(capsys):
    assert main(["hall", "--rank", "1", "--class", "20000"]) == 0
    assert capsys.readouterr().out == "0\tx1\t1\n"


def test_hall_refuses_an_oversized_basis():
    # 5.6e10 entries by Witt's formula: refused before the basis is built
    proc = run_cli("hall", "--rank", "2", "--class", "40")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: a Hall basis of rank 2 and class 40 has more than 32768 entries\n"


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


def test_aut_check_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["aut-check", "--group", "free:2,3", "--aut", "builtin:fib",
                 "--out", str(path)]) == 0
    assert path.read_text() == capsys.readouterr().out


def test_images_file_matches_the_builtin(tmp_path, capsys):
    """``--aut PATH`` with fib's images gives fib's output, byte for byte."""
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({"images": [[1, 1, 0, 0, 0], [1, 0, 0, 0, 0]]}))
    for command in (["aut-check"], ["grow", "--subject", "x1", "--n", "20"]):
        outputs = []
        for aut in ("builtin:fib", str(path)):
            assert main([*command, "--group", "free:2,3", "--aut", aut]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], command


def test_aut_check_refuses_map_off_the_relators(capsys):
    # fib sends the surface relator outside its normal closure
    assert main(
        ["aut-check", "--group", "surface:2,3", "--aut", "builtin:fib"]
    ) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: generator images do not respect the relators of the quotient\n"
    )


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


def test_entropy_subjects(capsys):
    """``--subject`` repeated over the generators is the default report."""
    args = ["entropy", "--group", "free:2,2", "--aut", "builtin:fib", "--n", "30"]
    assert main(args) == 0
    default = capsys.readouterr().out
    assert main([*args, "--subject", "x1", "--subject", "[0,1,0]"]) == 0
    assert capsys.readouterr().out == default
    assert main([*args, "--subject", "x1 x2"]) == 0
    assert json.loads(capsys.readouterr().out)["window"] == [15, 30]


# the exact-bfs series of fib omits its entries past n = 4
@pytest.mark.filterwarnings("ignore:exact length unknown")
def test_entropy_plot_files(tmp_path, capsys):
    prefix = str(tmp_path / "fib")
    assert main(
        [
            "entropy", "--group", "free:2,2", "--aut", "builtin:fib",
            "--n", "16", "--plot", prefix, "--plot-modes", "karidi,exact-bfs",
        ]
    ) == 0
    capsys.readouterr()
    lines = (tmp_path / "fib-karidi.dat").read_text().strip().splitlines()
    assert len(lines) == 16
    n, value = lines[0].split()
    assert n == "1"
    float(value)
    # each plot row is the n and length of the grow command's CSV row
    for mode in ("karidi", "exact-bfs"):
        assert main(["grow", "--group", "free:2,2", "--aut", "builtin:fib",
                     "--subject", "x1", "--n", "16", "--mode", mode]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        plot = (tmp_path / f"fib-{mode}.dat").read_text()
        assert plot == "".join(row.rsplit(",", 1)[0].replace(",", " ") + "\n" for row in rows)
        assert any(row.endswith(f",{mode}") for row in rows)


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


def test_tower_out_file(tmp_path, capsys):
    path = tmp_path / "tower.json"
    assert main(["tower", "--group", "free:2,3", "--aut", "builtin:fib",
                 "--classes", "2,3", "--out", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = json.loads(path.read_text())
    assert [row["class"] for row in rows] == [2, 3]
    assert lines == [f"{r['class']}\t{r['entropy']:.6f}\t{r['residual']:.3g}" for r in rows]
    assert set(rows[0]) == {"class", "entropy", "residual", "window"}


@pytest.mark.parametrize("classes", ["2,a", "2,,3"])
def test_tower_refuses_bad_classes(capsys, classes):
    assert main(["tower", "--group", "free:2,3", "--aut", "builtin:fib",
                 "--classes", classes]) == 1
    assert capsys.readouterr().err == (
        f"error: bad --classes {classes!r}: expected a comma list of integers, e.g. 2,3,4\n"
    )


def test_grow_warnings_point_at_the_cli():
    """An exact-bfs entry past the radius cap warns at the first frame outside
    ``growth.py``: the CLI's call, not a line inside the series code and not
    the caller of ``main``."""
    with pytest.warns(GrowthWarning, match="^exact length unknown") as omitted:
        assert main(["grow", "--group", "free:2,2", "--aut", "builtin:fib", "--subject", "x1",
                     "--n", "12", "--mode", "exact-bfs", "--out", os.devnull]) == 0
    assert omitted and all(w.filename.endswith(str(Path("nilentropy", "cli.py")))
                           for w in omitted)


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


@pytest.mark.parametrize("images", [5, None, True])
def test_malformed_images_exit_1(tmp_path, capsys, images):
    path = tmp_path / "aut.json"
    path.write_text(json.dumps({"images": images}))
    assert main(["aut-check", "--group", "free:2,2", "--aut", str(path)]) == 1
    assert capsys.readouterr().err == f"error: images must be a JSON array, got {images!r}\n"


@pytest.mark.parametrize("group", ["free:2", "free:a,b", "surface:2", "free:2,2,2", "free:"])
def test_malformed_group_names_the_forms(capsys, group):
    with pytest.raises(SpecFormatError):
        _load_group(group)
    assert main(["eval", "--group", group, "--word", "x1"]) == 1
    assert capsys.readouterr().err == (
        f"error: bad group {group!r}: expected free:m,c, surface:g,c or a spec JSON file\n"
    )


def test_wrong_image_count_exits_1(tmp_path, capsys):
    path = tmp_path / "aut.json"
    path.write_text(json.dumps({"images": [[1, 0, 0]]}))
    assert main(["aut-check", "--group", "free:2,2", "--aut", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: automorphism file needs 2 images, one per generator, got 1\n"
    )


def test_malformed_json_exits_1(tmp_path, capsys):
    assert main(["mul", "--group", "free:2,2", "--left", "[1,0", "--right", "x1"]) == 1
    assert capsys.readouterr().err == (
        "error: element '[1,0' is not valid JSON: "
        "Expecting ',' delimiter: line 1 column 5 (char 4)\n"
    )
    path = tmp_path / "aut.json"
    path.write_text('{"images": [')
    assert main(["aut-check", "--group", "free:2,2", "--aut", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: file {str(path)!r} is not valid JSON: "
        "Expecting value: line 1 column 13 (char 12)\n"
    )


# sha256 of stdout, and of the file ``surface --out`` writes, for each command
# of the README's "Command line" block
README_DIGESTS = {
    "nilentropy hall --rank 2 --class 3":
        "aebe0ad279eec2bc42e64c09dc648a9c6e3f15a268e1cc13dc3743cc7c3af04c",
    'nilentropy eval --group free:2,2 --word "x2 x1"':
        "66ace5fa4483c3ee835807d8ff7cf14f1eb126662d58a0edacb1be424d40270d",
    'nilentropy mul --group free:2,2 --left "[1,0,0]" --right "x2"':
        "b5f65fb2eb777837da3abb804d5c2e3ae09d32a7786c504bfa02cc9a4314921b",
    'nilentropy len --group free:2,2 --element "[0,0,1]"':
        "2ad9ef6d9af14a114eb98160e0d631bbf2ce6476abb67bf35e44b1efc9f98e50",
    "nilentropy aut-check --group free:2,3 --aut builtin:fib":
        "87441c1fde13077a8499efcc58e77a0227a639693fc7964497aa8d4f113c7dba",
    "nilentropy grow --group free:2,2 --aut builtin:fib --subject x1 --n 30":
        "a748a29f93d13645d339dad4dcbc8eeae532500831d593e8b6128fcfc63361f3",
    "nilentropy entropy --group free:2,2 --aut builtin:fib --n 30":
        "6f86e9dbbed6095b9a106f7ae977da9f14d78dae67fc713e77dba2477289ce94",
    "nilentropy tower --group free:2,3 --aut builtin:fib --subject x1 --classes 2,3,4":
        "8a9f95d62ce109a8d276f2c5b9ba1ebbee8a9dd7bd3548a7748093272a0aefde",
    "nilentropy distortion --group free:2,2 --weight 2":
        "020992efe7f488136ad8c7271f8d85fa17ed7020ec15eb25a21858a937e5e6ac",
    "nilentropy semidirect --group free:2,2 --aut builtin:unipotent-shear":
        "b0568fa9a368521efbb6852adef943b1c980c50bb62f37ac67ba5d8ea4137f4f",
    "nilentropy surface --genus 2 --class 3 --out surface.json":
        "47432a75fe78de40608b18aa504bd11892a1cff162da6c5ba24578a6939c2169",
}
SURFACE_JSON_DIGEST = "3d072cda5221211eb8a6a8e9de552e13eb703a9d9f1c01054552f2e3136e90b9"


def _readme_commands():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    return re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()


def test_readme_commands_print_pinned_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands == list(README_DIGESTS)
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == README_DIGESTS[line], line
    written = (tmp_path / "surface.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == SURFACE_JSON_DIGEST
