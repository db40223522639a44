import argparse
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from dgsym import cli, symmetry
from dgsym.cli import build_parser, main
from dgsym.fields import Grid, Trajectory, read_trajectory, write_trajectory
from dgsym.params import (PARAM_NAMES, DGParams, GaugeElement, gauge_act_params,
                          reference_points)


DEEP_PAYLOAD = "Yf:" + "(" * 400 + "z" + ")" * 400


def write_params(tmp_path, name, p: DGParams):
    path = tmp_path / name
    p.dump(path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    rows = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    return code, rows, out.err


@pytest.fixture()
def se_file(tmp_path):
    return write_params(tmp_path, "linear_se.json", reference_points()["linear-se"])


@pytest.fixture()
def sym1b_file(tmp_path):
    return write_params(tmp_path, "sym1b.json", reference_points()["sym1b"])


def test_classify_linear_se(capsys, se_file):
    code, rows, err = run(capsys, "classify", "--params", se_file)
    assert code == 0
    row = rows[0]
    assert row["class"] == "Sym1c"
    assert row["Lambda"] == pytest.approx(1.0)
    assert row["gamma"] == pytest.approx(0.0)
    assert row["invariants"]["iota1"] == "1/2"
    assert row["predicates"]["EhrSub"] is True
    assert "Sym1c" in err


def test_classify_invalid_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "nu1": "0"}')
    code, rows, err = run(capsys, "classify", "--params", str(bad))
    assert code == 2
    assert "nu1" in rows[0]["error"]


# Parameter files that are valid JSON but no parameter point: (file text,
# the key the error names, or None where the text is not an object at all).
MALFORMED_PARAMS = {
    "number": ("5", None), "null": ("null", None),
    "float-value": ('{"n": 1, "nu1": 1.5}', "'nu1'"),
    "bool-value": ('{"n": 1, "nu1": "1", "mu2": true}', "'mu2'"),
    "float-n": ('{"n": 1.7, "nu1": "1"}', "'n'"),
    "bool-n": ('{"n": true, "nu1": "1"}', "'n'"),
}


@pytest.mark.parametrize("command", ["classify", "linearize", "verify", "simulate"])
@pytest.mark.parametrize("case", sorted(MALFORMED_PARAMS))
def test_malformed_params_file_is_input_error(capsys, tmp_path, command, case):
    text, key = MALFORMED_PARAMS[case]
    path = tmp_path / f"{case}.json"
    path.write_text(text)
    out = tmp_path / "out"
    extra = {"linearize": ["--out", str(out)], "simulate": ["--out", str(out)],
             "verify": ["--suite", "determining"]}.get(command, [])
    code, rows, err = run(capsys, command, "--params", str(path), *extra)
    assert code == 2 and not out.exists()
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert "error: " in err and err.count(str(path)) == 1
    assert (key or "JSON object") in err
    if command == "classify":
        assert rows == [{"file": str(path), "error": err.split("error: ", 1)[1].strip()}]
    else:
        assert rows == []


# Parameter files that are no UTF-8 JSON text, as bytes, and the message
# each is refused with: a parameter file is decoded as strict UTF-8.
_POINT_JSON = b'{"n": 1, "nu1": "1", "mu2": "-1/2"}'
UNDECODABLE_PARAMS = {
    "utf8-bom": (b"\xef\xbb\xbf" + _POINT_JSON,
                 "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "utf16": (b"\xff\xfe" + _POINT_JSON.decode().encode("utf-16-le"),
              "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "invalid-utf8": (b'{"n": 1, "nu1": "\xff1"}',
                     "'utf-8' codec can't decode byte 0xff in position 17: "
                     "invalid start byte"),
    "empty": (b"", "Expecting value: line 1 column 1 (char 0)"),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE_PARAMS))
def test_classify_refuses_file_that_is_not_utf8_json(capsys, tmp_path, case):
    data, message = UNDECODABLE_PARAMS[case]
    path = tmp_path / f"{case}.json"
    path.write_bytes(data)
    code, rows, err = run(capsys, "classify", "--params", str(path))
    assert code == 2
    assert rows == [{"file": str(path), "error": f"{path}: {message}"}]
    assert err == f"error: {path}: {message}\n"


def test_classify_reads_crlf_file_as_its_lf_twin(capsys, tmp_path):
    text = json.dumps(reference_points()["generic"].to_json_dict(), indent=2) + "\n"
    lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    code, rows, _ = run(capsys, "classify", "--params", str(lf), str(crlf))
    assert code == 0 and b"\r\n" in crlf.read_bytes()
    assert rows[1] == {**rows[0], "file": str(crlf)}


def test_classify_batch_with_malformed_files(capsys, tmp_path):
    """Bad files get an error row each; the good ones are still classified,
    in order, and the run exits 2."""
    for key in ("linear-se", "sym3"):
        write_params(tmp_path, f"{key}.json", reference_points()[key])
    for case in ("float-n", "number"):
        (tmp_path / f"{case}.json").write_text(MALFORMED_PARAMS[case][0])
    code, rows, err = run(capsys, "classify", "--params", str(tmp_path))
    assert code == 2
    assert [os.path.basename(r["file"]) for r in rows] == \
        ["float-n.json", "linear-se.json", "number.json", "sym3.json"]
    assert [r.get("class") for r in rows] == [None, "Sym1c", None, "Sym3"]
    assert "'n' must be a JSON integer" in rows[0]["error"]
    assert "JSON object" in rows[2]["error"]
    assert "Traceback" not in err


def test_classify_batch_directory(capsys, tmp_path):
    for key in ("linear-se", "sym3", "generic"):
        write_params(tmp_path, f"{key}.json", reference_points()[key])
    code, rows, _ = run(capsys, "classify", "--params", str(tmp_path))
    assert code == 0
    assert len(rows) == 3
    assert {r["class"] for r in rows} == {"Sym1c", "Sym3", "Sym0"}


def test_classify_no_input(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 2


def test_classify_ignores_a_bogus_dgsym_log(monkeypatch, se_file):
    """DGSYM_LOG is no setting of dgsym: a fresh interpreter given a level
    name that logging does not know classifies as usual."""
    import subprocess
    import sys
    from pathlib import Path

    import dgsym

    monkeypatch.setenv("DGSYM_LOG", "bogus")
    monkeypatch.setenv("PYTHONPATH", str(Path(dgsym.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "dgsym.cli", "classify",
                           "--params", se_file], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["class"] == "Sym1c"


def test_verify_commutators(capsys):
    code, rows, err = run(capsys, "verify", "--suite", "commutators",
                          "--class", "sym3-nu2", "--n", "2")
    assert code == 0
    assert all(r["pass"] for r in rows)
    assert len(rows) == 55  # full pairwise closure for n=2


def test_verify_commutators_names_failing_yf_component(capsys, monkeypatch):
    """Y_f rows carry a detail like the table rows: empty where they pass,
    the components of got - want where a wrong polynomial bracket fails."""
    code, rows, _ = run(capsys, "verify", "--suite", "commutators", "--class", "infsub")
    assert code == 0
    yf = [r for r in rows if "Y_z" in r["check"]]
    assert yf and all(r["pass"] and r["detail"] == "" for r in yf)

    real = symmetry._poly_vf_bracket
    monkeypatch.setattr(symmetry, "_poly_vf_bracket", lambda f, g: real(g, f))
    code, rows, _ = run(capsys, "verify", "--suite", "commutators", "--class", "infsub")
    assert code == 1
    failed = [r for r in rows if not r["pass"]]
    assert {r["check"] for r in failed} == {
        f"[Y_z^{i},Y_z^{j}]" for i in range(5) for j in range(i + 1, 5)}
    assert all(r["detail"].startswith("mismatch: {'r': ") for r in failed)


def test_verify_determining_galsub(capsys):
    code, rows, _ = run(capsys, "verify", "--suite", "determining",
                        "--class", "galsub")
    assert code == 0
    assert all(r["pass"] and r["class"] == "Sym1" for r in rows)
    symmetries = {r["generator"] for r in rows if r["admissible"]}
    assert symmetries == {"H", "D", "E", "R", "P:1", "C", "B:1"}
    assert all(not r["nonzero"] for r in rows if r["admissible"])


def test_verify_determining_generic_negative_controls(capsys):
    code, rows, _ = run(capsys, "verify", "--suite", "determining",
                        "--class", "generic")
    assert code == 0
    controls = [r for r in rows if not r["admissible"]]
    assert {r["generator"] for r in controls} >= {"C", "B:1", "A"}
    assert all(r["pass"] and r["nonzero"] for r in controls)


def test_verify_determining_constant_yf_is_a_symmetry_everywhere(capsys):
    """Y_f with constant f is R plus a multiple of E: admissible off InfSub."""
    code, rows, _ = run(capsys, "verify", "--suite", "determining",
                        "--class", "generic", "--gen", "Yf:1", "Yf:z")
    assert code == 0
    const, linear = rows
    assert const["generator"] == "Yf:(1)*z^0" and const["admissible"]
    assert const["pass"] and not const["nonzero"]
    assert not linear["admissible"] and linear["pass"] and linear["nonzero"]


@pytest.mark.parametrize("suite", ["commutators", "determining"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("key", sorted(reference_points()))
def test_verify_suite_at_every_reference_class(capsys, suite, key, n):
    code, rows, _ = run(capsys, "verify", "--suite", suite,
                        "--class", key, "--n", str(n))
    assert code == 0 and rows and all(r["pass"] for r in rows)


def test_verify_flow_boost(capsys):
    code, rows, _ = run(capsys, "verify", "--suite", "flow",
                        "--gen", "B:1", "--eps", "0.3")
    assert code == 0
    row = rows[0]
    assert row["pass"] and 3.0 <= row["ratio_l2"] <= 5.0


@pytest.mark.parametrize("eps", ["30", "100"])
def test_verify_flow_passes_translation_off_the_grid(capsys, eps):
    """P:1 is a symmetry at the default sym1b point; at these eps the
    translated packets leave the grid and the residual is rounding on both
    grids, where the l2 ratio means nothing and the rounding floor decides."""
    code, rows, err = run(capsys, "verify", "--suite", "flow", "--gen", "P:1",
                          "--eps", eps)
    assert code == 0 and "1/1 checks passed" in err
    row, = rows
    assert row["pass"] and not 3.0 <= row["ratio_l2"] <= 5.0
    assert max(row["after"]["l2"], row["after_fine"]["l2"]) < 1e-14
    # the row names the floor that passed it
    assert max(row["after"]["l2"], row["after_fine"]["l2"]) <= row["floor"]


def test_verify_flow_skips_inadmissible(capsys, tmp_path):
    path = write_params(tmp_path, "sym3.json", reference_points()["sym3"])
    code, rows, _ = run(capsys, "verify", "--suite", "flow",
                        "--params", path, "--gen", "F", "A")
    assert code == 0
    skipped = [r for r in rows if r.get("skipped")]
    assert len(skipped) == 1 and skipped[0]["generator"] == "F"
    ran = [r for r in rows if not r.get("skipped")]
    assert ran[0]["generator"] == "A" and ran[0]["pass"]


@pytest.mark.parametrize("key, gen, why", [
    ("sym1b", "F", "exponent rates"), ("sym3-nu2", "Zheat", "no exact coefficients"),
    ("sym3-nu2", "Zse", "no exact coefficients")])
def test_verify_determining_skips_generators_without_exact_coefficients(
        capsys, key, gen, why):
    """A generator whose field the suite cannot build at the point (F without
    exponent rates, Zheat and Zse anywhere) gets a skipped row naming the
    reason; the P:1 row beside it still runs and decides the exit code, and
    alone it leaves no row that ran (exit 3)."""
    code, rows, err = run(capsys, "verify", "--suite", "determining",
                          "--class", key, "--gen", "P:1", gen)
    assert code == 0 and "1/1 checks passed, 1 skipped" in err
    by_name = {row["generator"]: row for row in rows}
    assert by_name["P:1"]["pass"] and not by_name["P:1"]["nonzero"]
    assert by_name[gen]["skipped"] and "pass" not in by_name[gen]
    assert why in by_name[gen]["detail"]
    code, rows, _ = run(capsys, "verify", "--suite", "determining",
                        "--class", key, "--gen", gen)
    assert code == 3 and len(rows) == 1 and rows[0]["skipped"]


def test_verify_flow_skips_generators_without_closed_flow(capsys):
    """Zse is admissible at sym1c but has no closed-form flow map: its row is
    skipped with the reason, and the P:1 row still runs."""
    code, rows, err = run(capsys, "verify", "--suite", "flow", "--class", "sym1c",
                          "--gen", "P:1", "Zse")
    assert code == 0
    p1, zse = rows
    assert p1["generator"] == "P:1" and p1["pass"]
    assert zse["generator"] == "Zse" and zse["skipped"] and "pass" not in zse
    assert zse["detail"].startswith("no closed-form flow map")
    assert "1/1 checks passed, 1 skipped" in err


def test_verify_flow_with_no_check_run_is_inapplicable(capsys):
    code, rows, err = run(capsys, "verify", "--suite", "flow",
                          "--class", "sym1b", "--gen", "Yf:z")
    assert code == 3
    assert len(rows) == 1 and rows[0]["skipped"] and "pass" not in rows[0]
    assert "0/0 checks passed, 1 skipped" in err


@pytest.mark.parametrize("gen, eps", [("D", "1e9"), ("D", "-1e9"), ("C", "-20")],
                         ids=["1e9", "-1e9", "C--20"])
def test_verify_flow_names_eps_that_collapses_the_window(capsys, gen, eps):
    """D rescales time by exp(2 eps): at eps = 1e9 every source time is 0,
    and at -1e9 the factor overflows.  C at eps = -20 is singular where
    1 + eps t <= 0, from t = 0.05 on.  The one error line names the
    generator, eps and the window."""
    code, rows, err = run(capsys, "verify", "--suite", "flow", "--gen", gen,
                          f"--eps={eps}")
    assert code == 2 and rows == []
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith(f"error: flow parameter eps={float(eps):g} maps the time "
                          f"window [0.02, 0.18] of {gen} to source times that are "
                          "not finite and strictly increasing")


@pytest.mark.parametrize("gen", ["B:1", "P:1"])
def test_verify_flow_refuses_moved_solution_out_of_float_range(capsys, gen):
    """B:1 and P:1 are symmetries of sym1b; at eps = 1e300 the moved packet's
    |x - x0|² overflows on the grid.  That is an input error naming the
    generator and eps, with no numpy warning and no failed row."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rows, err = run(capsys, "verify", "--suite", "flow", "--gen", gen,
                              "--eps", "1e300")
    assert code == 2 and rows == []
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {gen} at eps=1e+300 moves the solution out of "
                          "float range")


def test_verify_flow_baseline_failure_names_generator_and_eps(capsys):
    """C at eps = 1e9 squeezes the window onto t ~ 1e-9, where the bundled
    sym1b solution has no small residual: the message names the flow."""
    code, rows, err = run(capsys, "verify", "--suite", "flow", "--gen", "C",
                          "--eps=1e9")
    assert code == 2 and rows == []
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert "baseline residual" in err
    assert "that C at eps=1e+09 maps the window [0.02, 0.18]" in err
    assert "source times [" in err


@pytest.mark.parametrize("key, n, linf", [("sym1c-nu2", 1, "0.0515"),
                                          ("sym1c-nu2", 2, "0.103"),
                                          ("sym1c", 2, "0.0777")])
def test_verify_flow_skips_where_the_bundled_solution_is_no_solution(
        capsys, tmp_path, key, n, linf):
    """At the (Lambda, gamma) = (3, -2) images of these valid points the
    bundled solution fails its baseline on the unmoved window [0.02, 0.18]:
    every generator is skipped with a row naming that residual, the window
    and the class, and the suite exits 3, not 2."""
    image = gauge_act_params(GaugeElement(3, -2), reference_points(n)[key])
    path = write_params(tmp_path, "image.json", image)
    code, rows, err = run(capsys, "verify", "--suite", "flow", "--params", path)
    assert code == 3 and "Traceback" not in err
    assert sorted(row["generator"] for row in rows) == ["B:1", "C", "D", "H", "P:1"]
    for row in rows:
        assert row["skipped"] is True and "pass" not in row
        assert (f"baseline residual linf {linf} > 0.05 on the unmoved window "
                "[0.02, 0.18] at Sym1c") in row["detail"]


def test_verify_flow_eps_out_of_range_stays_an_input_error(capsys):
    """H at eps = 1 moves the window of the bundled sym1b solution out of its
    range, while the solution passes on the unmoved window: exit 2."""
    code, rows, err = run(capsys, "verify", "--suite", "flow", "--class", "sym1b",
                          "--gen", "H", "--eps", "1")
    assert code == 2 and rows == []
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_verify_flow_names_eps_that_leaves_the_solution_range(capsys):
    """H at eps = 1 maps the window [0.02, 0.18] of the bundled sym1b
    solution to source times before its heat kernel's focus, where sampling
    it raises: the one error line names the generator, eps, the window, the
    source times and the solution's own reason."""
    code, rows, err = run(capsys, "verify", "--suite", "flow", "--class", "sym1b",
                          "--gen", "H", "--eps", "1")
    assert code == 2 and rows == []
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith("error: H at eps=1 maps the window [0.02, 0.18] to the "
                          "source times [-0.98, -0.82]")
    assert err.rstrip().endswith("heat kernel valid only for t > -0.75")


@pytest.mark.parametrize("gen, n, message", [
    ("L:1,2", 1, "out of range for n=1"), ("P:2", 1, "out of range for n=1"),
    ("P:0", 1, "out of range for n=1"), ("B:2", 1, "out of range for n=1"),
    ("L:1,1", 2, "j < k"), ("L:2,1", 2, "j < k")])
def test_verify_flow_refuses_indices_like_determining(capsys, gen, n, message):
    """Both suites refuse a generator index outside 1..n, and L:j,k unless
    j < k, as an input error."""
    for suite in ("flow", "determining"):
        code, rows, err = run(capsys, "verify", "--suite", suite, "--gen", gen,
                              "--n", str(n))
        assert code == 2 and rows == []
        assert "Traceback" not in err
        assert message in err


@pytest.mark.parametrize("payload", [
    "Yf:x1", "Yf:foo", "Yf:r^2", "Yf:1/0", "Yf:z^65", "Yf:z^1000000000000",
    pytest.param(DEEP_PAYLOAD, id="Yf:400-nested-parentheses")])
@pytest.mark.parametrize("suite", ["determining", "flow"])
def test_verify_refuses_malformed_payload(capsys, suite, payload):
    code, rows, err = run(capsys, "verify", "--suite", suite, "--class", "infsub",
                          "--gen", payload)
    assert code == 2 and rows == []
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("key", ["galsub", "generic"])
def test_verify_class_without_bundled_solution_skips_flow(capsys, key):
    """The flow suite skips every generator where the class has no closed-form
    solution: all suites pass with those rows skipped, flow alone ran none."""
    code, rows, _ = run(capsys, "verify", "--class", key)
    assert code == 0
    flow = [r for r in rows if r["suite"] == "flow"]
    assert flow and all(r["skipped"] and "no bundled closed-form solution" in r["detail"]
                        for r in flow)
    assert all(r["pass"] for r in rows if r["suite"] != "flow")
    code, rows, _ = run(capsys, "verify", "--suite", "flow", "--class", key)
    assert code == 3 and rows == flow
    code, rows, err = run(capsys, "verify", "--suite", "flow", "--class", key,
                          "--gen", "P:2")  # a bad index is refused, not skipped
    assert code == 2 and rows == [] and "out of range for n=1" in err


@pytest.mark.parametrize("key", ["sym1b", "galsub"])
def test_verify_at_n3_skips_flow(capsys, key):
    """The dynamics support n in {1, 2}: at n = 3 the flow suite skips every
    generator, with or without a bundled solution, while the other suites
    run; flow alone ran none."""
    code, rows, _ = run(capsys, "verify", "--class", key, "--n", "3")
    assert code == 0
    flow = [r for r in rows if r["suite"] == "flow"]
    assert len(flow) == 5 and all(r["skipped"] and "dynamics support n in {1, 2}"
                                  in r["detail"] for r in flow)
    others = [r for r in rows if r["suite"] != "flow"]
    assert {r["suite"] for r in others} == {"commutators", "determining", "gauge"}
    assert all(r["pass"] for r in others)
    code, rows, err = run(capsys, "verify", "--suite", "flow", "--class", key, "--n", "3")
    assert code == 3 and rows == flow
    assert "0/0 checks passed, 5 skipped" in err


def test_verify_gauge_suite_seeded(capsys):
    code, rows, _ = run(capsys, "verify", "--suite", "gauge", "--seed", "7")
    assert code == 0
    assert rows[0]["violations"] == 0


def test_verify_unknown_inputs(capsys):
    code, _, err = run(capsys, "verify", "--suite", "determining",
                       "--class", "Nope")
    assert code == 2
    code, _, err = run(capsys, "verify", "--suite", "flow", "--gen", "Q:9")
    assert code == 2


def test_simulate_periodic_bump(capsys, tmp_path, sym1b_file):
    out = str(tmp_path / "run")
    code, rows, _ = run(capsys, "simulate", "--params", sym1b_file,
                        "--grid", "32,0.2", "--bc", "periodic",
                        "--init", "bump:ra=0.2,sa=0.1,w=1.0",
                        "--steps", "8", "--out", out)
    assert code == 0
    assert rows[0]["residual"] is not None
    traj = read_trajectory(out)
    assert len(traj) == 9
    assert os.path.exists(os.path.join(out, "manifest.json"))


def test_simulate_dirichlet_packet(capsys, tmp_path, se_file):
    out = str(tmp_path / "se")
    code, rows, _ = run(capsys, "simulate", "--params", se_file,
                        "--grid", "48,0.1", "--bc", "dirichlet",
                        "--init", "se-packet", "--t-final", "0.02",
                        "--out", out)
    assert code == 0
    assert rows[0]["residual"]["linf"] < 1e-4


def test_simulate_dirichlet_bump_holds_initial_ring(capsys, tmp_path):
    """Without a closed form the dirichlet ring keeps its initial values."""
    path = write_params(tmp_path, "sym1c.json", reference_points()["sym1c"])
    out = str(tmp_path / "held")
    code, _, _ = run(capsys, "simulate", "--params", path,
                     "--grid", "32,0.2", "--bc", "dirichlet",
                     "--init", "bump:ra=0.2,sa=0.1,w=1.0",
                     "--steps", "12", "--save-every", "4", "--out", out)
    assert code == 0
    traj = read_trajectory(out)
    assert len(traj) == 4
    ring = np.zeros(traj.grid.shape, dtype=bool)
    ring[[0, -1]] = True
    first = traj[0]
    for fld in traj.fields[1:]:
        assert np.array_equal(fld.r[ring], first.r[ring])
        assert np.array_equal(fld.s[ring], first.s[ring])
        assert not np.array_equal(fld.r, first.r)


@pytest.mark.parametrize("flags", [["--dt", "-0.001", "--steps", "1"],
                                   ["--dt", "nan", "--steps", "1"],
                                   ["--dt", "0"], ["--dt", "-0.001"],
                                   ["--dt", "nan"],
                                   ["--steps", "4", "--save-every", "0"],
                                   ["--steps", "4", "--save-every", "-2"]])
def test_simulate_rejects_bad_step_or_save_interval(capsys, tmp_path, se_file, flags):
    out = str(tmp_path / "bad")
    code, _, err = run(capsys, "simulate", "--params", se_file,
                       "--grid", "32,0.2", "--bc", "periodic",
                       "--init", "bump", *flags, "--out", out)
    assert code == 2
    assert "must be" in err
    assert not os.path.exists(out)


def test_simulate_refuses_periodic_se_packet(capsys, tmp_path, se_file):
    out = str(tmp_path / "se")
    code, _, err = run(capsys, "simulate", "--params", se_file,
                       "--grid", "128,0.0625", "--bc", "periodic",
                       "--init", "se-packet:k=1", "--t-final", "0.05",
                       "--out", out)
    assert code == 2
    assert "dirichlet" in err
    assert not os.path.exists(out)


def test_simulate_blowup_is_a_named_check_failure(capsys, tmp_path):
    """linear-se with every parameter scaled by 10 blows up at the default dt
    on this grid: exit 1 with one stderr line, no traceback, nothing written."""
    se = reference_points()["linear-se"]
    p = DGParams(n=1, **{k: 10 * getattr(se, k) for k in PARAM_NAMES})
    path = write_params(tmp_path, "se10.json", p)
    out = str(tmp_path / "blown")
    code, rows, err = run(capsys, "simulate", "--params", path,
                          "--grid", "64,0.125", "--bc", "periodic",
                          "--init", "bump", "--t-final", "0.5", "--out", out)
    assert code == 1 and rows == []
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith("failed: blow-up check: max|r| = ")
    assert "at step 7 (t=" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("init", ["bump:ra=nan", "bump:ra=1e6"])
def test_simulate_refuses_bad_initial_data(capsys, tmp_path, init):
    """Initial data that is not finite or already past the blow-up bound is
    an input error before the first step, not a failed blow-up check."""
    path = write_params(tmp_path, "sym1c.json", reference_points()["sym1c"])
    out = str(tmp_path / "run")
    code, rows, err = run(capsys, "simulate", "--params", path, "--grid", "32,0.2",
                          "--bc", "dirichlet", "--init", init, "--steps", "4",
                          "--out", out)
    assert code == 2 and rows == []
    assert err.startswith("error: initial field must be finite")
    assert len(err.splitlines()) == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("k", ["inf", "-inf", "1e308", "nan", "1e200"])
def test_simulate_refuses_planewave_without_finite_period_count(capsys, tmp_path, k):
    """A wave number whose count of periods over the grid is not finite is
    an input error that names k, with nothing written.  So is k = 1e200,
    whose period count is finite but whose frequency mu3 k² is not."""
    path = write_params(tmp_path, "sym1c.json", reference_points()["sym1c"])
    out = str(tmp_path / "run")
    code, rows, err = run(capsys, "simulate", "--params", path,
                          "--init", f"planewave:k={k}", "--steps", "4", "--out", out)
    assert code == 2 and rows == []
    assert err.startswith("error: planewave k=") and len(err.splitlines()) == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["simulate", "linearize", "gauge"])
def test_unwritable_output_path_is_input_error(capsys, tmp_path, command):
    path = write_params(tmp_path, "sym1c.json", reference_points()["sym1c"])
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    target = str(blocker / "out")
    if command == "gauge":
        traj = str(tmp_path / "run")
        assert main(["simulate", "--params", path, "--grid", "32,0.2",
                     "--steps", "4", "--out", traj]) == 0
        capsys.readouterr()
        argv = ["gauge", "--params", path, "--lambda", "2", "--traj", traj,
                "--traj-out", target]
    elif command == "simulate":
        argv = ["simulate", "--params", path, "--grid", "32,0.2", "--steps", "4",
                "--out", target]
    else:
        argv = ["linearize", "--params", path, "--out", target]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and target in last


@pytest.mark.parametrize("option", ["--out", "--traj-out"])
def test_gauge_failed_write_prints_no_row(capsys, tmp_path, option):
    """The gauge row goes to stdout only after every write has succeeded."""
    path = write_params(tmp_path, "sym1c.json", reference_points()["sym1c"])
    traj = str(tmp_path / "run")
    assert main(["simulate", "--params", path, "--grid", "32,0.2",
                 "--steps", "4", "--out", traj]) == 0
    capsys.readouterr()
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    argv = ["gauge", "--params", path, "--lambda", "2", "--traj", traj,
            option, str(blocker / "out")]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1].startswith("error: ")


def test_gauge_failed_write_removes_what_it_wrote(capsys, tmp_path):
    """--out is written before the trajectory; when the trajectory write then
    fails, the new parameter file is removed again."""
    path = write_params(tmp_path, "sym1c.json", reference_points()["sym1c"])
    traj = str(tmp_path / "run")
    assert main(["simulate", "--params", path, "--grid", "32,0.2",
                 "--steps", "4", "--out", traj]) == 0
    capsys.readouterr()
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    out = tmp_path / "g.json"
    code, rows, err = run(capsys, "gauge", "--params", path, "--lambda", "2",
                          "--out", str(out), "--traj", traj,
                          "--traj-out", str(blocker / "t"))
    assert code == 2 and rows == []
    assert err.splitlines()[-1].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("key, damage", [
    ("times", lambda m: m["times"].__setitem__(1, None)),
    ("grid", lambda m: m.pop("grid"))], ids=["null-time", "no-grid"])
def test_gauge_traj_bad_manifest_is_input_error(capsys, tmp_path, sym1b_file,
                                                key, damage):
    simdir = tmp_path / "sim"
    assert main(["simulate", "--params", sym1b_file, "--grid", "32,0.2",
                 "--bc", "periodic", "--init", "bump", "--steps", "4",
                 "--out", str(simdir)]) == 0
    capsys.readouterr()
    mpath = simdir / "manifest.json"
    manifest = json.loads(mpath.read_text())
    damage(manifest)
    mpath.write_text(json.dumps(manifest))
    code, rows, err = run(capsys, "gauge", "--params", sym1b_file,
                          "--lambda", "2", "--traj", str(simdir),
                          "--traj-out", str(tmp_path / "out"))
    assert code == 2 and rows == []
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert str(mpath) in err and f"key '{key}'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["other-point", "null-params", "no-params"])
def test_gauge_traj_of_another_point_is_input_error(capsys, tmp_path, case):
    """--traj must be a trajectory of --params: one whose manifest records
    another point, or none, is refused before anything is written."""
    pts = reference_points()
    sym1c = write_params(tmp_path, "sym1c.json", pts["sym1c"])
    generic = write_params(tmp_path, "generic.json", pts["generic"])
    simdir = tmp_path / "run1"
    assert main(["simulate", "--params", sym1c, "--grid", "32,0.2",
                 "--steps", "4", "--out", str(simdir)]) == 0
    capsys.readouterr()
    params = sym1c
    if case == "other-point":
        params = generic
    else:
        mpath = simdir / "manifest.json"
        manifest = json.loads(mpath.read_text())
        if case == "null-params":
            manifest["params"] = None
        else:
            del manifest["params"]
        mpath.write_text(json.dumps(manifest))
    out = tmp_path / "g.json"
    code, rows, err = run(capsys, "gauge", "--params", params, "--lambda", "2",
                          "--out", str(out), "--traj", str(simdir))
    assert code == 2 and rows == []
    assert len(err.splitlines()) == 1 and err.startswith(f"error: --traj {simdir}")
    assert not out.exists() and not (tmp_path / "run1-gauged").exists()


@pytest.mark.parametrize("flags", [["--t-final", "1e12"],
                                   ["--t-final", "1e300", "--dt", "1e-10"]])
def test_simulate_refuses_step_count_too_large(capsys, tmp_path, se_file, flags):
    """A step count that cannot be represented, or whose trajectory cannot
    be allocated, is an input error, not a traceback."""
    out = tmp_path / "run"
    code, rows, err = run(capsys, "simulate", "--params", se_file, "--grid",
                          "32,0.2", *flags, "--out", str(out))
    assert code == 2 and rows == [] and not out.exists()
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("error: ")
    assert "too large" in err


@pytest.mark.parametrize("case", ["stamps-underflow", "out-is-a-file", "out-under-a-file"])
def test_simulate_refuses_before_any_step(capsys, tmp_path, monkeypatch, case):
    """A run whose saved time stamps the residual would refuse (dt = 1e-110
    underflows h1*h2*(h1+h2)), or whose --out names an existing file or a
    path under one, is an input error before evolve is called, and nothing
    is written."""
    path = write_params(tmp_path, "sym1c.json", reference_points()["sym1c"])

    def no_evolve(*args, **kwargs):
        raise AssertionError("evolve was called")

    monkeypatch.setattr(cli, "evolve", no_evolve)
    blocker = tmp_path / "o"
    blocker.write_text("kept")
    out = {"stamps-underflow": tmp_path / "run", "out-is-a-file": blocker,
           "out-under-a-file": blocker / "run"}[case]
    steps = ["--dt", "1e-110", "--steps", "100000"] if case == "stamps-underflow" \
        else ["--steps", "10"]
    before = sorted(os.listdir(tmp_path))
    code, rows, err = run(capsys, "simulate", "--params", path, "--grid", "64,0.125",
                          *steps, "--out", str(out))
    assert code == 2 and rows == []
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert ("h1*h2*(h1+h2)" if case == "stamps-underflow" else str(out)) in err
    assert sorted(os.listdir(tmp_path)) == before and blocker.read_text() == "kept"


@pytest.mark.parametrize("command", ["simulate", "linearize"])
@pytest.mark.parametrize("case", ["empty", "existing-file"])
def test_bad_out_is_refused_before_any_work(capsys, tmp_path, monkeypatch,
                                            command, case):
    """An --out that is empty or names an existing file is an input error
    before simulate evolves or linearize runs its study: one error line
    naming --out, and nothing is written."""
    path = write_params(tmp_path, "sym1b.json", reference_points()["sym1b"])

    def not_called(*args, **kwargs):
        raise AssertionError("the run was started")

    monkeypatch.setattr(cli, "evolve", not_called)
    monkeypatch.setattr(cli, "convergence", not_called)
    monkeypatch.chdir(tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_text("kept")
    out = "" if case == "empty" else str(blocker)
    argv = ["simulate", "--params", path, "--grid", "32,0.2", "--steps", "4"] \
        if command == "simulate" else ["linearize", "--params", path]
    before = sorted(os.listdir(tmp_path))
    code, rows, err = run(capsys, *argv, "--out", out)
    assert code == 2 and rows == []
    assert len(err.splitlines()) == 1 and err.startswith("error: --out ")
    assert sorted(os.listdir(tmp_path)) == before and blocker.read_text() == "kept"


def test_simulate_grid_whose_step_overflows_is_input_error(capsys, tmp_path,
                                                          se_file):
    """dx = 1e300 puts the grid bounds at 7.5e300, whose squares overflow:
    the grid is refused before any step."""
    out = tmp_path / "run"
    code, rows, err = run(capsys, "simulate", "--params", se_file, "--grid",
                          "16,1e300", "--out", str(out))
    assert code == 2 and rows == [] and not out.exists()
    assert "Traceback" not in err
    assert "its square summed over the axes overflows" in err


@pytest.mark.parametrize("spec, message", [
    ("16,inf", "a bound is not finite"),
    ("16,1e300", "square summed over the axes overflows"),
    ("16,1e-300", "not a finite positive normal float")])
@pytest.mark.parametrize("command", ["simulate", "linearize", "verify"])
def test_degenerate_grid_is_input_error(capsys, tmp_path, sym1b_file, command,
                                        spec, message):
    """A grid with an infinite bound, a bound whose square overflows or a
    spacing whose square underflows is refused: exit 2, one error line, no
    rows and nothing written."""
    out = tmp_path / "run"
    argv = {"simulate": ["simulate", "--params", sym1b_file, "--steps", "2",
                         "--out", str(out)],
            "linearize": ["linearize", "--params", sym1b_file, "--out", str(out)],
            "verify": ["verify", "--suite", "flow", "--class", "sym1b"]}[command]
    code, rows, err = run(capsys, *argv, "--grid", spec)
    assert code == 2 and rows == [] and not out.exists()
    assert err.startswith("error: grid ") and len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize("init", ["bump:w=0", "bump:w=1e-200", "bump:w=nan",
                                  "bump:w=1e200", "bump:sa=inf"])
def test_simulate_refuses_bump_before_any_warning(capsys, tmp_path, se_file, init):
    """A bump width whose square is not a finite positive normal float, or a
    non-finite amplitude, is an input error raised before numpy computes
    the profile, so no RuntimeWarning precedes the error line."""
    import warnings

    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rows, err = run(capsys, "simulate", "--params", se_file,
                              "--init", init, "--steps", "2", "--out", str(out))
    assert code == 2 and rows == [] and not out.exists()
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_simulate_narrow_bump_runs_without_warning(capsys, tmp_path, se_file):
    """w = 1.6e-154 squares to a normal float, but -x²/w² overflows off the
    centre: the profile is 0 there, with no RuntimeWarning."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rows, _ = run(capsys, "simulate", "--params", se_file, "--init",
                            "bump:w=1.6e-154", "--steps", "2",
                            "--out", str(tmp_path / "run"))
    assert code == 0 and len(rows) == 1


# the grid of --grid 64,0.125 --bc dirichlet
INIT_GRID = Grid.make(npts=64, extent=(-3.9375, 3.9375))


def _bump_trajectory(grid, count=3):
    """``count`` slices of a small bump on ``grid``, at times 0, 0.1, ..."""
    x = grid.coords()[0]
    bump = np.exp(-x * x)
    return Trajectory(grid, 0.1 * np.arange(count),
                      np.stack([0.2 * bump] * count), np.stack([0.1 * bump] * count))


@pytest.mark.parametrize("damage", ["missing", "one-row", "wrapped-phase",
                                    "other-grid", "other-bc"])
def test_simulate_bad_init_file_is_input_error(capsys, tmp_path, se_file, damage):
    """A trajectory directory that is missing, whose stack has another shape
    than its manifest's time stamps and grid, whose last slice has a phase
    jumping by about 2 pi between neighbours (kept in (-pi, pi] instead of
    unwrapped), or that was written on another grid or boundary rule than
    --grid and --bc, is refused with one error line before any step, and
    nothing is written."""
    init = tmp_path / "init-traj"
    if damage == "one-row":  # the manifest lists 3 time stamps
        write_trajectory(_bump_trajectory(INIT_GRID), init)
        np.save(init / "r.npy", np.zeros((1, 64)))
    elif damage == "wrapped-phase":
        traj = _bump_trajectory(INIT_GRID)
        traj.s[-1] = np.angle(np.exp(3j * INIT_GRID.coords()[0]))
        write_trajectory(traj, init)
    elif damage == "other-grid":  # 64 points, as --grid, but on (-40, 40)
        write_trajectory(_bump_trajectory(Grid.make(npts=64, extent=(-40.0, 40.0))),
                         init)
    elif damage == "other-bc":
        assert run(capsys, "simulate", "--params", se_file, "--grid", "64,0.125",
                   "--bc", "periodic", "--steps", "2", "--out", str(init))[0] == 0
    out = str(tmp_path / "run")
    code, rows, err = run(capsys, "simulate", "--params", se_file,
                          "--grid", "64,0.125", "--bc", "dirichlet",
                          "--init", f"file:{init}", "--t-final", "0.05", "--out", out)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "init-traj" in err
    assert rows == []
    assert not os.path.exists(out)
    if damage.startswith("other"):
        assert repr(INIT_GRID) in err and repr(read_trajectory(init).grid) in err


def test_simulate_init_dir_without_stack_is_input_error(capsys, tmp_path, se_file):
    """A directory with a manifest but no r.npy is refused with one error
    line naming the stack, no warning before it, and nothing is written."""
    import warnings

    init = tmp_path / "init-traj"
    write_trajectory(_bump_trajectory(INIT_GRID), init)
    (init / "r.npy").unlink()
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rows, err = run(capsys, "simulate", "--params", se_file,
                              "--grid", "64,0.125", "--bc", "dirichlet",
                              "--init", f"file:{init}", "--t-final", "0.05",
                              "--out", str(out))
    assert [str(w.message) for w in caught] == []
    assert code == 2 and rows == [] and not out.exists()
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "r.npy" in err


def test_simulate_refuses_init_file_with_empty_path(capsys, tmp_path, monkeypatch,
                                                   se_file):
    """``--init file:`` names no directory: it is refused with one error line
    before anything is read, even in a working directory that holds a
    trajectory on the same grid, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    write_trajectory(_bump_trajectory(INIT_GRID), tmp_path)
    out = tmp_path / "run"
    code, rows, err = run(capsys, "simulate", "--params", se_file,
                          "--grid", "64,0.125", "--bc", "dirichlet",
                          "--init", "file:", "--t-final", "0.05", "--out", str(out))
    assert code == 2 and rows == [] and not out.exists()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: --init file: needs a trajectory directory")


def test_simulate_continues_from_a_trajectory_directory(capsys, tmp_path, sym1b_file):
    """A run started with --init file:DIR begins at the last slice of DIR,
    bit for bit and at its time stamp, and a gauge --traj output, whose
    manifest records the gauged point, starts a run as well."""
    grid = ["--grid", "32,0.2", "--bc", "periodic"]
    first, second = tmp_path / "r1", tmp_path / "r2"
    assert run(capsys, "simulate", "--params", sym1b_file, *grid, "--init", "bump",
               "--steps", "4", "--out", str(first))[0] == 0
    code, rows, _ = run(capsys, "simulate", "--params", sym1b_file, *grid,
                        "--init", f"file:{first}", "--steps", "4",
                        "--out", str(second))
    assert code == 0 and len(rows) == 1
    last, start = read_trajectory(first)[-1], read_trajectory(second)[0]
    assert start.t == last.t > 0
    assert np.array_equal(start.r, last.r) and np.array_equal(start.s, last.s)

    gauged, image = tmp_path / "r1-g", str(tmp_path / "image.json")
    assert run(capsys, "gauge", "--params", sym1b_file, "--lambda", "2", "--gamma",
               "1", "--out", image, "--traj", str(first),
               "--traj-out", str(gauged))[0] == 0
    code, rows, _ = run(capsys, "simulate", "--params", image, *grid,
                        "--init", f"file:{gauged}", "--steps", "4",
                        "--out", str(tmp_path / "r3"))
    assert code == 0 and len(rows) == 1
    assert np.array_equal(read_trajectory(tmp_path / "r3")[0].s,
                          read_trajectory(gauged)[-1].s)


@pytest.mark.parametrize("init,item", [
    ("bump:ra=0.2,sb=0.1", "'sb=0.1'"), ("planewave:kk=3", "'kk=3'"),
    ("se-packet:w=1", "'w=1'"), ("bump:ra=0.2,ra=0.5", "'ra=0.5'"),
    ("bump:ra=0.2,", "''"), ("bump:ra", "'ra'"), ("planewave:k=x", "'k=x'")])
def test_simulate_refuses_init_items_it_would_ignore(capsys, tmp_path, se_file,
                                                     init, item):
    """An --init item whose key the kind does not take, that repeats a key or
    that has no float value is an input error naming the item."""
    out = tmp_path / "run"
    code, rows, err = run(capsys, "simulate", "--params", se_file, "--init", init,
                          "--steps", "2", "--out", str(out))
    assert code == 2 and rows == [] and not out.exists()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: --init {init.partition(':')[0]}: item {item} "
                          "is not key=float")


@pytest.mark.parametrize("init", [
    "se-packet:k=inf", "se-packet:k=-inf", "se-packet:k=1e308", "se-packet:k=nan",
    "se-packet:b0=-inf", "se-packet:b0=nan", "se-packet:b0=-1e308"])
def test_simulate_refuses_se_packet_not_finite(capsys, tmp_path, se_file, init):
    """A packet that is not finite on the grid is refused with a message that
    names k and b0, and no numpy warning before it."""
    import warnings

    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rows, err = run(capsys, "simulate", "--params", se_file,
                              "--bc", "dirichlet", "--init", init, "--steps", "2",
                              "--out", str(out))
    assert code == 2 and rows == [] and not out.exists()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: se-packet k=") and ", b0=" in err


def test_linearize_heat_branch(capsys, tmp_path, sym1b_file):
    out = str(tmp_path / "lin")
    code, rows, _ = run(capsys, "linearize", "--params", sym1b_file,
                        "--out", out)
    assert code == 0
    row = rows[0]
    assert row["branch"] == "heat" and row["pass"]
    assert 3.0 <= row["convergence_ratio"] <= 5.0
    assert 0.0 < row["dg_floor"] < row["residual"]["l2"]
    assert os.path.exists(os.path.join(out, "manifest.json"))


@pytest.fixture()
def sym1b_neg_file(tmp_path):
    # a Sym1b point with nu1 < 0: phi+ solves the backward heat equation
    p = DGParams.from_json_dict({"n": 1, "nu1": "-1", "nu2": "-1", "mu0": "0",
                                 "mu1": "-2", "mu2": "3/4", "mu3": "1",
                                 "mu4": "2", "mu5": "-3/8"})
    return write_params(tmp_path, "sym1b-neg.json", p)


def test_linearize_heat_branch_negative_nu1(capsys, tmp_path, sym1b_neg_file):
    code, rows, _ = run(capsys, "linearize", "--params", sym1b_neg_file,
                        "--out", str(tmp_path / "lin"))
    assert code == 0
    row = rows[0]
    assert row["branch"] == "heat" and row["pass"]
    assert 3.0 <= row["convergence_ratio"] <= 5.0


def test_verify_flow_negative_nu1(capsys, sym1b_neg_file):
    code, rows, _ = run(capsys, "verify", "--suite", "flow",
                        "--params", sym1b_neg_file)
    assert code == 0
    assert len(rows) == 5
    assert all(r["pass"] and 3.0 <= r["ratio_l2"] <= 5.0 for r in rows)


@pytest.mark.parametrize("n, key, gauge", [
    (1, "sym1c", (1, 0)), (2, "sym1c", (1, 0)), (1, "sym1c-nu2", (3, -2))],
    ids=["sym1c", "sym1c-n2", "sym1c-nu2-gauged"])
def test_linearize_se_branch(capsys, tmp_path, n, key, gauge):
    """Both sides of the gauge converge at order 2, and it round-trips."""
    p = gauge_act_params(GaugeElement(*map(Fraction, gauge)), reference_points(n)[key])
    code, rows, _ = run(capsys, "linearize", "--params", write_params(tmp_path, "p.json", p),
                        "--out", str(tmp_path / "lin"))
    row = rows[0]
    assert code == 0 and row["branch"] == "schroedinger" and row["pass"]
    assert 3.0 <= row["convergence_ratio"] <= 5.0
    assert 3.0 <= row["dg_convergence_ratio"] <= 5.0
    assert 0.0 < row["se_floor"] < row["se_residual"]["l2"]
    assert 0.0 < row["dg_floor"] < row["dg_residual"]["l2"]
    assert row["roundtrip_error"] < 1e-10


def test_linearize_refuses_times_that_overflow_the_derivative(capsys, tmp_path):
    path = write_params(tmp_path, "sym1c.json", reference_points()["sym1c"])
    out = tmp_path / "lin"
    code, rows, err = run(capsys, "linearize", "--params", path,
                          "--t-final", "1e300", "--out", str(out))
    assert code == 2 and rows == [] and not out.exists()
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_linearize_inapplicable(capsys, tmp_path):
    path = write_params(tmp_path, "sym0.json", reference_points()["generic"])
    code, rows, err = run(capsys, "linearize", "--params", path)
    assert code == 3
    assert err == ("inapplicable: point classifies as Sym0; linearization needs "
                   "the subfamily iota2=iota3=iota4=iota5=0 with iota1 != 0\n")


def test_gauge_command(capsys, tmp_path):
    path = write_params(tmp_path, "sym1c.json", reference_points()["sym1c"])
    out = str(tmp_path / "gauged.json")
    code, rows, _ = run(capsys, "gauge", "--params", path,
                        "--lambda", "2", "--gamma", "3", "--out", out)
    assert code == 0
    row = rows[0]
    assert row["params"]["nu1"] == "1/2"
    assert row["params"]["nu2"] == "-3/4"
    assert row["params"]["mu2"] == "17/4"
    assert row["class_before"] == row["class_after"] == "Sym1c"
    assert row["invariants"]["iota1"] == "1"
    q = DGParams.load(out)
    assert str(q.mu1) == "-3/2"


def test_gauge_rejects_zero_lambda(capsys, tmp_path):
    path = write_params(tmp_path, "p.json", reference_points()["generic"])
    code, _, _ = run(capsys, "gauge", "--params", path, "--lambda", "0")
    assert code == 2


def test_gauge_takes_negative_rationals_as_separate_arguments(capsys, tmp_path):
    """--lambda -1/2 is a value, not an option, and gives the same row as
    --lambda=-1/2."""
    path = write_params(tmp_path, "p.json", reference_points()["sym1c"])
    code, split, _ = run(capsys, "gauge", "--params", path,
                         "--lambda", "-1/2", "--gamma", "-2/3")
    assert code == 0
    code, joined, _ = run(capsys, "gauge", "--params", path,
                          "--lambda=-1/2", "--gamma=-2/3")
    assert code == 0
    assert split == joined
    assert (split[0]["Lambda"], split[0]["gamma"]) == ("-1/2", "-2/3")


def test_gauge_transforms_trajectory(capsys, tmp_path, sym1b_file):
    simdir = str(tmp_path / "sim")
    run(capsys, "simulate", "--params", sym1b_file, "--grid", "32,0.2",
        "--bc", "periodic", "--init", "bump", "--steps", "4", "--out", simdir)
    outdir = str(tmp_path / "sim-g")
    code, rows, _ = run(capsys, "gauge", "--params", sym1b_file,
                        "--lambda", "2", "--gamma", "1",
                        "--traj", simdir, "--traj-out", outdir)
    assert code == 0
    orig = read_trajectory(simdir)
    moved = read_trajectory(outdir)
    np.testing.assert_allclose(moved[0].s, 1.0 * orig[0].r + 2.0 * orig[0].s,
                               atol=1e-10)


@pytest.mark.parametrize("damage", ["missing", "malformed"])
def test_gauge_traj_bad_stack_is_input_error(capsys, tmp_path, sym1b_file, damage):
    simdir = tmp_path / "sim"
    run(capsys, "simulate", "--params", sym1b_file, "--grid", "32,0.2",
        "--bc", "periodic", "--init", "bump", "--steps", "4", "--out", str(simdir))
    assert not list(simdir.glob("*.csv"))
    if damage == "missing":
        (simdir / "s.npy").unlink()
    else:
        (simdir / "s.npy").write_bytes(b"not an array")
    code, rows, err = run(capsys, "gauge", "--params", sym1b_file,
                          "--lambda", "2", "--traj", str(simdir),
                          "--traj-out", str(tmp_path / "out"))
    assert code == 2
    assert "s.npy" in err
    assert rows == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--lambda", "1e-400"], ["--lambda", "1e400"],
                                   ["--lambda", "2", "--gamma", "1e400"]],
                         ids=["lambda-1e-400", "lambda-1e400", "gamma-1e400"])
def test_gauge_traj_refuses_gauge_without_float_value(capsys, tmp_path, sym1b_file,
                                                      flags):
    """A Lambda whose float is 0.0 (it would erase the phase) or a Lambda or
    gamma past the float range cannot act on a trajectory: exit 2, one error
    line and nothing written.  The exact gauge on the parameters alone still
    runs."""
    simdir = str(tmp_path / "sim")
    assert main(["simulate", "--params", sym1b_file, "--grid", "16,0.5",
                 "--steps", "3", "--out", simdir]) == 0
    capsys.readouterr()
    code, rows, err = run(capsys, "gauge", "--params", sym1b_file, *flags,
                          "--traj", simdir)
    assert code == 2 and rows == []
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not os.path.exists(simdir + "-gauged")
    code, rows, _ = run(capsys, "gauge", "--params", sym1b_file, *flags)
    assert code == 0 and len(rows) == 1


def test_verify_all_suites(capsys):
    code, rows, err = run(capsys, "verify", "--seed", "3")
    assert code == 0
    suites = {r["suite"] for r in rows}
    assert suites == {"commutators", "determining", "flow", "gauge"}
    assert all(r["pass"] for r in rows)


def test_verify_gauge_suite_deterministic(capsys):
    _, rows1, _ = run(capsys, "verify", "--suite", "gauge", "--seed", "11")
    _, rows2, _ = run(capsys, "verify", "--suite", "gauge", "--seed", "11")
    assert rows1 == rows2


# -- option surface -----------------------------------------------------------

SURFACE = {
    "classify": {"--params"},
    "verify": {"--params", "--grid", "--gen", "--eps", "--seed", "--n",
               "--class", "--suite"},
    "simulate": {"--params", "--grid", "--dt", "--out", "--bc", "--init",
                 "--t-final", "--steps", "--save-every"},
    "linearize": {"--params", "--grid", "--out", "--t-final"},
    "gauge": {"--params", "--out", "--lambda", "--gamma", "--traj", "--traj-out"},
}

# options each command accepted, and ignored, before it declared only its own;
# verify's --subfamily, which the point's own class replaced; and the --tol of
# verify and linearize, which loosened a correctness check
UNREAD = {
    "classify": ["--grid", "--dt", "--gen", "--eps", "--out", "--seed", "--tol", "--n"],
    "verify": ["--dt", "--out", "--subfamily", "--tol"],
    "simulate": ["--gen", "--eps", "--seed", "--tol", "--n"],
    "linearize": ["--dt", "--gen", "--eps", "--seed", "--n", "--tol"],
    "gauge": ["--grid", "--dt", "--gen", "--eps", "--seed", "--tol", "--n"],
}
VALUES = {"--grid": "32,0.2", "--dt": "0.001", "--gen": "B:1", "--eps": "0.3",
          "--out": "out", "--seed": "1", "--tol": "0.1", "--n": "2",
          "--subfamily": "GalSub"}


def test_each_command_declares_only_what_it_reads():
    ap = build_parser()
    (subs,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {name: {opt for a in sp._actions for opt in a.option_strings
                       if opt not in ("-h", "--help")}
                for name, sp in subs.choices.items()}
    assert declared == SURFACE
    assert sum(map(len, declared.values())) == 28


def _argparse_exit(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("command,option", [(c, o) for c, opts in UNREAD.items()
                                            for o in opts])
def test_unread_option_is_refused(capsys, se_file, command, option):
    code, err = _argparse_exit(capsys, [command, "--params", se_file,
                                        option, VALUES[option]])
    assert code == 2
    assert "unrecognized arguments" in err and option in err


@pytest.mark.parametrize("command", ["verify", "simulate", "linearize", "gauge"])
def test_one_params_file_outside_classify(capsys, se_file, sym1b_file, command):
    code, err = _argparse_exit(capsys, [command, "--params", se_file, sym1b_file])
    assert code == 2
    assert sym1b_file in err


# -- zero is a value, not "unset" ---------------------------------------------

@pytest.mark.parametrize("command,option,value", [
    ("simulate", "--t-final", "0"), ("simulate", "--t-final", "inf"),
    ("linearize", "--t-final", "0"),
    ("simulate", "--steps", "-1"), ("verify", "--eps", "nan"),
    ("verify", "--eps", "inf")])
def test_out_of_range_option_names_itself(capsys, se_file, command, option, value):
    code, err = _argparse_exit(capsys, [command, "--params", se_file, option, value])
    assert code == 2
    assert f"argument {option}: must be" in err


@pytest.mark.parametrize("flags,slices", [
    (["--t-final", "0.01"], 2), (["--steps", "0"], 1),
    (["--t-final", "0.1", "--save-every", "100"], 2)],
    ids=["one-step", "steps-0", "save-every-100"])
def test_simulate_refuses_fewer_than_three_slices(capsys, tmp_path, se_file,
                                                  flags, slices):
    """A run that would save fewer than three slices has no residual: it is
    refused before any step, and nothing is written."""
    out = tmp_path / "short"
    code, rows, err = run(capsys, "simulate", "--params", se_file, "--grid", "32,0.25",
                          "--bc", "periodic", *flags, "--out", str(out))
    assert code == 2 and rows == [] and not out.exists()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and f"give {slices} slice(s)" in err


# -- points and grids of the point's own dimension ------------------------------

def _n2_file(tmp_path, key):
    return write_params(tmp_path, f"{key}-n2.json", reference_points(2)[key])


@pytest.mark.parametrize("key", ["sym1b", "sym1c"])
def test_verify_flow_on_n2_point(capsys, tmp_path, key):
    code, rows, _ = run(capsys, "verify", "--suite", "flow",
                        "--params", _n2_file(tmp_path, key))
    assert code == 0
    assert len(rows) == 5
    assert all(r["pass"] and 3.0 <= r["ratio_l2"] <= 5.0 for r in rows)


def test_simulate_grid_has_the_point_dimension(capsys, tmp_path):
    out = tmp_path / "run"
    code, _, _ = run(capsys, "simulate", "--params", _n2_file(tmp_path, "sym1c"),
                     "--grid", "16,0.5", "--steps", "2", "--out", str(out))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"]["n"] == manifest["params"]["n"] == 2


def test_simulate_refuses_n3_point(capsys, tmp_path):
    path = write_params(tmp_path, "sym1c-n3.json", reference_points(3)["sym1c"])
    out = tmp_path / "run"
    code, rows, err = run(capsys, "simulate", "--params", path, "--out", str(out))
    assert code == 2
    assert "n in {1, 2}" in err
    assert rows == [] and not out.exists()


@pytest.mark.parametrize("flags,key,n", [
    (["--suite", "flow"], "sym1c", None),
    (["--suite", "flow"], "sym1c", 2),
    (["--suite", "determining"], "generic", None)])
def test_verify_class_matches_params_file(capsys, tmp_path, flags, key, n):
    by_file = write_params(tmp_path, f"{key}.json", reference_points(n or 1)[key])
    dim = [] if n is None else ["--n", str(n)]
    by_class = run(capsys, "verify", *flags, "--class", key, *dim)
    assert by_class == run(capsys, "verify", *flags, "--params", by_file)
    default = run(capsys, "verify", *flags, *dim)
    assert default[1] != by_class[1]


# -- the CLI contract over drawn argument vectors --------------------------------

# Each option's candidates: (valid values, bad ones), the bad ones zero,
# negative, nan, inf, huge or malformed.  Grids keep 16-64 points and runs stay
# a few steps long: --n, --steps and a grid's point count stay small, and the
# huge --t-final is too large for any drawn grid and --save-every to run.
_GRIDS = (["16,0.5", "33,0.25", "64,0.125"],
          ["0,0.1", "-16,0.1", "16,0", "16,-0.25", "16,nan", "16,inf",
           "16,1e300", "64", "x,y", ""])
_PARAMS = (["sym1b.json", "sym1c.json", "linear-se.json", "generic.json",
            "sym1b-n2.json"],
           ["sym1c-n3.json", "malformed.json", "missing.json", "plain",
            *(f"{case}.json" for case in sorted(MALFORMED_PARAMS))])
_OUTS = (["out", "nested/out"], ["plain/out"])
CONTRACT = {
    "verify": {
        "--params": _PARAMS, "--grid": _GRIDS,
        "--gen": ([[], ["B:1"], ["P:1", "H"], ["Yf:z^2"], ["L:1,2"]],
                  [["Zheat"], ["Q"], ["P:0"], ["Yf:x1"], ["Yf:1/0"],
                   ["Yf:z^1000000000000"], [DEEP_PAYLOAD]]),
        "--eps": (["0.3", "-0.2"], ["0", "nan", "inf", "1e300", "x"]),
        "--seed": (["0", "7", "-3"], ["99999999999999999999", "x"]),
        "--n": (["1", "2"], ["3", "0", "-1", "x"]),
        "--class": (["sym1b", "sym1c", "sym3", "galsub", "generic"], ["bogus", ""]),
        "--suite": (["commutators", "determining", "flow", "gauge", "all"], ["x"]),
    },
    "simulate": {
        "--params": _PARAMS, "--grid": _GRIDS, "--out": _OUTS,
        "--dt": (["0.0005"], ["0", "-0.001", "nan", "inf", "1e300", "x"]),
        "--bc": (["periodic", "dirichlet"], ["x"]),
        "--init": (["bump", "bump:ra=0.2,sa=0.1,w=1.0", "planewave:k=1",
                    "se-packet", "file:traj"],
                   ["bump:ra=nan", "bump:ra=1e300", "bump:w=0", "bump:ra",
                    "file:missing-traj", "file:plain", "x", "planewave:k=inf",
                    "planewave:k=nan", "se-packet:k=inf", "bump:sb=1"]),
        "--t-final": (["0.002", "0.01"], ["0", "-1", "nan", "inf", "1e300", "x"]),
        "--steps": (["0", "3"], ["-1", "nan", "x"]),
        "--save-every": (["1", "2"], ["0", "-1", "1000000000000", "x"]),
    },
    "linearize": {
        "--params": _PARAMS, "--grid": _GRIDS, "--out": _OUTS,
        "--t-final": (["0.2", "0.05"], ["0", "-1", "nan", "inf", "1e300", "x"]),
    },
    "gauge": {
        "--params": _PARAMS,
        "--out": (["g.json", "nested/g.json"], ["plain/g.json"]),
        "--lambda": (["2", "-1/2"], ["0", "nan", "inf", "1e300", "1/0", "x",
                                     "1e400", "1e-400"]),
        "--gamma": (["0", "-2/3"], ["nan", "1e300", "1/0", "x", "1e400"]),
        "--traj": (["traj"], ["missing-traj", "plain"]),
        "--traj-out": (["traj-out", "nested/t"], ["plain/t"]),
    },
}
DEFAULT_OUT = {"simulate": ["dgsym-run"], "linearize": ["dgsym-linearize"]}


def test_contract_declares_every_option():
    assert {c: set(opts) for c, opts in CONTRACT.items()} == \
        {c: SURFACE[c] for c in CONTRACT}


def _outputs(command, opts):
    """Paths the run may write: explicit --out/--traj-out, else the defaults."""
    if command == "gauge":
        paths = [opts[o] for o in ("--out", "--traj-out") if o in opts]
        if "--traj" in opts and "--traj-out" not in opts:
            paths.append(opts["--traj"].rstrip("/") + "-gauged")
        return paths
    if command == "verify":
        return []
    return [opts["--out"]] if "--out" in opts else DEFAULT_OUT[command]


def test_cli_contract_on_drawn_arguments(capsys, tmp_path, monkeypatch):
    """Every drawn argument vector exits 0, 1, 2 or 3 with no traceback, an
    input error (exit 2) leaves no output behind, and the code agrees with the
    rows: exit 0 has no failed or error row, and exit 1 has a failed row or a
    'failed:' line."""
    import shutil

    from hypothesis import given, settings
    from hypothesis import strategies as st

    monkeypatch.chdir(tmp_path)
    pts1, pts2, pts3 = reference_points(1), reference_points(2), reference_points(3)
    for name, p in (("sym1b", pts1["sym1b"]), ("sym1c", pts1["sym1c"]),
                    ("linear-se", pts1["linear-se"]), ("generic", pts1["generic"]),
                    ("sym1b-n2", pts2["sym1b"]), ("sym1c-n3", pts3["sym1c"])):
        p.dump(tmp_path / f"{name}.json")
    (tmp_path / "malformed.json").write_text("{")
    for case, (text, _) in MALFORMED_PARAMS.items():
        (tmp_path / f"{case}.json").write_text(text)
    (tmp_path / "plain").write_text("a regular file")
    assert main(["simulate", "--params", "sym1b.json", "--grid", "16,0.5",
                 "--steps", "3", "--out", "traj"]) == 0

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from(sorted(CONTRACT)))
        chosen = draw(st.sets(st.sampled_from(sorted(CONTRACT[command]))))
        opts = {}
        for option in sorted(chosen):  # one option in four draws a bad value
            valid, bad = CONTRACT[command][option]
            opts[option] = draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 0
                                                else valid))
        args = [command]
        for option, value in opts.items():
            args += [option, *value] if isinstance(value, list) else [option, value]
        return command, opts, args

    @given(argv())
    @settings(max_examples=60, deadline=None)
    def check(drawn):
        command, opts, args = drawn
        outputs = _outputs(command, opts)
        for path in outputs:
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.isfile(path):
                os.remove(path)
        try:
            code = main(args)
        except SystemExit as exc:  # argparse refuses the vector
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), (args, code, err)
        assert "Traceback" not in err, (args, err)
        if code == 2:
            left = [path for path in outputs if os.path.exists(path)]
            assert not left, (args, left)
        # argparse's refusal exits 2 with no rows: the checks below are main's
        rows = [json.loads(line) for line in out.splitlines() if line.strip()]
        failed = any(row.get("pass") is False for row in rows)
        if code == 0:
            assert not failed and not any("error" in row for row in rows), (args, rows)
        if code == 1:
            assert failed or "failed: " in err, (args, rows, err)

    check()
