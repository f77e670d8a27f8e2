import filecmp

import pytest

import degenpde.cli
from degenpde.cli import bundled_spec_path, list_presets, main

SMALL_SPEC = """\
[experiment]
name = small
seed = 1
nu = 0.5
coefficients = model:v=1

[grid]
s = 0 1 9
y2 = -1 1 9
t = 0 1 9

[problem]
solution = x + t

[check manufactured]
type = manufactured_error
tol = 1e-10

[check harnack]
type = harnack_quotient
s0 = 0.5
y0 = 0
t0 = 1.0
rho = 0.4
"""


def test_list_presets_contents(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "model:v=" in out
    assert "random:seed=" in out
    assert "model_manufactured" in out
    assert out.strip()


def test_bundled_experiment_runs_and_is_deterministic(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["run", "model_manufactured", "--out", str(out1)]) == 0
    assert main(["run", "model_manufactured", "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert "summary.txt" in names
    assert "manufactured.report.txt" in names
    assert "manufactured.records" in names
    assert "manufactured.dat" in names
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    assert mismatch == [] and errors == []
    summary = (out1 / "summary.txt").read_text()
    assert "result = PASS" in summary
    assert "failed = 0" in summary


def test_bundled_schauder_values_are_pinned(tmp_path):
    assert main(["run", "model_manufactured", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "schauder.report.txt").read_text().splitlines()
    values = dict(line.split(" = ", 1) for line in lines)
    assert values["lhs"] == "3.1250000000085896"
    assert values["rhs.sup_unit"] == "1.8750000000000078"
    assert values["rhs.data_norm"] == "4.7654324930590519e-11"
    assert values["measured_constant"] == "1.6666666666288814"


def test_schauder_runs_on_random_coefficients(tmp_path):
    spec = tmp_path / "random.spec"
    spec.write_text(
        "[experiment]\nname = random\nnu = 0.5\ncoefficients = random:seed=3\n"
        "\n[grid]\ns = 0 1 9\ny2 = -1 1 9\nt = 0 1 9\n"
        "\n[problem]\nsolution = x + t\n"
        "\n[check schauder]\ntype = schauder_ratio\nt0 = 0.75\n")
    assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "schauder.report.txt").read_text().splitlines()
    values = dict(line.split(" = ", 1) for line in lines)
    assert float(values["rhs.coefficient_norm"]) > 1.0
    assert values["provenance"] == "grid 9x9x9; r=0.5 alpha=0.5"


def test_threads_option_is_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "model_manufactured", "--out", str(tmp_path / "out"), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_out_path_that_is_a_file_exits_2_before_the_solve(tmp_path, capsys,
                                                             monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("the solve was reached")

    monkeypatch.setattr(degenpde.cli, "solve_ivbp", solve)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    assert main(["run", "model_manufactured", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: --out: ")
    assert taken.read_text() == "a file, not a directory\n"


def test_coefficients_failing_on_the_grid_exit_2_before_the_out_directory(tmp_path, capsys):
    spec = tmp_path / "huge_v.spec"
    text = bundled_spec_path("model_manufactured").read_text()
    spec.write_text(text.replace("coefficients = model:v=1\n",
                                 "coefficients = model:v=1e300\n"))
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: [experiment] coefficients: coefficient conditions "
                          "violated on the grid: bound_b margin -")
    assert not out.exists()


def test_invalid_nu_rejected(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text(
        "[experiment]\nname = bad\nseed = 1\nnu = 1.5\ncoefficients = identity\n"
        "\n[grid]\ns = 0 1 9\ny2 = -1 1 9\nt = 0 1 9\n"
        "\n[problem]\nsolution = x\n"
        "\n[check c]\ntype = manufactured_error\n")
    assert main(["run", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "nu = 1.5" in err
    assert "(0, 1)" in err


def test_unknown_check_type_rejected(tmp_path):
    spec = tmp_path / "odd.spec"
    spec.write_text(
        "[experiment]\nname = odd\nseed = 1\nnu = 0.5\ncoefficients = model:v=1\n"
        "\n[grid]\ns = 0 1 9\ny2 = -1 1 9\nt = 0 1 9\n"
        "\n[problem]\nsolution = x + t\n"
        "\n[check c]\ntype = no_such_check\n")
    assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2


def test_missing_checks_rejected(tmp_path):
    spec = tmp_path / "empty.spec"
    spec.write_text(
        "[experiment]\nname = empty\nseed = 1\nnu = 0.5\ncoefficients = identity\n"
        "\n[grid]\ns = 0 1 9\ny2 = -1 1 9\nt = 0 1 9\n"
        "\n[problem]\nsolution = x\n")
    assert main(["run", str(spec)]) == 2


def test_list_presets_function():
    text = list_presets()
    assert "identity" in text


@pytest.mark.parametrize("old, new, where, key", [
    ("rho = 0.4\n", "", "[check harnack]", "rho"),
    ("rho = 0.4", "rho = wide", "[check harnack]", "rho"),
    ("x + t", "x + z", "[problem]", "solution"),
    ("x + t", "x + y3", "[problem]", "solution"),
    ("model:v=1", "model:v=-1", "[experiment]", "coefficients"),
    ("s = 0 1 9", "s = 0 1", "[grid]", "s"),
    ("y2 = -1 1 9", "z = -1 1 9", "[grid]", "z"),
    ("tol = 1e-10", "tolerance = 1e-30", "[check manufactured]", "tolerance"),
    ("y0 = 0", "y0 = 0 0", "[check harnack]", "y0"),
    ("s0 = 0.5", "s0 = 5", "[check harnack]", "no grid nodes"),
    ("x + t", "1/x", "[problem]", "solution: sampling produced non-finite value"),
    ("s = 0 1 9", "s = 0 nan 9", "[grid]", "axis s must be finite"),
    ("t = 0 1 9", "t = 0 inf 9", "[grid]", "axis t must be finite"),
    ("model:v=1", "model:v=1e999", "[experiment]",
     "coefficients: transport velocity must be positive and finite, got inf"),
    ("t0 = 1.0", "t0 = nan", "[check harnack]", "t0: must lie in (-inf, inf), got nan"),
    ("seed = 1", "seed = 2.5", "[experiment]", "seed: must be an integer >= 0, got 2.5"),
    ("seed = 1", "seed = -1", "[experiment]", "seed: must be an integer >= 0, got -1"),
    ("x + t", "x + (-1)^0.5", "[problem]", "solution: 'x + (-1)^0.5' takes a complex value"),
    ("x + t", "(" * 300 + "x" + ")" * 300, "[problem]", "too many nested parentheses"),
    ("x + t", "-" * 3000 + "x", "[problem]", "solution: expression is nested too deeply"),
    ("s = 0 1 9", "s = 0 1e-300 9", "[grid]", "axis s is too fine"),
    ("s = 0 1 9", "s = 0 1e-100 9", "[grid]", "axis s is too fine"),
], ids=["missing_key", "non_numeric", "unknown_variable", "axis_beyond_n",
        "bad_preset", "bad_grid_triple", "unknown_grid_axis", "misspelled_key",
        "y0_length", "empty_cube", "non_finite_solution", "nan_axis", "inf_axis",
        "infinite_velocity", "nan_t0", "fractional_seed", "negative_seed",
        "complex_solution", "nested_parentheses", "nested_minus_signs",
        "underflowing_s_axis", "too_fine_s_axis"])
def test_malformed_spec_exits_2_naming_section_and_key(tmp_path, capsys,
                                                       old, new, where, key):
    assert old in SMALL_SPEC
    spec = tmp_path / "bad.spec"
    spec.write_text(SMALL_SPEC.replace(old, new))
    assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert where in err and key in err


@pytest.mark.parametrize("r, rho", [("0.5", "0.4"), ("0.4", "0.4")])
def test_holder_r_not_below_rho_exits_2_before_the_out_directory(tmp_path, capsys, r, rho):
    # it was refused by the estimate, after the solve, with --out made
    spec = tmp_path / "holder.spec"
    spec.write_text(SMALL_SPEC + f"\n[check hb]\ntype = holder_bound\ns0 = 0.5\nt0 = 1.0\n"
                                 f"r = {r}\nrho = {rho}\n")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: [check hb] r, rho: need r < rho, "
                                       f"got r = {r} and rho = {rho}\n")
    assert not out.exists()


@pytest.mark.parametrize("old, new, step", [
    ("t = 0 1 9", "t = 0 1e300 9", "1.25e+299"),
    ("x + t\n", "x + t\nforcing = 1e308\n", "0.25"),
], ids=["huge_t_axis", "huge_forcing"])
def test_a_march_that_turns_non_finite_exits_2_with_one_line(tmp_path, capsys, old, new, step):
    # it ended in a traceback, exit 1
    spec = tmp_path / "huge.spec"
    spec.write_text(SMALL_SPEC.replace(old, new))
    assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: the spec's grid cannot be marched: "
                                       f"non-finite solution at step t={step}\n")


@pytest.mark.parametrize("old, new, err", [
    ("t = 0 1 9", "t = 0 1e300 9", "error: the spec's grid cannot be marched: "
                                   "non-finite solution at step t=1.25e+299\n"),
    ("x + t\n", "x + t - 5\n", "error: [check harnack]: u must be nonnegative on the "
                               "cubes (min -3.98438)\n"),
], ids=["march", "estimate"])
@pytest.mark.parametrize("nested", [False, True], ids=["out", "out_and_parents"])
def test_a_refusal_after_the_out_directory_is_made_leaves_none_behind(tmp_path, capsys, old,
                                                                     new, err, nested):
    # the directories --out made were left behind, empty
    spec = tmp_path / "refused.spec"
    spec.write_text(SMALL_SPEC.replace(old, new))
    out = tmp_path / "a" / "b" / "out" if nested else tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["refused.spec"]


def test_a_refusal_keeps_an_out_directory_it_did_not_make(tmp_path, capsys):
    spec = tmp_path / "refused.spec"
    spec.write_text(SMALL_SPEC.replace("t = 0 1 9", "t = 0 1e300 9"))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: the spec's grid cannot be marched")
    assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("key", ["solution", "forcing"])
@pytest.mark.parametrize("text", [
    "x**2", "+x", "x // 2", "~x", "x < t", "x if t else 1", "1_0 + x", "0x1", "1j", "True",
    "x.real", "x[0]", "__import__('os')", "().__class__", "(lambda: 1)()",
    "sqrt(x, t)", "sqrt(x=1)", "exp", "1and x", "x # c", "x + \u0661", "z",
    "x + (-1)^0.5", "(" * 300 + "x" + ")" * 300, "-" * 3000 + "x", "-" * 1200 + "x",
], ids=lambda text: text if len(text) < 20 else f"{text[:8]}...{len(text)}")
def test_every_expression_refusal_exits_2_with_one_line(tmp_path, capsys, key, text):
    spec = tmp_path / "bad.spec"
    line = f"solution = {text}" if key == "solution" else f"solution = x + t\nforcing = {text}"
    spec.write_text(SMALL_SPEC.replace("solution = x + t", line))
    assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [problem] {key}: ") and err.count("\n") == 1


@pytest.mark.parametrize("preset", ["model:v=1", "random:seed=3"])
@pytest.mark.parametrize("seed", ["-1", "2.5"])
def test_seed_override_is_cast_like_the_spec_key(tmp_path, capsys, preset, seed):
    spec = tmp_path / "seeded.spec"
    spec.write_text(SMALL_SPEC.replace("model:v=1", preset))
    assert main(["run", str(spec), "--seed", seed, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --seed: must be an integer >= 0, got {seed}\n"


@pytest.mark.parametrize("preset, extra, where", [
    ("random:seed=3", "", None),
    ("random:seed=3", "\n[check odd]\ntype = no_such_check\n", "[check odd] type"),
    ("random:seed=3", "\n[check schauder]\ntype = schauder_ratio\nt0 = 0.9\n", None),
    ("model:v=1", "\n[check schauder]\ntype = schauder_ratio\n",
     "[check schauder] t0: missing"),
    ("model:v=1", "\n[check schauder]\ntype = schauder_ratio\nt0 = 0.9\nalpha = 1.0\n",
     "[check schauder] alpha: must lie in (0, 1), got 1.0"),
    ("model:v=1", "\n[check schauder]\ntype = schauder_ratio\nt0 = 0.9\nr = 1\n",
     "[check schauder] r: must lie in (0, 1), got 1"),
    ("random:seed=3", "\n[check holder]\ntype = holder_bound\ns0 = 0.5\nt0 = 1.0\n"
     "r = 0.2\nrho = 0.4\nalpha = nan\n", "[check holder] alpha: must lie in (0, 1], got nan"),
    ("random:seed=3", "\n[check holder]\ntype = holder_bound\ns0 = 0.5\nt0 = 1.0\n"
     "r = 0.2\nrho = 0.4\nalpha = 0\n", "[check holder] alpha: must lie in (0, 1], got 0"),
    ("random:seed=3", "\n[check holder]\ntype = holder_bound\ns0 = 0.5\nt0 = 1.0\n"
     "r = 1\nrho = 1\n", "[check holder] r: must lie in (0, 1), got 1"),
    ("random:seed=3", "\n[check holder]\ntype = holder_bound\ns0 = 0.5\nt0 = 1.0\n"
     "r = 0.2\nrho = 1.5\n", "[check holder] rho: must lie in (0, 1], got 1.5"),
    ("random:seed=3", "\n[check tight]\ntype = manufactured_error\ntol = nan\n",
     "[check tight] tol: must lie in (0, inf), got nan"),
    ("random:seed=3", "\n[check tight]\ntype = manufactured_error\ntol = -1\n",
     "[check tight] tol: must lie in (0, inf), got -1"),
    ("random:seed=3", "\n[check early]\ntype = harnack_quotient\ns0 = 0.5\nt0 = 1.0\n"
     "rho = -0.4\n", "[check early] rho: must lie in (0, inf), got -0.4"),
    ("random:seed=3", "\n[check osc]\ntype = oscillation_decay\ns0 = 0.5\nt0 = 1.0\n"
     "rho = 0.4\nlevels = 0\n", "[check osc] levels: must be an integer >= 2, got 0"),
    ("random:seed=3", "\n[check osc]\ntype = oscillation_decay\ns0 = 0.5\nt0 = 1.0\n"
     "rho = 0.4\nlevels = 2.5\n", "[check osc] levels: must be an integer >= 2, got 2.5"),
    ("identity", "\n[check schauder]\ntype = schauder_ratio\nt0 = 0.9\n", None),
    ("random:seed=3", "\n[check early]\ntype = harnack_quotient\ns0 = 0.5\nt0 = 1.0\n"
     "rho = 0.4\nc_max = nan\n", "[check early] c_max: must lie in (0, inf], got nan"),
    ("random:seed=3", "\n[check early]\ntype = harnack_quotient\ns0 = 0.5\nt0 = 1.0\n"
     "rho = 0.4\nc_max = -1\n", "[check early] c_max: must lie in (0, inf], got -1"),
    ("random:seed=3", "\n[check osc]\ntype = oscillation_decay\ns0 = 0.5\nt0 = 1.0\n"
     "rho = 0.4\ntheta_max = nan\n", "[check osc] theta_max: must lie in (0, 1], got nan"),
    ("random:seed=3", "\n[check early]\ntype = harnack_quotient\ns0 = nan\nt0 = 1.0\n"
     "rho = 0.4\n", "[check early] s0: must lie in [0, inf), got nan"),
    ("random:seed=3", "\n[check early]\ntype = harnack_quotient\ns0 = 0.5\nt0 = inf\n"
     "rho = 0.4\n", "[check early] t0: must lie in (-inf, inf), got inf"),
    ("random:seed=3", "\n[check osc]\ntype = oscillation_decay\ns0 = -0.5\nt0 = 1.0\n"
     "rho = 0.4\n", "[check osc] s0: must lie in [0, inf), got -0.5"),
    ("model:v=1", "\n[check schauder]\ntype = schauder_ratio\nt0 = 0.9\nx0 = -1\n",
     "[check schauder] x0: must lie in [0, inf), got -1"),
    ("random:seed=3", "\n[check holder]\ntype = holder_bound\ns0 = 0.5\nt0 = 1.0\n"
     "r = 0.2\nrho = 0.4\ny0 = nan\n", "[check holder] y0: must lie in (-inf, inf), got nan"),
], ids=["well_formed", "unknown_type", "schauder_random", "schauder_needs_t0",
        "schauder_alpha_one", "schauder_r_one", "holder_alpha_nan", "holder_alpha_zero",
        "holder_r_one", "holder_rho_above_one", "manufactured_tol_nan",
        "manufactured_tol_negative", "harnack_rho_negative", "oscillation_levels_zero",
        "oscillation_levels_fraction", "schauder_identity", "harnack_c_max_nan",
        "harnack_c_max_negative", "oscillation_theta_max_nan", "harnack_s0_nan",
        "harnack_t0_inf", "oscillation_s0_negative", "schauder_x0_negative",
        "holder_y0_nan"])
def test_check_sections_are_refused_before_the_solve(tmp_path, capsys, monkeypatch,
                                                     preset, extra, where):
    class SolveReached(Exception):
        pass

    def solve(*args, **kwargs):
        raise SolveReached

    monkeypatch.setattr(degenpde.cli, "solve_ivbp", solve)
    spec = tmp_path / "checks.spec"
    spec.write_text(SMALL_SPEC.replace("model:v=1", preset) + extra)
    argv = ["run", str(spec), "--out", str(tmp_path / "out")]
    if where is None:  # a well-formed spec does reach the solve
        with pytest.raises(SolveReached):
            main(argv)
        return
    assert main(argv) == 2
    assert where in capsys.readouterr().err
