import csv
import re
import warnings

import numpy as np
import pytest

from greedymin import LeastSquares
from greedymin.cli import main

from conftest import conditioned_matrix

QUAD_CFG = """
name = quad_fix
dimension = 40
seed = 7
output_dir = {out}

objective.type = diagonal_quadratic
objective.center_sparsity = 5
objective.weights_low = 0.5
objective.weights_high = 2.0

solver.algorithm = omp
solver.max_steps = 40
analysis.tail_fraction = 1.0
"""


@pytest.fixture
def quad_cfg(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "quad.cfg"
    path.write_text(QUAD_CFG.format(out=out))
    return path, out


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_run_writes_files_and_succeeds(quad_cfg, capsys):
    path, out = quad_cfg
    assert main(["run", str(path)]) == 0
    assert (out / "quad_fix.trace.csv").exists()
    assert (out / "quad_fix.bounds.csv").exists()
    report = (out / "quad_fix.report.txt").read_text()
    assert report.startswith("STATUS: OK")
    assert "violations=0" in report
    rows = _read_rows(out / "quad_fix.trace.csv")
    assert rows[-1]["stopped"] == "true"
    assert int(rows[-1]["k"]) == 5          # stops at the support size
    brows = _read_rows(out / "quad_fix.bounds.csv")
    assert [r["k"] for r in brows] == ["2", "3", "4", "5"]
    assert all(float(r["margin"]) >= -1e-9 for r in brows)


def test_run_deterministic_traces(quad_cfg, tmp_path):
    path, out = quad_cfg
    d1 = tmp_path / "d1"
    d2 = tmp_path / "d2"
    assert main(["--quiet", "--output-dir", str(d1), "run", str(path)]) == 0
    assert main(["--quiet", "--output-dir", str(d2), "run", str(path)]) == 0
    b1 = (d1 / "quad_fix.trace.csv").read_bytes()
    b2 = (d2 / "quad_fix.trace.csv").read_bytes()
    assert b1 == b2


def test_run_config_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("name = b\ndimension = 4\n"
                   "objective.type = diagonal_quadratic\n"
                   "objective.center_sparsity = 2\n"
                   "solver.algorithm = wcga\nsolver.weakness = 1.5\n")
    assert main(["--quiet", "run", str(bad)]) == 1
    assert "(0, 1]" in capsys.readouterr().err
    bad.write_text("name = b\ndimension = 4\n"
                   "objective.type = power_sum\nobjective.exponent = 3\n"
                   "objective.center_sparsity = 2\n"
                   "analysis.q = 3\nanalysis.p = 3\n")
    assert main(["--quiet", "run", str(bad)]) == 1
    assert "p = q = 2" in capsys.readouterr().err
    assert main(["--quiet", "run", str(tmp_path / "missing.cfg")]) == 1


OVERRIDE_LINES = "analysis.beta = 1\nanalysis.radius = 1\nanalysis.grad_bound = 1\n"


@pytest.mark.parametrize("line,key", [
    ("solver.max_step = 3", "solver.max_step"),
    ("dimension = true", "dimension"),
    ("solver.max_steps = true", "solver.max_steps"),
    ("objective.rows = 10", "objective.rows"),
    ("objective.weights = 2.0", "objective.weights"),
    ("objective.center = " + str([1.0] * 40), "objective.center"),
    ("objective.center_low = NaN", "objective.center_low"),
    ("analysis.sample_count = 0", "analysis.sample_count"),
    ("analysis.alpha = -1\n" + OVERRIDE_LINES, "analysis.alpha"),
    (OVERRIDE_LINES + "analysis.alpha = 1\nanalysis.radius = 0", "analysis.radius"),
    ("solver.armijo_c = 0.3", "solver.armijo_c"),                  # a removed knob
    ("solver.weakness = 0.5", "solver.weakness"),                  # omp selects at t = 1
    ("solver.selection_strategy = first_admissible", "solver.selection_strategy"),
], ids=["typo", "bool-dimension", "bool-max-steps", "rows-on-quadratic",
        "weights-with-range", "center-with-sparsity", "nan-center-low", "zero-sample-count",
        "negative-alpha", "zero-radius", "armijo-c", "omp-weakness", "omp-strategy"])
def test_bad_key_exits_1_naming_it(quad_cfg, capsys, line, key):
    path, out = quad_cfg
    path.write_text(path.read_text() + line + "\n")
    assert main(["--quiet", "run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}:") and "Traceback" not in err


def test_moduli_unbounded_level_set_names_objective_type(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("name = wide\ndimension = 40\n"
                   f"output_dir = {tmp_path / 'out'}\n"
                   "objective.type = least_squares\nobjective.rows = 20\n"
                   "objective.center_sparsity = 3\n")
    assert main(["--quiet", "run", str(cfg)]) == 0
    assert main(["--quiet", "moduli", str(cfg)]) == 1
    assert "least_squares" in capsys.readouterr().err


def test_moduli_origin_minimizer_names_the_point_level_set(quad_cfg, capsys):
    path, _ = quad_cfg
    path.write_text(path.read_text() + "objective.center_sparsity = 0\n")
    assert main(["--quiet", "moduli", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: moduli:") and "single point 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,extra,report", [
    ("run", [], "quad_fix.report.txt"),
    ("compare", ["--algs", "omp", "wcga:t=0.5,strategy=first_admissible"],
     "quad_fix.compare.txt"),
], ids=["run", "compare"])
def test_run_violation_exits_2(tmp_path, command, extra, report):
    # deliberately overstated curvature: claimed contraction cannot hold
    out = tmp_path / "out"
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(QUAD_CFG.format(out=out) +
                   "analysis.alpha = 1.0\nanalysis.beta = 4.0\n"
                   "analysis.radius = 50.0\nanalysis.grad_bound = 10.0\n")
    assert main(["--quiet", command, str(cfg), *extra]) == 2
    assert (out / report).read_text().startswith("STATUS: VIOLATION")


@pytest.mark.parametrize("weights", ["", "objective.weights = 2\n"], ids=["w1", "w2"])
def test_run_one_step_problem_contracts_to_zero(tmp_path, weights):
    # equal weights on a 1-sparse center: alpha = beta, so gain = scale and
    # the contraction factor is 0 (up to round-off in the computed scale)
    out = tmp_path / "out"
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"name = one\ndimension = 3\noutput_dir = {out}\n"
                   "objective.type = diagonal_quadratic\nobjective.center = [1, 0, 0]\n"
                   + weights + "solver.algorithm = omp\n")
    assert main(["--quiet", "run", str(cfg)]) == 0
    report = (out / "one.report.txt").read_text()
    assert report.startswith("STATUS: OK")
    assert "contraction_factor: 0\n" in report


def test_moduli_quadratic_exact(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "m.cfg"
    cfg.write_text("name = unitquad\ndimension = 10\nseed = 1\n"
                   f"output_dir = {out}\n"
                   "objective.type = diagonal_quadratic\n"
                   "objective.center_sparsity = 3\n"
                   "analysis.sample_count = 40\n")
    assert main(["--quiet", "moduli", str(cfg)]) == 0
    rows = _read_rows(out / "unitquad.moduli.csv")
    assert len(rows) == 10
    for r in rows:
        u = float(r["u"])
        for col in ("rho", "rho1", "delta1"):
            assert abs(float(r[col]) - u * u / 2) <= 1e-9
    assert (out / "unitquad.moduli.txt").read_text().startswith("STATUS: OK")


def test_moduli_least_squares_passes(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "ls.cfg"
    cfg.write_text("name = lsmod\ndimension = 6\nseed = 2\n"
                   f"output_dir = {out}\n"
                   "objective.type = least_squares\nobjective.rows = 12\n"
                   "objective.center_sparsity = 2\n"
                   "analysis.sample_count = 60\n")
    assert main(["--quiet", "moduli", str(cfg)]) == 0


def _file_least_squares_cfg(tmp_path, A, b):
    np.savetxt(tmp_path / "A.csv", A, delimiter=",")
    np.savetxt(tmp_path / "b.csv", b, delimiter=",")
    cfg = tmp_path / "lsfile.cfg"
    cfg.write_text(f"name = lsfile\ndimension = {A.shape[1]}\n"
                   f"output_dir = {tmp_path / 'out'}\n"
                   "objective.type = least_squares\n"
                   f"objective.matrix_file = {tmp_path / 'A.csv'}\n"
                   f"objective.b_file = {tmp_path / 'b.csv'}\n")
    return cfg


def test_run_ill_conditioned_file_matrix_skips_constants(tmp_path):
    # kappa(A) = 1e9: sigma_min^2 = 1e-18 lies inside the Gram matrix's rounding
    # error, so full column rank is not certified and no curvature is claimed
    rng = np.random.default_rng(4)
    A = conditioned_matrix(rng, 20, 8, 1e9)
    cfg = _file_least_squares_cfg(tmp_path, A, A @ rng.standard_normal(8))
    assert LeastSquares.from_files(tmp_path / "A.csv", tmp_path / "b.csv").known_params is None
    assert main(["--quiet", "run", str(cfg)]) == 0
    report = (tmp_path / "out" / "lsfile.report.txt").read_text()
    assert "constants: skipped (level set not known to be bounded)" in report


@pytest.mark.parametrize("entry,message", [
    ("matrix", "matrix has non-finite entries"),
    ("rhs", "rhs has non-finite entries"),
], ids=["matrix", "rhs"])
def test_run_non_finite_file_input_names_it(tmp_path, capsys, entry, message):
    A = np.random.default_rng(5).standard_normal((12, 4))
    b = np.ones(12)
    (A if entry == "matrix" else b)[3] = np.nan
    cfg = _file_least_squares_cfg(tmp_path, A, b)
    assert main(["--quiet", "run", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_short_file_rhs_names_both_lengths(tmp_path, capsys):
    A = np.random.default_rng(5).standard_normal((6, 4))
    cfg = _file_least_squares_cfg(tmp_path, A, np.ones(5))
    assert main(["--quiet", "run", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: rhs has 5 entries, matrix has 6 rows\n"


OVERFLOW_CFG = """
name = overflow
dimension = 4
seed = 3
output_dir = {out}
objective.type = power_sum
objective.weights_low = 1
objective.weights_high = 2
"""


@pytest.mark.parametrize("command,extra,message", [
    ("moduli", "objective.exponent = 200\nobjective.center = [10, 0, 0, 2]\n",
     "error: a sampled E is inf: E overflows on the ball of radius 33.0949\n"),
    ("run", "objective.exponent = 200\nobjective.center = [10, 0, 0, 2]\n",
     "error: pair_radius ** p overflows: 66.1897 ** 200\n"),
    ("moduli", "objective.exponent = 4\nobjective.center = [1e90, 0, 0, 2]\n",
     "error: E(0) = sum_i w_i |c_i|^4 overflows: inf\n"),
    ("run", "objective.exponent = 4\nobjective.center = [1e90, 0, 0, 2]\n",
     "error: E(0) = sum_i w_i |c_i|^4 overflows: inf\n"),
], ids=["p200-moduli", "p200-run", "e0-moduli", "e0-run"])
def test_overflowing_power_sum_exits_1_naming_it(tmp_path, capsys, command, extra, message):
    # at p = 200 E overflows near the level set, and a center of 1e90 overflows E(0);
    # either way no report is written, so none can say STATUS: OK over a NaN
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(OVERFLOW_CFG.format(out=tmp_path / "out") + extra)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main([command, str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""
    assert not list((tmp_path / "out").glob("*.txt"))


@pytest.mark.parametrize("command", ["run", "moduli"])
def test_overflowing_gradient_bound_exits_1_naming_it(tmp_path, capsys, command):
    # 2 E(0) max(w) = 1e300 * 1e300 overflows; unchecked, the inf bound would reach
    # rate_constants and fail there as "scale must be positive", naming nothing
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"name = huge\ndimension = 2\nseed = 3\noutput_dir = {tmp_path / 'out'}\n"
                   "objective.type = diagonal_quadratic\nobjective.center = [1e150, 0]\n"
                   "objective.weights = [1, 1e300]\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["--quiet", command, str(cfg)]) == 1
    assert capsys.readouterr().err == ("error: DiagonalQuadratic: the gradient bound "
                                       "overflows: inf\n")


def test_compare_t1_identical_columns(quad_cfg):
    path, out = quad_cfg
    assert main(["--quiet", "compare", str(path),
                 "--algs", "omp", "wcga:t=1.0"]) == 0
    rows = _read_rows(out / "quad_fix.compare.csv")
    for r in rows:
        a, b = r["e_k(omp)"], r["e_k(wcga:t=1.0)"]
        if a and b:
            assert abs(float(a) - float(b)) <= 1e-10
    text = (out / "quad_fix.compare.txt").read_text()
    assert text.startswith("STATUS: OK")


def test_compare_weak_variants_converge(quad_cfg):
    path, out = quad_cfg
    assert main(["--quiet", "compare", str(path), "--algs",
                 "omp", "wcga:t=0.5,strategy=first_admissible"]) == 0
    rows = _read_rows(out / "quad_fix.compare.csv")
    assert int(rows[-1]["k"]) >= 5
    # both variants end essentially at the minimum
    for col in rows[-1]:
        if col != "k" and rows[-1][col] != "":
            assert float(rows[-1][col]) <= 1e-10
    text = (out / "quad_fix.compare.txt").read_text()
    assert "recursion_violations: 0" in text and "bound_violations: 0" in text
    # booleans as in the run report and the trace CSV
    assert text.count("stopped: true") == 2 and "True" not in text


def test_compare_two_weak_variants_bound_checked(quad_cfg):
    path, out = quad_cfg
    assert main(["--quiet", "compare", str(path), "--algs",
                 "wcga:t=0.3", "wcga:t=0.9"]) == 0
    text = (out / "quad_fix.compare.txt").read_text()
    assert text.startswith("STATUS: OK")
    assert text.count("bound_violations: 0") == 2


def test_compare_requires_two_variants(quad_cfg, capsys):
    path, _ = quad_cfg
    assert main(["--quiet", "compare", str(path), "--algs", "omp"]) == 1
    assert "two solver variants" in capsys.readouterr().err


def test_compare_bad_descriptor(quad_cfg, capsys):
    path, _ = quad_cfg
    assert main(["--quiet", "compare", str(path), "--algs", "omp", "sgd"]) == 1
    assert "--algs" in capsys.readouterr().err
    for bad, why in [("wcga:t=abc", "could not convert"), ("wcga:t=2", r"outside \(0, 1\]"),
                     ("omp:seed=x", "invalid literal"), ("wcga:strategy=bogus", "strategy"),
                     ("omp:t=0.2,strategy=first_admissible", "omp selects at t = 1"),
                     ("omp:strategy=random_admissible", "omp selects exactly")]:
        assert main(["--quiet", "compare", str(path), "--algs", "omp", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --algs: {bad!r}: ")
        assert re.search(why, err)


def test_demo_cs_seeded_recovery(tmp_path):
    out = tmp_path / "runs"
    assert main(["--quiet", "--output-dir", str(out), "demo-cs",
                 "--rows", "50", "--cols", "200", "--sparsity", "4",
                 "--seed", "7"]) == 0
    report = (out / "demo_cs_r50_c200_s4_seed7.report.txt").read_text()
    assert "support_recovered: true" in report
    dist = float(report.split("distance_to_planted: ")[1].splitlines()[0])
    assert dist <= 1e-10
    assert "sampled_isometry_ratio" in report


def test_demo_cs_zero_sparsity_stops_immediately(tmp_path):
    out = tmp_path / "runs"
    assert main(["--quiet", "--output-dir", str(out), "demo-cs",
                 "--rows", "10", "--cols", "20", "--sparsity", "0",
                 "--seed", "1"]) == 0
    rows = _read_rows(out / "demo_cs_r10_c20_s0_seed1.trace.csv")
    assert len(rows) == 1 and rows[0]["stopped"] == "true"


def test_demo_cs_square_matrix_recovers(tmp_path):
    out = tmp_path / "runs"
    assert main(["--quiet", "--output-dir", str(out), "demo-cs",
                 "--rows", "16", "--cols", "16", "--sparsity", "8",
                 "--seed", "2"]) == 0
    report = (out / "demo_cs_r16_c16_s8_seed2.report.txt").read_text()
    dist = float(report.split("distance_to_planted: ")[1].splitlines()[0])
    assert dist <= 1e-7


def test_demo_cs_negative_seed_names_the_flag(tmp_path, capsys):
    assert main(["--quiet", "--output-dir", str(tmp_path / "runs"), "demo-cs",
                 "--rows", "10", "--cols", "20", "--sparsity", "2", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed: must be >= 0, got -1\n"
    assert not (tmp_path / "runs").exists()


def test_demo_cs_shape_validation(capsys):
    assert main(["--quiet", "demo-cs", "--rows", "30", "--cols", "20",
                 "--sparsity", "2", "--seed", "0"]) == 1
    assert main(["--quiet", "demo-cs", "--rows", "10", "--cols", "20",
                 "--sparsity", "6", "--seed", "0"]) == 1
