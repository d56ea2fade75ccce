import re
from pathlib import Path

import numpy as np
import pytest

import greedymin as gm
from greedymin.config import ConfigError, config_from_mapping, parse_config_text


QUAD_TEXT = """
# fixture
name = quad
dimension = 20
seed = 3
output_dir = out

objective.type = diagonal_quadratic
objective.center_sparsity = 4
objective.weights_low = 0.5
objective.weights_high = 2.0

dictionary.type = canonical

solver.algorithm = omp
solver.max_steps = 25
analysis.tail_fraction = 1.0
"""


def test_parse_grammar():
    data = parse_config_text(
        "a = 1\n"
        "b.c = 2.5  # trailing comment\n"
        "s = hello\n"
        "q = \"quoted words\"\n"
        "lst = [1, 2.5, 3]\n"
        "flag = true\n"
        "# full comment\n"
        "\n")
    assert data == {"a": 1, "b.c": 2.5, "s": "hello", "q": "quoted words",
                    "lst": [1, 2.5, 3], "flag": True}


def test_parse_rejects_bad_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("not a pair")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3")


def test_full_config_round_trip():
    cfg = config_from_mapping(parse_config_text(QUAD_TEXT))
    assert cfg.name == "quad" and cfg.dimension == 20 and cfg.seed == 3
    assert cfg.objective["type"] == "diagonal_quadratic"
    assert cfg.objective["center_sparsity"] == 4
    assert cfg.solver.algorithm == "omp" and cfg.solver.max_steps == 25
    assert cfg.analysis.tail_fraction == 1.0
    D = gm.build_dictionary(cfg)
    E = gm.build_objective(cfg, D)
    assert E.dimension == 20
    assert int(np.sum(E.known_minimizer != 0)) == 4


def test_missing_required_fields():
    with pytest.raises(ConfigError, match="name: missing"):
        config_from_mapping({"dimension": 4, "objective.type": "diagonal_quadratic"})
    with pytest.raises(ConfigError, match="dimension: missing"):
        config_from_mapping({"name": "x", "objective.type": "diagonal_quadratic"})
    with pytest.raises(ConfigError, match="objective.type"):
        config_from_mapping({"name": "x", "dimension": 4})


def test_weakness_range_error_cites_interval():
    data = parse_config_text(QUAD_TEXT) | {"solver.algorithm": "wcga",
                                           "solver.weakness": 1.5}
    with pytest.raises(ConfigError, match=r"solver.weakness.*\(0, 1\]"):
        config_from_mapping(data)


def test_weakness_schedule_list():
    data = parse_config_text(QUAD_TEXT) | {"solver.algorithm": "wcga",
                                           "solver.weakness": [0.5, 0.8, 1.0]}
    cfg = config_from_mapping(data)
    assert cfg.solver.weakness.ts == (0.5, 0.8, 1.0)


def test_exponent_case_split_error():
    data = parse_config_text(QUAD_TEXT) | {"analysis.q": 3, "analysis.p": 3}
    with pytest.raises(ConfigError, match="p = q = 2"):
        config_from_mapping(data)
    data = parse_config_text(QUAD_TEXT) | {"analysis.q": 2.5}
    with pytest.raises(ConfigError, match=r"analysis.q.*\(1, 2\]"):
        config_from_mapping(data)


def test_power_sum_requires_exponent():
    data = parse_config_text(QUAD_TEXT) | {"objective.type": "power_sum"}
    with pytest.raises(ConfigError, match="objective.exponent"):
        config_from_mapping(data)
    with pytest.raises(ConfigError, match="objective.exponent"):
        config_from_mapping(data | {"objective.exponent": 1.5})


def test_curvature_overrides_must_be_complete():
    data = parse_config_text(QUAD_TEXT) | {"analysis.alpha": 1.0}
    with pytest.raises(ConfigError, match="given together"):
        config_from_mapping(data)


def test_removed_l_mode_key_is_rejected():
    for mode in ("closed_form", "monte_carlo"):
        data = parse_config_text(QUAD_TEXT) | {"analysis.l_mode": mode}
        with pytest.raises(ConfigError, match="analysis.l_mode"):
            config_from_mapping(data)


LSQ_MAPPING = {"name": "lsq", "dimension": 10, "seed": 2, "objective.type": "least_squares",
               "objective.rows": 20, "objective.center_sparsity": 2}

# an explicit 2-point center, so objective.center can be set
CENTER_TEXT = "name = c\ndimension = 2\nobjective.type = diagonal_quadratic\n"
OVERRIDES = {"analysis.beta": 1.0, "analysis.radius": 1.0, "analysis.grad_bound": 1.0}

REMOVED_KEYS = ("dictionary.seed", "solver.seed", "analysis.u_max", "analysis.u_points",
                "analysis.alpha_safety", "analysis.beta_safety", "analysis.omega_radius",
                "solver.armijo_c", "solver.backtrack_factor", "solver.initial_step")


@pytest.mark.parametrize("base,extra,key", [(QUAD_TEXT, {k: 1}, k) for k in REMOVED_KEYS] + [
    (QUAD_TEXT, {"solver.max_step": 3}, "solver.max_step"),           # typo
    (QUAD_TEXT, {"dimension": True}, "dimension"),                    # booleans are not numbers
    (QUAD_TEXT, {"solver.max_steps": True}, "solver.max_steps"),
    (QUAD_TEXT, {"solver.stop_tol": True}, "solver.stop_tol"),
    (QUAD_TEXT, {"objective.exponent": 4}, "objective.exponent"),     # not read by the type
    (None, {"objective.weights": 2.0}, "objective.weights"),
    (QUAD_TEXT, {"objective.center": [1.0] * 20}, "objective.center"),   # conflicting pairs
    (QUAD_TEXT, {"objective.weights": 2.0}, "objective.weights"),
    (QUAD_TEXT, {"objective.center_low": float("nan")}, "objective.center_low"),  # non-finite
    (QUAD_TEXT, {"objective.center_low": 3.0, "objective.center_high": 1.0},
     "objective.center_low/high"),                                     # empty range
    (QUAD_TEXT, {"analysis.alpha": float("nan")} | OVERRIDES, "analysis.alpha"),
    (CENTER_TEXT, {"objective.center": [float("nan"), 1.0]}, "objective.center"),
    (CENTER_TEXT, {"objective.center": [1.0, 0.0], "objective.weights": float("inf")},
     "objective.weights"),
    (QUAD_TEXT, {"objective.type": "power_sum", "objective.exponent": float("inf")},
     "objective.exponent"),
    (QUAD_TEXT, {"analysis.u_grid": [0.5, float("inf")]}, "analysis.u_grid"),
    (QUAD_TEXT, {"analysis.sample_count": 0}, "analysis.sample_count"),  # out of range
    (QUAD_TEXT, {"analysis.lambda_grid_size": 1}, "analysis.lambda_grid_size"),
    (QUAD_TEXT, {"analysis.u_grid": []}, "analysis.u_grid"),
    (QUAD_TEXT, {"analysis.u_grid": [0.3, 0.5, 0.7]}, "analysis.u_grid"),  # no u, u/2 pair
    (QUAD_TEXT, {"output_dir": [1, 2]}, "output_dir"),                  # not a string
    (QUAD_TEXT, {"solver.max_steps": 0}, "solver.max_steps"),          # checked by SolverConfig
    (QUAD_TEXT, {"analysis.alpha": -1.0} | OVERRIDES, "analysis.alpha"),  # nonpositive curvature
    (QUAD_TEXT, {"analysis.alpha": 1.0} | OVERRIDES | {"analysis.beta": 0.0}, "analysis.beta"),
    (QUAD_TEXT, {"analysis.alpha": 1.0} | OVERRIDES | {"analysis.radius": 0.0},
     "analysis.radius"),
    (QUAD_TEXT, {"analysis.alpha": 1.0} | OVERRIDES | {"analysis.grad_bound": -2.0},
     "analysis.grad_bound"),
], ids=[*REMOVED_KEYS, "typo", "bool-dimension", "bool-max-steps", "bool-stop-tol",
        "exponent-on-quadratic", "weights-on-least-squares", "center-with-sparsity",
        "weights-with-range", "nan-center-low", "inverted-center-range",
        "nan-alpha", "nan-center", "inf-weights",
        "inf-exponent", "inf-u-grid", "zero-sample-count",
        "one-lambda", "empty-u-grid", "no-halving-pair", "list-output-dir", "zero-max-steps",
        "negative-alpha", "zero-beta", "zero-radius", "negative-grad-bound"])
def test_bad_key_names_itself(base, extra, key):
    data = LSQ_MAPPING if base is None else parse_config_text(base)
    with pytest.raises(ConfigError, match="^" + re.escape(key) + "[:,]"):
        config_from_mapping(data | extra)


@pytest.mark.parametrize("key", ["objective.center", "objective.weights"])
def test_wrong_length_list_is_reported_as_a_count(key):
    extra = {"objective.center": [1.0, 0.0], "objective.weights": [1.0, 2.0]}
    extra[key] = [1.0, 2.0, 3.0]
    with pytest.raises(ConfigError,
                       match="^" + re.escape(f"{key}: expected 2 entries, got 3") + "$"):
        config_from_mapping(parse_config_text(CENTER_TEXT) | extra)


FIELD_CASES = [
    ("objective.center_low", 1.5, lambda c: c.objective["center_low"]),
    ("objective.center_high", 5.0, lambda c: c.objective["center_high"]),
    ("solver.stop_tol", 1e-6, lambda c: c.solver.stop_tol),
    ("solver.inner_tol", 1e-12, lambda c: c.solver.inner_tol),
    ("analysis.u_grid", [0.25, 0.5, 1.0], lambda c: list(c.analysis.u_grid)),
    ("analysis.lambda_grid_size", 5, lambda c: c.analysis.lambda_grid_size),
]


@pytest.mark.parametrize("key,value,read", FIELD_CASES, ids=[c[0] for c in FIELD_CASES])
def test_accepted_key_reaches_its_field(key, value, read):
    default = read(config_from_mapping(parse_config_text(QUAD_TEXT)))
    cfg = config_from_mapping(parse_config_text(QUAD_TEXT) | {key: value})
    assert read(cfg) == value != default


def test_solver_seed_comes_from_config_seed():
    cfg = config_from_mapping(parse_config_text(QUAD_TEXT))
    assert cfg.solver.seed == gm.sub_seed(3, "solver")


def test_sub_seed_stable():
    # CRC32 of the component names pins the splitting rule
    assert gm.sub_seed(0, "objective") == 3113677057
    assert gm.sub_seed(0, "dictionary") == 530638118
    assert gm.sub_seed(0, "solver") == 2686184955
    assert gm.sub_seed(0, "analysis") == 3393328
    assert gm.sub_seed(7, "analysis") == 3393335
    assert gm.sub_seed(2 ** 32 - 1, "objective") == 3113677056


def test_build_objective_variants(tmp_path):
    # explicit center and weights list replace the sparse-center and uniform-draw keys
    base = {k: v for k, v in parse_config_text(QUAD_TEXT).items()
            if k not in ("objective.center_sparsity", "objective.weights_low",
                         "objective.weights_high")}
    cfg = config_from_mapping(base | {"dimension": 3, "objective.center": [1.0, 0.0, 2.0],
                                      "objective.weights": [1.0, 2.0, 3.0]})
    E = gm.build_objective(cfg, gm.build_dictionary(cfg))
    assert np.allclose(E.weights, [1.0, 2.0, 3.0])
    assert np.allclose(E.center, [1.0, 0.0, 2.0])
    # least-squares from files
    A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    np.savetxt(tmp_path / "A.csv", A, delimiter=",")
    np.savetxt(tmp_path / "b.csv", b, delimiter=",")
    cfg = config_from_mapping({
        "name": "ls", "dimension": 2, "objective.type": "least_squares",
        "objective.matrix_file": str(tmp_path / "A.csv"),
        "objective.b_file": str(tmp_path / "b.csv")})
    E = gm.build_objective(cfg, gm.build_dictionary(cfg))
    assert np.allclose(E.A, A) and np.allclose(E.b, b)
    # least-squares generator plants a sparse solution
    cfg = config_from_mapping({
        "name": "lsg", "dimension": 10, "seed": 5,
        "objective.type": "least_squares", "objective.rows": 20,
        "objective.center_sparsity": 2})
    E = gm.build_objective(cfg, gm.build_dictionary(cfg))
    assert E.A.shape == (20, 10)
    assert gm.norm(E.gradient(E.known_minimizer)) <= 1e-8


def test_build_objective_log_weights():
    base = parse_config_text(QUAD_TEXT)
    cfg = config_from_mapping(base | {"objective.weights_low": 0.001,
                                      "objective.weights_high": 1000,
                                      "objective.weights_log": True})
    E = gm.build_objective(cfg, gm.build_dictionary(cfg))
    assert E.weights.min() >= 0.001 and E.weights.max() <= 1000
    assert E.weights.max() / E.weights.min() > 100   # spread actually used


def test_derive_constants_paths():
    cfg = config_from_mapping(parse_config_text(QUAD_TEXT))
    D = gm.build_dictionary(cfg)
    E = gm.build_objective(cfg, D)
    rc, reason = gm.derive_constants(cfg, E, D)
    assert reason is None and rc.is_exponential and rc.support_size == 4
    # origin-centered objective: no constants
    cfg0 = config_from_mapping(parse_config_text(QUAD_TEXT) | {"objective.center_sparsity": 0})
    D0 = gm.build_dictionary(cfg0)
    E0 = gm.build_objective(cfg0, D0)
    rc0, reason0 = gm.derive_constants(cfg0, E0, D0)
    assert rc0 is None and "origin" in reason0


def test_derive_constants_override_path():
    text = QUAD_TEXT + (
        "analysis.alpha = 1.0\nanalysis.beta = 0.25\n"
        "analysis.radius = 1.0\nanalysis.grad_bound = 6.0\n")
    cfg = config_from_mapping(parse_config_text(text))
    D = gm.build_dictionary(cfg)
    E = gm.build_objective(cfg, D)
    rc, reason = gm.derive_constants(cfg, E, D)
    assert reason is None
    # radius 1 is far below the level-set diameter, so the ratio degrades beta
    assert rc.diameter_ratio > 1.0
    assert rc.beta_global < 0.25


def test_derive_constants_override_takes_the_objective_exponent():
    # powersum.cfg without analysis.p: the override's p is the objective's 4,
    # as on the sampled branch, not a default of 2
    text = (Path(__file__).resolve().parent.parent / "configs" / "powersum.cfg").read_text()
    text = text.replace("analysis.p = 4.0\n", "") + (
        "analysis.alpha = 2.0e7\nanalysis.beta = 1.0e-4\n"
        "analysis.radius = 10.0\nanalysis.grad_bound = 1.0e4\n")
    cfg = config_from_mapping(parse_config_text(text))
    assert cfg.analysis.p is None
    D = gm.build_dictionary(cfg)
    E = gm.build_objective(cfg, D)
    rc, reason = gm.derive_constants(cfg, E, D)
    assert reason is None and rc.params.p == 4.0 and not rc.is_exponential


def test_derive_constants_finds_a_support_far_below_one():
    # the support cut is relative to the largest coefficient, whatever its size
    data = parse_config_text(QUAD_TEXT) | {"objective.center_low": 1e-11,
                                           "objective.center_high": 2e-11}
    cfg = config_from_mapping(data)
    D = gm.build_dictionary(cfg)
    E = gm.build_objective(cfg, D)
    rc, reason = gm.derive_constants(cfg, E, D)
    assert reason is None and rc.support_size == 4


@pytest.mark.parametrize("overrides", [False, True], ids=["sampled", "override"])
def test_derive_constants_needs_bounded_level_set(overrides):
    # 20 x 40 least squares: the level set contains a 20-dimensional null space
    data = LSQ_MAPPING | {"dimension": 40, "objective.center_sparsity": 3}
    if overrides:
        data |= {"analysis.alpha": 1.0, "analysis.beta": 0.1,
                 "analysis.radius": 5.0, "analysis.grad_bound": 10.0}
    cfg = config_from_mapping(data)
    D = gm.build_dictionary(cfg)
    E = gm.build_objective(cfg, D)
    assert E.known_minimizer is not None and E.level_set_diameter is None
    assert gm.derive_constants(cfg, E, D) == (None, "level set not known to be bounded")
