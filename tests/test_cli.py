import contextlib
import csv
import io
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudochaos.cli import (
    _COMMANDS,
    ConfigError,
    RunConfig,
    build_params,
    main,
    parse_config,
    serialize_config,
)
from pseudochaos.harness import IPP_FUNCTIONALS, ExperimentSpec, run_experiment
from pseudochaos.kernels import Kernel, StabilityError
from pseudochaos.malliavin import ipp_check_order1

VALID = "mu = 1.0\nT = 5\nM = 4\nkernel = exp\nalpha = 0.5\nbeta = 1.0\nseed = 7\n"


def test_parse_valid_config():
    cfg = parse_config(VALID)
    assert cfg.mu == 1.0
    assert cfg.T == 5.0
    assert cfg.seed == 7
    params = build_params(cfg)
    assert params.kernel.l1_norm == 0.5


def test_parse_supports_comments_and_blanks():
    cfg = parse_config(VALID + "\n# a comment\nn_paths = 100  # inline\n")
    assert cfg.n_paths == 100


def test_unstable_kernel_is_rejected_at_parse_time():
    text = VALID.replace("alpha = 0.5", "alpha = 1.5")
    with pytest.raises(StabilityError, match="1.5"):
        parse_config(text)


def test_zero_baseline_is_rejected():
    with pytest.raises(ConfigError, match="mu"):
        parse_config(VALID.replace("mu = 1.0", "mu = 0"))


def test_missing_key_is_named():
    text = "T = 5\nM = 4\nkernel = exp\nalpha = 0.5\nbeta = 1.0\n"
    with pytest.raises(ConfigError, match="'mu'"):
        parse_config(text)


def test_malformed_number_reports_line():
    text = "mu = 1.0\nT = five\nM = 4\nkernel = exp\nalpha = 0.5\nbeta = 1.0\n"
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(text)


def test_unknown_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(VALID + "gamma = 3\n")


_KEYS = sorted(f.name for f in fields(RunConfig))
_VALUES = st.one_of(
    st.text(max_size=12),
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["exp", "table", "zero", "capped", "exact"]),
)
_LINES = st.one_of(
    st.text(max_size=30),
    st.builds("{} = {}".format, st.sampled_from(_KEYS), _VALUES),
)


@given(
    st.one_of(
        st.text(),
        st.lists(_LINES, max_size=12).map("\n".join),
        st.lists(_LINES, max_size=6).map(lambda lines: VALID + "\n".join(lines)),
    )
)
def test_parse_config_raises_only_value_errors(text):
    try:
        parse_config(text)
    except ValueError:
        pass


def test_unreadable_kernel_table_is_a_config_error(tmp_path):
    text = VALID.replace("kernel = exp", f"kernel = table\ntable = {tmp_path}")
    with pytest.raises(ConfigError, match="kernel table"):
        parse_config(text)


def test_roundtrip():
    cfg = parse_config(VALID + "n_paths = 123\nthinning = exact\n")
    assert parse_config(serialize_config(cfg)) == cfg
    assert parse_config(serialize_config(RunConfig())) == RunConfig()


def test_unknown_subcommand_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_config_path_is_a_config_error(tmp_path):
    assert main(["--config", str(tmp_path / "missing.txt"), "simulate"]) == 2


def test_expect_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(VALID)
    code = main(["--config", str(cfg), "--paths", "800", "expect"])
    out = capsys.readouterr().out
    assert code == 0
    assert "analytic mean: 8.16418" in out
    assert "agreement within 3 se + budget: yes" in out


def test_coeff_subcommand_emits_csv(capsys):
    code = main(["--seed", "3", "coeff", "--points", "1.0:0.5,2.0:1.1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "k,t_1,theta_1,t_2,theta_2,c_k"
    # floats print as %.17g, like every CSV the package writes
    assert out[1] == "2,1,0.5,2,1.1000000000000001,1"


def test_reconstruct_subcommand_on_provided_atoms(tmp_path, capsys):
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("t,theta\n1.0,0.5\n2.0,1.1\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("mu = 1.0\nT = 3\nM = 2\nkernel = exp\nalpha = 0.5\nbeta = 1.0\n")
    code = main(["--config", str(cfg), "reconstruct", "--atoms", str(atoms)])
    out = capsys.readouterr().out
    assert code == 0
    assert "exact_match,True" in out


# T = 2 keeps the characterization band narrow enough to pass at 600 paths
CHAR = VALID.replace("T = 5", "T = 2") + "n_paths = 600\npoints_per_path = 2\n"
# the order terms characterize printed as CSV before it ran through run_experiment
CHAR_TERMS = [
    (3.5933333333333333, 0.18012526814435884),
    (-0.9866666666666667, 0.24853434216575243),
    (-0.42666666666666664, 0.4927750303835084),
    (-0.14222222222222225, 0.8420800060430262),
]

# stdout of each Monte Carlo subcommand at a fixed seed, pinned on the tree
# where characterize and ipp still called their estimators directly
PINNED_STDOUT = {
    "simulate": (["--seed", "11", "--paths", "300"], [
        "event count over 300 paths (capped): 8.35000 +- 0.27920",
        "overflow fraction: 0.04333",
    ]),
    "expect": (["--seed", "11", "--paths", "300"], [
        "analytic mean: 8.16418 (error budget 8.3e-06)",
        "mc mean (300 paths, exact thinning): 8.60667 +- 0.29495",
        "agreement within 3 se + budget: yes",
    ]),
    "branching": (["--seed", "11", "--paths", "300"], [
        "mean value at horizon: 8.14333 +- 0.49333",
        "fraction of jumps >= 2: 0.21447",
    ]),
    "characterize": (["--config", "char.cfg"], [
        *(f"order {j}: {mean:.5f} +- {se:.5f}" for j, (mean, se) in enumerate(CHAR_TERMS, 1)),
        "cumulative: 2.03778 +- 1.14293",
        "reference E[F]: 2.68833 +- 0.09664",
        "residual: -0.65056 +- 1.14683 (truncation budget 2.66846)",
        "identity holds within 3 se + budget: yes",
    ]),
    "ipp": (["--seed", "5", "--paths", "400"], [
        "hawkes_count: lhs 12.75000 rhs 16.36250 diff -3.61250 +- 2.79826 -> ok",
        "window_count: lhs 20.00000 rhs 26.83250 diff -6.83250 +- 5.23523 -> ok",
        "constant: lhs 0.00000 rhs 0.87750 diff -0.87750 +- 0.68656 -> ok",
    ]),
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_monte_carlo_subcommands_print_pinned_numbers(command, tmp_path, monkeypatch, capsys):
    (tmp_path / "char.cfg").write_text(CHAR)
    monkeypatch.chdir(tmp_path)
    options, lines = PINNED_STDOUT[command]
    assert main(options + [command]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_characterize_out_is_run_experiments_artifacts(tmp_path, capsys):
    cfg = tmp_path / "char.cfg"
    cfg.write_text(CHAR)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "cli"), "characterize"]) == 0
    spec = ExperimentSpec("characterization", build_params(parse_config(CHAR)), 600, seed=7,
                          points_per_path=2)
    res = run_experiment(spec, out_dir=tmp_path / "lib")
    assert [a.name for a in res.artifacts] == ["characterization.csv", "results.csv", "run.jsonl"]
    for artifact in res.artifacts:
        assert (tmp_path / "cli" / artifact.name).read_bytes() == artifact.read_bytes()
    with open(tmp_path / "cli" / "characterization.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["order", "mean", "se"]
    assert [(float(m), float(se)) for _, m, se in rows[1:5]] == CHAR_TERMS
    assert [row[0] for row in rows[5:]] == ["cumulative", "reference"]


def test_ipp_out_writes_one_directory_per_functional(tmp_path, capsys):
    assert main(["--seed", "5", "--paths", "400", "--out", str(tmp_path), "ipp"]) == 0
    params = build_params(RunConfig())
    for name, make in IPP_FUNCTIONALS.items():
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == ["results.csv", "run.jsonl"]
        with open(tmp_path / name / "results.csv", newline="") as fh:
            header, row = list(csv.reader(fh))
        assert header == ["statistic", "mean", "se", "n", "seed"]
        diff = ipp_check_order1(make(params), params.window, 400, (5, 0)).diff
        assert row == ["ipp", f"{diff.mean:.17g}", f"{diff.se:.17g}", "400", "5"]
        assert (float(row[1]), float(row[2])) == (diff.mean, diff.se)


def test_branching_without_jumps_exits_zero(tmp_path, capsys):
    # so small a baseline leaves every path empty: a fraction of no jumps is 0
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("mu = 0.001\nT = 0.1\nM = 4\nkernel = exp\nalpha = 0.5\nbeta = 1.0\n")
    assert main(["--config", str(cfg), "--paths", "5", "branching"]) == 0
    assert "fraction of jumps >= 2: 0.00000" in capsys.readouterr().out.splitlines()


def test_simulate_writes_artifacts(tmp_path, capsys):
    code = main(["--paths", "50", "--out", str(tmp_path), "simulate"])
    assert code == 0
    assert (tmp_path / "paths.csv").exists()
    assert (tmp_path / "results.csv").exists()


def test_ipp_subcommand(capsys):
    code = main(["--paths", "1500", "--seed", "5", "ipp"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("ok") == 3


def test_selfcheck_passes(capsys):
    code = main(["selfcheck"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(l.startswith("PASS") for l in lines)


# files the bad-input cases below read from the working directory
BAD_INPUT_FILES = {
    "one_column_atoms.csv": "t,theta\n0.5\n",
    "one_column_kernel.csv": "t,value\n0\n0.01,0.4\n",
    "table.cfg": VALID.replace("kernel = exp", "kernel = table\ntable = one_column_kernel.csv"),
    "no_points.cfg": VALID + "points_per_path = 0\n",
    "budget2.cfg": VALID + "budget = 2\n",
    "split.cfg": VALID + "split = 0.5\n",            # a key RunConfig no longer has
    "inf_h.cfg": VALID + "h = inf\n",
    "j_max23.cfg": VALID + "j_max = 23\n",           # one over the default budget of 22
    "j_max_huge.cfg": VALID + f"j_max = {2**40}\n",
    # numpy refuses these allocations (TiB and PiB) at once, before using any memory
    "tiny_h.cfg": VALID + "h = 1e-12\n",
    # horizon / h passes numpy's largest arange, and overflows a float
    "h_1e-300.cfg": VALID + "h = 1e-300\n",
    "h_1e-320.cfg": VALID + "h = 1e-320\n",
    "huge_T.cfg": VALID.replace("T = 5", "T = 1e15"),
    "negative_seed.cfg": VALID.replace("seed = 7", "seed = -1"),
    "negative_budget.cfg": VALID + "budget = -1\n",
}


# explicit ids, so a case added anywhere renames no other test; the ids are
# the positional ones the cases had before they were pinned
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["reconstruct"], id="argv0"),   # seed 7 samples 24 atoms, budget 22
        pytest.param(["--paths", "0", "simulate"], id="argv1"),
        pytest.param(["coeff", "--points", "1:0.5,1:0.7"], id="argv2"),   # duplicate time
        pytest.param(["coeff", "--points", "9:0.5"], id="argv3"),         # outside the window
        pytest.param(["reconstruct", "--atoms", "one_column_atoms.csv"], id="argv4"),
        pytest.param(["--config", "table.cfg", "simulate"], id="argv5"),  # one-column kernel table row
        pytest.param(["--config", "no_points.cfg", "--paths", "10", "characterize"], id="argv6"),
        pytest.param(["--paths", "1", "characterize"], id="argv7"),       # one path has no se to band
        pytest.param(["--paths", "1", "ipp"], id="argv8"),
        pytest.param(["--paths", "1", "expect"], id="argv9"),
        pytest.param(["coeff", "--random", "2", "--k-max", "0"], id="argv10"),
        # five points need a budget of 4 earlier atoms
        pytest.param(["--config", "budget2.cfg", "coeff", "--points",
                      "0.5:0.5,1:0.5,1.5:0.5,2:0.5,2.5:0.5"], id="argv11"),
        pytest.param(["--config", "split.cfg", "simulate"], id="argv12"),
        pytest.param(["--config", "inf_h.cfg", "expect"], id="argv13"),
        pytest.param(["--config", "j_max23.cfg", "characterize"], id="argv14"),
        pytest.param(["--config", "j_max_huge.cfg", "characterize"], id="argv15"),
        # j_max 4 > budget 2
        pytest.param(["--config", "budget2.cfg", "--paths", "20", "characterize"], id="argv16"),
        pytest.param(["--config", "tiny_h.cfg", "expect"], id="argv17"),
        pytest.param(["--config", "h_1e-300.cfg", "expect"], id="argv18"),
        pytest.param(["--config", "h_1e-320.cfg", "expect"], id="argv19"),
        *(pytest.param(["--config", "huge_T.cfg", command], id=f"argv{i}")
          for i, command in enumerate(("simulate", "expect", "branching", "characterize", "ipp"), 20)),
        pytest.param(["--seed", "-1", "--paths", "5", "simulate"], id="negative_seed"),
        pytest.param(["--config", "negative_seed.cfg", "coeff", "--random", "2"],
                     id="negative_seed_in_config"),
        pytest.param(["--config", "negative_budget.cfg", "coeff", "--points", "0.5:0.5"],
                     id="negative_budget"),
    ],
)
def test_bad_input_exits_with_usage_error(argv, capsys, tmp_path, monkeypatch):
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_oversized_run_names_what_to_lower(tmp_path, capsys):
    # numpy raises MemoryError for most of these, ValueError("array is too
    # big") for characterize's sample and ValueError("Maximum allowed size
    # exceeded") for the ladder's grid at h = 1e-300; all get the hint
    runs = [("tiny_h.cfg", "expect"), ("h_1e-300.cfg", "expect")] + [
        ("huge_T.cfg", command)
        for command in ("simulate", "expect", "branching", "characterize", "ipp")
    ]
    for name, command in runs:
        cfg = tmp_path / name
        cfg.write_text(BAD_INPUT_FILES[name])
        assert main(["--config", str(cfg), command]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: "), command
        assert err.endswith("; lower T, M, n_paths or n_max, or raise h\n"), (command, err)


@pytest.mark.parametrize(
    "argv, also",
    [
        # seed 7, the default, samples 24 atoms
        pytest.param(["reconstruct"], ", pass fewer atoms with --atoms, or pick another --seed",
                     id="argv0-, pass fewer atoms with --atoms, or pick another --seed"),
        pytest.param(["--config", "budget2.cfg", "coeff", "--points",
                      "0.5:0.5,1:0.5,1.5:0.5,2:0.5,2.5:0.5"], "", id="argv1-"),
        pytest.param(["--config", "budget2.cfg", "--paths", "20", "characterize"], ", or lower j_max",
                     id="argv2-, or lower j_max"),
    ],
)
def test_atom_budget_error_names_the_budget_setting(argv, also, capsys, tmp_path, monkeypatch):
    (tmp_path / "budget2.cfg").write_text(BAD_INPUT_FILES["budget2.cfg"])
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "atoms exceed the enumeration budget of" in err
    assert err.endswith(f"; raise budget in the --config file{also}\n"), err


@pytest.mark.parametrize("command", ["simulate", "branching"])
def test_single_path_prints_missing_se(command, capsys):
    assert main(["--paths", "1", command]) == 0
    assert "+- n/a" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, named",
    [
        # explicit ids, the positional ones the first two cases had
        pytest.param(["--paths", "1", "ipp"], "n_paths must be >= 2", id="argv0-n_paths must be >= 2"),
        pytest.param(["coeff", "--random", "2", "--k-max", "0"], "--k-max must be >= 1, got 0",
                     id="argv1---k-max must be >= 1, got 0"),
        pytest.param(["--seed", "-1", "--paths", "5", "simulate"], "seed must be >= 0, got -1",
                     id="negative_seed"),
        pytest.param(["--config", "negative_budget.cfg", "coeff", "--points", "0.5:0.5"],
                     "budget must be >= 0, got -1", id="negative_budget"),
    ],
)
def test_usage_error_names_the_setting(argv, named, capsys, tmp_path, monkeypatch):
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "expect"])
def test_kernel_table_is_read_once_per_run(command, tmp_path, monkeypatch, capsys):
    table = tmp_path / "kernel.csv"
    grid = 0.01 * np.arange(801)
    rows = [f"{t!r},{v!r}" for t, v in zip(grid.tolist(), (0.5 * np.exp(-grid)).tolist())]
    table.write_text("t,value\n" + "\n".join(rows) + "\n")
    cfg = tmp_path / "table.cfg"
    cfg.write_text(VALID.replace("kernel = exp", f"kernel = table\ntable = {table}"))
    reads = []
    from_csv = Kernel.from_csv.__func__

    def counting_from_csv(cls, path):
        reads.append(path)
        return from_csv(cls, path)

    monkeypatch.setattr(Kernel, "from_csv", classmethod(counting_from_csv))
    assert main(["--config", str(cfg), "--paths", "200", command]) == 0
    assert len(reads) == 1


# bounded settings keep one run of a subcommand within tens of milliseconds
_BOUNDED = {
    "mu": st.floats(0.1, 3.0), "T": st.floats(0.1, 5.0), "M": st.floats(0.1, 5.0),
    "kernel": st.sampled_from(["exp", "zero"]), "alpha": st.floats(0.0, 1.2),
    "beta": st.floats(1.0, 5.0), "seed": st.integers(0, 2**64), "n_paths": st.integers(1, 50),
    "h": st.floats(0.01, 2.0), "n_max": st.integers(1, 40),
    # j_max above 22 exceeds every budget drawn here and the default
    "j_max": st.one_of(st.integers(1, 3), st.integers(23, 2**40)),
    "points_per_path": st.integers(1, 3), "thinning": st.sampled_from(["capped", "exact"]),
    "budget": st.integers(0, 16),
}
# junk text has no digits, and the fixed junk parses to nothing, 0, +-1, 10 or a
# non-finite value, so it never makes a tiny grid step or a large path count
_JUNK = st.one_of(
    st.sampled_from(["", "-1", "0", "nan", "inf", "-inf", "1e999", "-0", "1_0", "0x1", "table"]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8),
)
_POINT = st.builds("{}:{}".format, st.floats(-1.0, 6.0), st.floats(-1.0, 6.0))
_COEFF_ARGS = st.one_of(
    st.builds(
        lambda n, k: ["--random", str(n), "--k-max", str(k)], st.integers(-1, 3), st.integers(-1, 4)
    ),
    st.one_of(st.lists(_POINT, max_size=5).map(",".join), _JUNK).map(lambda pts: ["--points=" + pts]),
)
_COMMAND_ARGS = st.sampled_from(sorted(set(_COMMANDS) - {"selfcheck"})).flatmap(
    lambda command: st.just([command]) if command != "coeff" else _COEFF_ARGS.map(["coeff"].__add__)
)


@given(
    overrides=st.fixed_dictionaries(
        {}, optional={key: values.map(str) for key, values in _BOUNDED.items()}
    ),
    junk=st.one_of(st.none(), st.tuples(st.sampled_from(sorted(_BOUNDED)), _JUNK)),
    command=_COMMAND_ARGS,
)
@settings(max_examples=300)
def test_main_exits_with_a_documented_code(tmp_path_factory, overrides, junk, command):
    """Every subcommand but selfcheck, on a bounded config with at most one junk
    value, exits 0, 1 or 2 with no traceback; characterize with j_max over the
    atom budget exits 2."""
    lines = {"n_paths": "20", **overrides, **dict([junk] if junk else [])}   # the last value wins
    path = tmp_path_factory.mktemp("fuzz") / "run.cfg"
    path.write_text(VALID + "".join(f"{key} = {value}\n" for key, value in lines.items()))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["--config", str(path)] + command)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    j_max, budget = lines.get("j_max", "4"), lines.get("budget", "22")
    if command == ["characterize"] and j_max.isdigit() and budget.isdigit() and int(j_max) > int(budget):
        assert code == 2   # refused before any mask is built
