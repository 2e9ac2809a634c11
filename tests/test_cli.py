import json

import numpy as np
import pytest

from degensink import cli, experiments
from degensink.cli import main
from degensink.experiments import EPSILONS, LAMBDAS
from degensink.instances import KIND_UPPER, InstanceSpec, appendix_a_instance, gen_instance
from degensink.sinkhorn import run_sinkhorn
from conftest import write_instance


@pytest.fixture
def instance_file(tmp_path):
    r, mu, nu = appendix_a_instance()
    path = tmp_path / "appendix.json"
    write_instance(r, mu, nu, path)
    return str(path)


def test_solve_report_json(instance_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["solve", "--instance", instance_file,
                 "--tol", "1e-12", "--max-iter", "5000", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    np.testing.assert_allclose(payload["p_star"], [[1.6, 0.4, 0], [0, 2, 0], [0, 0, 2]], atol=1e-6)
    assert payload["converged"] is True
    assert payload["classification"]["tag"] == "NonScalable"
    assert payload["classification"]["witness"] == [2]


def test_solve_classifies_above_cap_with_one_max_flow(tmp_path, max_flow_calls):
    # 25 rows: one max-flow tells Scalable from ApproximatelyScalable at
    # any size, and no other flow runs
    out = tmp_path / "report.json"
    code = main(["solve", "--gen", "kind=staircase,n=25,blocks=1",
                 "--tol", "1e-9", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["classification"] == {"tag": "Scalable", "witness": None}
    assert len(max_flow_calls) == 1


def test_solve_gen_and_trace(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["solve", "--gen", "kind=upper,n=3",
                 "--tol", "1e-10", "--emit", "trace", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iteration,gap"
    assert len(lines) > 5


def test_solve_default_stop_fires_on_degenerate_triple(capsys):
    # no flags: the default iterate-delta rule at 1e-3 stops the
    # non-scalable upper-triangular triple, as StopConfig() does
    assert main(["solve", "--gen", "kind=upper,n=3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True and payload["iterations"] <= 100
    assert payload["stop_reason"] == "criterion"
    assert payload["classification"]["tag"] == "NonScalable"
    r, mu, nu = gen_instance(InstanceSpec(KIND_UPPER, 3, 3))
    report = run_sinkhorn(r, mu, nu)
    assert report.converged and report.iterations == payload["iterations"]


def test_solve_not_converged_exit_code(instance_file, tmp_path):
    code = main(["solve", "--instance", instance_file, "--tol", "0",
                 "--max-iter", "5", "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert json.loads((tmp_path / "r.json").read_text())["stop_reason"] == "max_iter"


@pytest.mark.parametrize("flag", [["--stop", "gap"], ["--lambda", "10"]])
def test_solve_has_one_stop_rule(flag):
    # solve stops on the iterate-delta rule alone; lambda belongs to the
    # penalized relaxations (experiment tv-vs-lambda)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--gen", "kind=upper,n=3", *flag])
    assert exc.value.code == 2


def test_solve_overflow_exit_code(tmp_path, capsys):
    r, mu, nu = appendix_a_instance()
    path = tmp_path / "huge.json"
    write_instance(r, 1e300 * mu, 1e300 * nu, path)
    code = main(["solve", "--instance", str(path), "--tol", "1e-13"])
    assert code == 2
    assert "float overflow" in capsys.readouterr().err


def test_solve_total_mass_overflow_exit_code(tmp_path, capsys):
    # the masses 2e308 exceed the float range: "not converged", exit code 2
    path = tmp_path / "beyond.json"
    write_instance(np.ones((2, 2)), np.array([1e308, 1e308]), np.array([1e308, 1e308]), path)
    assert main(["solve", "--instance", str(path)]) == 2
    assert "total mass exceeds the float range" in capsys.readouterr().err


def test_classify_stdout(instance_file, capsys):
    assert main(["classify", "--instance", instance_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"tag": "NonScalable", "witness": [2]}


def test_support_exact_with_trace(instance_file, capsys):
    assert main(["support", "--instance", instance_file, "--method", "exact",
                 "--emit-trace"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "mask": [[True, True, False], [False, True, False], [False, False, True]],
        "trace": [
            {"rows": [0, 1, 2], "cols": [0, 1, 2], "sisp_rows": [2], "sisp_cols": [2],
             "theta": 2.0},
            {"rows": [0, 1], "cols": [0, 1], "sisp_rows": [0, 1], "sisp_cols": [0, 1],
             "theta": 0.8},
        ],
        "stationary_at": 2,
    }


def test_support_approx(instance_file, capsys):
    assert main(["support", "--instance", instance_file, "--method", "approx",
                 "--emit-trace"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "mask": [[True, True, False], [False, True, False], [False, False, True]],
        "steps": [
            {"removed_rows": [2], "removed_cols": [2], "inner_iterations": 2},
            {"removed_rows": [0, 1], "removed_cols": [0, 1], "inner_iterations": 12},
        ],
        "inner_iterations": 14,
    }


@pytest.mark.parametrize("method", ["exact", "approx"])
def test_support_on_a_massless_row(tmp_path, capsys, method):
    # the exact procedure rejected a row without mass (exit 3) that the
    # approximate one and classify accept
    path = tmp_path / "massless_row.json"
    write_instance(np.triu(np.ones((3, 3))), [2.0, 0.0, 2.0], [1.0, 1.0, 2.0], path)
    assert main(["support", "--instance", str(path), "--method", method]) == 0
    assert json.loads(capsys.readouterr().out)["mask"] == [
        [True, True, False], [False, False, False], [False, False, True]]


def test_experiment_tv_vs_lambda_csv(tmp_path, instance_file):
    out = tmp_path / "sweep.csv"
    code = main(["experiment", "tv-vs-lambda", "--instance", instance_file,
                 "--lambdas", "10", "100", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,tv"
    assert len(lines) == 3
    tv10, tv100 = (float(line.split(",")[1]) for line in lines[1:])
    assert tv100 < tv10


def test_experiment_tv_vs_epsilon_csv(tmp_path, instance_file):
    out = tmp_path / "eps.csv"
    code = main(["experiment", "tv-vs-epsilon", "--instance", instance_file,
                 "--epsilons", "0.1", "0.01", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epsilon,tv,iterations"
    assert len(lines) == 3


def test_experiment_iterations_csv(tmp_path):
    out = tmp_path / "iters.csv"
    code = main(["experiment", "iterations-vs-zeros", "--size", "24",
                 "--min-blocks", "1", "--max-blocks", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n_blocks,extra_zeros,iters_plain,iters_naive,iters_preproc"
    assert len(lines) == 3


def test_experiment_fig6_csvs(tmp_path, capsys):
    prefix = tmp_path / "fig6"
    assert main(["experiment", "fig6", "--size", "20", "--out-prefix", str(prefix)]) == 0
    lam_lines = (tmp_path / "fig6-lambda.csv").read_text().splitlines()
    eps_lines = (tmp_path / "fig6-epsilon.csv").read_text().splitlines()
    assert lam_lines[0] == "lambda,tv"
    assert [float(line.split(",")[0]) for line in lam_lines[1:]] == sorted(LAMBDAS)
    assert eps_lines[0] == "epsilon,tv,iterations"
    assert [float(line.split(",")[0]) for line in eps_lines[1:]] == sorted(EPSILONS, reverse=True)
    assert capsys.readouterr().out == "classification: NonScalable\n"


@pytest.mark.parametrize("size", ["0", "1"])
def test_experiment_fig6_needs_two_blocks(size, capsys, tmp_path, monkeypatch):
    # a block of size 0 ended in a ZeroDivisionError traceback, exit code 1;
    # the two output files, opened first, do not outlive the error
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "fig6", "--size", size])
    assert exc.value.code == 2
    assert "at least one row" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_appendix_a_subcommand(capsys):
    assert main(["appendix-a"]) == 0
    out = capsys.readouterr().out
    assert "Iteration 81" in out and "R* =" in out


def test_assumption_violation_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    write_instance(np.diag([1.0, 0.0]), [1.0, 1.0], [1.0, 1.0], path)
    assert main(["solve", "--instance", str(path)]) == 3


def test_gen_parse_errors():
    with pytest.raises(SystemExit):
        main(["solve", "--gen", "kind=bogus,n=3"])
    with pytest.raises(SystemExit):
        main(["solve"])


def test_gen_without_size_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--gen", "kind=upper"])
    assert exc.value.code == 2
    assert "n=" in capsys.readouterr().err


def test_gen_with_a_negative_seed_names_the_field(capsys):
    # numpy's own message, "expected non-negative integer", did not
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--gen", "kind=random,n=3,seed=-1"])
    assert exc.value.code == 2
    assert "seed must be non-negative" in capsys.readouterr().err


def test_solve_nan_tolerance_is_a_usage_error(monkeypatch, capsys):
    # rejected before the first iteration, not reported as not converged
    # after --max-iter of them
    from degensink import cli

    monkeypatch.setattr(cli, "run_sinkhorn", None)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--gen", "kind=upper,n=3", "--tol", "nan"])
    assert exc.value.code == 2
    assert "epsilon_tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["solve", "--gen", "kind=upper,n=3"],
                                  ["support", "--gen", "kind=staircase,n=12,blocks=3",
                                   "--method", "approx"]], ids=["solve", "support"])
def test_infinite_tolerance_is_a_usage_error(argv, capsys):
    # solve stopped after one iteration and printed P^1 as the limit; the
    # approximate support kept all 78 entries of R, where the limit has 30
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "inf"])
    assert exc.value.code == 2
    assert "epsilon_tol must be a finite nonnegative number" in capsys.readouterr().err


def test_instance_json_not_an_object_is_a_usage_error(tmp_path, capsys):
    # a top-level list ended in a TypeError traceback, exit code 1
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--instance", str(path)])
    assert exc.value.code == 2
    assert "must be an object" in capsys.readouterr().err


def test_missing_instance_file_is_a_usage_error(tmp_path, capsys):
    # ended in a FileNotFoundError traceback, exit code 1
    path = tmp_path / "absent.json"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", str(path)])
    assert exc.value.code == 2
    assert "cannot read --instance" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["appendix-a", "--out", "{absent}/x"],
    ["solve", "--gen", "kind=upper,n=3", "--out", "{dir}"],
    ["experiment", "fig6", "--size", "20", "--out-prefix", "{absent}/f"],
    ["experiment", "fig6", "--size", "20", "--out-prefix", "{dir}/f"],
], ids=["appendix-a", "solve-to-a-directory", "fig6", "fig6-epsilon-a-directory"])
def test_unwritable_output_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    # ended in a FileNotFoundError or IsADirectoryError traceback, exit code
    # 1, and only after the whole computation: the output is opened first
    def computed(*args, **kwargs):
        raise AssertionError("computed before opening the output")

    for module, name in ((cli, "run_sinkhorn"), (experiments, "experiment_fig6"),
                         (experiments, "run_appendix_a")):
        monkeypatch.setattr(module, name, computed)
    (tmp_path / "f-epsilon.csv").mkdir()
    argv = [arg.format(absent=tmp_path / "absent", dir=tmp_path) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot write --out" in err and str(tmp_path) in err
    # fig6 opened its first table before the second failed: it is gone
    assert [path.name for path in tmp_path.iterdir()] == ["f-epsilon.csv"]
