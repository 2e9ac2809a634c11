import json

import numpy as np
import pytest

from degensink.cli import main
from degensink.instances import appendix_a_instance, dump_instance


@pytest.fixture
def instance_file(tmp_path):
    r, mu, nu = appendix_a_instance()
    path = tmp_path / "appendix.json"
    dump_instance(r, mu, nu, path)
    return str(path)


def test_solve_report_json(instance_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["solve", "--instance", instance_file, "--stop", "delta",
                 "--tol", "1e-12", "--max-iter", "5000", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    np.testing.assert_allclose(payload["p_star"], [[1.6, 0.4, 0], [0, 2, 0], [0, 0, 2]], atol=1e-6)
    assert payload["converged"] is True
    assert payload["classification"]["tag"] == "NonScalable"
    assert payload["classification"]["witness"] == [2]


def test_solve_classifies_above_cap_with_one_max_flow(tmp_path, monkeypatch):
    # 25 rows exceed the enumeration cap: the max-flow that shows the
    # instance feasible also yields its tag, and no other flow runs
    from degensink import scalability

    calls = []

    def counting(name):
        flow = getattr(scalability.nx, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return flow(*args, **kwargs)
        return wrapper

    for name in ("maximum_flow", "maximum_flow_value", "minimum_cut"):
        monkeypatch.setattr(scalability.nx, name, counting(name))
    out = tmp_path / "report.json"
    code = main(["solve", "--gen", "kind=staircase,n=25,blocks=1", "--stop", "delta",
                 "--tol", "1e-9", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["classification"] == {
        "tag": "ApproximatelyScalable", "witness": None}
    assert calls == ["maximum_flow"]


def test_solve_gen_and_trace(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["solve", "--gen", "kind=upper,n=3", "--stop", "delta",
                 "--tol", "1e-10", "--emit", "trace", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iteration,gap"
    assert len(lines) > 5


def test_solve_not_converged_exit_code(instance_file, tmp_path):
    code = main(["solve", "--instance", instance_file, "--stop", "gap",
                 "--max-iter", "5", "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_classify_stdout(instance_file, capsys):
    assert main(["classify", "--instance", instance_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"tag": "NonScalable", "witness": [2]}


def test_support_exact_with_trace(instance_file, capsys):
    assert main(["support", "--instance", instance_file, "--method", "exact",
                 "--emit-trace"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mask"] == [[True, True, False], [False, True, False], [False, False, True]]
    assert payload["stationary_at"] == 2
    assert payload["trace"][0]["sisp_rows"] == [2]


def test_support_approx(instance_file, capsys):
    assert main(["support", "--instance", instance_file, "--method", "approx"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mask"] == [[True, True, False], [False, True, False], [False, False, True]]


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


def test_appendix_a_subcommand(capsys):
    assert main(["appendix-a"]) == 0
    out = capsys.readouterr().out
    assert "Iteration 81" in out and "R* =" in out


def test_assumption_violation_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    dump_instance(np.diag([1.0, 0.0]), [1.0, 1.0], [1.0, 1.0], path)
    assert main(["solve", "--instance", str(path), "--stop", "delta"]) == 3


def test_gen_parse_errors():
    with pytest.raises(SystemExit):
        main(["solve", "--gen", "kind=bogus,n=3"])
    with pytest.raises(SystemExit):
        main(["solve"])
