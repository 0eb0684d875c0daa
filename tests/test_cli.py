"""End to end runs of the command line interface, in process."""

import json
import math
import warnings

import numpy as np
import pytest

from corrpress import ConvergenceFailure, cli, variational
from corrpress.cli import _build_parser, _sanitize, main
from corrpress.pressure import PATH_MAX, SpectralCache

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
LOG_GOLDEN = math.log(GOLDEN)
PARRY = [(5.0 + math.sqrt(5.0)) / 10.0, (5.0 - math.sqrt(5.0)) / 10.0]


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


GOLDEN_MEAN = {"n_states": 2, "edges": [[0, 0], [0, 1], [1, 0]]}


def golden_corr(tmp_path):
    return write(tmp_path, "corr.json", GOLDEN_MEAN)


def parry_mu(tmp_path):
    return write(tmp_path, "mu.json", {"weights": PARRY})


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_pressure_both_routes(tmp_path, capsys):
    corr = golden_corr(tmp_path)
    code, doc = run(capsys, ["pressure", "--input", corr])
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["results"]["spectral"]["pressure"] == pytest.approx(LOG_GOLDEN, abs=1e-11)
    assert doc["results"]["gap"] <= 5e-3
    assert "minus_infinity" not in doc["results"]["spectral"]
    assert doc["inputs"]["input"]["sha256"]


def test_pressure_output_file(tmp_path, capsys):
    corr = golden_corr(tmp_path)
    out = tmp_path / "report.json"
    code = main(["pressure", "--input", corr, "--method", "spectral",
                 "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "pressure"
    assert "paths" not in doc["results"]


def test_reports_are_byte_identical(tmp_path):
    corr = golden_corr(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["equilibrium", "--input", corr, "--output", str(a)]) == 0
    assert main(["equilibrium", "--input", corr, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_equilibrium_documents_round_trip(tmp_path, capsys):
    corr = golden_corr(tmp_path)
    code, doc = run(capsys, ["equilibrium", "--input", corr])
    assert code == 0
    res = doc["results"]
    assert res["pressure"] == pytest.approx(LOG_GOLDEN, abs=1e-11)
    assert res["entropy"] + res["integral"] == pytest.approx(res["pressure"], abs=1e-9)
    assert res["measure"]["weights"] == pytest.approx(PARRY, abs=1e-9)

    mu = write(tmp_path, "eq_mu.json", res["measure"])
    nu = write(tmp_path, "eq_pair.json", res["pair"])
    kernel = write(tmp_path, "eq_kernel.json", res["kernel"])

    code, doc = run(capsys, ["invariant", "--input", corr, "--mu", mu])
    assert code == 0
    assert doc["results"]["invariant"] is True
    assert "modes" not in doc["results"]
    assert doc["results"]["violating_subset"] is None
    assert doc["results"]["marginal_gap"] <= 1e-9

    code, doc = run(capsys, ["mpressure", "--input", corr, "--mu", mu])
    assert code == 0
    assert doc["results"]["value"] == pytest.approx(LOG_GOLDEN, abs=1e-7)
    # a constant field says nothing, so the report has none
    assert "converged" not in doc["results"]

    code, doc = run(capsys, ["aentropy", "--input", corr, "--nu", nu])
    assert code == 0
    assert doc["results"]["minus_infinity"] is False
    assert doc["results"]["value"] == pytest.approx(LOG_GOLDEN, abs=1e-4)
    assert not {"iterations", "converged"} & set(doc["results"])

    code, doc = run(capsys, ["kentropy", "--input", corr,
                             "--kernel", kernel, "--mu", mu])
    assert code == 0
    assert doc["results"]["value"] == pytest.approx(LOG_GOLDEN, abs=1e-9)


def test_missing_file_is_an_input_error(tmp_path, capsys):
    code, doc = run(capsys, ["pressure", "--input", str(tmp_path / "nope.json")])
    assert code == 2
    assert doc["status"] == "error"
    assert doc["error"]["type"] == "ShapeMismatch"


def test_duplicate_edge_is_an_input_error(tmp_path, capsys):
    corr = write(tmp_path, "dup.json",
                 {"n_states": 2, "edges": [[0, 0], [0, 0], [0, 1], [1, 0]]})
    code, doc = run(capsys, ["pressure", "--input", corr])
    assert code == 2
    assert doc["error"]["type"] == "DuplicateEdge"


def test_unnormalized_measure_is_an_input_error(tmp_path, capsys):
    corr = golden_corr(tmp_path)
    mu = write(tmp_path, "bad_mu.json", {"weights": [0.7, 0.2]})
    code, doc = run(capsys, ["invariant", "--input", corr, "--mu", mu])
    assert code == 2
    assert doc["error"]["type"] == "ShapeMismatch"


@pytest.mark.parametrize("text", [
    '{"n_states": 1e999, "edges": [[0, 0]]}',
    '{"n_states": 2, "edges": [[0, 1e999], [1, 0]]}',
])
def test_non_finite_number_is_an_input_error(tmp_path, capsys, text):
    # JSON reads 1e999 as infinity, which is no whole number
    path = tmp_path / "inf.json"
    path.write_text(text)
    code, doc = run(capsys, ["pressure", "--input", str(path)])
    assert code == 2
    assert doc["status"] == "error"
    assert doc["error"]["type"] == "ShapeMismatch"
    assert "inf" in doc["error"]["message"]


def test_huge_state_count_is_refused_before_allocation(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"n_states": 1000000, "edges": [[0, 0]]}')
    code = main(["pressure", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert len(out.encode()) < 2048
    doc = json.loads(out)
    assert doc["error"]["type"] == "EmptySuccessor"
    assert "and 999979 more" in doc["error"]["message"]


def test_wrong_label_count_names_both_counts(tmp_path, capsys):
    corr = write(tmp_path, "labels.json",
                 {"n_states": 2, "edges": [[0, 0], [0, 1], [1, 0]],
                  "labels": ["a", "b", "c"]})
    code, doc = run(capsys, ["pressure", "--input", corr])
    assert code == 2
    assert doc["error"]["type"] == "ShapeMismatch"
    assert doc["error"]["message"] == "3 labels for 2 states"


@pytest.mark.parametrize("successor", [-1, 5])
def test_kernel_successor_out_of_range_is_an_input_error(tmp_path, capsys,
                                                         successor):
    # -1 must not wrap around to state 1, where (0, 1) is an edge
    kernel = write(tmp_path, "k.json", {"rows": [[[successor, 1.0]], [[0, 1.0]]]})
    mu = write(tmp_path, "mu.json", {"weights": [0.5, 0.5]})
    code, doc = run(capsys, ["kentropy", "--input", golden_corr(tmp_path),
                             "--kernel", kernel, "--mu", mu])
    assert code == 2
    assert doc["error"]["type"] == "IndexOutOfRange"
    assert f"(0, {successor})" in doc["error"]["message"]


def _documents_with(tmp_path, bad, where):
    """The argv of one command, with bad as the state index or count
    at `where` and every other document valid."""
    corr = {"n_states": 2, "edges": [[0, 0], [0, 1], [1, 0]]}
    phi = {"edges": [[0, 1, 0.5]]}
    nu = {"edges": [[0, 0, 0.5], [0, 1, 0.25], [1, 0, 0.25]]}
    kernel = {"rows": [[[0, 1.0 / GOLDEN], [1, 1.0 / GOLDEN ** 2]], [[0, 1.0]]]}
    config = {"theta": [1, 0], "blocks": [[0], [0, 1]], "cells": [[0, 1]]}
    if where == "n_states":
        corr["n_states"] = bad
    elif where == "edge":
        corr["edges"][1] = [0, bad]
    elif where == "phi":
        phi["edges"][0] = [0, bad, 0.5]
    elif where == "nu":
        nu["edges"][1] = [0, bad, 0.25]
    elif where == "kernel":
        kernel["rows"][0][1] = [bad, 1.0 / GOLDEN ** 2]
    else:
        config[where] = [[0], [bad]] if where != "theta" else [bad, 0]
    command = {"n_states": "pressure", "edge": "pressure", "phi": "pressure",
               "nu": "aentropy", "kernel": "kentropy", "theta": "relabel",
               "blocks": "decompose", "cells": "kentropy"}[where]
    docs = {"--input": corr, "--phi": phi, "--nu": nu, "--kernel": kernel,
            "--mu": {"weights": PARRY}, "--config": config}
    flags = {"pressure": ["--input", "--phi"], "aentropy": ["--input", "--nu"],
             "kentropy": ["--input", "--kernel", "--mu", "--config"],
             "relabel": ["--input", "--config"],
             "decompose": ["--input", "--config"]}[command]
    return [command] + [x for flag in flags
                        for x in (flag, write(tmp_path, flag[2:] + ".json",
                                              docs[flag]))]


WHERE = ["n_states", "edge", "phi", "nu", "kernel", "theta", "blocks", "cells"]


# int() once read the edge [0, 1.9] as (0, 1), true as 1 and cells
# [[0.7], [1]] as [[0], [1]]
@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("bad", [1.9, 0.7, True, "1", math.nan, math.inf,
                                 -math.inf])
def test_every_state_index_in_a_document_is_a_whole_number(tmp_path, capsys,
                                                           where, bad):
    code, doc = run(capsys, _documents_with(tmp_path, bad, where))
    assert code == 2
    assert doc["error"]["type"] == "ShapeMismatch"
    assert repr(bad) in doc["error"]["message"]


@pytest.mark.parametrize("where", WHERE)
def test_whole_floats_read_as_state_indices(tmp_path, capsys, where):
    reports = []
    whole = 2 if where == "n_states" else 1
    for index in (whole, float(whole)):
        code, doc = run(capsys, _documents_with(tmp_path, index, where))
        assert code == 0
        reports.append(doc["results"])
    assert reports[0] == reports[1]


def test_solver_budget_exhaustion_is_exit_three(tmp_path, capsys, monkeypatch):
    # the Perron solver behind every pressure call gives up
    def exhausted(self, c, values, vectors=True):
        raise ConvergenceFailure(100000, residual=1e-3)

    monkeypatch.setattr(SpectralCache, "solve", exhausted)
    code, doc = run(capsys, ["pressure", "--input", golden_corr(tmp_path),
                             "--method", "spectral"])
    assert code == 3
    assert doc["status"] == "error"
    assert doc["error"]["type"] == "ConvergenceFailure"


def test_mpressure_newton_budget_exhaustion_is_exit_three(tmp_path, capsys):
    # a skewed measure on the full 2-shift under a nonzero potential:
    # its optimal coupling charges every edge and takes four Newton steps
    corr = write(tmp_path, "full.json",
                 {"n_states": 2, "edges": [[0, 0], [0, 1], [1, 0], [1, 1]]})
    phi = write(tmp_path, "phi.json",
                {"edges": [[0, 0, 0.5], [0, 1, 0.0], [1, 0, 0.0], [1, 1, -0.5]]})
    mu = write(tmp_path, "mu.json", {"weights": [0.8, 0.2]})
    cfg = write(tmp_path, "cfg.json", {"max_iterations": 1})
    code, doc = run(capsys, ["mpressure", "--input", corr, "--phi", phi,
                             "--mu", mu, "--config", cfg])
    assert code == 3
    assert doc["status"] == "error"
    assert doc["error"]["type"] == "ScalingDiverged"


def test_skewed_pair_entropy_ignores_the_iteration_budget(tmp_path, capsys):
    corr = write(tmp_path, "full.json",
                 {"n_states": 2, "edges": [[0, 0], [0, 1], [1, 0], [1, 1]]})
    # balanced, far from the uniform pair; the closed form needs no steps
    nu = write(tmp_path, "skew.json",
               {"edges": [[0, 0, 0.4], [0, 1, 0.1], [1, 0, 0.1], [1, 1, 0.4]]})
    cfg = write(tmp_path, "cfg.json", {"max_iterations": 1})
    code, doc = run(capsys, ["aentropy", "--input", corr, "--nu", nu,
                             "--config", cfg])
    assert code == 0
    res = doc["results"]
    assert res["value"] == pytest.approx(
        -(0.8 * math.log(0.8) + 0.2 * math.log(0.2)), abs=1e-12)
    # the closed form iterates nothing, so the report counts no steps
    assert not {"iterations", "converged"} & set(res)


def test_removed_solver_options_are_input_errors(tmp_path, capsys):
    corr = golden_corr(tmp_path)
    nu = write(tmp_path, "loop.json",
               {"edges": [[0, 0, 1.0], [0, 1, 0.0], [1, 0, 0.0]]})
    cfg = write(tmp_path, "cfg.json", {"step_rule": "fixed"})
    code, doc = run(capsys, ["aentropy", "--input", corr, "--nu", nu,
                             "--config", cfg])
    assert code == 2
    assert doc["error"]["type"] == "ShapeMismatch"


THREE = {"n_states": 3, "edges": [[0, 1], [1, 0], [1, 2], [2, 2]]}
# row marginal (0.5, 0.3, 0.2) against column marginal (0.1, 0.5, 0.4)
UNBALANCED = {"edges": [[0, 1, 0.5], [1, 0, 0.1], [1, 2, 0.2], [2, 2, 0.2]]}


def refused(doc, *fragments):
    """The report of an input error whose message names the given text."""
    assert doc["status"] == "error"
    assert doc["error"]["type"] == "ShapeMismatch"
    for text in fragments:
        assert text in doc["error"]["message"]


@pytest.mark.parametrize("options, named", [
    ({"max_iterations": 2.5}, "2.5"),     # once compared equal to no step count
    ({"max_iterations": math.nan}, "nan"),
    ({"max_iterations": math.inf}, "inf"),
    ({"max_iterations": True}, "True"),
    ({"max_iterations": 0}, "0"),
    ({"tolerance": math.nan}, "nan"),     # once a singular Newton system
    ({"tolerance": -math.inf}, "-inf"),
    ({"tolerance": False}, "False"),
    ({"tolerance": "1e-8"}, "1e-8"),
])
def test_mpressure_refuses_bad_solver_options(tmp_path, capsys, options, named):
    cfg = write(tmp_path, "cfg.json", options)
    for weights in ([0.11, 0.89], PARRY):
        mu = write(tmp_path, "mu.json", {"weights": weights})
        code, doc = run(capsys, ["mpressure", "--input", golden_corr(tmp_path),
                                 "--mu", mu, "--config", cfg])
        assert code == 2
        refused(doc, named)


def test_whole_float_step_budget_counts_as_an_integer(tmp_path, capsys):
    mu = parry_mu(tmp_path)
    reports = []
    for budget in (1000, 1e3):
        cfg = write(tmp_path, "cfg.json", {"max_iterations": budget})
        code, doc = run(capsys, ["mpressure", "--input", golden_corr(tmp_path),
                                 "--mu", mu, "--config", cfg])
        assert code == 0
        reports.append(doc["results"])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1e-3, True])
def test_aentropy_refuses_a_bad_tolerance(tmp_path, capsys, tolerance):
    # a NaN tolerance once let this unbalanced pair pass as balanced
    corr = write(tmp_path, "three.json", THREE)
    nu = write(tmp_path, "nu.json", UNBALANCED)
    cfg = write(tmp_path, "cfg.json", {"tolerance": tolerance})
    code, doc = run(capsys, ["aentropy", "--input", corr, "--nu", nu,
                             "--config", cfg])
    assert code == 2
    refused(doc, "tolerance", repr(tolerance))
    code, doc = run(capsys, ["aentropy", "--input", corr, "--nu", nu])
    assert code == 0 and doc["results"]["minus_infinity"] is True


@pytest.mark.parametrize("weight", [math.nan, math.inf])
def test_nan_and_infinite_weights_are_input_errors(tmp_path, capsys, weight):
    phi = write(tmp_path, "phi.json", {"edges": [[0, 1, weight]]})
    code, doc = run(capsys, ["pressure", "--input", golden_corr(tmp_path),
                             "--phi", phi])
    assert code == 2
    refused(doc, repr(weight), "(0, 1)")


@pytest.mark.parametrize("direction", [
    [-math.inf, -math.inf, 0.0, 0.0], [math.nan, 0.0, 0.0, 0.0],
    [math.inf, 0.0, 0.0, 0.0]])
@pytest.mark.parametrize("same_phi", [False, True])
def test_derivative_refuses_a_direction_that_is_not_finite(tmp_path, capsys,
                                                           direction, same_phi):
    corr = write(tmp_path, "three.json", THREE)
    nu = write(tmp_path, "dir.json", {"edges": [
        e + [v] for e, v in zip(THREE["edges"], direction)]})
    argv = ["derivative", "--input", corr, "--nu", nu]
    code, doc = run(capsys, argv + (["--phi", nu] if same_phi else []))
    assert code == 2
    refused(doc, repr(direction[0]), "(0, 1)")


def test_point_mass_pair_reports_null_certificate_entries(tmp_path, capsys):
    corr = golden_corr(tmp_path)
    nu = write(tmp_path, "loop.json",
               {"edges": [[0, 0, 1.0], [0, 1, 0.0], [1, 0, 0.0]]})
    # reports are written with allow_nan=False, so a -inf would not exit 0
    code, doc = run(capsys, ["aentropy", "--input", corr, "--nu", nu])
    assert code == 0
    res = doc["results"]
    assert res["boundary_flag"] is True
    assert res["minus_infinity"] is False
    assert res["value"] == 0.0
    # log 1 on the loop, -inf (null) on the two missed edges
    assert res["potential"] == [0.0, None, None]


def test_eigensolver_failure_is_exit_three(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError, yet it is a solver failure
    def broken_eig(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", broken_eig)
    code, doc = run(capsys, ["equilibrium", "--input", golden_corr(tmp_path)])
    assert code == 3
    assert doc["status"] == "error"
    assert doc["error"]["type"] == "SolverError"


@pytest.mark.parametrize("a", [400, 1000])
def test_underflowing_class_weights_are_exit_three(tmp_path, capsys, a):
    corr = write(tmp_path, "corr.json",
                 {"n_states": 2, "edges": [[0, 1], [1, 0], [1, 1]]})
    phi = write(tmp_path, "phi.json",
                {"edges": [[0, 1, a], [1, 0, -a], [1, 1, 0]]})
    code, doc = run(capsys, ["pressure", "--input", corr, "--phi", phi])
    assert code == 3
    assert doc["error"]["type"] == "SolverError"


def test_a_long_cycle_of_the_largest_weights_has_a_finite_pressure(
        tmp_path, capsys):
    n = 100
    corr = write(tmp_path, "corr.json", {
        "n_states": n, "edges": [[i, (i + 1) % n] for i in range(n)]})
    phi = write(tmp_path, "phi.json", {
        "edges": [[i, (i + 1) % n, 1e308] for i in range(n)]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = run(capsys, ["pressure", "--method", "spectral",
                                 "--input", corr, "--phi", phi])
    assert code == 0
    assert doc["results"]["spectral"]["pressure"] == 1e308


def test_class_of_minus_infinity_weights_is_no_solver_error(tmp_path, capsys):
    corr = write(tmp_path, "corr.json",
                 {"n_states": 3, "edges": [[0, 1], [1, 0], [1, 2], [2, 2]]})
    phi = write(tmp_path, "phi.json", {"edges": [
        [0, 1, -math.inf], [1, 0, -math.inf], [1, 2, 0.0], [2, 2, 0.0]]})
    code, doc = run(capsys, ["pressure", "--input", corr, "--phi", phi])
    assert code == 0
    assert doc["results"]["spectral"]["pressure"] == 0.0
    # the classes [[0, 1], [2]] are listed by their least state
    assert doc["results"]["spectral"]["log_radii"] == [None, 0.0]


def minus_infinity_documents(tmp_path):
    """Every cycle of {(0, 1), (1, 0), (1, 2), (2, 2)} weighs -inf."""
    corr = write(tmp_path, "corr.json",
                 {"n_states": 3, "edges": [[0, 1], [1, 0], [1, 2], [2, 2]]})
    phi = write(tmp_path, "phi.json", {"edges": [
        [0, 1, -math.inf], [1, 0, -math.inf], [1, 2, -math.inf],
        [2, 2, -math.inf]]})
    return corr, phi


def test_pressure_of_minus_infinity_is_null_on_both_routes(tmp_path, capsys):
    corr, phi = minus_infinity_documents(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, doc = run(capsys, ["pressure", "--input", corr, "--phi", phi])
    assert code == 0
    res = doc["results"]
    assert res["spectral"]["pressure"] is None
    assert res["spectral"]["minus_infinity"] is True
    assert res["spectral"]["dominant"] == []
    assert res["paths"]["value"] is None
    assert res["paths"]["minus_infinity"] is True
    assert res["gap"] is None


@pytest.mark.parametrize("n", ["0", "-3"])
def test_path_horizon_below_one_is_exit_two(tmp_path, capsys, n):
    corr = golden_corr(tmp_path)
    code, doc = run(capsys, ["pressure", "--input", corr, "--method", "paths",
                             "--n", n])
    assert code == 2
    assert doc["status"] == "error"
    assert doc["error"] == {"type": "ShapeMismatch",
                            "message": "n_max must be at least 1"}


def test_path_horizon_past_the_cap_is_refused_before_allocation(tmp_path,
                                                               capsys):
    corr = golden_corr(tmp_path)
    code, doc = run(capsys, ["pressure", "--input", corr, "--method", "paths",
                             "--n", str(PATH_MAX + 1)])
    assert code == 2
    assert doc["error"] == {"type": "TooLarge",
                            "message": f"path horizon {PATH_MAX + 1} exceeds {PATH_MAX}"}
    code, doc = run(capsys, ["pressure", "--input", corr, "--method", "paths",
                             "--n", str(10 ** 10)])
    assert code == 2 and doc["error"]["type"] == "TooLarge"


def test_decompose_of_minus_infinity_is_null(tmp_path, capsys):
    corr, phi = minus_infinity_documents(tmp_path)
    blocks = write(tmp_path, "blocks.json", {"blocks": [[0, 1], [2]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, doc = run(capsys, ["decompose", "--input", corr, "--phi", phi,
                                 "--config", blocks])
    assert code == 0
    res = doc["results"]
    assert res["valid"] is True
    assert res["value"] is None and res["block_values"] == [None, None]
    assert res["spectral"] is None and res["gap"] is None
    assert res["minus_infinity"] is True


def test_mpressure_of_minus_infinity_is_null(tmp_path, capsys):
    """delta_2 is invariant through the loop (2, 2), whose weight is
    -inf, so every coupling of it weighs -inf."""
    corr, phi = minus_infinity_documents(tmp_path)
    mu = write(tmp_path, "mu.json", {"weights": [0.0, 0.0, 1.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, doc = run(capsys, ["mpressure", "--input", corr, "--phi", phi,
                                 "--mu", mu])
    assert code == 0
    res = doc["results"]
    assert res["value"] is None and res["minus_infinity"] is True
    assert res["pair"] == {"edges": [[2, 2, 1.0]]}
    assert res["residual"] == 0.0


def test_mpressure_of_a_tiny_mass_without_an_in_edge_is_not_invariant(
        tmp_path, capsys):
    corr = write(tmp_path, "corr.json", {"n_states": 2, "edges": [[0, 0], [1, 0]]})
    mu = write(tmp_path, "mu.json", {"weights": [1.0 - 1e-12, 1e-12]})
    code, doc = run(capsys, ["mpressure", "--input", corr, "--mu", mu])
    assert code == 2
    assert doc["status"] == "error"
    assert doc["error"]["type"] == "NotInvariant"


def test_finite_reports_carry_no_minus_infinity_key(tmp_path, capsys):
    corr = write(tmp_path, "tri.json",
                 {"n_states": 2, "edges": [[0, 0], [0, 1], [1, 1]]})
    blocks = write(tmp_path, "blocks.json", {"blocks": [[0], [1]]})
    mu = write(tmp_path, "mu.json", {"weights": [0.0, 1.0]})
    for argv in (["decompose", "--config", blocks], ["mpressure", "--mu", mu]):
        code, doc = run(capsys, argv + ["--input", corr])
        assert code == 0
        assert "minus_infinity" not in doc["results"]


@pytest.mark.parametrize("command", ["equilibrium", "derivative"])
def test_pressure_of_minus_infinity_has_no_equilibrium_or_tangent(
        tmp_path, capsys, command):
    corr, phi = minus_infinity_documents(tmp_path)
    argv = [command, "--input", corr, "--phi", phi]
    if command == "derivative":
        argv += ["--nu", write(tmp_path, "psi.json", {"edges": [[1, 2, 1.0]]})]
    code, doc = run(capsys, argv)
    assert code == 2
    assert doc["error"]["type"] == "MinusInfinitePressure"
    assert "pressure is -inf" in doc["error"]["message"]


def test_equilibrium_at_a_tie_lists_each_dominant_gibbs_state(tmp_path, capsys):
    """Two loops of weight 0 tie: a valid input, so exit 0 and one Gibbs
    state per dominant class, the point mass on its loop."""
    corr = write(tmp_path, "loops.json", {"n_states": 2, "edges": [[0, 0], [1, 1]]})
    code, doc = run(capsys, ["equilibrium", "--input", corr])
    assert code == 0 and doc["status"] == "ok"
    assert doc["results"] == {
        "pressure": 0.0, "unique": False,
        "gibbs_states": [
            {"dominant_class": [0], "pair": {"edges": [[0, 0, 1.0]]}},
            {"dominant_class": [1], "pair": {"edges": [[1, 1, 1.0]]}}]}
    # one dominant class: the report has no unique key
    code, doc = run(capsys, ["equilibrium", "--input", golden_corr(tmp_path)])
    assert code == 0 and "unique" not in doc["results"]


def test_invariance_has_no_state_cap(tmp_path, capsys):
    """The 40-state cycle with a loop at 0: the point mass at 1 is refused
    with a certified subset, and the uniform measure on the cycle gets a
    witness."""
    n = 40
    edges = sorted([[i, (i + 1) % n] for i in range(n)] + [[0, 0]])
    corr = write(tmp_path, "cycle.json", {"n_states": n, "edges": edges})
    delta = [float(i == 1) for i in range(n)]
    code, doc = run(capsys, ["invariant", "--input", corr, "--mu",
                             write(tmp_path, "delta.json", {"weights": delta})])
    assert code == 0
    res = doc["results"]
    assert res["invariant"] is False and res["witness_pair"] is None
    subset = set(res["violating_subset"])
    pre = {i for i, j in edges if j in subset}
    assert sum(delta[j] for j in subset) - sum(delta[i] for i in pre) > 1e-9
    code, doc = run(capsys, ["invariant", "--input", corr, "--mu",
                             write(tmp_path, "flat.json", {"weights": [1 / n] * n})])
    assert code == 0
    res = doc["results"]
    assert res["invariant"] is True and res["violating_subset"] is None
    assert res["witness_pair"] is not None
    assert res["marginal_gap"] <= 1e-10


def test_unbalanced_pair_reports_minus_infinity(tmp_path, capsys):
    corr = write(tmp_path, "full.json",
                 {"n_states": 2, "edges": [[0, 0], [0, 1], [1, 0], [1, 1]]})
    nu = write(tmp_path, "slide.json",
               {"edges": [[0, 0, 0.2], [0, 1, 0.6], [1, 0, 0.0], [1, 1, 0.2]]})
    code, doc = run(capsys, ["aentropy", "--input", corr, "--nu", nu])
    assert code == 0
    assert doc["results"]["minus_infinity"] is True
    assert doc["results"]["value"] is None


def test_extremes_with_decomposition(tmp_path, capsys):
    corr = golden_corr(tmp_path)
    mu = parry_mu(tmp_path)
    code, doc = run(capsys, ["extremes", "--input", corr, "--mu", mu])
    assert code == 0
    res = doc["results"]
    # the loop at 0 and the two-cycle both carry invariant measures
    assert res["n_extremes"] == 2
    assert sum(res["decomposition"]["weights"]) == pytest.approx(1.0, abs=1e-9)
    assert res["decomposition"]["residual"] <= 1e-9


def test_extremes_past_the_cycle_cap_is_an_input_error(tmp_path, capsys):
    # the full shift on 8 states has 16072 simple cycles
    corr = write(tmp_path, "shift8.json",
                 {"n_states": 8,
                  "edges": [[i, j] for i in range(8) for j in range(8)]})
    code, doc = run(capsys, ["extremes", "--input", corr])
    assert code == 2
    assert doc["error"]["type"] == "TooLarge"


def test_derivative_at_a_primitive_relation(tmp_path, capsys):
    corr = golden_corr(tmp_path)
    direction = write(tmp_path, "dir.json",
                      {"edges": [[0, 0, 1.0], [0, 1, 0.0], [1, 0, 0.0]]})
    code, doc = run(capsys, ["derivative", "--input", corr, "--nu", direction])
    assert code == 0
    res = doc["results"]
    assert res["is_gateaux"] is True
    assert res["plus"] == pytest.approx(res["minus"], abs=1e-12)
    assert res["tangent_count"] == 1 and res["unique_tangent"] is True


def test_derivative_builds_the_tangent_set_once(tmp_path, capsys, monkeypatch):
    """The report's tangent fields come from the tangent set that
    directional_derivative built, not from a second build."""
    corr = golden_corr(tmp_path)
    direction = write(tmp_path, "dir.json",
                      {"edges": [[0, 0, 1.0], [0, 1, 0.0], [1, 0, 0.0]]})
    calls = []
    build = variational.tangent_functionals

    def counted(*args):
        calls.append(args)
        return build(*args)

    # patched wherever the command could reach it from
    monkeypatch.setattr(variational, "tangent_functionals", counted)
    monkeypatch.setattr(cli, "tangent_functionals", counted, raising=False)
    code, doc = run(capsys, ["derivative", "--input", corr, "--nu", direction])
    assert code == 0
    assert len(calls) == 1
    assert doc["results"]["tangent_count"] == 1


def test_discretize_builtin_fixture(tmp_path, capsys):
    code, doc = run(capsys, ["discretize", "--input", "interval-example",
                             "--grid", "8"])
    assert code == 0
    assert doc["inputs"]["input"]["sha256"] is None
    res = doc["results"]
    assert res["route_a"]["value"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert abs(res["gap_b"]) <= 0.35  # coarse grid, wide band


@pytest.mark.parametrize("grid", [1024, 4096])
def test_discretize_grid_report_is_the_stdlib_text(capsys, grid):
    """The grid report's edge rows, written from the digit tables, are
    the text json.dumps gives for the same document."""
    assert main(["discretize", "--input", "interval-example",
                 "--method", "grid", "--grid", str(grid)]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert len(doc["results"]["correspondence"]["edges"]) > grid
    assert text == json.dumps(doc, indent=2) + "\n"


def test_discretize_map_documents(tmp_path, capsys):
    tent = {"breakpoints": ["0", "1/2", "1"],
            "pieces": [{"slope": "2", "intercept": "0"},
                       {"slope": "-2", "intercept": "2"}]}
    grid_doc = write(tmp_path, "tent.json", tent)
    code, doc = run(capsys, ["discretize", "--input", grid_doc, "--grid", "4"])
    assert code == 0
    assert doc["results"]["n_states"] == 4
    assert doc["results"]["pressure"] == pytest.approx(math.log(2.0), abs=1e-12)

    markov_doc = write(tmp_path, "tent_cells.json",
                       dict(tent, cells=[["0", "1/2"], ["1/2", "1"]]))
    code, doc = run(capsys, ["discretize", "--input", markov_doc])
    assert code == 0
    assert doc["results"]["n_states"] == 2
    assert doc["results"]["pressure"] == pytest.approx(math.log(2.0), abs=1e-12)

    # the tent of slope 3/2 is not Markov on the grid cells: the grid
    # reports the pressure of its cover relation, log 2, above the
    # map's entropy log 3/2
    slow_doc = write(tmp_path, "tent_3_2.json",
                     {"breakpoints": ["0", "1/2", "1"],
                      "pieces": [{"slope": "3/2", "intercept": "0"},
                                 {"slope": "-3/2", "intercept": "3/2"}]})
    for grid in (64, 256, 4096):
        code, doc = run(capsys, ["discretize", "--method", "grid",
                                 "--input", slow_doc, "--grid", str(grid)])
        assert code == 0
        assert doc["results"]["n_states"] == grid
        assert doc["results"]["pressure"] == pytest.approx(math.log(2.0), abs=1e-10)

    # a cell [a, b] with a >= b has no interior
    flat_doc = write(tmp_path, "tent_flat.json",
                     dict(tent, cells=[["0", "1/2"], ["1", "1/2"]]))
    code, doc = run(capsys, ["discretize", "--method", "markov",
                             "--input", flat_doc])
    assert code == 2
    assert doc["error"]["type"] == "DegenerateCell"


def test_relabel_preserves_pressure(tmp_path, capsys):
    corr = golden_corr(tmp_path)
    theta = write(tmp_path, "theta.json", {"theta": [1, 0]})
    code, doc = run(capsys, ["relabel", "--input", corr, "--config", theta])
    assert code == 0
    relabeled = write(tmp_path, "relabeled.json",
                      doc["results"]["correspondence"])
    code, doc = run(capsys, ["pressure", "--input", relabeled,
                             "--method", "spectral"])
    assert code == 0
    assert doc["results"]["spectral"]["pressure"] \
        == pytest.approx(LOG_GOLDEN, abs=1e-11)


def test_relabel_potential_with_minus_infinity_reads_back(tmp_path, capsys):
    """relabel writes a -inf weight as null; pressure --phi reads the
    null back as -inf."""
    corr = write(tmp_path, "corr.json",
                 {"n_states": 3, "edges": [[0, 1], [1, 0], [1, 2], [2, 2]]})
    phi = write(tmp_path, "phi.json", {"edges": [
        [0, 1, -1e999], [1, 0, -1e999], [1, 2, 0.0], [2, 2, 0.0]]})
    theta = write(tmp_path, "theta.json", {"theta": [2, 0, 1]})
    code, doc = run(capsys, ["relabel", "--input", corr, "--phi", phi,
                             "--config", theta])
    assert code == 0
    assert doc["results"]["potential"]["edges"] == [
        [0, 1, 0.0], [0, 2, None], [1, 1, 0.0], [2, 0, None]]
    relabeled = write(tmp_path, "relabeled.json", doc["results"]["correspondence"])
    phi_back = write(tmp_path, "phi_back.json", doc["results"]["potential"])
    code, doc = run(capsys, ["pressure", "--input", relabeled, "--phi", phi_back,
                             "--method", "spectral"])
    assert code == 0
    # only the loop, of weight 0, escapes the -inf cycle
    assert doc["results"]["spectral"]["pressure"] == 0.0


def test_pair_measure_refuses_a_null_weight(tmp_path, capsys):
    nu = write(tmp_path, "nu.json", {"edges": [[0, 0, 0.5], [0, 1, None]]})
    code, doc = run(capsys, ["aentropy", "--input", golden_corr(tmp_path),
                             "--nu", nu])
    assert code == 2
    assert doc["error"]["type"] == "ShapeMismatch"
    assert "(0, 1)" in doc["error"]["message"]


def test_relabel_keeps_the_tolerance_a_kernel_document_passed(tmp_path, capsys):
    # reports round probabilities to 12 digits, so a row of a kernel
    # document may sum to 1 + 1e-12
    kernel = write(tmp_path, "k.json",
                   {"rows": [[[0, 0.5], [1, 0.500000000001]], [[0, 1.0]]]})
    theta = write(tmp_path, "theta.json", {"theta": [1, 0]})
    code, doc = run(capsys, ["relabel", "--input", golden_corr(tmp_path),
                             "--kernel", kernel, "--config", theta])
    assert code == 0
    assert doc["results"]["kernel"]["rows"] == [[[1, 1.0]],
                                                [[0, 0.500000000001], [1, 0.5]]]


def test_relabel_rejects_a_bad_permutation(tmp_path, capsys):
    corr = golden_corr(tmp_path)
    theta = write(tmp_path, "theta.json", {"theta": [0, 0]})
    code, doc = run(capsys, ["relabel", "--input", corr, "--config", theta])
    assert code == 2
    assert doc["error"]["type"] == "NotBijective"


def test_decompose_reports_block_maximum(tmp_path, capsys):
    corr = write(tmp_path, "tri.json",
                 {"n_states": 2, "edges": [[0, 0], [0, 1], [1, 1]]})
    phi = write(tmp_path, "phi.json",
                {"edges": [[0, 0, 0.3], [0, 1, 0.0], [1, 1, 0.7]]})
    blocks = write(tmp_path, "blocks.json", {"blocks": [[0], [1]]})
    code, doc = run(capsys, ["decompose", "--input", corr, "--phi", phi,
                             "--config", blocks])
    assert code == 0
    res = doc["results"]
    assert res["valid"] is True
    assert res["block_values"] == pytest.approx([0.3, 0.7], abs=1e-12)
    assert res["value"] == pytest.approx(0.7, abs=1e-12)
    assert res["gap"] <= 1e-9


def test_decompose_lists_block_states_outside_the_relation(tmp_path, capsys):
    corr = write(tmp_path, "tri.json",
                 {"n_states": 2, "edges": [[0, 0], [0, 1], [1, 1]]})
    blocks = write(tmp_path, "blocks.json", {"blocks": [[0], [1, 5]]})
    code, doc = run(capsys, ["decompose", "--input", corr, "--config", blocks])
    assert code == 0
    assert doc["results"]["valid"] is False
    assert doc["results"]["validation"]["outside"] == [5]


def test_decompose_of_an_empty_block_is_an_input_error(tmp_path, capsys):
    corr = write(tmp_path, "tri.json",
                 {"n_states": 2, "edges": [[0, 0], [0, 1], [1, 1]]})
    blocks = write(tmp_path, "blocks.json", {"blocks": [[], [0, 1]]})
    code, doc = run(capsys, ["decompose", "--input", corr, "--config", blocks])
    assert code == 2
    assert doc["error"] == {"type": "IndexOutOfRange",
                            "message": "edges outside 0..-1: []"}


def test_an_edge_index_past_int64_is_an_input_error(tmp_path, capsys):
    corr = write(tmp_path, "big.json",
                 {"n_states": 2, "edges": [[0, 0], [1, 0], [0, 2 ** 70]]})
    code, doc = run(capsys, ["pressure", "--input", corr])
    assert code == 2
    assert doc["error"]["type"] == "IndexOutOfRange"
    assert str(2 ** 70) in doc["error"]["message"]


def test_verify_example_suite_passes(capsys):
    code, doc = run(capsys, ["verify", "--suite", "example"])
    assert code == 0
    assert doc["results"]["passed"] is True
    assert doc["results"]["counts"]["passed"] == doc["results"]["counts"]["total"]


# ------------------------------------------------------------ edge documents

@pytest.mark.parametrize("command, flag", [("pressure", "--phi"),
                                           ("aentropy", "--nu")])
@pytest.mark.parametrize("entries, error, named", [
    # (1, 1) lies in 0..1 but is no edge of the golden-mean relation
    ([[1, 1, 0.5]], "ShapeMismatch", "pair (1, 1) is not an edge"),
    ([[0, 2, 0.5]], "IndexOutOfRange", "edges outside 0..1: [(0, 2)]"),
    # once kept last in a potential and summed in a pair measure
    ([[0, 0, 0.5], [0, 1, 0.25], [0, 1, 0.25]], "DuplicateEdge",
     "duplicate edges: [(0, 1)]"),
])
def test_potential_and_pair_documents_name_the_same_bad_pairs(
        tmp_path, capsys, command, flag, entries, error, named):
    doc = write(tmp_path, "edges.json", {"edges": entries})
    code, report = run(capsys, [command, "--input", golden_corr(tmp_path),
                                flag, doc])
    assert code == 2
    assert report["error"] == {"type": error, "message": named}


# ------------------------------------------------------------ report values

def report_floats(node):
    if isinstance(node, float):
        yield node
    elif isinstance(node, dict):
        for v in node.values():
            yield from report_floats(v)
    elif isinstance(node, list):
        for v in node:
            yield from report_floats(v)


def every_subcommand(tmp_path):
    """One small argv per subcommand and route, -inf cases included."""
    three = write(tmp_path, "three.json", THREE)
    corr, minf = minus_infinity_documents(tmp_path)
    golden = write(tmp_path, "golden.json", GOLDEN_MEAN)
    mu = parry_mu(tmp_path)
    phi = write(tmp_path, "phi_golden.json",
                {"edges": [[0, 0, 0.3], [0, 1, -1.1], [1, 0, 0.7]]})
    phi_minf = write(tmp_path, "phi_minf.json",
                     {"edges": [[0, 0, -math.inf], [0, 1, 0.3]]})
    kernel = write(tmp_path, "k.json", {"rows": [
        [[0, 1.0 / GOLDEN], [1, 1.0 / GOLDEN ** 2]], [[0, 1.0]]]})
    nu = write(tmp_path, "nu.json", {"edges": [[0, 0, 1 / 3], [0, 1, 1 / 3],
                                               [1, 0, 1 / 3]]})
    tent = write(tmp_path, "tent.json", {
        "breakpoints": ["0", "1/2", "1"], "pieces": [[2, 0], [-2, 2]],
        "cells": [["0", "1/2"], ["1/2", "1"]]})
    return [
        ["pressure", "--input", golden, "--phi", phi],
        ["pressure", "--input", corr, "--phi", minf],
        ["verify", "--suite", "example"],
        ["equilibrium", "--input", golden, "--phi", phi],
        ["equilibrium", "--input", golden, "--phi", phi_minf],
        ["mpressure", "--input", golden, "--phi", phi, "--mu", mu],
        ["mpressure", "--input", corr, "--phi", minf, "--mu",
         write(tmp_path, "d2.json", {"weights": [0.0, 0.0, 1.0]})],
        ["aentropy", "--input", golden, "--nu", nu],
        ["aentropy", "--input", three, "--nu",
         write(tmp_path, "u.json", UNBALANCED)],
        ["invariant", "--input", golden, "--mu", mu],
        ["extremes", "--input", golden, "--mu", mu],
        ["kentropy", "--input", golden, "--kernel", kernel, "--mu", mu,
         "--n", "6", "--config",
         write(tmp_path, "cells.json", {"cells": [[0], [1]]})],
        ["derivative", "--input", golden, "--phi", phi, "--nu", phi],
        ["discretize", "--input", "interval-example", "--grid", "16"],
        ["discretize", "--input", "interval-example", "--grid", "16",
         "--method", "grid"],
        ["discretize", "--input", tent],
        ["relabel", "--input", golden, "--config",
         write(tmp_path, "theta.json", {"theta": [1, 0]}), "--phi", phi_minf,
         "--mu", mu, "--kernel", kernel],
        ["decompose", "--input", golden, "--phi", phi, "--config",
         write(tmp_path, "b.json", {"blocks": [[0, 1]]})],
        ["decompose", "--input", corr, "--phi", minf, "--config",
         write(tmp_path, "b2.json", {"blocks": [[0, 1], [2]]})],
    ]


@pytest.mark.parametrize("case", range(19))
def test_every_report_float_has_twelve_significant_digits(tmp_path, capsys,
                                                          case):
    argv = every_subcommand(tmp_path)[case]
    code, doc = run(capsys, argv)
    assert code == 0 and doc["status"] == "ok"
    for x in report_floats(doc["results"]):
        assert x == float(f"{x:.12g}")


def test_every_subcommand_is_in_the_report_float_cases(tmp_path):
    argvs = every_subcommand(tmp_path)
    assert len(argvs) == 19
    subcommands = _build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for argv in argvs} == set(subcommands)


def test_the_converter_makes_report_values():
    third = 1.0 / 3.0
    tree = {"f": np.float64(third), "i": np.int64(7), "b": np.bool_(True),
            "t": (1, 2.0), "a": np.array([third, -np.inf]), "z": -0.0,
            "sub": 5e-324, "m": -math.inf, "s": "x", "n": None,
            "rows": np.array([[1, 2]])}
    out = _sanitize(tree)
    assert out["rows"] is tree["rows"]      # left to the writer's tables
    del out["rows"]
    assert out == {"f": 0.333333333333, "i": 7, "b": True, "t": [1, 2.0],
                   "a": [0.333333333333, None], "z": 0.0, "sub": 5e-324,
                   "m": None, "s": "x", "n": None}
    assert [type(out[k]) for k in "fibtz"] == [float, int, bool, list, float]
    assert math.copysign(1.0, out["z"]) == -1.0
    for bad in (math.inf, np.float64(np.nan), [1.0, np.inf]):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _sanitize({"x": bad})
