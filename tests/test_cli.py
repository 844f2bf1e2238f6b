import concurrent.futures
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F

import pytest

import symlpp
from symlpp import cli, harness
from symlpp.cli import build_parser, dump_json, main, rows_to_csv
from symlpp.core import ModelSpec, format_rational
from symlpp.lpp import MC_CHUNK
from symlpp.variants import model_rmt_table


@pytest.fixture()
def model_file(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_dump_json_formatting():
    text = dump_json({"a": F(3, 4), "b": 0.5, "c": [1, "x"], "d": None, "e": True})
    parsed = json.loads(text)
    assert parsed["a"] == "3/4"
    assert parsed["b"] == 0.5
    assert parsed["d"] is None and parsed["e"] is True
    assert "0.5" in text
    # 17 significant digits for floats
    assert format(1 / 3, ".17g") in dump_json({"x": 1 / 3})
    # int rows, bools, empty lists and mixed lists print as they always did
    nested = {"rows": [[3, 0], [1, 12]], "flags": [True, False], "none": [], "mixed": [1, True]}
    assert dump_json(nested) == (
        '{\n  "rows": [\n    [\n      3,\n      0\n    ],\n    [\n      1,\n      12\n    ]\n  ],'
        '\n  "flags": [\n    true,\n    false\n  ],\n  "none": [],'
        '\n  "mixed": [\n    1,\n    true\n  ]\n}')
    assert json.loads(dump_json(nested)) == nested


def test_exact_subcommand_diagonal(model_file, capsys):
    path = model_file("diag.json", {"variant": "diagonal", "q": ["1/2"], "alpha": "1/2"})
    code, out = run_cli(capsys, ["exact", "--model", path, "--lmax", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["distribution"][2] == {"l": 2, "p": "63/64", "approx": False}


def test_exact_subcommand_csv(model_file, capsys):
    path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
    code, out = run_cli(capsys, ["exact", "--model", path, "--lmax", "1",
                                 "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,p,approx"
    assert lines[2] == "1,15/16,false"


def test_rmt_subcommand_exactness(model_file, capsys):
    j = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
    code, out = run_cli(capsys, ["rmt", "--model", j, "--l", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "15/16"
    assert payload["exactness"] == "rational"
    b = model_file("b.json", {"variant": "bernoulli", "a": ["1/2"], "b": ["1/3"]})
    code, out = run_cli(capsys, ["rmt", "--model", b, "--l", "1"])
    payload = json.loads(out)
    assert payload["exactness"] == "rational"
    assert payload["method"] == "toeplitz-U"
    code, out = run_cli(capsys, ["exact", "--model", b, "--lmax", "1"])
    assert payload["value"] == json.loads(out)["distribution"][1]["p"] == "1"


def test_sample_deterministic_and_symmetric(model_file, capsys):
    path = model_file("anti.json", {"variant": "antidiagonal",
                                    "q": ["1/2", "2/5"], "beta": "1/2"})
    code1, out1 = run_cli(capsys, ["sample", "--model", path, "--count", "3",
                                   "--seed", "9"])
    code2, out2 = run_cli(capsys, ["sample", "--model", path, "--count", "3",
                                   "--seed", "9"])
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    rows = payload["matrices"][0]["rows_top_to_bottom"]
    n = len(rows)
    # anti-transpose symmetry in bottom-up indexing
    bottom_up = rows[::-1]
    for i in range(n):
        for j in range(n):
            assert bottom_up[i][j] == bottom_up[n - 1 - j][n - 1 - i]


def test_verify_subcommand_exit_codes(model_file, capsys):
    path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
    code, out = run_cli(capsys, ["verify", "--model", path, "--lmax", "2",
                                 "--samples", "5000", "--seed", "3", "--threads", "1"])
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_rsk_subcommand(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"rows_top_to_bottom": [[0, 1], [1, 0]]}))
    code, out = run_cli(capsys, ["rsk", "--matrix", str(matrix)])
    assert code == 0
    payload = json.loads(out)
    assert payload["shape"] == [2]
    assert payload["p_rows"] == [[1, 2]]
    assert payload["q_rows"] == [[1, 2]]


def test_missing_model_field_is_config_error(model_file, capsys):
    path = model_file("bad.json", {"a": ["1/2"], "b": ["1/2"]})
    code, out = run_cli(capsys, ["exact", "--model", path, "--lmax", "1"])
    assert code == 2
    payload = json.loads(out)
    assert "variant" in payload["error"]["message"]


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run_cli(capsys, ["exact", "--model", str(path), "--lmax", "1"])
    assert code == 2
    assert json.loads(out)["error"]["field"] == "model"


def test_out_of_range_parameter_is_config_error(model_file, capsys):
    path = model_file("bad.json", {"variant": "johansson", "a": ["3/2"], "b": ["1/2"]})
    code, out = run_cli(capsys, ["exact", "--model", path, "--lmax", "1"])
    assert code == 2
    assert "a[0]" in json.loads(out)["error"]["message"]


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--lmax", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--model" in err


@pytest.mark.parametrize("argv, field", [
    (["mc", "--model", "MODEL", "--lmax", "3", "--zmax", "nan"], None),
    (["rsk", "--model", "r.json"], "matrix"),
    (["exact", "--model", "MODEL", "--lmax", "x"], "lmax"),
    (["exact", "--lmax", "1"], "model"),
    (["exact", "--lmax", "1", "--format", "xml"], "format"),
    (["verify", "--samples", "5"], None),
    (["hammersley", "--lam", "4", "--lmax"], "lmax"),
    (["bogus"], None),
    ([], None),
], ids=["unrecognized", "missing-matrix", "invalid-int", "missing-model", "invalid-choice",
        "missing-model-and-lmax", "missing-value", "unknown-command", "no-command"])
def test_usage_error_is_a_json_error_naming_the_option(argv, field, model_file, capsys):
    path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
    with pytest.raises(SystemExit) as exc:
        main([path if a == "MODEL" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["field"] == field
    # the usage text still goes to stderr, and it ends with the same message
    assert "usage: symlpp" in captured.err
    assert captured.err.endswith(f"error: {error['message']}\n")


def test_seed_env_fallback(model_file, capsys, monkeypatch):
    path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
    monkeypatch.setenv("LPP_SEED", "77")
    code, out = run_cli(capsys, ["sample", "--model", path, "--count", "1"])
    assert code == 0
    assert json.loads(out)["seed"] == 77
    monkeypatch.setenv("LPP_SEED", "x")
    code, out = run_cli(capsys, ["sample", "--model", path, "--count", "1"])
    assert code == 2


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the seed was checked")


@pytest.mark.parametrize("command", [
    ["sample", "--count", "1"],
    ["mc", "--lmax", "3", "--samples", "100"],
    ["verify", "--lmax", "3", "--samples", "100"],
    ["hammersley", "--lam", "4", "--lmax", "3", "--samples", "100"],
])
def test_negative_seed_is_config_error_before_any_work(command, model_file, capsys,
                                                       monkeypatch):
    for name in ("sample_chunks", "mc_distribution", "verify_model", "hammersley_check"):
        monkeypatch.setattr(cli, name, _no_work)
    if command[0] != "hammersley":
        path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
        command = command + ["--model", path]
    code, out = run_cli(capsys, command + ["--seed", "-1"])
    assert code == 2
    assert json.loads(out)["error"]["field"] == "seed"
    monkeypatch.setenv("LPP_SEED", "-3")
    code, out = run_cli(capsys, command)
    assert code == 2
    assert json.loads(out)["error"] == {"message": "LPP_SEED must be nonnegative, got -3",
                                        "field": "seed"}


def test_out_file_writing(model_file, tmp_path, capsys):
    path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
    target = tmp_path / "out.json"
    code, _ = run_cli(capsys, ["exact", "--model", path, "--lmax", "1",
                               "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["distribution"][1]["p"] == "15/16"


def test_rows_to_csv_floats():
    text = rows_to_csv([{"l": 0, "p": 0.5, "q": F(1, 3)}])
    assert text.splitlines()[1] == "0,0.5,1/3"


def test_fail_verdict_gives_nonzero_exit(capsys):
    # an absurdly tight z bound forces FAIL rows
    code, out = run_cli(capsys, ["hammersley", "--lam", "2.0", "--lmax", "4",
                                 "--samples", "2000", "--seed", "1",
                                 "--zmax", "0.0001"])
    assert code == 1
    assert json.loads(out)["verdict"] == "FAIL"


def test_verify_output_is_byte_identical(model_file, capsys):
    path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["2/5"]})
    argv = ["verify", "--model", path, "--lmax", "2", "--samples", "3000",
            "--seed", "21", "--threads", "2"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_rmt_antidiagonal_even_bound_is_rational(model_file, capsys):
    path = model_file("anti.json", {"variant": "antidiagonal",
                                    "q": ["1/2", "1/3", "1/4"], "beta": "1/2"})
    code, out = run_cli(capsys, ["rmt", "--model", path, "--l", "8"])
    assert code == 0
    assert json.loads(out)["exactness"] == "rational"


def test_zero_hammersley_samples_is_config_error(capsys):
    code, out = run_cli(capsys, ["hammersley", "--lam", "4", "--lmax", "3",
                                 "--samples", "0"])
    assert code == 2
    assert json.loads(out)["error"]["field"] == "samples"


def test_negative_lmax_is_config_error(model_file, capsys):
    path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
    code, out = run_cli(capsys, ["exact", "--model", path, "--lmax", "-1"])
    assert code == 2
    assert json.loads(out)["error"]["field"] == "lmax"


def test_negative_sample_count_is_config_error(model_file, capsys):
    path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
    code, out = run_cli(capsys, ["sample", "--model", path, "--count", "-3"])
    assert code == 2
    assert json.loads(out)["error"]["field"] == "count"


def test_zero_denominator_model_is_config_error(model_file, capsys):
    path = model_file("j.json", {"variant": "johansson", "a": ["1/0"], "b": ["1/2"]})
    code, out = run_cli(capsys, ["exact", "--model", path, "--lmax", "2"])
    assert code == 2
    assert json.loads(out)["error"]["field"] == "model"


def test_oversized_exact_box_is_config_error(model_file, capsys):
    path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
    code, out = run_cli(capsys, ["exact", "--model", path, "--lmax", "100000"])
    assert code == 2
    error = json.loads(out)["error"]
    assert "budget" in error["message"] and error["field"] == "lmax"
    code, out = run_cli(capsys, ["verify", "--model", path, "--lmax", "100000",
                                 "--samples", "10"])
    assert code == 2
    assert json.loads(out)["error"]["field"] == "lmax"
    # the point-reflection matrix-average route sweeps U averages to (--l + 1) // 2
    path = model_file("p.json", {"variant": "pointreflection", "q": ["1/2"]})
    code, out = run_cli(capsys, ["rmt", "--model", path, "--l", "100000"])
    assert code == 2
    assert json.loads(out)["error"]["field"] == "l"


def test_verify_checks_the_cell_budget_before_sampling(model_file, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the budget check")

    monkeypatch.setattr(harness, "mc_distribution", no_sampling)
    path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
    code, out = run_cli(capsys, ["verify", "--model", path, "--lmax", "100000",
                                 "--samples", "1000000"])
    assert code == 2
    assert json.loads(out)["error"]["field"] == "lmax"


def test_oversized_determinant_sweep_is_config_error(model_file, capsys, monkeypatch):
    path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
    tracemalloc.start()
    start = time.monotonic()
    try:
        code, out = run_cli(capsys, ["rmt", "--model", path, "--l", "20000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 5
    assert peak < 1 << 20
    assert code == 2
    error = json.loads(out)["error"]
    assert "budget" in error["message"] and error["field"] == "l"
    # the sweep budget grows with the entry size: 40-bit entries at bound 200,
    # checked before any Monte Carlo
    def no_sampling(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the budget check")

    monkeypatch.setattr(harness, "mc_distribution", no_sampling)
    path = model_file("k.json", {"variant": "johansson", "a": ["999999/1000000"],
                                 "b": ["999999/1000000"]})
    code, out = run_cli(capsys, ["verify", "--model", path, "--lmax", "200"])
    assert code == 2
    error = json.loads(out)["error"]
    assert "determinant sweep" in error["message"] and error["field"] == "lmax"


def test_bernoulli_verify_second_column_is_exact(model_file, capsys):
    params = ["2/3", "3/4", "8/9"]
    path = model_file("b.json", {"variant": "bernoulli", "a": params, "b": params})
    code, out = run_cli(capsys, ["verify", "--model", path, "--lmax", "12",
                                 "--samples", "20000", "--seed", "4"])
    report = json.loads(out)
    assert report["second_kind"] == "toeplitz-U"
    assert [r["second_value"] for r in report["rows"]] == \
        [r["exact_value"] for r in report["rows"]]
    assert all(r["abs_diff"] == "0" for r in report["rows"])
    assert code == 0 and report["verdict"] == "PASS"


def test_internal_error_exits_three_with_json(model_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError

    monkeypatch.setattr(cli, "exact_table", broken)
    path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
    code, out = run_cli(capsys, ["exact", "--model", path, "--lmax", "2"])
    assert code == 3
    error = json.loads(out)["error"]
    assert error["internal"] is True and error["message"] == "AssertionError"

    def overflow(*args, **kwargs):
        raise ArithmeticError("series failed to converge")

    monkeypatch.setattr(harness, "model_rmt_table", overflow)
    code, out = run_cli(capsys, ["verify", "--model", path, "--lmax", "2",
                                 "--samples", "100"])
    assert code == 3
    error = json.loads(out)["error"]
    assert error == {"message": "ArithmeticError: series failed to converge",
                     "field": None, "internal": True}


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "MODEL", "--lmax", "2", "--zmax", "nan"],
    ["verify", "--model", "MODEL", "--lmax", "2", "--zmax", "-1"],
    ["hammersley", "--lam", "4", "--lmax", "3", "--zmax", "0"],
    ["hammersley", "--lam", "nan", "--lmax", "3"],
    ["hammersley", "--lam", "inf", "--lmax", "3"],
    ["hammersley", "--lam", "-2", "--lmax", "3"],
])
def test_nonpositive_or_nonfinite_float_is_config_error(argv, model_file, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the argument check")

    monkeypatch.setattr(harness, "mc_distribution", no_sampling)
    monkeypatch.setattr(harness, "_poisson_chain_counts", no_sampling)
    path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
    code, out = run_cli(capsys, [path if a == "MODEL" else a for a in argv])
    assert code == 2
    error = json.loads(out)["error"]
    field = "zmax" if "--zmax" in argv else "lam"
    assert error["field"] == field and f"--{field} must be positive and finite" in error["message"]


@pytest.mark.parametrize("argv, field", [
    (["mc", "--model", "MODEL", "--lmax", "100000000", "--samples", "10"], "lmax"),
    (["exact", "--model", "BERNOULLI", "--lmax", "100000000"], "lmax"),
    (["hammersley", "--lam", "1e9", "--lmax", "3"], "lam"),
    (["hammersley", "--lam", "4", "--lmax", "20000"], "lmax"),
])
def test_oversized_tables_and_chunks_are_budget_errors(argv, field, model_file, capsys):
    paths = {"MODEL": model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]}),
             "BERNOULLI": model_file("b.json", {"variant": "bernoulli", "a": ["1/2"],
                                                "b": ["1/3"]})}
    tracemalloc.start()
    start = time.monotonic()
    try:
        code, out = run_cli(capsys, [paths.get(a, a) for a in argv])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 5
    assert peak < 1 << 20
    assert code == 2
    error = json.loads(out)["error"]
    assert "budget" in error["message"] and error["field"] == field


def test_budget_edges_admit_the_benchmark_sizes(capsys):
    # hammersley at lam = 128 (the largest the point budget admits) and at
    # order 256 (the largest Toeplitz-Bessel order) still runs
    code, _ = run_cli(capsys, ["hammersley", "--lam", "128", "--lmax", "3", "--samples", "10",
                               "--seed", "1"])
    assert code in (0, 1)
    code, _ = run_cli(capsys, ["hammersley", "--lam", "1", "--lmax", "256", "--samples", "10",
                               "--seed", "1"])
    assert code in (0, 1)


def test_threads_default_to_one():
    parser = build_parser()
    for command in ("mc", "verify"):
        args = parser.parse_args([command, "--model", "m.json", "--lmax", "1"])
        assert args.threads == 1


def test_threads_are_capped_at_the_cpu_count(model_file, capsys, monkeypatch):
    # a fake pool records its size and maps serially, so no thread starts
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    path = model_file("j.json", STREAM_MODELS["johansson"])
    argv = ["mc", "--model", path, "--lmax", "60", "--samples", str(3 * MC_CHUNK), "--seed", "5"]
    serial = run_cli(capsys, argv + ["--threads", "1"])
    capped = run_cli(capsys, argv + ["--threads", str(10**6)])
    assert workers == [os.cpu_count()]
    assert capped == serial and serial[0] == 0


HUGE = "99999999999999999999/100000000000000000000"


@pytest.mark.parametrize("argv, field", [
    (["hammersley", "--lam", "1e-300", "--lmax", "3", "--samples", "100"], None),
    (["hammersley", "--lam", "nan", "--lmax", "3"], None),
    (["mc", "--model", "MODEL", "--lmax", "70000", "--samples", "10"], None),
    (["exact", "--model", "HUGE", "--lmax", "3"], None),
    (["verify", "--model", "HUGE", "--lmax", "3", "--samples", "100"], None),
    (["rmt", "--model", "HUGE", "--l", "3"], None),
    (["mc", "--model", "MODEL", "--lmax", "3", "--samples", "10", "--seed", "9" * 30], None),
    (["mc", "--model", "MODEL", "--lmax", "3", "--samples", "10", "--threads", "0"], None),
    (["rsk", "--matrix", "FLOATS"], "rows_top_to_bottom"),
    (["rsk", "--matrix", "STRINGS"], "rows_top_to_bottom"),
    (["rsk", "--matrix", "HEAVY"], "matrix"),
    (["rsk", "--matrix", "ZEROS"], "matrix"),
    (["exact", "--model", "BOOLS", "--lmax", "3"], "model"),
])
def test_exit_code_contract(argv, field, model_file, capsys):
    """Exit 0, 1 or 2 with JSON on stdout; a case with a field is an error of that field."""
    paths = {
        "MODEL": model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]}),
        "HUGE": model_file("huge.json", {"variant": "johansson", "a": [HUGE], "b": [HUGE]}),
        # int() used to truncate these to [[1, 0], [0, 2]] and [[3, 1]]
        "FLOATS": model_file("floats.json", {"rows_top_to_bottom": [[1.5, 0], [0, 2.9]]}),
        "STRINGS": model_file("strings.json", {"rows_top_to_bottom": [["3", True]]}),
        # 2^20 letters: over the insertion budget, however few rows they bump through
        "HEAVY": model_file("heavy.json", {"rows_top_to_bottom": [[1 << 20]]}),
        # no letters, but a million cells: each is charged before the matrix is built
        "ZEROS": model_file("zeros.json", {"rows_top_to_bottom": [[0] * 1000] * 1000}),
        # parse_rational used to read false as 0 and true as 1
        "BOOLS": model_file("bools.json", {"variant": "diagonal", "q": [False], "alpha": False}),
    }
    code, out = run_cli(capsys, [paths.get(a, a) for a in argv])
    assert code in (0, 1, 2)
    payload = json.loads(out)
    if field is not None:
        assert code == 2 and payload["error"]["field"] == field


def test_sampling_refuses_a_site_parameter_that_rounds_to_one(model_file, capsys):
    # float(HUGE * HUGE) is 1.0, so a geometric draw would divide by log(1) = 0
    path = model_file("huge.json", {"variant": "johansson", "a": [HUGE], "b": [HUGE]})
    for argv in (["mc", "--lmax", "3", "--samples", "100"], ["sample", "--count", "2"],
                 ["verify", "--lmax", "3", "--samples", "100"]):
        code, out = run_cli(capsys, [*argv, "--model", path])
        assert code == 2 and "too close to 1" in json.loads(out)["error"]["message"], argv
    kept = model_file("kept.json", {"kept": True})  # refused before --out is opened
    assert run_cli(capsys, ["sample", "--model", path, "--out", kept])[0] == 2
    with open(kept, encoding="utf-8") as fh:
        assert json.load(fh) == {"kept": True}
    p = F(HUGE) ** 2
    code, out = run_cli(capsys, ["exact", "--model", path, "--lmax", "1"])
    assert code == 0
    assert [row["p"] for row in json.loads(out)["distribution"]] == [
        format_rational(1 - p), format_rational((1 - p) * (1 + p))]
    code, out = run_cli(capsys, ["rmt", "--model", path, "--l", "0"])
    assert code == 0 and json.loads(out)["value"] == format_rational(1 - p)


def test_every_traced_name_resolves():
    # perfbench's tracer and its tableaux operation look these up by name
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [*spans.TRACED, ("core", "partitions_in_box"),
             ("core", "matrix_from_rows_top_to_bottom"), ("rsk", "rsk")]
    for module, name in names:
        assert callable(getattr(importlib.import_module(f"symlpp.{module}"), name)), (module, name)


# `exact --lmax 5` stdout, recorded before exact laws became one-sweep tables:
# the distribution strings and the SHA-256 of the whole output.
PINNED_EXACT = {
    "johansson": (
        {"variant": "johansson", "a": ["1/2", "1/3"], "b": ["2/5", "1/4"]},
        ["1001/1800", "187187/216000", "1002001/1036800", "24691667/24883200",
         "124207630547/124416000000", "4974882495583/4976640000000"],
        "4b426231aac07039205f40e2e5a1d7f206ea915661adeaf7a6281c35bc92246f"),
    "bernoulli": (
        {"variant": "bernoulli", "a": ["1/2", "1/3"], "b": ["1/3", "1/4", "2/7"]},
        ["756/1495", "4226/4485", "1", "1", "1", "1"],
        "d15c9d320d6a792844e995272f18322d96ea0c2de38e75787e17f9e6e7afeb46"),
    "antidiagonal": (
        {"variant": "antidiagonal", "q": ["1/2", "1/3"], "beta": "1/2"},
        ["8/21", "5/9", "50/63", "70/81", "229/243", "3745/3888"],
        "3e7797c0bad46bc93e23631d272aae54414aed31b4ee80c02b93300fd75092bd"),
    "diagonal": (
        {"variant": "diagonal", "q": ["1/2", "1/3"], "alpha": "1/3"},
        ["50/81", "650/729", "12775/13122", "58700/59049", "4246225/4251528",
         "38254075/38263752"],
        "5acc565d9518f910a8f0aabf32112a4575d55fcb0420f413840ecc7e2460b664"),
    "doublysymmetric": (
        {"variant": "doublysymmetric", "q": ["1/2", "1/3"], "alpha": "1/3"},
        ["250/729", "250/729", "27625/39366", "27625/39366", "473500/531441",
         "473500/531441"],
        "a0c97eb59f0d19bf6c09816e43751fdb8ef3a343bf550b4664076ce8b300a76e"),
    "pointreflection": (
        {"variant": "pointreflection", "q": ["1/2", "1/3"]},
        ["625/2916", "19375/52488", "600625/944784", "1879375/2519424",
         "5880625/6718464", "374723125/408146688"],
        "768bc96e6c2e66f675365928db0922ee80099bb278dbab6229432dfb4e697c3b"),
}


@pytest.mark.parametrize("variant", sorted(PINNED_EXACT))
def test_exact_output_is_pinned(variant, model_file, capsys):
    model, probs, digest = PINNED_EXACT[variant]
    path = model_file(f"{variant}.json", model)
    code, out = run_cli(capsys, ["exact", "--model", path, "--lmax", "5"])
    assert code == 0
    assert [row["p"] for row in json.loads(out)["distribution"]] == probs
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `verify --lmax 6 --samples 9000 --seed 5` and of `rmt --l 5` on
# the models above, recorded before each variant's facts moved into one
# record; the `rmt` output holds each variant's method label.  The
# point-reflection entries were re-recorded when its matrix-average column
# became U averages at the halved bounds, labelled `toeplitz-U-halves`
# (`second_kind` in `verify`, `method` in `rmt`); its rows stay pinned below.
PINNED_VERIFY = {
    "johansson": "49113449659edbc6e4742c3e94f4ef64d4a645361f423a07f4f104b755304c5a",
    "bernoulli": "09f221d929f304a26178472abfac74967713df3329123a67a2bb15b71aa6501c",
    "antidiagonal": "61e5357c1d3b550fa9862bcbb122a8fc0e14b133e9e3f81d2af947247b3fe51b",
    "diagonal": "4b75910b6f75662fdd944300361ac54f8a10bb4306b1f314f2f09696709f2bcd",
    "doublysymmetric": "cebddcc2c063d1df9f9c81085b16a29d4be7fc2c4cd049cbfa1bb984a47b7780",
    "pointreflection": "8f2c513001004786cb640ed52173891023e76f599f738c5271371d07e72facf4",
}
PINNED_RMT = {
    "johansson": "28cf94c677ffb9d5bfa87728366f6d6dd796802c82a9c8caedcbad4c613d5821",
    "bernoulli": "50c149422035c1ae0924d91aa8a910d8a9613f5c1b2f56f0e91621278fa5ff21",
    "antidiagonal": "5dfa8017036d6040e701623d6cd4ea10f27e233b6fdf601784428dda8c5bae9d",
    "diagonal": "86c1ce7a0e235b406e1dcc97fd4b6f026d3cd31293293e890f0a51a70563502c",
    "doublysymmetric": "a6b61aa267fe84b1658ac4c68a577dc140fb33990de49baee51ae582d0c1cdc1",
    "pointreflection": "c316767f7ff22d5f0d45685e48f390f59d7b0a69301bf921804e55e2d832e2e3",
}
# The same point-reflection runs without their labels, recorded while the
# second column was still the factored exact table checked against self-dual
# path sums: SHA-256 of the `verify` rows as JSON and of the `rmt` output as
# JSON without its `method`.
PINNED_POINTREFLECTION_ROWS = {
    "verify": "3118956916b8f4760c4ae3fa48aa39384d37abb12a8f84e0a4f10f93319c0f9e",
    "rmt": "89b2b36cc15ce62af1beb797022e66462a3322d104344949d1620cc8c85e5717",
}


@pytest.mark.parametrize("variant", sorted(PINNED_EXACT))
def test_verify_output_is_pinned(variant, model_file, capsys):
    path = model_file(f"{variant}.json", PINNED_EXACT[variant][0])
    code, out = run_cli(capsys, ["verify", "--model", path, "--lmax", "6", "--samples", "9000",
                                 "--seed", "5"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY[variant]


@pytest.mark.parametrize("variant", sorted(PINNED_EXACT))
def test_rmt_output_is_pinned(variant, model_file, capsys):
    path = model_file(f"{variant}.json", PINNED_EXACT[variant][0])
    code, out = run_cli(capsys, ["rmt", "--model", path, "--l", "5"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_RMT[variant]


def test_pointreflection_rows_are_pinned_apart_from_the_label(model_file, capsys):
    path = model_file("p.json", PINNED_EXACT["pointreflection"][0])
    code, out = run_cli(capsys, ["verify", "--model", path, "--lmax", "6", "--samples", "9000",
                                 "--seed", "5"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        PINNED_POINTREFLECTION_ROWS["verify"]
    code, out = run_cli(capsys, ["rmt", "--model", path, "--l", "5"])
    assert code == 0
    payload = {k: v for k, v in json.loads(out).items() if k != "method"}
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == \
        PINNED_POINTREFLECTION_ROWS["rmt"]


def test_antidiagonal_verify_at_bound_zero_resolves_the_odd_prefactor(model_file, capsys):
    # the columns reach bound 1 even for --lmax 0, so the odd-bound note has a row to read
    path = model_file("anti.json", PINNED_EXACT["antidiagonal"][0])
    code, out = run_cli(capsys, ["verify", "--model", path, "--lmax", "0", "--samples", "2000",
                                 "--seed", "5"])
    report = json.loads(out)
    assert code == 0 and len(report["rows"]) == 1
    assert report["notes"]["odd_bound_prefactor"]["resolved"] == "standard"


def _ratios(n, start):
    return [f"{k}/{k + 3}" for k in range(start, start + n)]


@pytest.mark.parametrize("model, lmax", [
    ({"variant": "johansson", "a": _ratios(5, 1), "b": _ratios(5, 2)}, 24),
    ({"variant": "diagonal", "q": _ratios(8, 1), "alpha": "1/3"}, 40),
    ({"variant": "antidiagonal", "q": _ratios(8, 1), "beta": "2/5"}, 40),
    ({"variant": "pointreflection", "q": _ratios(8, 1)}, 40),
], ids=["johansson-n5", "diagonal-n8", "antidiagonal-n8", "pointreflection-n8"])
def test_exact_reaches_bounds_the_box_sweep_refused(model, lmax, model_file, capsys):
    # the partition box of each exceeds the cell budget; the Gram and Pfaffian
    # tables are of order n and agree with the matrix-average column
    path = model_file("m.json", model)
    code, out = run_cli(capsys, ["exact", "--model", path, "--lmax", str(lmax)])
    assert code == 0
    average = model_rmt_table(ModelSpec.from_json_dict(model), lmax)
    assert [row["p"] for row in json.loads(out)["distribution"]] == [
        format_rational(p) for p in average]


def test_verify_reaches_the_16x16_point_reflection_model(model_file, capsys):
    # a self-dual path-sum column would sweep a 10 x 16 box of 5.3M partitions
    path = model_file("p.json", {"variant": "pointreflection", "q": _ratios(8, 1)})
    code, out = run_cli(capsys, ["verify", "--model", path, "--lmax", "10",
                                 "--samples", "20000", "--seed", "1"])
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "PASS"
    assert report["second_kind"] == "toeplitz-U-halves"
    assert len(report["rows"]) == 11
    assert all(r["second_value"] == r["exact_value"] for r in report["rows"])


# One model per variant with 66-81 sampled sites, so a Monte Carlo chunk draws
# more than 64 sites' uniforms.
STREAM_MODELS = {
    "johansson": {"variant": "johansson", "a": _ratios(9, 1), "b": _ratios(9, 2)},
    "bernoulli": {"variant": "bernoulli", "a": _ratios(5, 1), "b": _ratios(14, 1)},
    "antidiagonal": {"variant": "antidiagonal", "q": _ratios(11, 1), "beta": "2/5"},
    "diagonal": {"variant": "diagonal", "q": _ratios(11, 1), "alpha": "1/3"},
    "doublysymmetric": {"variant": "doublysymmetric", "q": _ratios(8, 1), "alpha": "1/3"},
    "pointreflection": {"variant": "pointreflection", "q": _ratios(6, 1)},
}

# SHA-256 of `mc --lmax 60 --samples 9000 --seed 5` (three chunks, the last
# one partial) and of `sample --count 1100 --seed 5` (two chunks), recorded
# before the sampling kernels drew uniforms in blocks.
PINNED_MC = {
    "johansson": "9db6be19551cabc07ce9b0f6f896461cefe325be3ef7eac588fdfde73523e8bc",
    "bernoulli": "4937cf2a120bffce6782cf473e69b5486eb15bfbe904c20b6790298033d93f9e",
    "antidiagonal": "3d3029874accff3cb5b92387b68fb2b2dfa8c94c5f0d6185cb25b4370be110a7",
    "diagonal": "368b9a2503b480574646fec0a165843aaa1c9b9172878da9a1f6d6a4c6fe31ec",
    "doublysymmetric": "fc7ee795e25d36bee5a1e1e77e49cad9d5407c806b83537ea56d4a4e979992d7",
    "pointreflection": "dd439bbc27cccd27ddbe703db75aae4d3c3dc049c9e83b8269572c976586be8c",
}
PINNED_SAMPLE = {
    "johansson": "de4c8253d96c6c1312eef2784c6ca5e4d3aaa202f5eead28b4431dfb17ae3aa5",
    "bernoulli": "18a8b8f36425941d0cbb6195d8a66c9bf2e6497d5da047bc51a0b2aeffdee8f3",
    "antidiagonal": "564f1aa708f3243d9425eeabd521dd4f3999ea533ea8e0b6c503dfcacec1e650",
    "diagonal": "4996d8d20ec25479ca2c15ebe1187cbc1fce33562eb3dc8d06a8f52a202ef0b3",
    "doublysymmetric": "c66ab1a76b761073eab53a585872bd991190261e475a8d9c1138f607e8247ef3",
    "pointreflection": "fbd0277c4685011c630a19c878928e098a428a396058622eafe33d330b2b0130",
}
# `hammersley --lam 4 --lmax 14 --samples 9000 --seed 5`, recorded with the
# fixed-point Toeplitz-Bessel minors; its Monte Carlo column, as JSON
# [[l, mc_estimate, mc_stderr], ...], is the one recorded with the sampling kernels.
# Its rows, as JSON, were recorded while the normalization was still chosen
# among four candidates by their worst z-score; the whole output was
# re-recorded when the notes dropped that choice's `candidate_worst_z` scores.
PINNED_HAMMERSLEY = "2aac7ea04dcfe0f321d0b9e89921a5b3960687b233e9f0c239ec40998e4208fa"
PINNED_HAMMERSLEY_ROWS = "3b171cc9dadd253f8412ada1a4f23d7e27f9f6f93c71d0c2db7fe7c7a5c59964"
PINNED_HAMMERSLEY_MC = "6c7959ee340f37bc2d5e0be57b8d813728b09c7a9a19d9ab8a0553ee725a37eb"


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("variant", sorted(STREAM_MODELS))
def test_mc_output_is_pinned(variant, threads, model_file, capsys):
    path = model_file(f"{variant}.json", STREAM_MODELS[variant])
    code, out = run_cli(capsys, ["mc", "--model", path, "--lmax", "60", "--samples", "9000",
                                 "--seed", "5", "--threads", threads])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_MC[variant]


@pytest.mark.parametrize("variant", sorted(STREAM_MODELS))
def test_sample_output_is_pinned(variant, model_file, capsys):
    path = model_file(f"{variant}.json", STREAM_MODELS[variant])
    code, out = run_cli(capsys, ["sample", "--model", path, "--count", "1100", "--seed", "5"])
    assert code == 0
    assert len(json.loads(out)["matrices"]) == 1100
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SAMPLE[variant]


def test_hammersley_output_is_pinned(capsys):
    code, out = run_cli(capsys, ["hammersley", "--lam", "4", "--lmax", "14",
                                 "--samples", "9000", "--seed", "5"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_HAMMERSLEY
    rows = json.loads(out)["rows"]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == PINNED_HAMMERSLEY_ROWS
    mc = [[r["l"], r["mc_estimate"], r["mc_stderr"]] for r in rows]
    assert hashlib.sha256(json.dumps(mc).encode()).hexdigest() == PINNED_HAMMERSLEY_MC


def test_hammersley_normalization_is_fixed_below_the_bulk(capsys):
    # every row counts 0 events at lam = 100, l <= 6, so no Monte Carlo score
    # can tell the candidate normalizations apart
    code, out = run_cli(capsys, ["hammersley", "--lam", "100", "--lmax", "6",
                                 "--samples", "10000", "--seed", "1"])
    assert code == 0
    notes = json.loads(out)["notes"]
    assert notes == {"resolved_normalization": "prefactor=exp(-lam), coefficient=2*sqrt(lam)",
                     "displayed_form_matches": False}


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports symlpp from this checkout."""
    src = os.path.dirname(os.path.dirname(symlpp.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """`script` in a fresh interpreter that imports symlpp from this checkout."""
    return subprocess.run([sys.executable, "-c", script, *args], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120, check=True)


# Runs the CLI commands that draw nothing, then one `mc`, in one interpreter;
# prints which of the lazily imported modules and the test oracles each step
# left loaded, whether dataclasses or inspect (which numpy itself imports) got
# loaded before `mc`, the exit codes, and the `mc` stdout.
COLD_START_SCRIPT = """
import contextlib, io, json, sys
import symlpp.cli as cli

def loaded():
    return [m for m in ("numpy", "concurrent.futures", "symlpp.oracles") if m in sys.modules]

def introspection():
    return [m for m in ("dataclasses", "inspect") if m in sys.modules]

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()

model, matrix, missing = sys.argv[1:4]
report = {"after_import": loaded(), "introspection_after_import": introspection(),
          "modules": [m in sys.modules for m in ("symlpp.lpp", "symlpp.harness")]}
codes = [run(argv)[0] for argv in (
    ["exact", "--model", model, "--lmax", "5"],
    ["rmt", "--model", model, "--l", "5"],
    ["rsk", "--matrix", matrix],
    ["exact", "--model", missing, "--lmax", "5"],
    ["--help"],
)]
report.update(codes=codes, after_exact_rmt_rsk=loaded(),
              introspection_after_exact_rmt_rsk=introspection())
code, out = run(["mc", "--model", model, "--lmax", "60", "--samples", "9000", "--seed", "5"])
report.update(mc_code=code, mc_out=out, after_mc=loaded())
print(json.dumps(report))
"""


def test_cold_start_loads_numpy_only_where_samples_are_drawn(tmp_path):
    model = tmp_path / "j.json"
    model.write_text(json.dumps(STREAM_MODELS["johansson"]))
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"rows_top_to_bottom": [[0, 1], [1, 0]]}))
    proc = _run_fresh(COLD_START_SCRIPT, str(model), str(matrix), str(tmp_path / "none.json"))
    report = json.loads(proc.stdout)
    assert report["after_import"] == []
    assert report["introspection_after_import"] == []
    # perfbench's tracer wraps functions of these two modules after importing the CLI
    assert report["modules"] == [True, True]
    assert report["codes"] == [0, 0, 0, 2, 0]
    assert report["after_exact_rmt_rsk"] == []
    assert report["introspection_after_exact_rmt_rsk"] == []
    assert report["mc_code"] == 0
    assert hashlib.sha256(report["mc_out"].encode()).hexdigest() == PINNED_MC["johansson"]
    assert report["after_mc"] == ["numpy"]


# Runs `sample` into --out in a fresh interpreter; prints its exit code and the
# interpreter's peak RSS (ru_maxrss, KiB on Linux).
SAMPLE_RSS_SCRIPT = """
import resource, sys
from symlpp.cli import main
code = main(["sample", "--model", sys.argv[1], "--count", sys.argv[2], "--out", sys.argv[3]])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_sample_memory_does_not_grow_with_count(tmp_path):
    # `sample` writes each chunk as it is drawn: 65536 matrices of 8 x 8 (about
    # 70 MB of JSON) peak within 8 MiB of 2000
    model = tmp_path / "d.json"
    model.write_text(json.dumps({"variant": "diagonal", "q": _ratios(8, 1), "alpha": "1/3"}))
    peaks = []
    for count in (2000, 65536):
        code, peak = _run_fresh(SAMPLE_RSS_SCRIPT, str(model), str(count), os.devnull).stdout.split()
        assert code == "0"
        peaks.append(int(peak))
    assert abs(peaks[1] - peaks[0]) <= 8 * 1024, peaks


def test_sample_out_file_is_stdout_without_the_final_newline(model_file, tmp_path, capsys):
    path = model_file("d.json", STREAM_MODELS["diagonal"])
    argv = ["sample", "--model", path, "--count", "1100", "--seed", "5"]
    code, out = run_cli(capsys, argv)
    assert code == 0 and out.endswith("}\n")
    target = tmp_path / "sample.json"
    code, rest = run_cli(capsys, argv + ["--out", str(target)])
    assert code == 0 and rest == ""
    assert target.read_bytes() == out[:-1].encode()


@pytest.mark.parametrize("argv, field", [
    (["--model", "MISSING", "--count", "3"], "model"),
    (["--model", "MODEL", "--count", "0"], "count"),
    (["--model", "MODEL", "--count", "3", "--seed", "-1"], "seed"),
    (["--model", "MODEL", "--count", "3", "--format", "csv"], "format"),
])
def test_sample_config_error_comes_before_any_output(argv, field, model_file, tmp_path,
                                                      capsys):
    paths = {"MODEL": model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]}),
             "MISSING": str(tmp_path / "none.json")}
    argv = ["sample"] + [paths.get(a, a) for a in argv]
    target = tmp_path / "sample.json"
    for extra in ([], ["--out", str(target)]):
        code, out = run_cli(capsys, argv + extra)
        assert code == 2
        # the whole of stdout is the one error object
        assert json.loads(out)["error"]["field"] == field
        assert not target.exists()


def test_closed_stdout_exits_141_and_writes_nothing_more(tmp_path):
    # `symlpp sample ... | head -3`: the reader takes three lines and goes away
    # while the 2.5 MB of matrices are still being written
    model = tmp_path / "d.json"
    model.write_text(json.dumps({"variant": "diagonal", "q": _ratios(8, 1), "alpha": "1/3"}))
    proc = subprocess.Popen([sys.executable, "-m", "symlpp.cli", "sample", "--model", str(model),
                             "--count", "2000"], env=_fresh_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert head[0] == b"{\n" and err == b""
