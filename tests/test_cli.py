import hashlib
import json
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from symlpp import cli, harness
from symlpp.cli import build_parser, dump_json, main, rows_to_csv


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


def test_seed_env_fallback(model_file, capsys, monkeypatch):
    path = model_file("j.json", {"variant": "johansson", "a": ["1/2"], "b": ["1/2"]})
    monkeypatch.setenv("LPP_SEED", "77")
    code, out = run_cli(capsys, ["sample", "--model", path, "--count", "1"])
    assert code == 0
    assert json.loads(out)["seed"] == 77
    monkeypatch.setenv("LPP_SEED", "x")
    code, out = run_cli(capsys, ["sample", "--model", path, "--count", "1"])
    assert code == 2


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
    # the point-reflection matrix-average route reads the exact table at --l
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


def test_threads_default_to_one():
    parser = build_parser()
    for command in ("mc", "verify"):
        args = parser.parse_args([command, "--model", "m.json", "--lmax", "1"])
        assert args.threads == 1


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


def _ratios(n, start):
    return [f"{k}/{k + 3}" for k in range(start, start + n)]


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
# `hammersley --lam 4 --lmax 14 --samples 9000 --seed 5`, recorded likewise.
PINNED_HAMMERSLEY = "91a7a30d5010ef0965c45bdd4e1edf84ecb7145676fe13a5770031bd08b823de"


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
