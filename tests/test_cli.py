import csv
import json
import sys

import pytest

from skewflow import (
    StructureTensor, TypeExtractionError, listing, mu_he, tensor_to_json, verify,
)
from skewflow.cli import main


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    # flow writes its outputs into the working directory
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "info", "--catalog", "sl2_compact")
        assert code == 0
        assert "is_semisimple" in out
        assert "true" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "info", "--catalog", "mu_he", "--dim", "3",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 3
        assert data["is_lie"] is True
        assert data["is_nilpotent"] is True
        assert data["dim_center"] == 1
        assert data["dim_derivations"] == 6
        assert data["jacobi_residual"] == 0.0

    def test_json_non_lie(self, capsys):
        code, out, _ = run(capsys, "info", "--catalog", "random", "--dim", "4",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["is_lie"] is False
        assert data["dim_derivations"] == 0
        assert data["dim_image"] == 4
        assert data["dim_center"] is None

    def test_csv_single_row(self, capsys):
        code, out, _ = run(capsys, "info", "--catalog", "g6", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("dim,norm_sq,")

    def test_file_and_catalog_conflict(self, capsys):
        code, _, err = run(capsys, "info", "--file", "x.json", "--catalog", "g6")
        assert code == 1 and "error" in err

    def test_neither_input(self, capsys):
        code, _, err = run(capsys, "info")
        assert code == 1 and "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "info", "--file", "does_not_exist.json")
        assert code == 1


class TestMoment:
    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "moment", "--catalog", "mu_he", "--dim", "3",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["trace_R"] == pytest.approx(-2.0 * data["norm_sq"])
        assert len(data["R_re"]) == 3 and len(data["R_im"]) == 3
        assert data["scalar_F"] == pytest.approx(12.0)

    def test_zero_tensor_has_null_F(self, capsys):
        code, out, _ = run(capsys, "moment", "--catalog", "C4", "--format", "json")
        assert code == 0
        assert json.loads(out)["scalar_F"] is None


class TestClassify:
    def test_critical_point_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--catalog", "mu_he", "--dim", "3",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {
            "c_mu", "D_eigenvalues", "residual", "F", "is_critical",
            "type", "critical_value", "critical_value_float",
        }
        assert data["is_critical"] is True
        assert data["type"] == {"ks": [1, 2], "ds": [2, 1]}
        assert data["critical_value"] == "12"
        assert data["critical_value_float"] == 12.0

    def test_critical_point_text(self, capsys):
        code, out, _ = run(capsys, "classify", "--catalog", "mu_he", "--dim", "3")
        assert code == 0
        rows = [line.split(None, 1) for line in out.splitlines()]
        assert [key for key, _ in rows] == [
            "c_mu", "D_eigenvalues", "residual", "F", "is_critical",
            "type", "critical_value", "critical_value_float",
        ]
        width = len("critical_value_float")
        assert f"{'is_critical':<{width}}  true" in out.splitlines()
        assert f"{'type':<{width}}  (1<2;2,1)" in out.splitlines()
        assert f"{'critical_value':<{width}}  12" in out.splitlines()
        assert f"{'critical_value_float':<{width}}  12" in out.splitlines()

    def test_noncritical_has_no_type(self, capsys):
        code, out, _ = run(capsys, "classify", "--catalog", "random", "--seed", "3",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["is_critical"] is False
        assert "type" not in data

    def test_zero_tensor_is_an_error(self, capsys):
        code, _, err = run(capsys, "classify", "--catalog", "C4")
        assert code == 1 and "zero" in err


class TestFlow:
    def test_writes_outputs_and_converges(self, capsys, tmp_path):
        code, out, _ = run(capsys, "flow", "--catalog", "g8", "--params", "0.25",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["converged"] is True
        assert data["F"] == pytest.approx(3.0, abs=1e-6)
        assert data["type"] == {"ks": [0, 1, 2], "ds": [1, 2, 1]}
        assert data["critical_value"] == "3"
        trace_file = tmp_path / data["trace_file"]
        limit_file = tmp_path / data["limit_file"]
        assert trace_file.name == "g8_0.25_trace.csv"
        assert trace_file.exists() and limit_file.exists()
        assert trace_file.read_text().startswith("step,F,grad_norm\n")
        limit = json.loads(limit_file.read_text())
        assert limit["dim"] == 4

    def test_budget_exhaustion_exits_2(self, capsys, monkeypatch):
        # the polish cannot certify this closure approach at a residual cut of 1e-9
        monkeypatch.setattr(sys.modules["skewflow.algebra"], "_RESIDUAL_TOL", 1e-9)
        code, out, _ = run(capsys, "flow", "--catalog", "g8", "--params", "0.25",
                           "--format", "json")
        assert code == 2
        assert json.loads(out)["converged"] is False

    def test_each_seed_gets_its_own_outputs(self, capsys, tmp_path):
        for seed in ("1", "2"):
            run(capsys, "flow", "--catalog", "random", "--dim", "3", "--seed", seed)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "random_d3_s1_limit.json", "random_d3_s1_trace.csv",
            "random_d3_s2_limit.json", "random_d3_s2_trace.csv",
        ]

    def test_zero_tensor_is_input_error(self, capsys):
        code, _, err = run(capsys, "flow", "--catalog", "C4")
        assert code == 1

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "he.json"
        path.write_text(tensor_to_json(mu_he(3).tensor))
        code, out, _ = run(capsys, "flow", "--file", str(path), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["steps"] == 0
        assert (tmp_path / "he_trace.csv").exists()
        assert (tmp_path / "he_limit.json").exists()

    def test_batch(self, capsys, tmp_path):
        items = [
            json.loads(tensor_to_json(mu_he(3).tensor)),
            json.loads(tensor_to_json(mu_he(4).tensor)),
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(items))
        code, out, _ = run(capsys, "flow", "--batch", "--file", str(path),
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 2
        assert all(item["converged"] for item in data)
        assert (tmp_path / "batch_00_trace.csv").exists()
        assert (tmp_path / "batch_01_limit.json").exists()

    def _zero_batch(self, tmp_path):
        items = [tensor_to_json(mu_he(3).tensor), tensor_to_json(StructureTensor.zero(3))]
        path = tmp_path / "batch.json"
        path.write_text("[" + ",".join(items) + "]")
        return str(path)

    def test_batch_csv_is_one_table(self, capsys, tmp_path):
        code, out, _ = run(capsys, "flow", "--batch", "--file", self._zero_batch(tmp_path),
                           "--format", "csv")
        assert code == 2  # the zero tensor has no flow
        head, flowed, failed = csv.reader(out.splitlines())
        assert head == [
            "F", "type", "converged", "steps", "residual", "trace_file", "limit_file",
            "critical_value", "error",
        ]
        assert float(flowed[0]) == pytest.approx(12.0)
        assert flowed[1:4] == ["(1<2;2,1)", "true", "0"]
        assert flowed[5:] == ["batch_00_trace.csv", "batch_00_limit.json", "12", ""]
        assert failed[:8] == ["", "", "false", "", "", "", "", ""] and "zero" in failed[8]

    def test_batch_text_separates_records(self, capsys, tmp_path):
        code, out, _ = run(capsys, "flow", "--batch", "--file", self._zero_batch(tmp_path),
                           "--format", "text")
        assert code == 2
        first, second = out.rstrip("\n").split("\n\n")
        assert first.startswith("F ") and "batch_00_limit.json" in first
        assert second.splitlines()[0].startswith("error ")
        assert second.splitlines()[1].split() == ["converged", "false"]

    def test_batch_needs_file(self, capsys):
        code, _, err = run(capsys, "flow", "--batch", "--catalog", "g6")
        assert code == 1

    def test_batch_rejects_non_array(self, capsys, tmp_path):
        path = tmp_path / "notlist.json"
        path.write_text(tensor_to_json(mu_he(3).tensor))
        code, _, err = run(capsys, "flow", "--batch", "--file", str(path))
        assert code == 1


class TestCatalog:
    def test_list_json(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        rows = json.loads(out)
        names = {r["name"] for r in rows}
        assert {"g1", "g8", "mu_he", "sl2_compact", "nilpotent", "random"} <= names
        for r in rows:
            assert set(r) == {"name", "param_arity", "dim", "flags"}

    def test_list_json_is_the_listing(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert json.loads(out) == listing()
        assert out.startswith('[\n  {\n    "name": "C4",\n')

    def test_list_csv(self, capsys):
        code, out, _ = run(capsys, "catalog", "list", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "name,param_arity,dim,flags"

    def test_export_round_trip(self, capsys):
        code, out, _ = run(capsys, "catalog", "export", "--catalog", "mu_he",
                           "--dim", "3")
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 3
        assert data["entries"] == [{"i": 1, "j": 2, "k": 3, "re": 1.0, "im": 0.0}]

    def test_export_needs_name(self, capsys):
        code, _, err = run(capsys, "catalog", "export")
        assert code == 1

    def test_unknown_entry(self, capsys):
        code, _, err = run(capsys, "catalog", "export", "--catalog", "nope")
        assert code == 1


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "closed-forms")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("PASS [closed-forms]")
        assert lines[-1] == "1/1 checks passed"

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "nonsense")
        assert code == 1

    def test_type_extraction_failure_is_a_fail_line(self, capsys, monkeypatch):
        def failing(d_mu):
            raise TypeExtractionError("no rational type")

        monkeypatch.setattr(verify, "extract_type", failing)
        code, out, _ = run(capsys, "verify", "--only", "semidirect")
        assert code == 3
        assert out.startswith("FAIL [semidirect] derivation-extensions")
        assert out.strip().splitlines()[-1] == "0/1 checks passed"


class TestUsageErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info", "--bogus"])
        assert exc.value.code == 1

    def test_bad_format_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info", "--catalog", "g6", "--format", "xml"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ("flow", "--catalog", "g6", "--grad-tol", "1e-9"),
        ("verify", "--grad-tol", "1e-9"),
    ])
    def test_grad_tol_is_not_an_option(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ("flow", "--catalog", "g6", "--max-steps", "2"),
        ("verify", "--max-steps", "2"),
    ])
    def test_max_steps_is_not_an_option(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ("info", "--catalog", "mu_he", "--dim", "0"),
    ("info", "--catalog", "random", "--dim", "0"),
    ("flow", "--catalog", "mu_hy", "--dim", "0"),
    ("info", "--catalog", "g6", "--dim", "7"),
    ("flow", "--catalog", "g6", "--dim", "7"),
    ("info", "--catalog", "mu_he", "--params", "1"),
    ("info", "--catalog", "mu_he", "--seed", "1"),
])
def test_arguments_the_entry_cannot_use_are_input_errors(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "error" in err
    assert list(tmp_path.iterdir()) == []  # flow wrote no output files


@pytest.mark.parametrize("command", ["classify", "flow"])
@pytest.mark.parametrize(
    "flag", [("--params", "1,2"), ("--dim", "9"), ("--seed", "3")], ids=["params", "dim", "seed"]
)
def test_a_file_input_takes_no_catalog_flags(capsys, tmp_path, command, flag):
    # the flags select a catalog instance; a file input would ignore them
    path = tmp_path / "he.json"
    path.write_text(tensor_to_json(mu_he(3).tensor))
    code, out, err = run(capsys, command, "--file", str(path), *flag)
    assert code == 1 and out == "" and flag[0] in err
    assert list(tmp_path.iterdir()) == [path]  # flow wrote no output files


def test_a_batch_file_takes_no_catalog_flags(capsys, tmp_path):
    path = tmp_path / "batch.json"
    path.write_text("[" + tensor_to_json(mu_he(3).tensor) + "]")
    code, out, err = run(capsys, "flow", "--batch", "--file", str(path), "--seed", "3")
    assert code == 1 and out == "" and "--seed" in err
    assert list(tmp_path.iterdir()) == [path]


def test_a_batch_file_takes_no_catalog_name(capsys, tmp_path):
    # the batch flows the file's tensors; a catalog name would be ignored
    path = tmp_path / "batch.json"
    path.write_text("[" + tensor_to_json(mu_he(3).tensor) + "]")
    code, out, err = run(capsys, "flow", "--batch", "--file", str(path), "--catalog", "n4")
    assert code == 1 and out == "" and "--catalog" in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "flags",
    [("--catalog", "g6"), ("--params", "1"), ("--dim", "4"), ("--seed", "4"),
     ("--catalog", "g6", "--seed", "4")],
    ids=["catalog", "params", "dim", "seed", "catalog-seed"],
)
def test_catalog_list_takes_no_input_flags(capsys, flags):
    # list prints the whole catalog; a flag selecting one entry would be ignored
    code, out, err = run(capsys, "catalog", "list", *flags)
    assert code == 1 and out == ""
    assert all(f in err for f in flags if f.startswith("--"))


@pytest.mark.parametrize("action", ["list", "export"])
def test_catalog_takes_no_file(capsys, tmp_path, action):
    # catalog reads no tensor file, so --file is not one of its flags
    path = tmp_path / "he.json"
    path.write_text(tensor_to_json(mu_he(3).tensor))
    with pytest.raises(SystemExit) as exc:
        main(["catalog", action, "--catalog", "g6", "--file", str(path)])
    assert exc.value.code == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("params", ["2.7", "1.5,1.4", "1+1j"])
def test_partition_parts_that_are_not_integers_are_input_errors(capsys, params):
    code, out, err = run(capsys, "classify", "--catalog", "nilpotent", "--params", params)
    assert code == 1 and out == "" and "nonnegative integers" in err


def test_fraction_params(capsys):
    code = main(["classify", "--catalog", "g2", "--params", "1/27,1/3",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["is_critical"] is False  # start of an excluded orbit


def test_bad_param_token(capsys):
    code = main(["info", "--catalog", "g1", "--params", "abc"])
    err = capsys.readouterr().err
    assert code == 1 and "parameter" in err
