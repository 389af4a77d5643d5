import contextlib
import io
import json
import subprocess
import sys

import pytest

from wignersim import cli
from wignersim.channels import CollapseModel
from wignersim.experiment import conditional_table
from wignersim.presets import frauchiger_renner


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "wignersim", *args],
        capture_output=True,
        timeout=120,
    )


def run_main(argv):
    """Exit code, stdout and stderr of ``cli.main`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestTables:
    def test_assistant_about_f2_at_five_decimals(self):
        result = run_cli(
            "tables", "--preset", "fr", "--model", "ism",
            "--target", "f2", "--given", "a",
        )
        assert result.returncode == 0
        text = result.stdout.decode()
        assert "1.00000" in text and "0.20000" in text
        assert "0.80000" in text and "0.00000" in text
        # Columns ordered by the assistant's basis: o before f.
        header = text.splitlines()[1]
        assert header.index("A=o") < header.index("A=f")

    def test_collapse_column_for_tail_record(self):
        result = run_cli(
            "tables", "--preset", "fr", "--model", "clps:F1",
            "--target", "w", "--given", "f1", "--format", "json",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["columns"]["T"] == {
            "O": 0.0, "F": 1.0, "perp2": 0.0, "perp3": 0.0
        }
        assert payload["columns"]["H"]["F"] == pytest.approx(0.5)

    def test_no_collapse_w_table(self):
        result = run_cli(
            "tables", "--preset", "fr", "--model", "ism",
            "--target", "w", "--given", "f1", "--format", "csv",
        )
        lines = result.stdout.decode().splitlines()
        assert lines[0] == "W,F1=H,F1=T"
        assert lines[1] == "O,0.16667,0.16667"
        assert lines[2] == "F,0.83333,0.83333"

    def test_collapse_set_model_reads_back_its_tag(self):
        code, out, _ = run_main([
            "tables", "--preset", "fr", "--model", "clps:F1+F2",
            "--target", "w", "--given", "f1", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out)
        table = conditional_table(
            frauchiger_renner(), CollapseModel({"F1", "F2"}), "W", "F1"
        )
        assert payload["model"] == table.model_tag == "clps:F1+F2"
        assert payload["columns"] == {
            g: {t: round(table.columns[g][t], 5) for t in table.target_alphabet}
            for g in table.present_columns()
        }
        # Members fold case and may come in any order.
        assert run_main([
            "tables", "--preset", "fr", "--model", "clps:f2+f1",
            "--target", "w", "--given", "f1", "--format", "json",
        ])[1] == out

    @pytest.mark.parametrize("model", ["clps:", "clps:F1+", "clps:+F2", "clps:F1+nobody"])
    def test_collapse_set_with_an_empty_or_unknown_member_exits_2(self, model):
        code, out, err = run_main(["tables", "--preset", "fr", "--model", model, "--target", "w"])
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown agent ")

    def test_marginal_and_joint(self):
        marginal = run_cli("tables", "--preset", "fr", "--target", "w")
        assert b"0.16667" in marginal.stdout and b"0.83333" in marginal.stdout
        joint = run_cli("tables", "--preset", "fr", "--joint", "--format", "csv")
        assert b"F1=H,F2=U,A=o,W=O,0.02083" in joint.stdout

    def test_config_file_source(self, tmp_path):
        exported = run_cli("export-preset", "--preset", "fr")
        path = tmp_path / "fr.json"
        path.write_bytes(exported.stdout)
        result = run_cli(
            "tables", "--config", str(path), "--target", "f2", "--given", "a"
        )
        assert result.returncode == 0
        assert b"1.00000" in result.stdout

    def test_usage_errors_exit_2(self):
        assert run_cli("tables", "--target", "w").returncode == 2
        assert run_cli("tables", "--preset", "nope", "--target", "w").returncode == 2
        assert run_cli(
            "tables", "--preset", "fr", "--target", "w", "--digits", "99"
        ).returncode == 2
        assert run_cli("tables", "--preset", "fr").returncode == 2

    def test_conditioning_on_the_target_itself(self):
        result = run_cli(
            "tables", "--preset", "wigner-superposition", "--model", "ism",
            "--target", "f", "--given", "f", "--given-outcome", "u",
        )
        assert result.returncode == 0
        assert result.stdout.decode().splitlines()[1:] == ["F  F=u", "u  1.00000", "d  0.00000"]

    @pytest.mark.parametrize(
        "args,message",
        [
            (("--target", "f2", "--given", "f2"), b"--target and --given name the same agent"),
            (("--target", "w", "--given-outcome", "o"), b"--given-outcome needs --given"),
        ],
        ids=["target-is-given", "outcome-without-given"],
    )
    def test_ill_posed_conditioning_exits_2(self, args, message):
        result = run_cli("tables", "--preset", "fr", *args)
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr.startswith(b"error: ")
        assert message in result.stderr
        assert b"Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("--target", "w"),
            ("--given", "f1"),
            ("--given-outcome", "o"),
            ("--target", "w", "--given-outcome", "o"),
        ],
        ids=["target", "given", "given-outcome", "target-and-outcome"],
    )
    def test_joint_with_conditioning_flags_exits_2(self, args):
        result = run_cli("tables", "--preset", "fr", "--joint", *args)
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr == b"error: --joint takes no --target, --given or --given-outcome\n"

    def test_unknown_outcome_message_is_not_quoted_twice(self):
        result = run_cli(
            "tables", "--preset", "fr",
            "--target", "w", "--given", "f1", "--given-outcome", "bogus",
        )
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr == b"error: 'bogus' is not an outcome of 'F1'\n"

    def test_impossible_conditioning_exits_3(self):
        result = run_cli(
            "tables", "--preset", "wigner-superposition",
            "--target", "f", "--given", "w", "--given-outcome", "phi-",
        )
        assert result.returncode == 3

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(
            "tables", "--config", str(path), "--target", "w"
        ).returncode == 2

    @pytest.mark.parametrize("amplitude", [5, ["a", "b"]])
    def test_initial_amplitude_not_a_pair_exits_2(self, tmp_path, amplitude):
        doc = json.loads(run_cli("export-preset", "--preset", "fr").stdout)
        doc["initial"]["h"] = amplitude
        path = tmp_path / "bad-initial.json"
        path.write_text(json.dumps(doc))
        result = run_cli("tables", "--config", str(path), "--target", "w")
        assert result.returncode == 2
        assert b"Traceback" not in result.stderr
        assert b'initial["h"]: expected [re, im]' in result.stderr


    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("steps", {"targets": 5}, b"steps[0].targets: expected a list of labels, got 5"),
            ("registry", {"basis_labels": 7}, b"registry[0].basis_labels: expected a list of labels, got 7"),
        ],
    )
    def test_wrong_field_type_exits_2(self, tmp_path, field, value, message):
        doc = json.loads(run_cli("export-preset", "--preset", "fr").stdout)
        doc[field][0].update(value)
        path = tmp_path / "bad-field.json"
        path.write_text(json.dumps(doc))
        result = run_cli("tables", "--config", str(path), "--target", "w")
        assert result.returncode == 2
        assert b"Traceback" not in result.stderr
        assert message in result.stderr


    @pytest.mark.parametrize(
        "edit,line",
        [
            (
                lambda doc: doc["steps"][1].pop("output_label"),
                b"error: cannot load experiment config: steps[1].output_label: missing\n",
            ),
            (
                lambda doc: doc["steps"][0].update(targets=["Q"]),
                b"error: cannot load experiment config: steps[0].targets: unknown subsystem label 'Q'\n",
            ),
            (
                lambda doc: doc["initial"].update(zz=[0.0, 0.0]),
                b"error: cannot load experiment config: initial[\"zz\"]: subsystem 'C' has no basis state 'zz'\n",
            ),
            (
                lambda doc: doc["initial"].update({"h,t": [0.0, 0.0]}),
                b"error: cannot load experiment config: initial[\"h,t\"]: expected 1 basis labels, got 2\n",
            ),
            (
                lambda doc: doc["steps"][1]["prepared"].update(qq=doc["steps"][1]["prepared"].pop("T")),
                b"error: cannot load experiment config: steps[1].prepared[\"qq\"]: subsystem 'F1' has no basis state 'qq'\n",
            ),
        ],
        ids=["missing-field", "unknown-label", "unknown-basis-label", "basis-label-count", "unknown-control-label"],
    )
    def test_config_error_is_one_exact_line(self, tmp_path, edit, line):
        doc = json.loads(run_cli("export-preset", "--preset", "fr").stdout)
        edit(doc)
        path = tmp_path / "bad-config.json"
        path.write_text(json.dumps(doc))
        result = run_cli("tables", "--config", str(path), "--target", "w")
        assert (result.returncode, result.stdout, result.stderr) == (2, b"", line)

    def test_non_string_experiment_name_exits_2(self, tmp_path):
        doc = json.loads(run_cli("export-preset", "--preset", "fr").stdout)
        doc["name"] = 5
        path = tmp_path / "bad-name.json"
        path.write_text(json.dumps(doc))
        result = run_cli("tables", "--config", str(path), "--target", "w")
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr == b"error: cannot load experiment config: name: expected a label, got 5\n"


class TestCheck:
    def test_fr_subjective_collapse_exits_1(self):
        result = run_cli("check", "fr", "--f1-model", "clps", "--format", "json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["clash"]["time"] == "t4"
        assert payload["clash"]["slot"] == "w"
        assert payload["clash"]["deduced"] == "F"
        assert payload["clash"]["observed"] == "O"

    def test_fr_no_collapse_exits_0(self):
        assert run_cli("check", "fr", "--f1-model", "ism").returncode == 0

    def test_deutsch_exits_1_with_y_clash(self):
        result = run_cli("check", "deutsch")
        assert result.returncode == 1
        text = result.stdout.decode()
        assert "(t2, y)" in text and "y=1" in text

    def test_bad_scenario_exits_2(self):
        assert run_cli("check", "bell").returncode == 2


class TestSample:
    def test_halting_frequency_within_three_sigma(self):
        result = run_cli(
            "sample", "--preset", "fr", "--shots", "120000", "--seed", "7"
        )
        assert result.returncode == 0
        line = next(
            l for l in result.stdout.decode().splitlines() if l.startswith("halting")
        )
        freq = float(line.split("frequency=")[1].split()[0])
        p = 1 / 12
        sigma = (p * (1 - p) / 120000) ** 0.5
        assert abs(freq - p) < 3 * sigma

    def test_zero_shots_empty_histogram(self):
        result = run_cli("sample", "--preset", "fr", "--shots", "0", "--seed", "1")
        assert result.returncode == 0
        assert result.stdout.decode().rstrip().endswith("assignment,count")

    def test_missing_seed_exits_2(self):
        assert run_cli("sample", "--preset", "fr", "--shots", "10").returncode == 2

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_range_exits_2(self, seed):
        result = run_cli(
            "sample", "--preset", "fr", "--shots", "5", "--seed", str(seed)
        )
        assert result.returncode == 2
        assert b"Traceback" not in result.stderr
        assert b"--seed must be in [0, 2**128)" in result.stderr


class TestInternalFailure:
    """Any exception ``main`` does not map to 2 or 3 exits 4, never 1.

    The handler is replaced by one that raises, so no test allocates the
    memory that, say, ``sample --shots 10000000000000`` would ask for.
    """

    @pytest.mark.parametrize(
        "exc",
        [
            RuntimeError("boom\non two lines"),
            MemoryError("Unable to allocate 72.8 TiB for an array"),
        ],
        ids=["RuntimeError", "MemoryError"],
    )
    def test_unhandled_exception_exits_4_with_one_error_line(
        self, monkeypatch, capsys, exc
    ):
        from wignersim import cli

        def fail(config):
            raise exc

        monkeypatch.setattr(cli, "cmd_sample", fail)
        code = cli.main(["sample", "--preset", "fr", "--shots", "10", "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == f"error: {type(exc).__name__}: {' '.join(str(exc).split())}\n"
        assert "Traceback" not in err


class TestUsageErrorLines:
    SOURCE = "error: exactly one of --preset / --config is required\n"

    @pytest.mark.parametrize(
        "argv,line",
        [
            (["tables", "--target", "w"], SOURCE),
            (["tables", "--preset", "fr", "--config", "x.json", "--target", "w"], SOURCE),
            (["sample", "--shots", "5", "--seed", "1"], SOURCE),
            (["export-preset"], SOURCE),
            (["export-preset", "--preset", "fr", "--config", "x.json"], SOURCE),
            (["tables", "--target", "w", "--digits", "0"], SOURCE),
            (["tables", "--preset", "fr", "--target", "w", "--digits", "0"],
             "error: --digits must be in [1, 17], got 0\n"),
            (["tables", "--preset", "fr", "--target", "w", "--digits", "18"],
             "error: --digits must be in [1, 17], got 18\n"),
            (["sample", "--preset", "fr", "--shots", "5", "--seed", "1", "--digits", "0"],
             "error: --digits must be in [1, 17], got 0\n"),
            (["sample", "--preset", "fr", "--shots", "5", "--seed", "1", "--digits", "18"],
             "error: --digits must be in [1, 17], got 18\n"),
            (["sample", "--preset", "fr", "--digits", "0"],
             "error: --digits must be in [1, 17], got 0\n"),
            (["check", "fr", "--f1-model", "bad"], "error: unknown --f1-model 'bad'\n"),
            (["check", "deutsch", "--friend-model", "bad"],
             "error: unknown --friend-model 'bad'\n"),
            (["check", "nope"], "error: unknown scenario 'nope'; use fr or deutsch\n"),
            # check rejects a flag that the named scenario does not read,
            # after the scenario name itself.
            (["check", "deutsch", "--f1-model", "bad"],
             "error: check deutsch does not read --f1-model\n"),
            (["check", "deutsch", "--f1-model", "clps", "--format", "json"],
             "error: check deutsch does not read --f1-model\n"),
            (["check", "fr", "--friend-model", "bad", "--wigner-basis", "product"],
             "error: check fr does not read --friend-model\n"),
            (["check", "fr", "--f1-model", "ism", "--wigner-basis", "superposition"],
             "error: check fr does not read --wigner-basis\n"),
            (["check", "nope", "--f1-model", "clps", "--friend-model", "ism"],
             "error: unknown scenario 'nope'; use fr or deutsch\n"),
        ],
    )
    def test_exits_2_with_one_exact_error_line(self, argv, line):
        assert run_main(argv) == (2, "", line)


class TestCheckDefaults:
    """A ``check`` flag left out takes the default its scenario reads."""

    @pytest.mark.parametrize(
        "bare,spelled",
        [
            (["check", "fr"], ["check", "fr", "--f1-model", "clps"]),
            (["check", "deutsch"],
             ["check", "deutsch", "--friend-model", "clps", "--wigner-basis", "superposition"]),
            (["check", "deutsch", "--wigner-basis", "product"],
             ["check", "deutsch", "--friend-model", "clps", "--wigner-basis", "product"]),
        ],
    )
    def test_matches_the_flag_spelled_out(self, bare, spelled):
        code, out, err = run_main(bare)
        assert (code, err) in ((0, ""), (1, ""))
        assert run_main(spelled) == (code, out, err)


class TestReusedParser:
    SEQUENCE = [
        ["tables", "--preset", "nope"],
        ["tables", "--preset", "fr", "--target", "w", "--digits", "99"],
        ["tables", "--preset", "fr", "--target", "w", "--given", "f1"],
        ["tables", "--presett", "fr"],
        ["check", "fr", "--format", "csv"],
        ["check", "fr", "--f1-model", "ism", "--format", "json"],
        ["tables", "--preset", "fr", "--joint", "--format", "csv"],
    ]

    def test_a_sequence_in_one_process_reads_as_with_a_fresh_parser_each(
        self, monkeypatch
    ):
        reused = [run_main(argv) for argv in self.SEQUENCE]
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run_main(argv) for argv in self.SEQUENCE]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2, 2, 0, 2, 2, 0, 0]


class TestExportPreset:
    def test_unwritable_out_path_exits_2(self, tmp_path):
        path = tmp_path / "missing" / "fr.json"
        result = run_cli("export-preset", "--preset", "fr", "--out", str(path))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: cannot write {path}".encode())
        assert b"Traceback" not in result.stderr
        assert not path.exists()


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("tables", "--preset", "fr", "--model", "ism", "--target", "f2",
             "--given", "a"),
            ("tables", "--preset", "fr", "--joint", "--format", "csv"),
            ("check", "fr", "--f1-model", "clps", "--format", "json"),
            ("check", "deutsch",),
            ("sample", "--preset", "fr", "--shots", "5000", "--seed", "42"),
            ("export-preset", "--preset", "fr"),
        ],
    )
    def test_byte_identical_across_runs(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode
