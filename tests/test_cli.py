"""End-to-end CLI behavior: subcommands, formats, exit codes, determinism."""

import gc
import hashlib
import json
import re

import pytest

from mvaudit import cli
from mvaudit.cli import main
from mvaudit.data import load_dataset, parse_dataset

P11 = 1.322065e-10
P14 = 5.151422e-8


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse ``text`` as RFC 8259 JSON, which has no NaN, Infinity or -Infinity."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.fixture()
def fixture_arg(fixture_csv_path):
    return str(fixture_csv_path)


@pytest.fixture()
def bad_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n"
        "1,A,1000,400,200,250,green\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture(params=[1, 3])
def non_utf8_csv(request, tmp_path):
    # an otherwise valid file with two bytes that are not UTF-8 on one line
    lines = [
        b"district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status",
        b"1,A,1000,400,200,90,green",
        b"2,B,1200,500,300,140,red",
    ]
    lines[request.param - 1] = b"\xff\xfe" + lines[request.param - 1]
    path = tmp_path / "non_utf8.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    return str(path), request.param


@pytest.fixture(
    params=[
        ("1,A," + "9" * 5000 + ",400,200,80,green", "bad integer in column ballot_total: '9999"),
        ("1," + "x" * 131_073 + ",1000,400,200,80,green", "field larger than field limit"),
    ],
    ids=["count_over_4300_digits", "field_over_size_limit"],
)
def oversized_csv(request, tmp_path):
    # int() and the csv module each raise their own error for these
    row, reason = request.param
    path = tmp_path / "oversized.csv"
    path.write_text(
        "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n" + row + "\n",
        encoding="utf-8",
    )
    return str(path), f"line 2: {reason}"


@pytest.fixture()
def exact_fit_csv(tmp_path):
    # the accepted districts lie on one line through the origin: sigma2 is 0
    path = tmp_path / "exact_fit.csv"
    path.write_text(
        "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n"
        "1,A,100,40,50,20,green\n"
        "2,B,100,40,50,20,green\n"
        "3,C,100,60,50,20,red\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture()
def zero_contested_csv(tmp_path):
    # the contested district has no candidate-1 ballot votes and no mail
    # votes, so the prediction sd is 0 although the noise estimate is not
    path = tmp_path / "zero_contested.csv"
    path.write_text(
        "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n"
        "1,A,1000,400,200,90,green\n"
        "2,B,1200,500,300,140,green\n"
        "3,C,900,300,250,70,green\n"
        "4,D,100,0,0,0,red\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture()
def thin_csv(tmp_path):
    # one accepted district has no mail votes, leaving a single one to fit
    path = tmp_path / "thin.csv"
    path.write_text(
        "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n"
        "1,A,1000,400,200,90,green\n"
        "2,B,1000,500,0,0,green\n"
        "3,C,1000,450,300,120,red\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture()
def all_green_csv(tmp_path):
    # a valid file whose districts are all accepted: nothing is contested
    path = tmp_path / "all_green.csv"
    path.write_text(
        "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n"
        "1,A,1000,400,200,90,green\n"
        "2,B,1200,500,300,140,green\n"
        "3,C,900,300,250,70,green\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("argv", [("analyze",), ("calibrate", "--reps", "100")])
def test_no_contested_districts_exits_one(capsys, all_green_csv, argv):
    # analyze and calibrate reject a file without contested districts alike
    message = "dataset has no contested districts"
    code, out, err = run(capsys, argv[0], all_green_csv, *argv[1:])
    assert (code, out, err) == (1, "", f"error: {message}\n")
    code, out, err = run(capsys, argv[0], all_green_csv, *argv[1:], "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"error": {"type": "data", "message": message}}


class TestAnalyze:
    def test_json_headline(self, capsys, fixture_arg):
        code, out, _ = run(capsys, "analyze", fixture_arg, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_reversal"] == pytest.approx(P11, rel=1e-3)
        assert payload["dof"] == 105
        assert payload["n_green"] == 106 and payload["n_red"] == 11
        assert payload["reversal_threshold"] == 49911

    def test_exclusions_reported(self, capsys, fixture_arg, tmp_path):
        _, out, _ = run(capsys, "analyze", fixture_arg, "--json")
        assert (json.loads(out)["n_used"], json.loads(out)["excluded"]) == (106, [])
        path = tmp_path / "zero_mail.csv"
        path.write_text(
            "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n"
            "1,A,1000,400,200,90,green\n"
            "2,B,1200,500,0,0,green\n"
            "3,C,900,300,250,70,green\n"
            "4,D,800,300,0,0,green\n"
            "5,E,100,30,40,10,red\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        payload = json.loads(out)
        assert code == 0
        assert (payload["n_green"], payload["n_used"], payload["excluded"]) == (4, 2, ["2", "4"])
        assert payload["dof"] == 1
        _, human, _ = run(capsys, "analyze", str(path))
        assert "fitted districts     : 2 (2 without mail votes excluded: 2, 4)\n" in human

    def test_json_variant_14(self, capsys, fixture_arg):
        code, out, _ = run(capsys, "analyze", fixture_arg, "--json", "--include-dubious")
        payload = json.loads(out)
        assert code == 0
        assert payload["variant"] == "M14"
        assert payload["dof"] == 102
        assert payload["p_reversal"] == pytest.approx(P14, rel=1e-3)

    def test_schema_stable_across_variants(self, capsys, fixture_arg):
        _, out_a, _ = run(capsys, "analyze", fixture_arg, "--json")
        _, out_b, _ = run(capsys, "analyze", fixture_arg, "--json", "--include-dubious")
        _, out_c, _ = run(capsys, "analyze", fixture_arg, "--json", "--level", "0.99")
        assert set(json.loads(out_a)) == set(json.loads(out_b)) == set(json.loads(out_c))

    def test_human_matches_json_to_seven_digits(self, capsys, fixture_arg):
        _, human, _ = run(capsys, "analyze", fixture_arg)
        _, as_json, _ = run(capsys, "analyze", fixture_arg, "--json")
        payload = json.loads(as_json)
        match = re.search(r"p\(reversal\)\s*:\s*([0-9.e+-]+)", human)
        assert match, human
        assert float(match.group(1)) == pytest.approx(payload["p_reversal"], rel=1e-7)
        assert f"log10 = {payload['log10_p_reversal']:.9g}" in human

    def test_deterministic_output(self, capsys, fixture_arg):
        _, out_a, _ = run(capsys, "analyze", fixture_arg, "--json")
        _, out_b, _ = run(capsys, "analyze", fixture_arg, "--json")
        assert out_a == out_b

    def test_interval_flag(self, capsys, fixture_arg):
        code, out, _ = run(capsys, "analyze", fixture_arg, "--json", "--level", "0.95")
        interval = json.loads(out)["prediction_interval"]
        assert code == 0
        assert interval["level"] == 0.95
        assert interval["lower"] < interval["upper"]

    def test_malformed_csv_exits_one(self, capsys, bad_csv):
        code, _, err = run(capsys, "analyze", bad_csv)
        assert code == 1
        assert "line 2" in err and "mail votes" in err

    def test_malformed_csv_json_error_object(self, capsys, bad_csv):
        code, out, _ = run(capsys, "analyze", bad_csv, "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"]["type"] == "data"

    def test_invalid_utf8_exits_one(self, capsys, non_utf8_csv):
        path, line = non_utf8_csv
        code, out, err = run(capsys, "analyze", path)
        assert code == 1 and out == ""
        assert err == f"error: line {line}: invalid UTF-8 byte 0xff\n"

    def test_oversized_input_exits_one(self, capsys, oversized_csv):
        path, message = oversized_csv
        code, out, err = run(capsys, "analyze", path)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}")

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "analyze", "/no/such/file.csv")
        assert code == 1


    def test_zero_prediction_sd_is_flagged_degenerate(self, capsys, zero_contested_csv):
        code, out, _ = run(capsys, "analyze", zero_contested_csv, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma2"] > 0.0
        assert payload["degenerate"] is True
        assert payload["pred_sd"] == 0.0
        assert payload["p_reversal"] == 0.0

    def test_exact_fit_prints_strict_json(self, capsys, exact_fit_csv):
        # t and log10 p are infinite; JSON writes them as null, degenerate says why
        code, out, _ = run(capsys, "analyze", exact_fit_csv, "--json")
        assert code == 0
        payload = strict_json(out)
        assert payload["degenerate"] is True
        assert (payload["sigma2"], payload["pred_sd"], payload["p_reversal"]) == (0.0, 0.0, 0.0)
        assert payload["t_stat"] is None and payload["log10_p_reversal"] is None

    @pytest.mark.parametrize("csv", ["exact_fit_csv", "zero_contested_csv"])
    def test_degenerate_fit_keeps_report_without_interval(self, capsys, request, csv):
        # sigma2 == 0 and a zero prediction sd with sigma2 > 0 follow one rule
        path = request.getfixturevalue(csv)
        code, out, _ = run(capsys, "analyze", path, "--level", "0.9", "--json")
        assert code == 0
        payload = strict_json(out)
        assert payload["degenerate"] is True and payload["prediction_interval"] is None
        code, out, err = run(capsys, "analyze", path, "--level", "0.9")
        assert code == 0 and err == ""
        assert out == run(capsys, "analyze", path)[1] + "no interval: degenerate fit\n"


class TestScenario:
    def test_default_votes_summary(self, capsys, fixture_arg, tmp_path):
        out_file = tmp_path / "mod.csv"
        code, out, _ = run(capsys, "scenario", fixture_arg, "--out", str(out_file))
        assert code == 0
        assert "moved 15432" in out
        assert "+1" in out

    def test_zero_votes_roundtrips_input(self, capsys, fixture_arg, tmp_path, fixture_csv_path):
        out_file = tmp_path / "same.csv"
        code, _, _ = run(capsys, "scenario", fixture_arg, "--votes", "0", "--out", str(out_file))
        assert code == 0
        assert out_file.read_bytes() == fixture_csv_path.read_bytes()

    def test_stdout_csv_with_summary_on_stderr(self, capsys, fixture_arg):
        code, out, err = run(capsys, "scenario", fixture_arg, "--votes", "0")
        assert code == 0
        assert out.startswith("district_id,name,")
        assert "moved 0" in err

    def test_oversized_request_fails(self, capsys, fixture_arg):
        code, _, err = run(capsys, "scenario", fixture_arg, "--votes", "99999999")
        assert code == 1
        assert "short by" in err

    def test_json_summary(self, capsys, fixture_arg):
        code, out, _ = run(capsys, "scenario", fixture_arg, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["votes_moved_total"] == 15432
        assert payload["resulting_margin_c1_minus_c2"] == 1
        assert sum(payload["votes_moved"].values()) == 15432
        assert payload["csv"].startswith("district_id,name,")

    def test_moves_exactly_the_votes_asked_for_on_huge_counts(self, capsys, tmp_path):
        # float quotas past 2**53 once moved 5 votes more than the summary reported
        mail_totals = (3595351650018309043, 2456465800505386286, 942879118058144419,
                       2927771633508938554, 205885137275371229)
        path = tmp_path / "huge.csv"
        path.write_text(
            "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n"
            "g1,G1,1000,400,200,90,green\ng2,G2,1200,500,300,140,green\n"
            + "".join(f"r{i},R{i},0,0,{m},0,red\n" for i, m in enumerate(mail_totals)),
            encoding="utf-8",
        )
        votes = 169801152120619551
        code, out, _ = run(capsys, "scenario", str(path), "--votes", str(votes), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["votes_moved_total"] == sum(payload["votes_moved"].values()) == votes
        before, after = load_dataset(path), parse_dataset(payload["csv"])
        assert sum(after.mail_c1) - sum(before.mail_c1) == votes
        assert payload["resulting_margin_c1_minus_c2"] == -after.margin_official


class TestPlot:
    def test_emits_svg(self, capsys, fixture_arg, tmp_path):
        out_file = tmp_path / "fig1.svg"
        code, _, _ = run(capsys, "plot", fixture_arg, "--out", str(out_file))
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        assert text.count('class="pt green"') == 103
        assert text.count('class="pt green dubious"') == 3
        assert text.count('class="pt red"') == 11

    def test_scenario_plot(self, capsys, fixture_arg, tmp_path):
        out_file = tmp_path / "fig2.svg"
        code, _, _ = run(capsys, "plot", fixture_arg, "--votes", "15432", "--out", str(out_file))
        assert code == 0
        assert "modified results" in out_file.read_text(encoding="utf-8")

    def test_out_required(self, capsys, fixture_arg):
        with pytest.raises(SystemExit) as exc:
            main(["plot", fixture_arg])
        assert exc.value.code == 2


class TestCalibrate:
    def test_small_json_run_and_byte_identity(self, capsys, fixture_arg):
        args = ("calibrate", fixture_arg, "--reps", "120", "--seed", "7", "--json")
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        payload = json.loads(out_a)
        assert payload["replications"] == 120
        assert len(payload["t_stats"]) + payload["failed_replications"] == 120
        assert payload["dof"] == 105
        assert payload["clamped_fraction"] <= 0.001

    @pytest.mark.parametrize(
        "variant, digest",
        [
            ((), "96daa2cf19aa3ba6f0486dd8b4f2653b12d8bdb367b8277df22b905354a16eaa"),
            (("--include-dubious",),
             "0372bf126ebd64b03e2a0abe1cb0064e952654e4f688210849bc9585a08c5eb1"),
        ],
        ids=["M11", "M14"],
    )
    def test_default_seed_output_is_pinned(self, capsys, fixture_arg, variant, digest):
        # sha256 of the whole --json output at the default seed: a changed
        # stream, s_xy term or tail value shows as a changed byte
        code, out, _ = run(capsys, "calibrate", fixture_arg, "--reps", "2000", *variant, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_too_few_reps_is_usage_error(self, fixture_arg):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", fixture_arg, "--reps", "99"])
        assert exc.value.code == 2

    def test_explicit_model_params(self, capsys, fixture_arg):
        code, out, _ = run(
            capsys, "calibrate", fixture_arg, "--reps", "100", "--seed", "1",
            "--k", "0.18", "--sigma", "7.0", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["model_k"] == 0.18

    def test_too_few_fitted_districts_exits_one(self, capsys, thin_csv):
        args = ("calibrate", thin_csv, "--reps", "100", "--k", "0.4", "--sigma", "2")
        code, out, err = run(capsys, *args)
        assert code == 1 and out == ""
        assert "at least 2 districts" in err
        code, out, _ = run(capsys, *args, "--json")
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "data" and "at least 2 districts" in error["message"]


    def test_every_replication_failed_prints_strict_json(self, capsys, exact_fit_csv):
        # noise too small to move a count: every simulated fit is exact, so
        # no t statistic is left for the KS distance and the quantiles
        args = ("calibrate", exact_fit_csv, "--reps", "100", "--k", "0.5", "--sigma", "1e-9")
        code, out, _ = run(capsys, *args, "--json")
        assert code == 0
        payload = strict_json(out)
        assert (payload["failed_replications"], payload["t_stats"]) == (100, [])
        assert payload["ks_distance"] is None
        assert set(payload["quantile_errors"].values()) == {None}

    def test_zero_prediction_sd_exits_one(self, capsys, zero_contested_csv):
        args = ("calibrate", zero_contested_csv, "--reps", "100")
        code, out, err = run(capsys, *args)
        assert code == 1 and out == ""
        assert "prediction sd is 0" in err
        code, out, _ = run(capsys, *args, "--json")
        assert code == 1
        assert "prediction sd is 0" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize(
        "csv, model, message",
        [
            # a default k or sigma needs the fit, which is checked before the
            # seed; a given model is checked before the seed and the fit after it
            ("thin_csv", (),
             "through-origin fit needs at least 2 districts with mail votes, got 1"),
            ("thin_csv", ("--sigma", "0"),
             "through-origin fit needs at least 2 districts with mail votes, got 1"),
            ("thin_csv", ("--k", "0.4", "--sigma", "2"), "seed must be in [0, 2**128), got -1"),
            ("thin_csv", ("--k", "0.4", "--sigma", "0"), "sigma must be positive, got 0.0"),
            ("exact_fit_csv", ("--k", "0.4"), "sigma must be positive, got 0.0"),
            ("zero_contested_csv", (), "seed must be in [0, 2**128), got -1"),
            ("all_green_csv", (), "seed must be in [0, 2**128), got -1"),
            ("all_green_csv", ("--k", "nan"), "k must be finite, got nan"),
        ],
    )
    def test_first_error_is_reported(self, capsys, request, csv, model, message):
        path = request.getfixturevalue(csv)
        code, out, err = run(capsys, "calibrate", path, "--reps", "100", *model, "--seed", "-1")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_out_of_range_seed_exits_one(self, capsys, fixture_arg, seed):
        code, out, err = run(capsys, "calibrate", fixture_arg, "--reps", "100", "--seed", seed)
        assert code == 1 and out == ""
        assert "seed must be in [0, 2**128)" in err


class TestValidate:
    def test_fixture_shape(self, capsys, fixture_arg):
        code, out, _ = run(capsys, "validate", fixture_arg, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["districts"] == 117
        assert payload["partition_default"] == [106, 11]
        assert payload["partition_include_dubious"] == [103, 14]
        assert payload["margin_official"] == 30863

    def test_human_mode(self, capsys, fixture_arg):
        code, out, _ = run(capsys, "validate", fixture_arg)
        assert code == 0
        assert "dataset OK" in out

    def test_invalid_utf8_json_error(self, capsys, non_utf8_csv):
        path, line = non_utf8_csv
        code, out, _ = run(capsys, "validate", path, "--json")
        assert code == 1
        assert json.loads(out) == {
            "error": {"type": "data", "message": f"line {line}: invalid UTF-8 byte 0xff"}
        }


    def test_oversized_input_json_error(self, capsys, oversized_csv):
        path, message = oversized_csv
        code, out, _ = run(capsys, "validate", path, "--json")
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "data" and error["message"].startswith(message)


class TestCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored(self, monkeypatch, fixture_arg, bad_csv, enabled):
        # off while a command runs; afterwards as the caller left it, however main ends
        during = []
        load = cli.load_dataset

        def recording(path):
            during.append(gc.isenabled())
            return load(path)

        monkeypatch.setattr(cli, "load_dataset", recording)
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["validate", fixture_arg]) == 0
            assert gc.isenabled() is enabled
            assert main(["validate", bad_csv]) == 1
            assert gc.isenabled() is enabled
            with pytest.raises(SystemExit) as exc:
                main(["validate", fixture_arg, "--bogus"])
            assert exc.value.code == 2
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()
        assert during == [False, False]


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, fixture_arg):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", fixture_arg, "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("scenario", "--votes", "abc"), "argument --votes: not an integer: 'abc'"),
            (("scenario", "--votes", "-1"), "argument --votes: must be nonnegative"),
            (("calibrate", "--reps", "1e4"), "argument --reps: not an integer: '1e4'"),
            (("calibrate", "--reps", "99"), "argument --reps: need at least 100 replications"),
        ],
    )
    def test_bad_integer_option_is_usage_error(self, capsys, fixture_arg, argv, message):
        # the message names the option and the value, not a validator function
        with pytest.raises(SystemExit) as exc:
            main([argv[0], fixture_arg, *argv[1:]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"mvaudit {argv[0]}: error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("scenario", "--votes", "1_0"),
            ("scenario", "--votes", "٣"),
            ("scenario", "--votes", "+5"),
            ("scenario", "--votes", "9" * 5000),
            ("calibrate", "--reps", "1_000"),
            ("calibrate", "--reps", "１０００"),
            ("calibrate", "--seed", "1_0"),
            ("calibrate", "--seed", "٣"),
            ("calibrate", "--seed", "+5"),
        ],
        ids=["underscore", "arabic_indic", "sign", "over_int_digits", "reps_1_000", "fullwidth",
             "seed_underscore", "seed_arabic_indic", "seed_sign"],
    )
    def test_only_ascii_digits_are_integers(self, capsys, fixture_arg, argv):
        # the CSV parser reads counts the same way
        with pytest.raises(SystemExit) as exc:
            main([argv[0], fixture_arg, *argv[1:]])
        assert exc.value.code == 2
        message = f"argument {argv[1]}: not an integer: {argv[2]!r}"
        assert capsys.readouterr().err.endswith(f"mvaudit {argv[0]}: error: {message}\n")

    def test_blanks_around_votes_are_stripped(self, capsys, fixture_arg):
        code, out, _ = run(capsys, "scenario", fixture_arg, "--votes", " 7 ", "--json")
        assert code == 0
        assert json.loads(out)["votes_moved_total"] == 7


PINNED_STDERR = {
    "scenario": "moved 1000 mail votes to candidate 1; resulting margin -28863 for candidate 1\n"
}


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("analyze",), "89a71c75982f61ee34c179d092b2ea7ed75b78b3ad2632310990fdc8fceb7c52"),
        (("analyze", "--include-dubious", "--level", "0.99"),
         "ba5752336cea543c3e9adfe488ddf8b8d8e530f9c6ec9c0dc90ef4009d96bc21"),
        (("validate",), "a072c88361ab5001d6b8c3a498a80981aae600af47cdddfa91bf5ac8c7528b64"),
        (("scenario", "--votes", "1000"),
         "7b6e88372e24d17543eea12708fc9256abc64f0513155044e135b45836be4148"),
        (("calibrate", "--reps", "200"),
         "1464852eee9df097f2a31cde0f0bdcba567ebc1f1aa804b657eb8a8479bd8013"),
    ],
    ids=["analyze", "analyze_M14_level", "validate", "scenario", "calibrate"],
)
def test_plain_text_output_is_pinned(capsys, fixture_arg, argv, digest):
    # sha256 of the whole text stdout on the fixture: a changed label, format
    # or value shows as a changed byte; only scenario writes to stderr
    code, out, err = run(capsys, argv[0], fixture_arg, *argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == PINNED_STDERR.get(argv[0], "")
