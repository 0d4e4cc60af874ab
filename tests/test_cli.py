"""End-to-end CLI behavior: subcommands, formats, exit codes, determinism."""

import contextlib
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from mvaudit import cli
from mvaudit.cli import main
from mvaudit.data import load_dataset, parse_dataset, serialize_dataset
from tests.conftest import big_mail_dataset

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


@pytest.mark.parametrize("argv", [("analyze",), ("calibrate", "--reps", "100"), ("scenario",)])
def test_no_contested_districts_exits_one(capsys, all_green_csv, argv):
    # analyze, calibrate and the default scenario reject a file without contested districts alike
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

    def test_strict_raises_an_even_margin_threshold_by_one(self, capsys, tmp_path):
        # official margin 1010: half of it ties, one vote more wins outright
        path = tmp_path / "even_margin.csv"
        path.write_text(
            "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n"
            "1,A,1000,400,200,90,green\n"
            "2,B,1200,500,300,140,green\n"
            "3,C,900,300,250,70,green\n"
            "4,D,1000,450,300,120,red\n",
            encoding="utf-8",
        )
        payloads = []
        for strict in ((), ("--strict",)):
            code, out, _ = run(capsys, "analyze", str(path), "--json", *strict)
            assert code == 0
            payloads.append(json.loads(out))
        plain, strict = payloads
        assert plain["margin_official"] == 1010
        assert plain["reversal_threshold"] == 120 + 505
        assert strict["reversal_threshold"] == plain["reversal_threshold"] + 1

    def test_strict_leaves_an_odd_margin_unchanged(self, capsys, fixture_arg):
        code, plain, _ = run(capsys, "analyze", fixture_arg, "--json")
        assert code == 0 and json.loads(plain)["margin_official"] == 30863
        code, strict, _ = run(capsys, "analyze", fixture_arg, "--json", "--strict")
        assert code == 0 and strict == plain

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

    def test_no_deficit_without_votes_exits_one(self, capsys, tmp_path):
        # candidate 1 already leads, so there is no default number of votes to move
        path = tmp_path / "c1_leads.csv"
        path.write_text(
            "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n"
            "1,A,1000,600,200,120,green\n2,B,1000,600,200,120,red\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "scenario", str(path))
        message = "error: official margin is -480; candidate 2 does not lead, no reversal to test"
        assert (code, out, err) == (1, "", f"{message}\n")

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
        err = capsys.readouterr().err
        assert err.endswith("mvaudit plot: error: the following arguments are required: --out\n")


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
            ((), "87706d54432999f7eec75d7399087175599e541f196c729a7a11532976bbd84e"),
            (("--include-dubious",),
             "ee0620e29d8ff9a5ab6e10f2266b45f35b19706fe687d7ce62e46482f100d165"),
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

    @pytest.mark.parametrize("top", [2**62 - 1, 2**63 - 1])
    def test_mail_total_past_double_precision_exits_one(self, capsys, tmp_path, top):
        # drawn as doubles, 2**62 - 1 votes became 2**62 and 2**63 - 1 overflowed the cast
        path = tmp_path / "big_mail.csv"
        path.write_text(serialize_dataset(big_mail_dataset(top)), encoding="utf-8")
        code, out, err = run(capsys, "calibrate", str(path), "--reps", "100", "--json")
        assert code == 1 and err == ""
        message = f"mail_total {top} is 2**53 or more: counts are drawn as doubles"
        assert json.loads(out) == {"error": {"type": "data", "message": message}}

    @pytest.mark.parametrize(
        "model, shown",
        [(("--k", "1e305", "--sigma", "1e307"), "k=1e+305, sigma=1e+307"),
         (("--sigma", "1e308"), "k=0.1775264844272856, sigma=1e+308")],
    )
    def test_model_overflowing_a_double_exits_one(self, capsys, fixture_arg, model, shown):
        # such models once exited 0 with a negative mean and a null expectation
        code, out, err = run(capsys, "calibrate", fixture_arg, "--reps", "100", *model)
        message = f"model {shown} overflows a double in the draws"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_out_of_range_seed_exits_one(self, capsys, fixture_arg, seed):
        code, out, err = run(capsys, "calibrate", fixture_arg, "--reps", "100", "--seed", seed)
        assert code == 1 and out == ""
        assert "seed must be in [0, 2**128)" in err

    def test_replications_past_the_counter_word_exit_one(self, capsys, fixture_arg):
        # replication r is one 64-bit Philox counter word, so 2**64 + 1
        # replications are rejected before any is drawn, not simulated until killed
        args = ("calibrate", fixture_arg, "--reps", str(2**64 + 1))
        message = f"replication must be in [0, 2**64), got {2**64}"
        assert run(capsys, *args) == (1, "", f"error: {message}\n")
        code, out, err = run(capsys, *args, "--json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": {"type": "data", "message": message}}


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

    def test_include_dubious_is_a_usage_error(self, fixture_arg):
        # validate reports both partitions, so the flag has nothing to choose
        with pytest.raises(SystemExit) as exc:
            main(["validate", fixture_arg, "--include-dubious"])
        assert exc.value.code == 2

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


class TestJsonOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "{fixture}", "--level", "0.95"),
            ("validate", "{fixture}"),
            ("scenario", "{fixture}"),
            ("plot", "{fixture}", "--out", "{out}"),
            ("calibrate", "{fixture}", "--reps", "100"),
            ("analyze", "{bad}"),
        ],
        ids=["analyze", "validate", "scenario", "plot", "calibrate", "data_error"],
    )
    def test_layout(self, capsys, fixture_arg, bad_csv, tmp_path, argv):
        # two-space indent, sorted keys and one closing newline, whatever the
        # command and however the encoder hands its chunks to stdout
        paths = {"fixture": fixture_arg, "bad": bad_csv, "out": str(tmp_path / "f.svg")}
        _, out, _ = run(capsys, *(arg.format(**paths) for arg in argv), "--json")
        assert out == json.dumps(strict_json(out), indent=2, sort_keys=True) + "\n"

    def test_written_as_it_is_encoded(self):
        # written chunk by chunk, the text (about 110 B per float) is never held
        # whole: what is left per float is _finite's copy of the list, 8 B
        n = 50_000
        payload = {"command": "calibrate", "t_stats": tuple(i / 7 for i in range(n))}
        with open(os.devnull, "w", encoding="utf-8") as null, \
                contextlib.redirect_stdout(null):
            tracemalloc.start()
            try:
                cli._print_json(payload)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 24 * n


ENOSPC = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
EPIPE = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


class FailingStdout(io.StringIO):
    """A stdout whose ``write`` or, as when buffered, whose ``flush`` raises ``error``."""

    def __init__(self, error, failing):
        super().__init__()
        self.error, self.failing = error, failing

    def write(self, text):
        if self.failing == "write":
            raise self.error
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise self.error


class TestStdoutFailure:
    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("error", [ENOSPC, EPIPE], ids=["full", "closed_pipe"])
    @pytest.mark.parametrize("argv", [("analyze",), ("analyze", "--json"),
                                      ("calibrate", "--reps", "100", "--json")],
                             ids=["text", "json", "calibrate_json"])
    def test_one_error_line_on_stderr(self, capsys, monkeypatch, fixture_arg, argv, error,
                                      failing):
        # no error object is written to the stdout that just failed; a stdout
        # that cannot be flushed is closed, so that exit does not flush it again
        stdout = FailingStdout(error, failing)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main([argv[0], fixture_arg, *argv[1:]]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert stdout.closed is (failing == "flush")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs Linux's /dev/full")
    def test_out_that_cannot_be_written_is_a_data_error(self, capsys, fixture_arg):
        code, out, err = run(capsys, "scenario", fixture_arg, "--out", "/dev/full", "--json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": {"type": "data", "message": str(ENOSPC)}}

    @staticmethod
    def command(*argv, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        python = [sys.executable, *(["-u"] if unbuffered else [])]
        return [*python, "-m", "mvaudit.cli", *argv], env

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs Linux's /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [("analyze",), ("analyze", "--json"),
                                      ("calibrate", "--reps", "100", "--json")],
                             ids=["text", "json", "calibrate_json"])
    def test_full_disk_ends_without_traceback(self, fixture_arg, argv, unbuffered):
        command, env = self.command(argv[0], fixture_arg, *argv[1:], unbuffered=unbuffered)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(command, env=env, stdout=full, stderr=subprocess.PIPE,
                                  text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (1, f"error: {ENOSPC}\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_ends_without_traceback(self, fixture_arg, unbuffered):
        # as `| head -c 100`: the reader leaves while 5,000 t statistics (about
        # 130 kB, twice a pipe's buffer) are still being written
        command, env = self.command("calibrate", fixture_arg, "--reps", "5000", "--json",
                                    unbuffered=unbuffered)
        with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (1, f"error: {EPIPE}\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_scenario_to_a_closed_pipe_ends_with_one_error(self, tmp_path, unbuffered):
        # the CSV (about 200 kB, three times a pipe's buffer) goes out in one write;
        # unbuffered, the raw write is short when the reader leaves, and the rest
        # must still be written or fail, not be dropped
        rows = (f"d{i:04d},District {i},1000,400,100,40,{'green' if i % 50 else 'red'}"
                for i in range(5000))
        big = tmp_path / "big.csv"
        big.write_text("district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n"
                       + "\n".join(rows) + "\n")
        command, env = self.command("scenario", str(big), "--votes", "1000",
                                    unbuffered=unbuffered)
        with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (1, f"error: {EPIPE}\n")


# four districts, one of them without mail votes, whose id and name are not ASCII
UMLAUT_CSV = (
    "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status\n"
    "1,Wien-Döbling,1000,400,200,90,green\n"
    "2,B,1200,500,300,140,green\n"
    "3,C,900,300,250,70,green\n"
    "ö4,Grünau,800,300,0,0,green\n"
    "5,E,1000,450,200,95,red\n"
)


@pytest.mark.parametrize("encoding", ["cp1252", "ascii"])
class TestStdoutEncoding:
    """stdout is UTF-8, as the input is read, whatever encoding the locale asks for."""

    @pytest.fixture()
    def umlaut_csv(self, tmp_path):
        path = tmp_path / "umlaut.csv"
        path.write_text(UMLAUT_CSV, encoding="utf-8")
        return path

    @staticmethod
    def mvaudit(encoding, *argv):
        env = {**os.environ, "PYTHONIOENCODING": encoding,
               "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "mvaudit.cli", *map(str, argv)], env=env,
                              capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_scenario_stdout_is_its_out_file(self, capsys, tmp_path, umlaut_csv, encoding):
        out = tmp_path / "out.csv"
        stdout = self.mvaudit(encoding, "scenario", umlaut_csv, "--votes", "10")
        self.mvaudit(encoding, "scenario", umlaut_csv, "--votes", "10", "--out", out)
        assert stdout == out.read_bytes()
        piped = tmp_path / "stdout.csv"
        piped.write_bytes(stdout)
        code, text, _ = run(capsys, "validate", str(piped))
        assert code == 0 and text.endswith("dataset OK\n")

    def test_analyze_names_the_excluded_id_in_utf8(self, umlaut_csv, encoding):
        stdout = self.mvaudit(encoding, "analyze", umlaut_csv)
        line = "fitted districts     : 3 (1 without mail votes excluded: ö4)\n"
        assert line.encode("utf-8") in stdout

    def test_plot_names_its_file_in_utf8(self, tmp_path, umlaut_csv, encoding):
        svg = tmp_path / "grafik_ö.svg"
        stdout = self.mvaudit(encoding, "plot", umlaut_csv, "--out", svg)
        assert stdout == f"wrote {svg}\n".encode("utf-8")
        assert svg.exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="needs file names that are not UTF-8")
    def test_error_handler_is_kept(self, tmp_path, umlaut_csv, encoding):
        # under surrogateescape a name that is not UTF-8 prints as its own bytes
        svg = tmp_path / os.fsdecode(b"grafik_\xff.svg")
        stdout = self.mvaudit(f"{encoding}:surrogateescape", "plot", umlaut_csv, "--out", svg)
        assert stdout == b"wrote " + os.fsencode(svg) + b"\n"


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
