"""Reference facts and per-command correctness checks.

Every reference is computed by the benchmark itself from the CSV text, with
the standard library and mpmath, never by calling the package under test.
The calibrate check is the exception.  It replays the package's own scalar
path (``replicate_once``), because that is the claim being checked: the
command's t statistics equal, bit for bit, one scalar replication each.  It
also recomputes the KS distance from those statistics with the package's
``student_t_cdf``, which checks how the distance is assembled; the cdf itself
is checked against an oracle by the test suite.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import mpmath as mp
import numpy as np

# Published figures of the 2016 audit, reproduced by the bundled fixture.
PUBLISHED_P = {False: 1.322065e-10, True: 5.151422e-8}
PUBLISHED_THRESHOLD = 49_911
PUBLISHED_DOF = {False: 105, True: 102}
PUBLISHED_TOLERANCE = 1e-3

MAX_DIGITS = 15.0
P_TAIL_RANGE = (1e-12, 1e-4)  # where the synthetic precinct tails must land
REL_TOL = 1e-9  # benchmark-side float recomputation vs. the program's value
PROBE_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


class CheckError(Exception):
    """A command's output disagrees with the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def digits(value: float, reference) -> float:
    """-log10 of the relative error of ``value`` against ``reference``, capped."""
    err = abs(mp.mpf(value) - reference) / abs(reference)
    return MAX_DIGITS if err == 0 else min(MAX_DIGITS, float(-mp.log10(err)))


def t_sf_ref(t: float, nu: int):
    """P[T > t] under nu degrees of freedom, to ~40 significant digits."""
    with mp.workdps(40):
        t, nu = mp.mpf(t), mp.mpf(nu)
        return mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + t * t), regularized=True) / 2


def t_quantile_ref(p: float, nu: int, guess: float):
    """Inverse CDF by a Newton solve on the reference tail, started at ``guess``."""
    if p == 0.5:
        return mp.mpf(0)
    with mp.workdps(40):
        alpha = mp.mpf(1 - p) if p > 0.5 else mp.mpf(p)
        sign = 1 if p > 0.5 else -1
        q = mp.findroot(lambda t: t_sf_ref(t, nu) - alpha, abs(guess))
        return sign * q


def parse_rows(text: str) -> tuple[list[str], list[tuple]]:
    """Header and typed rows of a CSV in the package's dialect."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [
        (r[0], r[1], int(r[2]), int(r[3]), int(r[4]), int(r[5]), r[6]) for r in reader if r
    ]


class Facts:
    """Expected outputs of one input file, derived from its CSV rows."""

    def __init__(self, text: str):
        self.header, self.rows = parse_rows(text)
        rows = self.rows
        self.n = len(rows)
        self.status = {s: sum(1 for r in rows if r[6] == s) for s in ("green", "red", "dubious")}
        self.margin = _margin(rows)
        self.deficit = -(-self.margin // 2)
        self.validate = {
            "command": "validate",
            "districts": self.n,
            **self.status,
            "partition_default": [self.n - self.status["red"], self.status["red"]],
            "partition_include_dubious": [
                self.status["green"],
                self.status["red"] + self.status["dubious"],
            ],
            "margin_official": self.margin,
            "total_votes": sum(r[2] + r[4] for r in rows),
            "mail_votes": sum(r[4] for r in rows),
            "zero_mail_districts": sum(1 for r in rows if r[4] == 0),
        }
        self.variant = {v: _variant(rows, v, self.deficit) for v in (False, True)}


def _margin(rows) -> int:
    return sum(bt - 2 * b1 + mt - 2 * m1 for _, _, bt, b1, mt, m1, _ in rows)


def _variant(rows, include_dubious: bool, deficit: int) -> dict:
    contested = {"red", "dubious"} if include_dubious else {"red"}
    green = [r for r in rows if r[6] not in contested and r[4] > 0]
    red = [r for r in rows if r[6] in contested]
    s_xx = math.fsum(r[3] * r[3] / r[4] for r in green)
    slope = math.fsum(r[3] * r[5] / r[4] for r in green) / s_xx
    sigma2 = math.fsum((r[5] - slope * r[3]) ** 2 / r[4] for r in green) / (len(green) - 1)
    b1, mt, m1 = (sum(r[i] for r in red) for i in (3, 4, 5))
    threshold = m1 + deficit
    pred_sd = math.sqrt(sigma2 * (b1 * b1 / s_xx + mt))
    return {
        "n_green": len(rows) - len(red),
        "n_red": len(red),
        "dof": len(green) - 1,
        "slope": slope,
        "sigma2": sigma2,
        "red_ballot_c1": b1,
        "red_mail_total": mt,
        "red_mail_c1": m1,
        "threshold": threshold,
        "t_stat": (threshold - slope * b1) / pred_sd,
        "red_ids": {r[0] for r in red},
    }


def check_inputs(facts: Facts, fixture: bool) -> None:
    """Refuse inputs whose tails fall outside the range the workload promises."""
    for v, ref in facts.variant.items():
        p = float(t_sf_ref(ref["t_stat"], ref["dof"]))
        if fixture:
            expect(close(p, PUBLISHED_P[v], PUBLISHED_TOLERANCE), f"fixture p={p} (dubious={v})")
        else:
            lo, hi = P_TAIL_RANGE
            expect(lo <= p <= hi, f"generated tail p={p} outside [{lo}, {hi}] (dubious={v})")


def check_analyze(out: dict, facts: Facts, argv: list[str], fixture: bool, exact: dict):
    """Check one analyze payload; return its p_reversal digits."""
    v = "--include-dubious" in argv
    ref = facts.variant[v]
    expect(out["variant"] == ("M14" if v else "M11"), f"variant {out['variant']}")
    for key in ("n_green", "n_red", "dof", "red_ballot_c1", "red_mail_total", "red_mail_c1"):
        expect(out[key] == ref[key], f"{key}: {out[key]} != {ref[key]}")
    expect(out["n_districts"] == facts.n, "n_districts")
    expect(out["margin_official"] == facts.margin, "margin_official")
    expect(out["reversal_threshold"] == ref["threshold"], "reversal_threshold")
    expect(not out["degenerate"], "degenerate fit")
    for key in ("slope", "sigma2", "t_stat"):
        expect(close(out[key], ref[key]), f"{key}: {out[key]!r} vs {ref[key]!r}")
    key = ("sf", out["t_stat"], out["dof"])
    if key not in exact:
        exact[key] = t_sf_ref(out["t_stat"], out["dof"])
    p_ref = exact[key]
    expect(close(out["p_reversal"], float(p_ref), 1e-8), f"p_reversal {out['p_reversal']!r}")
    expect(abs(out["log10_p_reversal"] - float(mp.log10(p_ref))) <= 1e-9, "log10_p_reversal")
    if fixture:
        expect(close(out["p_reversal"], PUBLISHED_P[v], PUBLISHED_TOLERANCE), "published p")
        expect(out["dof"] == PUBLISHED_DOF[v], "published dof")
        if not v:
            expect(out["reversal_threshold"] == PUBLISHED_THRESHOLD, "published threshold")
    if "--level" in argv:
        level = float(argv[argv.index("--level") + 1])
        iv = out["prediction_interval"]
        expect(iv["level"] == level, "interval level")
        mid, half = (iv["upper"] + iv["lower"]) / 2, (iv["upper"] - iv["lower"]) / 2
        expect(close(mid, out["point_prediction"], 1e-12), "interval centre")
        qkey = ("q", 0.5 * (1 + level), out["dof"])
        if qkey not in exact:
            exact[qkey] = t_quantile_ref(qkey[1], out["dof"], half / out["pred_sd"])
        expect(close(half / out["pred_sd"], float(exact[qkey])), "interval half-width")
    else:
        expect(out["prediction_interval"] is None, "unrequested interval")
    return digits(out["p_reversal"], p_ref)


def check_validate(out: dict, facts: Facts) -> None:
    for key, want in facts.validate.items():
        expect(out.get(key) == want, f"validate {key}: {out.get(key)!r} != {want!r}")


def check_scenario(out: dict, facts: Facts, path: str) -> None:
    votes = facts.deficit
    expect(out["votes_moved_total"] == votes, "votes_moved_total")
    expect(out["margin_before_c2_minus_c1"] == facts.margin, "margin_before")
    expect(out["resulting_margin_c1_minus_c2"] == 2 * votes - facts.margin, "resulting margin")
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    header, rows = parse_rows(text)
    expect(header == facts.header and len(rows) == facts.n, "scenario CSV shape")
    red_ids = facts.variant[False]["red_ids"]
    moved = {}
    for old, new in zip(facts.rows, rows):
        expect(old[:5] == new[:5] and old[6] == new[6], f"scenario changed row {old[0]}")
        delta = new[5] - old[5]
        if old[0] in red_ids:
            expect(0 <= delta and new[5] <= new[4], f"scenario bad mail_c1 in {old[0]}")
            moved[old[0]] = delta
        else:
            expect(delta == 0, f"scenario moved votes in uncontested {old[0]}")
    expect(sum(moved.values()) == votes, "scenario vote total")
    expect(out["votes_moved"] == moved, "votes_moved per district")
    expect(_margin(rows) == facts.margin - 2 * votes, "scenario margin shift")


def check_plot(out: dict, facts: Facts, path: str) -> None:
    expect(out == {"command": "plot", "output": path, "districts": facts.n}, "plot payload")
    root = ET.parse(path).getroot()
    expect(root.tag.endswith("svg"), "plot root element")
    classes = [c.get("class") for c in root.iter() if c.tag.endswith("circle")]
    shown = [r for r in facts.rows if r[2] > 0 and r[4] > 0]
    want = {
        "pt green": sum(1 for r in shown if r[6] == "green"),
        "pt green dubious": sum(1 for r in shown if r[6] == "dubious"),
        "pt red": sum(1 for r in shown if r[6] == "red"),
    }
    expect({k: classes.count(k) for k in want} == want and len(classes) == len(shown), "points")


def check_calibrate(out: dict, facts: Facts, argv: list[str], replay, full: bool, exact: dict):
    """Check one calibrate payload; return the digits of its probe quantiles.

    ``replay(seed, r, include_dubious, k, sigma)`` runs one scalar replication.
    With ``full`` every replication is replayed and the aggregates are checked
    exactly; otherwise every tenth one, offset by the seed.
    """
    v = "--include-dubious" in argv
    ref = facts.variant[v]
    reps = int(argv[argv.index("--reps") + 1])
    seed = int(argv[argv.index("--seed") + 1])
    expect(out["replications"] == reps and out["seed"] == seed, "calibrate echo")
    expect(out["dof"] == ref["dof"], "calibrate dof")
    expect(close(out["model_k"], ref["slope"]), "model_k")
    expect(close(out["model_sigma"], math.sqrt(ref["sigma2"])), "model_sigma")
    expect(close(out["expected_red_mail_c1"], ref["slope"] * ref["red_ballot_c1"]), "expected")
    t_stats = out["t_stats"]
    expect(len(t_stats) == reps - out["failed_replications"], "t_stats length")
    expect(out["failed_replications"] == 0, "failed replications on a well-posed fit")
    k, sigma = out["model_k"], out["model_sigma"]
    picks = range(reps) if full else range(seed % 10, reps, 10)
    outcomes = [replay(seed, r, v, k, sigma) for r in picks]
    for r, o in zip(picks, outcomes):
        expect(o.t_stat == t_stats[r], f"replication {r}: {o.t_stat!r} != {t_stats[r]!r}")
    if full:
        realized = 0.0
        for o in outcomes:
            realized += o.red_mail_c1
        expect(out["mean_red_mail_c1"] == realized / reps, "mean_red_mail_c1")
        clamped = sum(o.n_clamped for o in outcomes) / (reps * facts.n)
        expect(out["clamped_fraction"] == clamped, "clamped_fraction")
    ordered = np.sort(np.array(t_stats, dtype=float))
    result = MAX_DIGITS
    for p in PROBE_QUANTILES:
        empirical = float(np.quantile(ordered, p))
        err = out["quantile_errors"][str(p)]
        key = ("q", p, out["dof"])
        if key not in exact:
            exact[key] = t_quantile_ref(p, out["dof"], empirical)
        q_ref = exact[key]
        q = min((empirical - err, empirical + err), key=lambda c: abs(c - q_ref))
        if p == 0.5:
            expect(err == abs(empirical), "median probe")
            continue
        expect(close(q, float(q_ref)), f"quantile probe {p}: {q!r}")
        result = min(result, digits(q, q_ref))
    return result, ordered


def check_ks(out: dict, ordered, cdf) -> None:
    """KS distance recomputed from the returned statistics and ``cdf``."""
    n = len(ordered)
    c = [cdf(float(x), out["dof"]) for x in ordered]
    d = max(max((i + 1) / n - c[i], c[i] - i / n) for i in range(n))
    expect(close(out["ks_distance"], d, 1e-12), f"ks_distance {out['ks_distance']!r} vs {d!r}")


def parse_payload(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
