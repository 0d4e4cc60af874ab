"""Traced replay of one CLI command in a fresh process.

    python mvbench/replay.py --record OUT.json [--trace] -- <mvaudit arguments>

runs ``mvaudit.cli.main`` on the arguments exactly as ``python -m mvaudit.cli``
would, so its standard output must equal the cold command's.  With
``--trace`` every public function the ``cmd_*`` handlers call (and the layer
functions those call in turn) is wrapped, in each ``mvaudit`` module that
holds a reference to it, by a function that records a span: name, start,
end and parent.  Spans stay in memory and are written to OUT.json when the
command ends, with the moments the script started, finished importing the
CLI and returned from it.  Without ``--trace`` the package runs exactly as
shipped, which is how the tracing overhead is measured: the same command
replayed with spans on and off.

The benchmark side reads the records back with ``load_record`` and turns
them into per-layer metrics with ``layer_metrics``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from types import SimpleNamespace

# (defining module, function, span name).  Each layer is named after its module.
TRACED = (
    ("mvaudit.data", "load_dataset", "data.load_dataset"),
    ("mvaudit.data", "partition", "data.partition"),
    ("mvaudit.data", "serialize_dataset", "data.serialize_dataset"),
    ("mvaudit.wls", "fit_through_origin", "wls.fit_through_origin"),
    ("mvaudit.prediction", "analyze_dataset", "prediction.analyze_dataset"),
    ("mvaudit.prediction", "prediction_interval", "prediction.prediction_interval"),
    ("mvaudit.scenario", "build_reversal_scenario", "scenario.build_reversal_scenario"),
    ("mvaudit.svgplot", "render_scatter", "svgplot.render_scatter"),
    ("mvaudit.special", "student_t_sf", "special.student_t_sf"),
    ("mvaudit.special", "student_t_cdf", "special.student_t_cdf"),
    ("mvaudit.special", "student_t_quantile", "special.student_t_quantile"),
    ("mvaudit.montecarlo", "replicate_once", "montecarlo.replicate_once"),
    ("mvaudit.montecarlo", "calibrate", "montecarlo.calibrate"),
    ("mvaudit.montecarlo", "_ks_distance", "montecarlo.ks"),
)

# What a span keeps of its function's result: small summaries only.
SUMMARIES = {
    "data.load_dataset": len,
    "wls.fit_through_origin": lambda fit: (fit.n_used, len(fit.excluded)),
    "montecarlo.calibrate": lambda r: (r.replications, len(r.t_stats), r.clamped_fraction),
}


class Tracer:
    """Wraps the TRACED functions and collects the spans they record."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        for module_name, func, name in TRACED:
            original = getattr(sys.modules[module_name], func, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "mvaudit" and getattr(mod, func, None) is original:
                    setattr(mod, func, wrapper)

    def _wrap(self, fn, name):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        summarize = SUMMARIES.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = {
                "name": name,
                "parent": None if parent is None else parent["name"],
                "start_ns": clock(),
                "children_ns": 0,
                "result": None,
            }
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if summarize is not None:
                    span["result"] = summarize(result)
                return result
            finally:
                span["end_ns"] = clock()
                stack.pop()
                if parent is not None:
                    parent["children_ns"] += span["end_ns"] - span["start_ns"]
                spans.append(span)

        return traced


def main(argv: list[str]) -> int:
    started = time.perf_counter_ns()
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1 :]
    out = options[options.index("--record") + 1]
    import mvaudit.cli

    imported = time.perf_counter_ns()
    tracer = Tracer() if "--trace" in options else None
    try:
        return mvaudit.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        record = {
            "started_ns": started,
            "imported_ns": imported,
            "returned_ns": time.perf_counter_ns(),
            "spans": tracer.spans if tracer else [],
        }
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def load_record(path, command: str) -> SimpleNamespace:
    """A replay record, its spans as objects tagged with ``command``."""
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    spans = []
    for s in record["spans"]:
        ns = s["end_ns"] - s["start_ns"]
        spans.append(
            SimpleNamespace(
                name=s["name"],
                parent=s["parent"],
                command=command,
                start_ns=s["start_ns"],
                end_ns=s["end_ns"],
                ns=ns,
                self_ns=ns - s["children_ns"],
                result=s["result"],
            )
        )
    record["spans"] = spans
    return SimpleNamespace(**record)


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(vars(s)) + "\n")


def layer_metrics(spans, cycle_commands: set) -> dict:
    """Per-layer numbers from recorded spans.

    Times are means per call over every traced replay; call counts and fit
    sizes come from the replays in ``cycle_commands`` (one of each command in
    the mix), so they repeat exactly from run to run.  A layer the workload
    never reaches reads 0.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def mean_ns(name, self_time=False):
        group = by_name.get(name, [])
        if not group:
            return 0.0
        return sum(s.self_ns if self_time else s.ns for s in group) / len(group)

    def calls(name):
        return sum(1 for s in by_name.get(name, []) if s.command in cycle_commands)

    # A span whose function raised has no result; its command has failed its check.
    loads = [s for s in by_name.get("data.load_dataset", []) if s.result is not None]
    rows = sum(s.result for s in loads)
    load_ns = sum(s.ns for s in loads)
    fits = [s for s in by_name.get("wls.fit_through_origin", []) if s.command in cycle_commands]
    n_used, n_excluded = next(
        (s.result for s in fits if s.parent != "montecarlo.replicate_once" and s.result),
        (0, 0),
    )
    reports = [s.result for s in by_name.get("montecarlo.calibrate", []) if s.result]
    replications = sum(r[0] for r in reports)
    return {
        "data.load_dataset_ms": mean_ns("data.load_dataset") / 1e6,
        "data.rows_per_s": rows / (load_ns / 1e9) if load_ns else 0.0,
        "data.partition_ms": mean_ns("data.partition") / 1e6,
        "data.serialize_dataset_ms": mean_ns("data.serialize_dataset") / 1e6,
        "wls.fit_through_origin_ms": mean_ns("wls.fit_through_origin") / 1e6,
        "wls.n_used": n_used,
        "wls.n_excluded": n_excluded,
        "prediction.analyze_dataset_ms": mean_ns("prediction.analyze_dataset") / 1e6,
        "prediction.analyze_dataset_self_ms": mean_ns("prediction.analyze_dataset", True) / 1e6,
        "prediction.prediction_interval_ms": mean_ns("prediction.prediction_interval") / 1e6,
        "scenario.build_reversal_scenario_ms": mean_ns("scenario.build_reversal_scenario") / 1e6,
        "svgplot.render_scatter_ms": mean_ns("svgplot.render_scatter") / 1e6,
        "special.student_t_sf_us": mean_ns("special.student_t_sf") / 1e3,
        "special.student_t_sf_calls": calls("special.student_t_sf"),
        "special.student_t_quantile_us": mean_ns("special.student_t_quantile") / 1e3,
        "special.student_t_quantile_calls": calls("special.student_t_quantile"),
        "special.student_t_cdf_us": mean_ns("special.student_t_cdf") / 1e3,
        "special.student_t_cdf_calls": calls("special.student_t_cdf"),
        "montecarlo.replicate_once_us": mean_ns("montecarlo.replicate_once") / 1e3,
        "montecarlo.calibrate_s": mean_ns("montecarlo.calibrate") / 1e9,
        "montecarlo.ks_ms": mean_ns("montecarlo.ks") / 1e6,
        "montecarlo.useful_ratio": sum(r[1] for r in reports) / replications if reports else 0.0,
        "montecarlo.clamped_fraction": (
            sum(r[2] for r in reports) / len(reports) if reports else 0.0
        ),
    }


def self_time_table(spans) -> list[str]:
    """One line per span name: calls, inclusive and self milliseconds."""
    total = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        t = total[s.name]
        t[0] += 1
        t[1] += s.ns
        t[2] += s.self_ns
    return [
        f"  {name:<36} calls {n:>8}  inclusive {inc / 1e6:>11.3f} ms  self {own / 1e6:>11.3f} ms"
        for name, (n, inc, own) in sorted(total.items(), key=lambda kv: -kv[1][2])
    ]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
