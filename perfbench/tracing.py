"""Per-layer metrics from the spans of traced jobs.

A span is ``(name, start_ns, end_ns, parent_index, count, ok)``; spans of
one job form a tree through ``parent_index`` (-1 for a top-level span).  A
span's self time is its duration minus the part of that interval its child
spans cover.
"""

from __future__ import annotations

import re
from collections import defaultdict

NS = 1e-9
ESCAPE_POINT = ("escape.epsilon", "escape.escape_rate_ln", "escape.enhancement_ratio_ln")

# name -> unit of every per-layer metric, in report order.
LAYER_METRICS = {
    "import.numpy_s": "s", "import.scipy_s": "s", "import.heterojj_self_s": "s",
    "config.load_s": "s",
    "model.derive_calls": "count", "model.derive_s": "s",
    "escape.sweep_s": "s", "escape.cells": "count", "escape.valid_ratio": "ratio",
    "escape.point_s": "s",
    "dynamics.integrate_s": "s", "dynamics.steps_per_s": "1/s",
    "kernels.rk4_s": "s", "dynamics.switch_detect_s": "s",
    "oracle.spectrum_s": "s", "oracle.bounce_s": "s", "oracle.cubic_fit_s": "s",
    "verify.run_checks_s": "s", "verify.self_s": "s", "verify.passed_ratio": "ratio",
    "cli.self_s": "s", "cli.bytes_out": "B",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.top_level_s": "s",
}


def self_times(spans) -> list:
    """Self time (ns) of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


def _outermost(spans, names) -> list:
    """Spans in ``names`` that have no ancestor in ``names`` (no double count)."""
    selected = []
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            selected.append(span)
    return selected


def job_layers(spans) -> dict:
    """Per-layer totals (seconds, counts) for one traced job."""
    selfs = self_times(spans)

    def total(*names):
        return sum(s[2] - s[1] for s in _outermost(spans, set(names))) * NS

    def own(name):
        return sum(t for s, t in zip(spans, selfs) if s[0] == name) * NS

    def counts(name):
        matched = [s for s in spans if s[0] == name]
        return sum(s[4] or 0 for s in matched), sum(s[5] or 0 for s in matched)

    cells, valid = counts("escape.sweep")
    steps, _ = counts("dynamics.integrate")
    checks, passed = counts("verify.run_checks")
    return {
        "config.load_s": total("config.load"),
        "model.derive_calls": sum(1 for s in spans if s[0] == "model.derive"),
        "model.derive_s": total("model.derive"),
        "escape.sweep_s": total("escape.sweep"),
        "escape.cells": cells, "escape.valid": valid,
        "escape.point_s": total(*ESCAPE_POINT),
        "dynamics.integrate_s": total("dynamics.integrate"), "dynamics.steps": steps,
        "kernels.rk4_s": total("kernels.rk4"),
        "dynamics.switch_detect_s": total("dynamics.switch_detect"),
        "oracle.spectrum_s": total("oracle.spectrum"),
        "oracle.bounce_s": total("oracle.bounce"),
        "oracle.cubic_fit_s": total("oracle.cubic_fit"),
        "verify.run_checks_s": total("verify.run_checks"), "verify.self_s": own("verify.run_checks"),
        "verify.checks": checks, "verify.passed": passed,
        "cli.self_s": own("cli.main"),
        "trace.top_level_s": sum(s[2] - s[1] for s in spans if s[3] < 0) * NS,
    }


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)$")


def import_times(stderr: str) -> dict:
    """numpy, scipy and heterojj import cost from ``python -X importtime``.

    numpy counts the numpy modules not imported from inside scipy; scipy
    counts whole scipy subtrees, numpy modules they pull in included;
    heterojj counts its own modules' self time, without what they import.
    """
    nodes = []          # (depth, name, self_us, cumulative_us, children)
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        depth = len(match.group(3))
        children = []
        while nodes and nodes[-1][0] > depth:
            children.insert(0, nodes.pop())
        nodes.append((depth, match.group(4), int(match.group(1)), int(match.group(2)), children))
    totals = {"numpy": 0, "scipy": 0, "heterojj": 0}

    def visit(node, inside):
        _, name, own_us, cumulative_us, children = node
        top = name.split(".")[0]
        if top == "heterojj":
            totals["heterojj"] += own_us
        if top in ("numpy", "scipy") and inside is None:
            totals[top] += cumulative_us
            inside = top
        for child in children:
            visit(child, inside)

    for node in nodes:
        visit(node, None)
    return {"import.numpy_s": totals["numpy"] * 1e-6, "import.scipy_s": totals["scipy"] * 1e-6,
            "import.heterojj_self_s": totals["heterojj"] * 1e-6}


# Metrics taken over the run's totals as numerator / denominator.
RATIOS = {"escape.valid_ratio": ("escape.valid", "escape.cells"),
          "dynamics.steps_per_s": ("dynamics.steps", "dynamics.integrate_s"),
          "verify.passed_ratio": ("verify.passed", "verify.checks")}


def summarize(jobs: list) -> dict:
    """Per-layer metrics of a traced run.

    ``jobs`` holds one dict per traced job: ``job_layers`` output plus the
    import times, ``cli.bytes_out`` and the traced and untraced wall times
    (``trace.wall_s``, ``trace.untraced_wall_s``).  Times, calls, cells and
    bytes are means per traced job; the RATIOS are taken over the totals.
    A layer a workload never enters reads 0.
    """
    def total(key):
        return sum(job[key] for job in jobs)

    metrics = {}
    for name in LAYER_METRICS:
        if name in RATIOS:
            numerator, denominator = (total(key) for key in RATIOS[name])
            metrics[name] = numerator / denominator if denominator else 0.0
        elif name != "trace.overhead_s":
            metrics[name] = total(name) / len(jobs)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return {name: metrics[name] for name in LAYER_METRICS}
