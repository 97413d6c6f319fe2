"""Cold-child runner for the traced benchmark run.

    python -X importtime traced_child.py SPANS_PATH JOB_ID HETEROJJ_ARGS...

Behaves like ``python -m heterojj HETEROJJ_ARGS...`` (same output, same exit
code), but first wraps the package's public functions at the module
attributes where their callers look them up, so every call records a span.
Spans stay in memory and are written to SPANS_PATH as JSON when the command
has finished.  Nothing in the package is modified on disk.
"""

import importlib
import json
import os
import sys
import time

now = time.perf_counter_ns
RUNNER_START = now()

SPAWN_ENV = "PERFBENCH_SPAWN_NS"

# (module, attribute, span name).  ``heterojj.escape.derive`` and
# ``heterojj.model.derive`` are distinct bindings of the same function, so
# every module that calls ``derive`` is wrapped under one span name.
WRAPPED = (
    ("heterojj.cli", "load_config", "config.load"),
    ("heterojj.cli", "derive", "model.derive"),
    ("heterojj.model", "derive", "model.derive"),
    ("heterojj.escape", "derive", "model.derive"),
    ("heterojj.oracle", "derive", "model.derive"),
    ("heterojj.verify", "derive", "model.derive"),
    ("heterojj.escape", "sweep_grid", "escape.sweep"),
    ("heterojj.escape", "epsilon", "escape.epsilon"),
    ("heterojj.escape", "escape_rate_ln", "escape.escape_rate_ln"),
    ("heterojj.escape", "enhancement_ratio_ln", "escape.enhancement_ratio_ln"),
    ("heterojj.dynamics", "integrate", "dynamics.integrate"),
    ("heterojj.dynamics", "detect_switching", "dynamics.switch_detect"),
    ("heterojj._kernels", "rk4_step_loop", "kernels.rk4"),
    ("heterojj.oracle", "harmonic_spectrum", "oracle.spectrum"),
    ("heterojj.oracle", "bounce_action", "oracle.bounce"),
    ("heterojj.oracle", "cubic_fit", "oracle.cubic_fit"),
    ("heterojj.verify", "run_checks", "verify.run_checks"),
)


def _counts(name, args, kwargs, result):
    """(work count, useful count) recorded at a layer boundary, or None."""
    if name == "escape.sweep":
        return int(result.values.size), int(result.valid.sum())
    if name == "dynamics.integrate":
        return int(kwargs["n_steps"] if "n_steps" in kwargs else args[2]), None
    if name == "verify.run_checks":
        return len(result), sum(1 for r in result if r.passed)
    return None


class Recorder:
    """In-memory span list: [name, start_ns, end_ns, parent_index, count, ok].

    A span is recorded only where a call crosses from one module into
    another: ``escape.epsilon`` called by ``escape.enhancement_ratio_ln`` for
    every sweep cell stays inside the escape span that made the call.
    """

    def __init__(self):
        self.spans = []
        self.stack = []         # (span index, module) of the open spans

    def add(self, name, start, end):
        self.spans.append([name, start, end, -1, None, None])

    def wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        module = name.split(".")[0]

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == module:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, now(), 0, stack[-1][0] if stack else -1, None, None])
            stack.append((index, module))
            try:
                result = fn(*args, **kwargs)
                counts = _counts(name, args, kwargs, result)
                if counts is not None:
                    spans[index][4:6] = counts
                return result
            finally:
                stack.pop()
                spans[index][2] = now()

        return traced

    def dump(self, path, job_id):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]]] + s[1:] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": job_id, "names": names, "spans": rows}, fh, separators=(",", ":"))


def main():
    spans_path, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    recorder = Recorder()
    recorder.add("job.startup", int(os.environ[SPAWN_ENV]), RUNNER_START)
    start = now()
    import heterojj.cli
    modules = {m: importlib.import_module(m) for m, _, _ in WRAPPED}
    recorder.add("job.import", start, now())
    for module, attr, name in WRAPPED:
        setattr(modules[module], attr, recorder.wrap(getattr(modules[module], attr), name))
    try:
        code = recorder.wrap(heterojj.cli.main, "cli.main")(argv)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_path, job_id)
    return code


if __name__ == "__main__":
    sys.exit(main())
