"""Spans around calls into each symlpp module, recorded from outside the package.

`Tracer.install` replaces, in every symlpp module's namespace, each global
name bound to one of the traced functions by a wrapper, so a call is caught
wherever a module looks the function up (`symlpp.harness.exact_distribution`,
`symlpp.rmt.u_average`, ...).  A span is (name, start, end, parent, op id,
note); spans stay in memory and are written out once, when the run ends.  A
call made while the innermost open span already has the same name (direct
recursion) opens no span of its own.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from fractions import Fraction
from math import comb


def _result_kind(args, kwargs, result):
    return "exact" if isinstance(result, Fraction) else "quad"


# (module, function) -> note taken from (args, kwargs, result), or None
TRACED = {
    ("cli", "dump_json"): None,
    ("harness", "verify_model"): None,
    ("harness", "hammersley_check"): None,
    ("harness", "longest_increasing_chain"): None,
    ("harness", "toeplitz_bessel"): None,
    ("lpp", "mc_distribution"): lambda a, k, r: a[2],
    ("lpp", "sample_batch"): lambda a, k, r: len(r.matrices),
    ("rsk", "rsk"): None,
    ("symfunc", "exact_distribution"): None,
    ("symfunc", "pointreflection_selfdual_sum"): None,
    ("numerics", "fourier_coefficients"): None,
    ("numerics", "det_exact"): lambda a, k, r: len(a[0]),
    ("rmt", "group_average"): _result_kind,
    ("rmt", "u_average"): None,
    ("rmt", "model_rmt_distribution"): None,
}

NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.boxes: list[tuple] = []      # (op id, partitions yielded, box size)
        self.stack: list[int] = []
        self.op: int | None = None
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return wrapper

    def _count_partitions(self, fn):
        @functools.wraps(fn)
        def wrapper(max_part, max_length):
            count = 0
            try:
                for mu in fn(max_part, max_length):
                    count += 1
                    yield mu
            finally:
                self.boxes.append((self.op, count, comb(max_part + max_length, max_length)))

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, op_id: int):
        """The root span of one benchmark operation; spans inside carry its id."""
        self.op = op_id
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, None, op_id, None])
        try:
            yield
        finally:
            self.spans[self.stack.pop()][END] = time.perf_counter()
            self.op = None

    def install(self):
        """Swap the wrappers into every loaded symlpp module."""
        import symlpp.core
        import symlpp.cli  # noqa: F401  (loads every module)

        modules = {n: m for n, m in sys.modules.items()
                   if n == "symlpp" or n.startswith("symlpp.")}
        replace = {}
        for (mod, fname), note in TRACED.items():
            fn = getattr(modules[f"symlpp.{mod}"], fname)
            replace[id(fn)] = self._wrap(f"{mod}.{fname}", fn, note)
        box = symlpp.core.partitions_in_box
        replace[id(box)] = self._count_partitions(box)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if id(value) in replace:
                    self._saved.append((module, key, value))
                    setattr(module, key, replace[id(value)])

    def uninstall(self):
        for module, key, value in reversed(self._saved):
            setattr(module, key, value)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["name", "start", "end", "parent", "op", "note"]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- derived per-layer metrics -----------------------------------------

    def layer_metrics(self, ops: list, rounds: int) -> dict[str, float]:
        """Per-round self times, counts and ratios from the recorded spans of
        `rounds` rounds of the workload operations `ops`."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]

        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        avg_in_verify = 0
        group_split = {"exact": 0.0, "quad": 0.0}
        det_order = 0
        mc_samples = matrices = 0
        for idx, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            total[name] = total.get(name, 0.0) + dur
            self_time[name] = self_time.get(name, 0.0) + dur - child[idx]
            calls[name] = calls.get(name, 0) + 1
            if name == "rmt.group_average":
                group_split[s[NOTE]] += dur
            elif name == "numerics.det_exact":
                det_order = max(det_order, s[NOTE])
            elif name == "lpp.mc_distribution":
                mc_samples += s[NOTE]
            elif name == "lpp.sample_batch":
                matrices += s[NOTE]
            if name in ("rmt.group_average", "rmt.u_average") and self._has_ancestor(
                    idx, "harness.verify_model"):
                avg_in_verify += 1

        largest: dict[int, int] = {}
        enumerated = 0
        for op_id, count, box in self.boxes:
            enumerated += count
            largest[op_id] = max(largest.get(op_id, 0), box)
        verified = sum(op.work for op in ops if op.kind == "verify") * rounds

        def per_round(x):
            return x / rounds

        out = {
            "rmt.group_average_exact_s": per_round(group_split["exact"]),
            "rmt.group_average_quad_s": per_round(group_split["quad"]),
            "rmt.group_average_calls": per_round(calls.get("rmt.group_average", 0)),
            "rmt.u_average_s": per_round(total.get("rmt.u_average", 0.0)),
            "rmt.u_average_calls": per_round(calls.get("rmt.u_average", 0)),
            "rmt.model_rmt_distribution_self_s":
                per_round(self_time.get("rmt.model_rmt_distribution", 0.0)),
            "rmt.group_averages_per_bound": avg_in_verify / verified if verified else 0.0,
            "symfunc.exact_distribution_self_s":
                per_round(self_time.get("symfunc.exact_distribution", 0.0)),
            "symfunc.exact_distribution_calls":
                per_round(calls.get("symfunc.exact_distribution", 0)),
            "symfunc.pointreflection_selfdual_sum_s":
                per_round(total.get("symfunc.pointreflection_selfdual_sum", 0.0)),
            "symfunc.partition_yield": sum(largest.values()) / enumerated if enumerated else 0.0,
            "core.partitions_enumerated": per_round(enumerated),
            "numerics.fourier_coefficients_s":
                per_round(total.get("numerics.fourier_coefficients", 0.0)),
            "numerics.det_exact_s": per_round(total.get("numerics.det_exact", 0.0)),
            "numerics.det_exact_calls": per_round(calls.get("numerics.det_exact", 0)),
            "numerics.det_order_max": det_order,
            "lpp.mc_distribution_s": per_round(total.get("lpp.mc_distribution", 0.0)),
            "lpp.mc_samples": per_round(mc_samples),
            "lpp.sample_batch_s": per_round(total.get("lpp.sample_batch", 0.0)),
            "lpp.matrices_sampled": per_round(matrices),
            "rsk.rsk_s": per_round(total.get("rsk.rsk", 0.0)),
            "rsk.rsk_calls": per_round(calls.get("rsk.rsk", 0)),
            "harness.verify_model_self_s":
                per_round(self_time.get("harness.verify_model", 0.0)),
            "harness.hammersley_check_self_s":
                per_round(self_time.get("harness.hammersley_check", 0.0)),
            "harness.longest_increasing_chain_s":
                per_round(total.get("harness.longest_increasing_chain", 0.0)),
            "harness.chains": per_round(calls.get("harness.longest_increasing_chain", 0)),
            "harness.toeplitz_bessel_s": per_round(total.get("harness.toeplitz_bessel", 0.0)),
            "cli.dump_json_s": per_round(total.get("cli.dump_json", 0.0)),
        }
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][PARENT]
        while parent is not None:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False
