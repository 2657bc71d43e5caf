"""Spans around the public calls of each layer, installed from outside.

``Tracer.install`` swaps each traced function for a timing wrapper in
every ``mittag_kinetics`` module that holds a reference to it (the CLI
imports names directly), and ``remove`` puts the originals back. A span
records its task, its parent span, its name, and its start and duration;
a layer's self time is its duration minus the time of the spans it
caused. Nothing inside the package changes.

``ml_eval`` spans are split into 'mild' and 'cancelling' from the input
alone (``workloads.ml_class``), never from the path the program took.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

from workloads import ml_class

PACKAGE = "mittag_kinetics"

#: (span name, module, attribute); SolutionSeries.evaluate is a method.
TRACED = (
    ("special_functions.ml_eval", "special_functions", "ml_eval"),
    ("special_functions.wright_eval", "special_functions", "wright_eval"),
    ("laplace.lt_invert_numeric", "laplace", "lt_invert_numeric"),
    ("fracint.rl_integral", "fracint", "rl_integral"),
    ("fracint.residual_check", "fracint", "residual_check"),
    ("kinetics.evaluate", "kinetics", "SolutionSeries.evaluate"),
    ("kinetics.invert_three_term", "kinetics", "invert_three_term"),
    ("reaction_diffusion.rd_solve_spectral", "reaction_diffusion", "rd_solve_spectral"),
    ("reaction_diffusion.rd_solve_fd", "reaction_diffusion", "rd_solve_fd"),
    ("cli.main", "cli", "main"),
)


class _Stat:
    __slots__ = ("durations", "selfs")

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.selfs: list[float] = []


class Tracer:
    """Per-layer spans and counts for one benchmark process."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.task = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    @staticmethod
    def _module(name: str):
        return sys.modules[f"{PACKAGE}.{name}"]

    def _wrap(self, name: str, fn):
        perf = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            key = name
            if name == "special_functions.ml_eval":
                key = f"{name}.{ml_class(args[0].nu, float(args[1]))}"
            elif name == "fracint.rl_integral":
                args = (self._counting(args[0], "fracint.rl_integral.samples", 0),) + args[1:]
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                st = self.stats[key]
                st.durations.append(dur)
                st.selfs.append(dur - frame[1])
                if self.keep_spans:
                    self.spans.append((self.task, frame[0], parent, key, start, dur))

        traced.__wrapped__ = fn
        return traced

    def _counting(self, fn, key: str, arg: int):
        """fn, counting the points it is called at (args[arg] may be an array)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += int(np.size(args[arg]))
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, mod, attr in TRACED:
            owner = self._module(mod)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for ref_name, obj in list(vars(m).items()):
                    if obj is original:
                        self._patch(m, ref_name, wrapper)
        laplace = self._module("laplace")
        for cls in set(laplace.DESCRIPTOR_KINDS.values()):
            self._patch(cls, "value", self._counting(cls.value, "laplace.transform_evals", 1))

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def durations(self, key: str) -> list[float]:
        if key in self.stats:
            return self.stats[key].durations
        out = []
        for k, st in self.stats.items():
            if k.startswith(key + "."):
                out.extend(st.durations)
        return out

    def calls(self, key: str) -> int:
        return len(self.durations(key))

    def self_s(self, key: str) -> float:
        return sum(sum(st.selfs) for k, st in self.stats.items()
                   if k == key or k.startswith(key + "."))


def p50(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


def layer_metrics(tr: Tracer, rounds: int, import_s: float, overhead_pct: float) -> dict:
    """Per-layer metrics; counts and self times are per round."""
    ml = "special_functions.ml_eval"
    lt = "laplace.lt_invert_numeric"
    rl = "fracint.rl_integral"
    itt = "kinetics.invert_three_term"
    return {
        f"{ml}.calls": (tr.calls(ml) / rounds, "count"),
        f"{ml}.cancelling_calls": (tr.calls(f"{ml}.cancelling") / rounds, "count"),
        f"{ml}.mild_us_p50": (1e6 * p50(tr.durations(f"{ml}.mild")), "us"),
        f"{ml}.cancelling_ms_p50": (1e3 * p50(tr.durations(f"{ml}.cancelling")), "ms"),
        f"{ml}.self_s": (tr.self_s(ml) / rounds, "s"),
        "special_functions.wright_eval.ms_p50":
            (1e3 * p50(tr.durations("special_functions.wright_eval")), "ms"),
        f"{lt}.calls": (tr.calls(lt) / rounds, "count"),
        f"{lt}.ms_p50": (1e3 * p50(tr.durations(lt)), "ms"),
        f"{lt}.self_s": (tr.self_s(lt) / rounds, "s"),
        "laplace.transform_evals": (tr.counts["laplace.transform_evals"] / rounds, "count"),
        f"{rl}.calls": (tr.calls(rl) / rounds, "count"),
        f"{rl}.samples": (tr.counts[f"{rl}.samples"] / rounds, "count"),
        f"{rl}.ms_p50": (1e3 * p50(tr.durations(rl)), "ms"),
        "fracint.residual_check.self_s": (tr.self_s("fracint.residual_check") / rounds, "s"),
        "kinetics.evaluate.calls": (tr.calls("kinetics.evaluate") / rounds, "count"),
        f"{itt}.calls": (tr.calls(itt) / rounds, "count"),
        f"{itt}.ms_p50": (1e3 * p50(tr.durations(itt)), "ms"),
        f"{itt}.self_s": (tr.self_s(itt) / rounds, "s"),
        "reaction_diffusion.rd_solve_spectral.s_p50":
            (p50(tr.durations("reaction_diffusion.rd_solve_spectral")), "s"),
        "reaction_diffusion.rd_solve_fd.ms_p50":
            (1e3 * p50(tr.durations("reaction_diffusion.rd_solve_fd")), "ms"),
        "cli.main.self_ms_p50": (1e3 * p50(tr.stats["cli.main"].selfs), "ms"),
        "cli.import_s": (import_s, "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }

