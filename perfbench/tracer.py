"""Spans and call counts recorded from outside the program.

The tracer replaces each wrapped function in every ``jumpiso.*`` namespace
that binds it (module functions) or on its class (methods), and puts the
originals back on ``uninstall``.  A span records name, start, end and the
index of its parent span; spans stay in memory until ``write``.  Functions
whose own time is not reported are only counted: some are called millions
of times per round, and a span each would cost more than the program.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "jumpiso"
S, C, CS = ("self_s",), ("calls",), ("calls", "self_s")
# (module, attribute path, metric prefix, fields reported).  A function with
# a self_s field gets a span per call; the others are only counted, and their
# time is part of their caller's self time.
TARGETS = [
    ("superpoincare", "sp_estimate", "superpoincare.sp_estimate", CS),
    ("superpoincare", "certified_rate", "superpoincare.certified_rate", CS),
    ("superpoincare", "sp_verify", "superpoincare.sp_verify", S),
    ("superpoincare", "lemma2_bound", "superpoincare.lemma2_bound", S),
    ("superpoincare", "RateFunction.__call__", "superpoincare.RateFunction.call", C),
    ("superpoincare", "RateFunction.inv", "superpoincare.RateFunction.inv", C),
    ("core", "Semigroup.__init__", "core.Semigroup", C),
    ("core", "Semigroup.theta", "core.Semigroup.theta", CS),
    ("core", "Semigroup.theta_curve", "core.Semigroup.theta_curve", CS),
    ("numerics", "inv_decreasing", "numerics.inv_decreasing", CS),
    ("numerics", "cumulative_quad", "numerics.cumulative_quad", CS),
    ("young", "YoungFunction.inv", "young.YoungFunction.inv", C),
    ("young", "orlicz_norm", "young.orlicz_norm", CS),
    ("isoperimetry", "enumerate_profile", "isoperimetry.enumerate_profile", CS),
    ("isoperimetry", "thm20_forward", "isoperimetry.thm20_forward", S),
    ("isoperimetry", "thm20_backward", "isoperimetry.thm20_backward", S),
    ("theorems", "thm21_verify", "theorems.thm21_verify", S),
    ("theorems", "thm21_young", "theorems.thm21_young", S),
    ("theorems", "thm41", "theorems.thm41", S),
    ("theorems", "thm42", "theorems.thm42", S),
    ("theorems", "rate_from_gauge", "theorems.rate_from_gauge", C),
    ("lattice", "subord_weights", "lattice.subord_weights", S),
    ("lattice", "p1_kernel", "lattice.p1_kernel", CS),
    ("lattice", "torus_semigroup", "lattice.torus_semigroup", S),
    ("lattice", "power_law_band", "lattice.power_law_band", S),
    ("radial", "radial_l1_energy", "radial.radial_l1_energy", CS),
    ("radial", "sharpness_profile", "radial.sharpness_profile", S),
    ("perturbed", "example_threshold", "perturbed.example_threshold", S),
    ("perturbed", "theorem_beta_curve", "perturbed.theorem_beta_curve", S),
    ("cli", "main", "cli.main", S),
]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []

    # -- wrappers ----------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = [m for k, m in sorted(sys.modules.items())
                if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for module, path, name, fields in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrap = self._span if "self_s" in fields else self._count
            wrapped = wrap(name, original)
            if cls_path:                  # a method: patch its class
                self._set(owner, attr, wrapped)
                continue
            for mod in mods:              # a function: every binding of it
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- results -----------------------------------------------------------
    def totals(self) -> dict:
        """{name: (calls, self seconds)} for spans and counted calls."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += (end - start) - inner
        for name, n in self.counts.items():
            out[name][0] += n
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path):
        """Spans as CSV: name, start and end (s, from the first span), parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
            for name, n in sorted(self.counts.items()):
                fh.write(f"# count,{name},{n}\n")
