"""Spans around calls into stellar's public functions, from outside the program.

The modules import each other's functions by name (`from .polyroots import
find_roots`), so a function is replaced in every stellar module namespace
that holds it, not only in the module that defines it. Spans stay in memory
as (name, start, end, parent, op id, ok) and are handed out once at the end.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

# (module, function) pairs whose calls become spans; the metric prefix is
# the module's last name component.
TRACED = [
    ("stellar.cli", "main"),
    ("stellar.serialize", "state_from_json"),
    ("stellar.serialize", "state_to_json"),
    ("stellar.serialize", "constellation_to_json"),
    ("stellar.serialize", "constellation_from_json"),
    ("stellar.serialize", "verdict_to_json"),
    ("stellar.polyroots", "find_roots"),
    ("stellar.majorana", "majorana_polynomial"),
    ("stellar.majorana", "majorana_constellation"),
    ("stellar.majorana", "state_from_constellation"),
    ("stellar.geometry", "points_from_roots"),
    ("stellar.geometry", "matching_max_distance"),
    ("stellar.rotations", "wigner_D"),
    ("stellar.rotations", "rotate_spin"),
    ("stellar.rotations", "rotate_qubits"),
    ("stellar.rotations", "rotate_constellation"),
    ("stellar.altsep", "decide_separability"),
    ("stellar.altsep", "separable_constellation"),
    ("stellar.altsep", "alt_constellation"),
    ("stellar.render", "render_svg"),
]


class Tracer:
    """Installs span-recording wrappers; uninstall() puts the originals back."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.root_calls: list = []  # (coefficients, roots or None) per find_roots call
        self.fp_events = 0  # numpy overflow/invalid events inside find_roots spans
        self._fp_all = 0
        self._patched: list = []

    def _count_fp(self, kind, flag):
        self._fp_all += 1

    def counting_fp(self):
        """Context in which numpy reports overflow and invalid events to this
        tracer (instead of warning); find_roots spans keep their share."""
        return np.errstate(over="call", invalid="call", call=self._count_fp)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        is_roots = name == "polyroots.find_roots"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            fp_before = self._fp_all
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id, ok)
                if is_roots:
                    self.fp_events += self._fp_all - fp_before
                    self.root_calls.append(
                        (args[0].coefficients, result.roots if ok else None)
                    )

        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "stellar" or k.startswith("stellar.")]
        for modname, fname in TRACED:
            orig = getattr(sys.modules[modname], fname)
            wrapped = self._wrap(f"{modname.split('.')[-1]}.{fname}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
