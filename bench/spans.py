"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each layer's function with a timing wrapper at
every name bound to it inside the ``dephasing_discord`` package, so calls are
seen where callers make them (``dfe.gamma_closed`` as well as
``bath.gamma_closed``).  A layer whose function cannot be found, after a
rename, reports zero calls and is listed as missing.  Self time is a span's
duration minus the time of the spans nested inside it.
"""
from __future__ import annotations

import sys
import time

# Layer name -> (module inside the package, attribute).
LAYERS = {
    "bath.gamma_closed": ("bath", "gamma_closed"),
    "bath.gamma_quadrature": ("bath", "gamma_quadrature"),
    "evolution.evolve": ("evolution", "evolve"),
    "evolution.eigenvalues": ("evolution", "eigenvalues"),
    "correlations.mutual_information": ("correlations", "mutual_information"),
    "correlations.classical_closed": ("correlations", "classical_closed"),
    "correlations.classical_bruteforce": ("correlations", "classical_bruteforce"),
    "core.DiscordPoint": ("core", "DiscordPoint"),
    "dfe.scan_trajectory": ("dfe", "scan_trajectory"),
    "dfe.critical_time_solve": ("dfe", "critical_time_solve"),
    "cli.main": ("cli", "main"),
}
SOLVE = "dfe.critical_time_solve"
GAMMA = "bath.gamma_closed"
PACKAGE = "dephasing_discord"


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.total_s = dict.fromkeys(LAYERS, 0.0)
        self.gamma_in_solve = 0
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # child time of each open span
        self._solving = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        calls, self_s, total_s, stack = self.calls, self.self_s, self.total_s, self._stack
        clock = time.perf_counter
        is_solve, is_gamma = name == SOLVE, name == GAMMA

        def traced(*args, **kwargs):
            if is_solve:
                self._solving += 1
            elif is_gamma and self._solving:
                self.gamma_in_solve += 1
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                calls[name] += 1
                total_s[name] += span
                self_s[name] += span - children[0]
                if stack:
                    stack[-1][0] += span
                if is_solve:
                    self._solving -= 1

        return traced

    def install(self) -> None:
        self.missing = []
        modules = [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, (module, attr) in LAYERS.items():
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            target = getattr(owner, attr, None)
            if target is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, target)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, target))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
