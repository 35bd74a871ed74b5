"""In-memory span tracer for the traced benchmark pass.

`Tracer.install` wraps every public function of the given modules and
rebinds each wrapped name in every loaded `fedarena` module, so names
imported with `from .x import f` are traced too. A span is
(name, start, end, parent index); spans stay in memory and are written
out once the pass ends. Self time is a span's duration minus the
durations of its direct children. A recursive call is counted at every
level it occurs.
"""

import inspect
import sys
import time
from collections import Counter, defaultdict

# name -> extra tallies taken from (args, result) of one call
TALLIES = {
    "mlp.gradient": lambda args, result: {"rows": len(args[1])},
    "aggregation.apply_rule": lambda args, result: {
        "rows": len(args[1]),
        "kept": len(result.kept_indices),
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.tallies: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tally = TALLIES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if tally is not None:
                self.tallies[name].update(tally(args, result))
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap the public functions defined in `modules` (short name =
        last dotted component) and rebind them across `fedarena`."""
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fedarena" and not mod_name.startswith("fedarena."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict]:
        """name -> {"calls", "s" (inclusive), "self_s"} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
        return dict(out)

    def write(self, path) -> None:
        """One CSV line per span: index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start,end\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start:.9f},{end:.9f}\n")
