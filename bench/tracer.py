"""In-memory span recorder that wraps ginlab functions from outside the package.

A span is recorded by rebinding the module attribute (or dict entry) that a
caller looks up at call time, for example ``ginlab.sampler.real_schur``, to
a wrapper that times the call.  Nothing inside ``ginlab`` is edited, and
:meth:`Tracer.uninstall` restores every original binding.

Each span keeps (name, start, end, parent index).  Self time is the span's
duration minus the time covered by its direct child spans; it is accumulated
when the span closes, so reading the per-name totals costs nothing extra.
"""

import functools
import json
import time
from types import ModuleType

_NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        # name -> [calls, self seconds, inclusive seconds, failures]
        self.totals = {}
        self._stack = [_NO_PARENT]
        self._child = [0.0]
        self._installed = []

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that every call records one span called ``name``."""
        if name not in self.totals:
            self.totals[name] = [0, 0.0, 0.0, 0]
            self.names.append(name)
        stats = self.totals[name]
        name_id = self.names.index(name)
        spans, stack, child = self.spans, self._stack, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            child.append(0.0)
            failed = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = clock()
                stack.pop()
                inner = child.pop()
                dur = end - start
                child[-1] += dur
                spans[idx] = (name_id, start, end, parent)
                stats[0] += 1
                stats[1] += dur - inner
                stats[2] += dur
                stats[3] += failed

        return span

    def install(self, targets) -> None:
        """Rebind every (container, key) of ``targets``: a list of (name, [(container, key), ...])."""
        for name, sites in targets:
            for container, key in sites:
                if isinstance(container, ModuleType):
                    original = getattr(container, key)
                    setattr(container, key, self.wrap(name, original))
                else:
                    original = container[key]
                    container[key] = self.wrap(name, original)
                self._installed.append((container, key, original))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._installed):
            if isinstance(container, ModuleType):
                setattr(container, key, original)
            else:
                container[key] = original
        self._installed.clear()

    def snapshot(self) -> dict:
        """A copy of the per-name totals, for differencing around one round."""
        return {name: list(v) for name, v in self.totals.items()}

    def dump(self, path: str, origin: float) -> None:
        """Write every span as [name, start, end, parent] with times relative to ``origin``."""
        rows = [
            [self.names[n], round(s - origin, 9), round(e - origin, 9), p]
            for n, s, e, p in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
