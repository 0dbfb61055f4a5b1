"""Outside-in spans and counts around hermitia's public functions.

The program is not changed.  ``Tracer.install`` replaces each target
function with a recording wrapper in every loaded ``hermitia`` module
namespace that binds it (``from .charts import curvature_tensor`` makes a
second binding that patching ``charts`` alone would miss), and patches
methods on their class.  ``uninstall`` puts every original back.

A span is (name, start, end, parent span, point id, phase).  Spans are
kept in memory while ``keep_spans`` is true and written out by
``run.py`` when the run ends; calls, self time (span duration minus the time
its traced children cover) and selected nestings are aggregated for
every span, kept or not.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of every traced function; methods as Class.method.
TARGETS = (
    ("charts", "ChartField.gram"),
    ("charts", "ChartField.d"),
    ("charts", "ChartField.dd"),
    ("charts", "ChartField.rank_at"),
    ("charts", "chern_connection"),
    ("charts", "curvature_tensor"),
    ("charts", "curvature_from_connection"),
    ("charts", "hsc_of_tensor"),
    ("models", "hsc_extremes"),
    ("models", "grassmannian_chart"),
    ("forms", "quotient_form"),
    ("forms", "adjoint"),
    ("forms", "sum_quotient_form"),
    ("forms", "limit_form"),
    ("sequences", "ExactSeqChart.at"),
    ("sequences", "demailly_residuals"),
    ("sequences", "splitting_curvature_blocks"),
    ("sequences", "sum_curvature"),
    ("fibration", "find_lambda0"),
    ("fibration", "h_lambda"),
    ("fibration", "r_lambda_decomposed"),
    ("fibration", "q_lambda_limit"),
    ("fields", "sum_field"),
    ("fields", "scaled_field"),
)

# (outer, inner): count inner spans that run inside an outer span.
NESTINGS = (("fibration.find_lambda0", "fibration.h_lambda"),)

# Every module that binds a traced name; importing them first makes sure
# no binding appears after the wrappers are in place.
MODULES = ("charts", "fields", "forms", "models", "sequences", "fibration", "instances", "acceptance")


def target_names():
    return [module + "." + attr for module, attr in TARGETS]


class Tracer:
    def __init__(self):
        self.point = None
        self.phase = "setup"
        self.keep_spans = True
        self.spans = []  # [name, start, end, parent, point, phase]
        self.calls = defaultdict(int)  # (phase, name) -> count
        self.self_s = defaultdict(float)  # (phase, name) -> seconds
        self.nested = defaultdict(int)  # (phase, outer, inner) -> count
        self._stack = []  # open frames: [span index or -1, child seconds]
        self._active = Counter()
        self._patches = []

    # -- recording ------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        active = self._active
        outers = [outer for outer, inner in NESTINGS if inner == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = self.phase
            for outer in outers:
                if active[outer]:
                    self.nested[(phase, outer, name)] += 1
            index = -1
            if self.keep_spans:
                index = len(self.spans)
                parent = stack[-1][0] if stack else -1
                self.spans.append([name, 0.0, 0.0, parent, self.point, phase])
            frame = [index, 0.0]
            stack.append(frame)
            active[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                active[name] -= 1
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[(phase, name)] += 1
                self.self_s[(phase, name)] += duration - frame[1]
                if index >= 0:
                    span = self.spans[index]
                    span[1], span[2] = start, end

        return traced

    # -- patching -------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        loaded = [importlib.import_module("hermitia." + m) for m in MODULES]
        namespaces = [sys.modules["hermitia"]] + loaded
        for module_name, attr in TARGETS:
            module = sys.modules["hermitia." + module_name]
            name = module_name + "." + attr
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(name, original))
                self._patches.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patches.append((ns, key, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class PointClock:
    """Wall time of each call to one module-level binding.

    A scan such as ``models.hsc_extremes`` makes one ``curvature_tensor``
    call per sampled point, and that call blocks the point; timing it
    gives per-point latency without tracing the scan.  ``before`` runs
    ahead of each point, outside its time, and what it returns is kept in
    ``marks``.  When a tracer is passed, the clock also numbers the
    points for its spans.
    """

    def __init__(self, module, attr, before=None, tracer=None):
        self.module = module
        self.attr = attr
        self.before = before
        self.tracer = tracer
        self.durations = []
        self.marks = []

    def __enter__(self):
        original = getattr(self.module, self.attr)
        self._original = original
        durations = self.durations
        marks = self.marks
        before = self.before
        tracer = self.tracer

        @functools.wraps(original)
        def clocked(*args, **kwargs):
            if before is not None:
                marks.append(before())
            if tracer is not None:
                tracer.point = len(durations)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - start)

        setattr(self.module, self.attr, clocked)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self._original)
        return False
