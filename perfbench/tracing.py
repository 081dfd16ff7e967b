"""Tracing syguskit from the outside, for the benchmark's traced run.

The tracer replaces module attributes of syguskit with timing wrappers: the
public functions as each caller module imported them (``harness.load_problem``,
``enumerative.check_semantic``, ``cegis.evaluate``, ...) and methods on their
classes (``Bank.build_to``, ``Enumerator.sample``, ...). Nothing under
``src/`` changes; ``uninstall`` puts the originals back.

Every wrapped call is timed and counted under (name, context), where the
context is the nearest enclosing wrapped call that is not a leaf (leaves are
the per-point functions ``evaluate``, ``falsified`` and ``_violated_index``),
so evaluator work is attributed to ``Bank.build_to``, ``count_wrong``,
``check_semantic`` and so on. Coarse calls are also kept as spans (id, parent
id, name, thread, start, end) in memory and written out at exit. A solver
runs on a worker thread the harness starts per record; its span is parented
to the ``run_benchmark`` span that loaded the problem it was handed.

A call nested directly in a call of the same name (recursion through
``Enumerator.count`` or ``Enumerator.sample``) is folded into the outer one.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

LEAVES = frozenset({"terms.evaluate", "checker.falsified",
                    "checker._violated_index"})


class _Frame:
    __slots__ = ("name", "ctx_out", "span_out", "child_s", "remote")

    def __init__(self, name, ctx_out, span_out):
        self.name = name
        self.ctx_out = ctx_out    # context seen by calls nested in this one
        self.span_out = span_out  # parent span id for calls nested in this one
        self.child_s = 0.0        # time in wrapped calls nested on this thread
        self.remote = []          # (start, end) of its calls on other threads


def _union_s(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > reach:
            total += t1 - max(t0, reach)
            reach = t1
    return total


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tables: list[tuple[dict, dict]] = []
        self._lock = threading.Lock()
        self._links: dict[int, _Frame] = {}
        self._undo: list[tuple] = []

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            # stack, {(name, ctx): [calls, total_s, self_s, thread_cpu_s]},
            # {counter: value}; one set per thread, merged by totals()
            st = self._local.st = ([], {}, {})
            with self._lock:
                self._tables.append(st[1:])
        return st

    def count(self, name: str, n: int = 1):
        counters = self._state()[2]
        counters[name] = counters.get(name, 0) + n

    def link(self, obj):
        """Make `obj` point at the innermost open call on this thread, so a
        call on another thread that receives `obj` first is parented there."""
        stack = self._state()[0]
        if stack:
            self._links[id(obj)] = stack[-1]

    def wrap(self, owner, attr, name, *, span=False, parent_arg=None,
             link_arg=None, cpu=False, before=None, after=None):
        """Replace owner.attr (or owner[attr] for a dict) with a timed wrapper.

        A call that starts a thread's stack finds its parent through its
        argument number `parent_arg`, which a call on another thread
        registered with `link_arg` or `link()`. before(args) runs before the
        call and its value is handed to after(tracer, args, result, value),
        which runs after a normal return.
        """
        is_dict = isinstance(owner, dict)
        fn = owner[attr] if is_dict else getattr(owner, attr)
        tracer = self
        leaf = name in LEAVES

        def wrapper(*args, **kwargs):
            stack, agg, _ = tracer._state()
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            remote = not stack
            if stack:
                up = stack[-1]
            elif parent_arg is not None:
                up = tracer._links.get(id(args[parent_arg]))
            else:
                up = None
            ctx = up.ctx_out if up is not None else None
            parent = up.span_out if up is not None else None
            sid = next(tracer._ids) if span else None
            frame = _Frame(name, ctx if leaf else name,
                           sid if span else parent)
            token = before(args) if before is not None else None
            stack.append(frame)
            if link_arg is not None:
                tracer._links[id(args[link_arg])] = frame
            c0 = time.thread_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if up is not None and remote:
                    up.remote.append((t0, t1))
                elif up is not None:
                    up.child_s += dur
                if frame.remote:
                    frame.child_s += _union_s(frame.remote)
                row = agg.get((name, ctx))
                if row is None:
                    row = agg[(name, ctx)] = [0, 0.0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame.child_s
                if cpu:
                    row[3] += time.thread_time() - c0
                if span:
                    tracer.spans.append((sid, parent, name,
                                         threading.get_ident(), t0, t1))
            if after is not None:
                after(tracer, args, result, token)
            return result

        self._set(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    @staticmethod
    def _set(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            self._set(owner, attr, fn)
        self._links.clear()

    def totals(self) -> tuple[dict, dict]:
        """Merged ({(name, ctx): [calls, total_s, self_s, cpu_s]}, counters)."""
        agg: dict = {}
        counters: dict = {}
        with self._lock:
            tables = list(self._tables)
        for t_agg, t_counters in tables:
            for key, row in t_agg.items():
                acc = agg.setdefault(key, [0, 0.0, 0.0, 0.0])
                for i, v in enumerate(row):
                    acc[i] += v
            for key, v in t_counters.items():
                counters[key] = counters.get(key, 0) + v
        return agg, counters


# ---------------------------------------------------------------------------
# What is wrapped


def _bank_terms(args) -> int:
    bank = args[0]
    return sum(len(kept) for per_size in bank.terms.values()
               for kept in per_size.values())


def _after_build(tracer, args, result, before):
    tracer.count("enumerative.bank_terms", _bank_terms(args) - before)


def _after_verdict(tracer, args, result, _):
    tracer.count("checker.verdicts." + type(result).__name__.lower())


def _after_add(tracer, args, result, _):
    if result:
        tracer.count("cegis.counterexamples")


def _after_load(tracer, args, result, _):
    tracer.link(result)


def install(tracer: Tracer, sk):
    """Wrap every boundary the per-module metrics are measured at."""
    h, fe, ck, cg = sk.harness, sk.frontend, sk.checker, sk.cegis
    en, st, gr = sk.enumerative, sk.stochastic, sk.grammar

    # run_suite hands its RunLimits to every run_benchmark on the pool's
    # threads; run_benchmark hands the loaded problem to the solver's thread
    tracer.wrap(h, "run_suite", "harness.run_suite", span=True, link_arg=2)
    tracer.wrap(h, "run_benchmark", "harness.run_benchmark", span=True,
                parent_arg=2)
    for sid in list(h.SOLVERS):
        tracer.wrap(h.SOLVERS, sid, "harness.solver", span=True,
                    parent_arg=0, cpu=True)

    for owner in (fe, h):
        tracer.wrap(owner, "load_problem", "frontend.load_problem",
                    span=True, after=_after_load)
    tracer.wrap(fe, "read_problem", "frontend.read_problem")
    tracer.wrap(fe, "print_problem", "frontend.print_problem")

    for owner in (cg, en, ck):
        tracer.wrap(owner, "evaluate", "terms.evaluate")
        tracer.wrap(owner, "falsified", "checker.falsified")
    tracer.wrap(ck, "_violated_index", "checker._violated_index")
    for owner in (h, en, st, ck):
        tracer.wrap(owner, "check_semantic", "checker.check_semantic",
                    span=True, after=_after_verdict)
    for owner in (h, ck):
        tracer.wrap(owner, "check_syntactic", "checker.check_syntactic",
                    span=True)
    tracer.wrap(ck, "derives", "grammar.derives")

    tracer.wrap(en, "induced_bindings", "cegis.induced_bindings", span=True)
    tracer.wrap(st, "count_wrong", "cegis.count_wrong")
    tracer.wrap(cg.ExampleSet, "add", "cegis.ExampleSet.add",
                after=_after_add)

    tracer.wrap(h, "solve_enumerative", "enumerative.solve_enumerative",
                span=True)
    tracer.wrap(en.Bank, "__init__", "enumerative.Bank")
    tracer.wrap(en.Bank, "build_to", "enumerative.Bank.build_to", span=True,
                before=_bank_terms, after=_after_build)

    tracer.wrap(gr.Enumerator, "__init__", "grammar.Enumerator")
    tracer.wrap(gr.Enumerator, "count", "grammar.Enumerator.count")
    tracer.wrap(gr.Enumerator, "sample", "grammar.Enumerator.sample")

    tracer.wrap(st, "solve_stochastic", "stochastic.solve_stochastic",
                span=True)
    tracer.wrap(st, "mutate", "stochastic.mutate")


# ---------------------------------------------------------------------------
# Per-module metrics

MODULES = ("frontend", "terms", "grammar", "checker", "cegis", "enumerative",
           "stochastic", "harness")

# enclosing calls the evaluator and falsified counts are split by
CONTEXTS = {
    "build_to": "enumerative.Bank.build_to",
    "count_wrong": "cegis.count_wrong",
    "check_semantic": "checker.check_semantic",
    "induced_bindings": "cegis.induced_bindings",
    "solve_enumerative": "enumerative.solve_enumerative",
}
SOLVES = ("enumerative.solve_enumerative", "stochastic.solve_stochastic")
ANY = object()


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_module(tracer: Tracer, passes: int,
               parallelism: int) -> dict[str, float]:
    """Per-module metrics; times and counts are per traced pass."""
    agg, counters = tracer.totals()

    def rows(name, ctx=ANY):
        return [r for (n, c), r in agg.items()
                if n == name and (ctx is ANY or c in ctx)]

    def calls(name, ctx=ANY):
        return sum(r[0] for r in rows(name, ctx))

    def secs(name, ctx=ANY):
        return sum(r[1] for r in rows(name, ctx))

    rb = ("harness.run_benchmark",)
    solve_s = sum(secs(n) for n in SOLVES)
    semantic_s = secs("checker.check_semantic")
    out = {
        "frontend.load_s": secs("frontend.load_problem"),
        "frontend.files_per_s": _ratio(calls("frontend.load_problem"),
                                       secs("frontend.load_problem")),
        # the benchmark's own load -> print -> read calls, outside any solve
        "frontend.roundtrip_s": sum(secs(n, (None,)) for n in (
            "frontend.load_problem", "frontend.print_problem",
            "frontend.read_problem")),
        "enumerative.build_s": secs("enumerative.Bank.build_to"),
        "enumerative.bank_terms": counters.get("enumerative.bank_terms", 0),
        "enumerative.terms_per_s": _ratio(
            counters.get("enumerative.bank_terms", 0),
            secs("enumerative.Bank.build_to")),
        "enumerative.banks_built": calls("enumerative.Bank"),
        "terms.evaluate_calls": calls("terms.evaluate"),
        "terms.evaluate_s": secs("terms.evaluate"),
        "checker.semantic_calls": calls("checker.check_semantic"),
        "checker.semantic_s": semantic_s,
        "checker.points": calls("checker._violated_index"),
        "checker.points_per_s": _ratio(calls("checker._violated_index"),
                                       semantic_s),
        "checker.falsified_calls": calls("checker.falsified"),
        "checker.syntactic_s": secs("checker.check_syntactic"),
        "cegis.rounds": (sum(calls(n) for n in SOLVES)
                         + counters.get("cegis.counterexamples", 0)),
        "cegis.verify_calls": calls("checker.check_semantic", SOLVES),
        "cegis.verify_s": secs("checker.check_semantic", SOLVES),
        "cegis.count_wrong_calls": calls("cegis.count_wrong"),
        "cegis.count_wrong_s": secs("cegis.count_wrong"),
        "cegis.bindings_s": secs("cegis.induced_bindings"),
        "grammar.count_calls": calls("grammar.Enumerator.count"),
        "grammar.count_s": secs("grammar.Enumerator.count"),
        "grammar.sample_calls": calls("grammar.Enumerator.sample"),
        "grammar.samples_per_s": _ratio(calls("grammar.Enumerator.sample"),
                                        secs("grammar.Enumerator.sample")),
        "grammar.enumerators_built": calls("grammar.Enumerator"),
        "grammar.derives_s": secs("grammar.derives"),
        "stochastic.moves": calls("stochastic.mutate"),
        "stochastic.mutate_s": secs("stochastic.mutate"),
        "stochastic.moves_per_s": _ratio(
            calls("stochastic.mutate"), secs("stochastic.solve_stochastic")),
        "harness.overhead_s": (secs("harness.run_benchmark")
                               - secs("harness.solver", rb)
                               - secs("checker.check_syntactic", rb)
                               - secs("checker.check_semantic", rb)),
        "harness.pool_busy_share": _ratio(
            secs("harness.run_benchmark"),
            secs("harness.run_suite") * parallelism),
        "harness.wall_per_cpu": _ratio(
            secs("harness.solver"),
            sum(r[3] for r in rows("harness.solver"))),
        "cegis.solve_s": solve_s,
    }
    for short, ctx in CONTEXTS.items():
        out[f"terms.evaluate_calls.{short}"] = calls("terms.evaluate", (ctx,))
        out[f"terms.evaluate_s.{short}"] = secs("terms.evaluate", (ctx,))
    for short in ("check_semantic", "count_wrong", "solve_enumerative"):
        ctx = (CONTEXTS[short],)
        out[f"checker.falsified_calls.{short}"] = calls("checker.falsified",
                                                        ctx)
    out["checker.falsified_s.solve_enumerative"] = secs(
        "checker.falsified", (CONTEXTS["solve_enumerative"],))
    for kind in ("valid", "counterexample", "unknown"):
        out[f"checker.verdicts.{kind}"] = counters.get(
            f"checker.verdicts.{kind}", 0)
    for module in MODULES:
        out[f"self_s.{module}"] = sum(
            r[2] for (n, _), r in agg.items() if n.split(".")[0] == module)

    ratios = {k for k in out if k.endswith("_per_s") or k.startswith(
        ("harness.pool_busy_share", "harness.wall_per_cpu"))}
    return {k: (v if k in ratios else v / passes) for k, v in out.items()}


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    if metric in ("harness.pool_busy_share", "harness.wall_per_cpu"):
        return "ratio"
    return "count"


def dump(tracer: Tracer, path, info: dict):
    """Write the spans and the aggregate table as JSON."""
    agg, counters = tracer.totals()
    data = {
        "info": info,
        "span_fields": ["id", "parent", "name", "thread", "start", "end"],
        "spans": [list(s) for s in tracer.spans],
        "calls": [{"name": n, "context": c, "calls": r[0], "total_s": r[1],
                   "self_s": r[2], "thread_cpu_s": r[3]}
                  for (n, c), r in sorted(agg.items(),
                                          key=lambda kv: -kv[1][1])],
        "counters": counters,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
