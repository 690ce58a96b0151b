"""Span and counter recording around the calls into each dx layer.

The tracer replaces a function at the name its caller looks up (a module
global or a class attribute) with a wrapper that records a span
(name, start, end, parent) and bumps counters derived from the arguments and
the result.  ``uninstall`` puts every original back.  Spans stay in memory
and are written out once, by the caller, when the run ends.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from stats import Span, self_times

# Counter hook: (tracer, args, kwargs, result) -> None.
Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def current(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        hook: Optional[Hook] = None,
        inline_under: Sequence[str] = (),
        count_errors: Sequence[type] = (),
        span: bool = True,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        With ``span=False`` only the calls are counted, for thin functions
        whose own time is negligible next to their callees.  A call made
        while a span named in ``inline_under`` is innermost gets no span of
        its own, so its time stays in that parent's self time.
        Exceptions of the ``count_errors`` types are counted as
        ``<name>.<ExceptionName>`` before they propagate.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not span:
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                return original(*args, **kwargs)
            if inline_under and tracer.current() in inline_under:
                return original(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            idx = len(tracer.spans)
            tracer.spans.append((name, time.perf_counter(), 0.0, parent))
            tracer._stack.append(idx)
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            try:
                result = original(*args, **kwargs)
            except tuple(count_errors) as exc:
                tracer.count(f"{name}.{type(exc).__name__}")
                raise
            finally:
                tracer._stack.pop()
                _, start, _, _ = tracer.spans[idx]
                tracer.spans[idx] = (name, start, time.perf_counter(), parent)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- summaries

    def self_times(self) -> Dict[str, float]:
        return self_times(self.spans)

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "span_names": names,
            "spans": [
                [index[n], round(s, 7), round(e, 7), p] for n, s, e, p in self.spans
            ],
            "calls": dict(sorted(self.calls.items())),
            "counters": dict(sorted(self.counters.items())),
        }


def install_dx_tracing(tracer: Tracer, mods) -> None:
    """Wrap the layer boundaries of dx named by the per-layer metrics.

    ``mods`` maps module names (``cli``, ``gcwa``, ...) to the imported dx
    modules.  Every name is wrapped where its caller looks it up.
    """
    cli, chase, corelib, minrep = mods["cli"], mods["chase"], mods["corelib"], mods["minrep"]
    gcwa, oracle, randgen, errors = mods["gcwa"], mods["oracle"], mods["randgen"], mods["errors"]

    def atoms_out(t, args, kwargs, result):
        t.count("chase.atoms_out", len(result))

    def retracted(t, args, kwargs, result):
        t.count("corelib.atoms_retracted", len(args[0]) - len(result))

    def reps_out(t, args, kwargs, result):
        t.count("minrep.reps_out", len(result))

    def images_kept(t, args, kwargs, result):
        t.count("minrep.images_kept", len(result))

    tracer.wrap(cli, "main", "cli.main")
    for attr in ("parse_mapping", "parse_instance", "parse_query"):
        tracer.wrap(cli, attr, "textio.parse")
    for attr in ("serialize_instance", "answers_json"):
        tracer.wrap(cli, attr, "textio.serialize")

    # corelib, oracle and cli all look canonical_solution up on the module
    tracer.wrap(chase, "canonical_solution", "chase.canonical_solution", atoms_out)

    # is_core's only work is a core_of call, which stays inside its span
    tracer.wrap(corelib, "core_of", "corelib.core_of", retracted,
                inline_under=("corelib.is_core",))
    tracer.wrap(oracle, "core_of", "corelib.core_of", retracted)
    tracer.wrap(minrep, "core_retract_fixing", "corelib.retract_fixing")
    for mod in (gcwa, minrep):
        tracer.wrap(mod, "is_core", "corelib.is_core")
        tracer.wrap(mod, "blocks_packed", "corelib.blocks_packed")
    tracer.wrap(cli, "blocks_packed", "corelib.blocks_packed")

    tracer.wrap(gcwa, "all_block_reps", "minrep.all_block_reps", reps_out)
    for mod in (gcwa, minrep):
        _wrap_minimal_images(tracer, mod, images_kept)
    for mod in (oracle, cli):
        tracer.wrap(mod, "enum_min_c", "minrep.enum_min_c")

    tracer.wrap(gcwa, "answers_gcwa_star_universal", "gcwa.fast_answers")
    tracer.wrap(gcwa, "eval_gcwa_star_universal", "gcwa.fast_eval", span=False)
    tracer.wrap(gcwa.CoreEvaluator, "conjunct_satisfiable", "gcwa.fast_conjunct")
    tracer.wrap(gcwa.CoreEvaluator, "reps_for", "gcwa.reps_for", span=False)
    tracer.wrap(gcwa, "answers_gcwa_star_universal_general", "gcwa.general_answers",
                count_errors=(errors.BudgetExceeded,))
    tracer.wrap(gcwa._GeneralEvaluator, "conjunct_satisfiable", "gcwa.general_conjunct")
    tracer.wrap(gcwa, "answers_owa_homclosed", "gcwa.ucq_answers")

    for mod in (gcwa, oracle):
        tracer.wrap(mod, "query_answers", "logic.query_answers")

    tracer.wrap(oracle, "answers_semantics", "oracle.answers_semantics",
                count_errors=(errors.BudgetExceeded,))
    tracer.wrap(oracle, "minimal_ground_solutions", "oracle.minimal_ground_solutions")
    tracer.wrap(oracle, "tstar_fixpoint", "oracle.tstar_fixpoint")

    for attr in ("gen_packed_mapping", "gen_source", "gen_universal_query"):
        tracer.wrap(randgen, attr, "randgen.gen")


def _wrap_minimal_images(tracer: Tracer, mod, hook: Hook) -> None:
    """``_minimal_images`` may receive a generator; count its images by
    handing the wrapped function a list of them instead."""
    original = getattr(mod, "_minimal_images")

    def counting(images):
        images = list(images)
        tracer.count("minrep.images_in", len(images))
        return original(images)

    setattr(mod, "_minimal_images", counting)
    tracer._restore.append((mod, "_minimal_images", original))
    tracer.wrap(mod, "_minimal_images", "minrep.minimal_images", hook)


# Per-layer metric name -> (kind, source).  "s" reads the self time of a
# span name, "calls" its call count, "count" a counter.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "cli.main_s": ("s", "cli.main"),
    "textio.parse_s": ("s", "textio.parse"),
    "textio.serialize_s": ("s", "textio.serialize"),
    "chase.canonical_solution_s": ("s", "chase.canonical_solution"),
    "chase.atoms_out": ("count", "chase.atoms_out"),
    "corelib.core_of_s": ("s", "corelib.core_of"),
    "corelib.atoms_retracted": ("count", "corelib.atoms_retracted"),
    "corelib.retract_fixing_s": ("s", "corelib.retract_fixing"),
    "corelib.retract_fixing_calls": ("calls", "corelib.retract_fixing"),
    "corelib.is_core_s": ("s", "corelib.is_core"),
    "corelib.blocks_packed_s": ("s", "corelib.blocks_packed"),
    "minrep.all_block_reps_s": ("s", "minrep.all_block_reps"),
    "minrep.all_block_reps_calls": ("calls", "minrep.all_block_reps"),
    "minrep.reps_out": ("count", "minrep.reps_out"),
    "minrep.minimal_images_s": ("s", "minrep.minimal_images"),
    "minrep.images_in": ("count", "minrep.images_in"),
    "minrep.images_kept": ("count", "minrep.images_kept"),
    "minrep.enum_min_c_s": ("s", "minrep.enum_min_c"),
    "gcwa.fast_answers_s": ("s", "gcwa.fast_answers"),
    "gcwa.fast_conjunct_s": ("s", "gcwa.fast_conjunct"),
    "gcwa.fast_conjunct_calls": ("calls", "gcwa.fast_conjunct"),
    "gcwa.candidate_tuples": ("calls", "gcwa.fast_eval"),
    "gcwa.general_answers_s": ("s", "gcwa.general_answers"),
    "gcwa.general_conjunct_s": ("s", "gcwa.general_conjunct"),
    "gcwa.general_budget_exceeded": ("count", "gcwa.general_answers.BudgetExceeded"),
    "gcwa.ucq_answers_s": ("s", "gcwa.ucq_answers"),
    "logic.query_answers_s": ("s", "logic.query_answers"),
    "logic.query_answers_calls": ("calls", "logic.query_answers"),
    "oracle.answers_semantics_s": ("s", "oracle.answers_semantics"),
    "oracle.minimal_ground_solutions_s": ("s", "oracle.minimal_ground_solutions"),
    "oracle.tstar_fixpoint_s": ("s", "oracle.tstar_fixpoint"),
    "oracle.budget_exceeded": ("count", "oracle.answers_semantics.BudgetExceeded"),
    "randgen.gen_s": ("s", "randgen.gen"),
}

LAYER_UNITS = {"s": "s", "calls": "count", "count": "count"}


def layer_values(tracer: Tracer, passes: int) -> Dict[str, float]:
    """Every per-layer metric as an amount per pass, plus the reps cache
    hit ratio (1 - all_block_reps calls / reps_for calls)."""
    selfs = tracer.self_times()
    out: Dict[str, float] = {}
    for metric, (kind, source) in LAYER_METRICS.items():
        if kind == "s":
            total = selfs.get(source, 0.0)
        elif kind == "calls":
            total = tracer.calls.get(source, 0)
        else:
            total = tracer.counters.get(source, 0)
        out[metric] = total / passes
    reps_for = tracer.calls.get("gcwa.reps_for", 0)
    out["gcwa.reps_cache_hit_ratio"] = (
        1 - tracer.calls.get("minrep.all_block_reps", 0) / reps_for if reps_for else 0.0
    )
    return out
