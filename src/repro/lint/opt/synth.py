"""Auto-combiner synthesis: recognize pure monoid folds in reduce().

A job with no combiner ships every map-output record through the
shuffle.  When its ``reduce()`` is *exactly* a fold of a commutative,
associative monoid over the raw values —

    emit(key, W(sum(v.value for v in values)))      # or min / max

— partial aggregation is sound at any batching, so the optimizer can
synthesize the equivalent combiner itself.  The template is matched
structurally, not heuristically:

* the method is undecorated and its body is that single emit statement
  (docstring aside), re-emitting the group key unchanged;
* the aggregate is an unshadowed builtin ``sum``/``min``/``max`` over a
  one-generator, no-condition comprehension whose element is the bare
  ``v.value``;
* the wrapper ``W`` resolves to the job's declared map-output value
  class — a combiner re-wraps each partial fold in that class, so a
  reducer that widens (``LongWritable`` over ``IntWritable`` values)
  would overflow map-side where the unoptimized job does not;
* that class is an exact integer writable (``IntWritable``/
  ``LongWritable``/``VIntWritable``) — float folds are rejected because
  re-association changes bits, and byte-identity with the unoptimized
  run is the contract.

The count idiom ``sum(1 for _ in values)`` is *rejected by name*: a
combiner would collapse the records the reducer is counting.

The synthesized combiner is a module-level class driven by a picklable
frozen-dataclass factory, so it survives any backend boundary and the
existing :class:`CombinerAlgebraRule` can re-verify it like any
user-written combiner — which is how the freqbuf gate unlocks.

The same matcher (:func:`match_fold`) proves user-written combiners:
:func:`proven_combine_fold` runs it over a combiner's own ``combine()``
so the engine can fold raw value bytes without running user code
(:class:`~repro.engine.combiner.CombinerRunner`).
"""

from __future__ import annotations

import ast
import builtins
import functools
import inspect
import textwrap
import types
from collections import ChainMap
from dataclasses import dataclass
from typing import Any, Mapping

from ... import introspect
from ...engine.api import Combiner
from ...serde.numeric import IntWritable, LongWritable, VIntWritable
from ..rules.base import method_params
from ..source import positional_params
from ..target import JobTarget
from .plan import ACTION_ADVISED, ACTION_REJECTED, ACTION_SKIPPED, OPT_SYNTH, PlanDecision

#: Monoid folds over ints that are exact at any re-association.
_FOLD_AGGS = {"sum": builtins.sum, "min": builtins.min, "max": builtins.max}

#: Value classes whose ``.value`` round-trips Python ints exactly.
_EXACT_VALUE_CLASSES = (IntWritable, LongWritable, VIntWritable)


class SynthesizedFoldCombiner(Combiner):
    """A combiner the static optimizer wrote: one monoid fold per group.

    Key passes through untouched, the partial aggregate is re-wrapped
    in the job's declared map-output value class, and no state is
    carried across groups — by construction it satisfies every check in
    :class:`CombinerAlgebraRule`.
    """

    def __init__(self, writable_cls: type, agg) -> None:
        self._writable = writable_cls
        self._agg = agg

    def combine(self, key, values, emit) -> None:
        emit(key, self._writable(self._agg(v.value for v in values)))


@dataclass(frozen=True)
class FoldCombinerFactory:
    """Picklable factory for a :class:`SynthesizedFoldCombiner`."""

    writable_cls: type
    agg_name: str

    def __call__(self) -> SynthesizedFoldCombiner:
        return SynthesizedFoldCombiner(self.writable_cls, _FOLD_AGGS[self.agg_name])

    def describe(self) -> str:
        return f"synthesized {self.agg_name}-fold combiner over {self.writable_cls.__name__}"


def _strip_docstring(body: list) -> list:
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[1:]
    return body


#: Stand-in for a name that does not resolve to one known object.
_UNRESOLVED = object()


def _resolve(node: ast.AST, namespace: Mapping[str, Any], local: set[str]) -> Any:
    """The object a ``Name`` or ``module.attr`` expression denotes in
    *namespace* (builtins last), or :data:`_UNRESOLVED`."""
    if isinstance(node, ast.Name):
        if node.id in local:
            return _UNRESOLVED
        return namespace.get(node.id, getattr(builtins, node.id, _UNRESOLVED))
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, namespace, local)
        if isinstance(base, types.ModuleType):
            return getattr(base, node.attr, _UNRESOLVED)
    return _UNRESOLVED


def _param_names(func: ast.FunctionDef) -> set[str]:
    args = func.args
    names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(arg.arg for arg in (args.vararg, args.kwarg) if arg is not None)
    return names


def match_fold(
    func: ast.FunctionDef, namespace: Mapping[str, Any], value_cls: Any
) -> tuple[str | None, str, ast.AST]:
    """Match ``emit(key, W(agg(v.value for v in values)))``.

    *func* is a ``reduce()``/``combine()`` definition, *namespace* what
    its free names resolve in, *value_cls* the job's map-output value
    class.  Returns ``(agg name, "", func)`` on a proof, else
    ``(None, reason, anchor node)``.
    """
    method = func.name
    key_name, values_name, emit_name = method_params(func)
    local = _param_names(func)

    def rejected(reason: str, node: ast.AST) -> tuple[None, str, ast.AST]:
        return None, reason, node

    if func.decorator_list:
        return rejected(
            f"{method}() is decorated; the decorator may change what runs",
            func.decorator_list[0],
        )
    body = _strip_docstring(func.body)
    if len(body) != 1 or not isinstance(body[0], ast.Expr):
        anchor = body[1] if len(body) > 1 else func
        return rejected(
            f"{method}() is not a single emit statement; fold shape unprovable", anchor
        )
    call = body[0].value
    if not (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == emit_name
        and len(call.args) == 2
        and not call.keywords
    ):
        return rejected(f"{method}() body is not an emit(key, value) call", body[0])
    key_arg, value_arg = call.args
    if not (isinstance(key_arg, ast.Name) and key_arg.id == key_name):
        return rejected("emit rewrites the group key; a combiner must preserve it", key_arg)
    if not (
        isinstance(value_arg, ast.Call)
        and len(value_arg.args) == 1
        and not value_arg.keywords
    ):
        return rejected("emitted value is not a wrapped aggregate W(agg(...))", value_arg)
    agg_call = value_arg.args[0]
    if not (
        isinstance(agg_call, ast.Call)
        and isinstance(agg_call.func, ast.Name)
        and len(agg_call.args) == 1
        and not agg_call.keywords
    ):
        return rejected("wrapped value is not a builtin aggregate call", agg_call)
    agg_name = agg_call.func.id
    if agg_name not in _FOLD_AGGS:
        return rejected(
            f"{agg_name}() is not a recognized monoid fold "
            f"({'/'.join(sorted(_FOLD_AGGS))})",
            agg_call,
        )
    if _resolve(agg_call.func, namespace, local) is not _FOLD_AGGS[agg_name]:
        return rejected(
            f"{agg_name!r} is shadowed where {method}() is defined; not the builtin",
            agg_call,
        )
    gen = agg_call.args[0]
    if not (
        isinstance(gen, ast.GeneratorExp)
        and len(gen.generators) == 1
        and not gen.generators[0].ifs
        and not gen.generators[0].is_async
    ):
        return rejected("aggregate is not a plain one-generator comprehension", agg_call)
    comp = gen.generators[0]
    if not (isinstance(comp.iter, ast.Name) and comp.iter.id == values_name):
        return rejected(f"fold does not iterate the {values_name} parameter", comp.iter)
    if not isinstance(comp.target, ast.Name):
        return rejected("fold destructures its element", comp.target)
    elt = gen.elt
    if isinstance(elt, ast.Constant):
        return rejected(
            f"{method}() counts records ({agg_name}({elt.value!r} for ...)); a "
            "combiner would collapse the very records being counted",
            elt,
        )
    if not (
        isinstance(elt, ast.Attribute)
        and elt.attr == "value"
        and isinstance(elt.value, ast.Name)
        and elt.value.id == comp.target.id
    ):
        return rejected("generator element is not the raw value (v.value)", elt)

    if not (isinstance(value_cls, type) and issubclass(value_cls, _EXACT_VALUE_CLASSES)):
        return rejected(
            f"map-output value class {getattr(value_cls, '__name__', value_cls)!r} is "
            "not an exact integer writable; re-associating the fold could change "
            "bytes",
            func,
        )
    wrapper = _resolve(value_arg.func, namespace, local)
    if wrapper is not value_cls:
        shown = getattr(wrapper, "__name__", ast.unparse(value_arg.func))
        return rejected(
            f"{method}() wraps the fold in {shown}, not the map-output value class "
            f"{value_cls.__name__}; a combiner re-wraps every partial fold in "
            f"{value_cls.__name__}, which can overflow where {method}() does not",
            value_arg,
        )
    return agg_name, "", func


def detect_fold(target: JobTarget) -> tuple:
    """Returns ``(FoldCombinerFactory | None, PlanDecision)``."""
    job = target.job
    if job.combiner_factory is not None:
        return None, PlanDecision(OPT_SYNTH, ACTION_SKIPPED, "job already declares a combiner")
    reducer = target.reducer
    if not reducer.analyzable:
        return None, PlanDecision(OPT_SYNTH, ACTION_SKIPPED, "reducer source is not analyzable")
    source = reducer.source
    assert source is not None
    func = source.method("reduce")
    if func is None:
        return None, PlanDecision(
            OPT_SYNTH, ACTION_SKIPPED, "reducer inherits reduce(); fold shape not visible here"
        )

    cls = job.map_output_value_cls
    agg_name, reason, node = match_fold(func, source.namespace, cls)
    if agg_name is None:
        return None, PlanDecision(
            OPT_SYNTH,
            ACTION_REJECTED,
            reason,
            file=source.file,
            line=getattr(node, "lineno", 0),
        )
    factory = FoldCombinerFactory(writable_cls=cls, agg_name=agg_name)
    return factory, PlanDecision(
        OPT_SYNTH,
        ACTION_ADVISED,
        f"reduce() is a pure {agg_name} fold over exact ints; an equivalent "
        "combiner can aggregate map-side",
        file=source.file,
        line=func.lineno,
        detail=factory.describe(),
    )


def proven_combine_fold(combiner: Combiner, value_cls: type) -> str | None:
    """The fold (``"sum"``/``"min"``/``"max"``) *combiner* provably
    computes over *value_cls* values, or ``None``.

    A :class:`SynthesizedFoldCombiner` is recognized by type.  Any other
    combiner is proven from its class's *own* ``combine()`` — unwrapped
    through ``functools.wraps`` wrappers, rejected when decorated,
    inherited, or overridden on the instance — with :func:`match_fold`.
    """
    if "combine" in getattr(combiner, "__dict__", ()):
        return None
    if type(combiner) is SynthesizedFoldCombiner:
        if combiner._writable is not value_cls or not issubclass(
            value_cls, _EXACT_VALUE_CLASSES
        ):
            return None
        return next((n for n, agg in _FOLD_AGGS.items() if agg is combiner._agg), None)
    own = vars(type(combiner)).get("combine")
    if own is None:
        return None
    return _function_fold(inspect.unwrap(own), value_cls)


@functools.lru_cache(maxsize=256)
def _function_fold(func: Any, value_cls: type) -> str | None:
    """:func:`match_fold` over one function's own source, with its free
    names resolved where the function resolves them."""
    if not isinstance(func, types.FunctionType):
        return None
    try:
        tree = introspect.parse(textwrap.dedent(introspect.getsource(func)))
    except (OSError, TypeError, SyntaxError):
        return None
    node = tree.body[0] if tree.body else None
    if not isinstance(node, ast.FunctionDef) or len(positional_params(node)) != 4:
        return None
    closure: dict[str, Any] = {}
    for name, cell in zip(func.__code__.co_freevars, func.__closure__ or ()):
        try:
            closure[name] = cell.cell_contents
        except ValueError:  # empty cell: the name resolves to nothing yet
            closure[name] = _UNRESOLVED
    agg_name, _, _ = match_fold(node, ChainMap(closure, func.__globals__), value_cls)
    return agg_name
