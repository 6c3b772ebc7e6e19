"""The worst-case-optimal join: leapfrog triejoin as steps of the compiled pipeline.

Binary join plans are provably suboptimal on cyclic join graphs
(triangles, k-cliques blow up the best binary order to Θ(N²) on skewed
data — "Skew Strikes Back", Ngo/Ré/Rudra 2013).  The lowering pass
detects cyclicity with a GYO ear-removal reduction (:func:`assessment`)
and gives those BGPs a :class:`~repro.sparql.operators.LeapfrogJoin`
(:func:`lower_join`): the leapfrog triejoin of Veldhuizen over the
encoded store's sorted id runs, which enumerates one global variable
order and intersects, per variable, the sorted candidate runs of every
pattern containing it (:func:`intersect`).  Acyclic BGPs keep the binary
pipeline.

It is not an executor of its own: :func:`compile_levels` turns the
operator into steps of the step compiler (:mod:`repro.sparql.idexec`),
one per variable level, over the same register file, counters, FILTER
kernels and result boundary as every binary step.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import Term, Variable
from repro.sparql.algebra import TriplePatternNode
from repro.sparql.expressions import Expression
from repro.sparql.kernels import GRAPH, TIMED, Registers, Step, Test, compile_conditions
from repro.sparql.operators import LeapfrogJoin, Scan
from repro.sparql.ordering import is_cyclic
from repro.sparql.plan import BGPPlan, attach_conditions
from repro.store.dictionary import TermDictionary

# ----------------------------------------------------------------------
# lowering: eligibility, variable order, level conditions
# ----------------------------------------------------------------------
#: The sorted-run surface the join needs from a store, by the run it is
#: for: (position of the level variable, whether the pattern's other end
#: is known) -> (accessor, positions of its arguments).
_RUNS = {
    (0, False): ("sorted_subjects_for_predicate", (1,)),
    (0, True): ("sorted_subjects_for_predicate_object", (1, 2)),
    (2, False): ("sorted_objects_for_predicate", (1,)),
    (2, True): ("sorted_objects_for_subject_predicate", (0, 1)),
}


def assessment(plan: BGPPlan) -> Tuple[bool, Optional[str]]:
    """Can (and should) this plan run as a leapfrog triejoin — and if a
    *cyclic* plan can't, why not?

    Eligibility requires at least three pure triple
    patterns with constant predicates and no repeated variable inside
    one pattern, and — the actual trigger — a cyclic join
    hypergraph, where every binary join order is worst-case suboptimal.
    Acyclic plans stay on the binary pipeline, which GYO-reduces to the
    optimal shape anyway, so rejecting them is not a fallback and yields
    no reason.  For a cyclic plan a structural rejection *is* a genuine
    WCOJ fallback (the binary pipeline may be worst-case suboptimal
    there), so the second element names the first blocking reason.
    """
    if len(plan.steps) < 3:
        return False, None
    reason: Optional[str] = None
    edges = []
    for step in plan.steps:
        node = step.node
        if not isinstance(node, TriplePatternNode):
            reason = reason or "property-path pattern in BGP"
        else:
            triple = node.triple
            if isinstance(triple.predicate, Variable):
                reason = reason or "variable predicate"
            elif (
                isinstance(triple.subject, Variable)
                and isinstance(triple.object, Variable)
                and triple.subject == triple.object
            ):
                reason = reason or "repeated variable within one pattern"
        variables = node.variables()
        if variables:
            edges.append(frozenset(variables))
    if not is_cyclic(edges):
        return False, None
    return (True, None) if reason is None else (False, reason)


def _variable_order(plan: BGPPlan, graph) -> Tuple[Variable, ...]:
    """Global variable order: smallest candidate run first, stay connected.

    A variable's root-level candidate run is exact (the projection of a
    predicate's extension onto that position), so its size comes straight
    from the store statistics.  Connectivity preference mirrors the
    binary planner's Cartesian-product avoidance.
    """
    sizes: Dict[Variable, float] = {}
    adjacency: Dict[Variable, Set[Variable]] = {}
    for step in plan.steps:
        triple = step.node.triple
        subject, predicate, obj = triple.subject, triple.predicate, triple.object
        if isinstance(subject, Variable):
            size = (
                float(graph.distinct_subjects(predicate))
                if isinstance(obj, Variable)
                else float(graph.pattern_cardinality(None, predicate, obj))
            )
            sizes[subject] = min(sizes.get(subject, float("inf")), size)
            adjacency.setdefault(subject, set())
        if isinstance(obj, Variable):
            size = (
                float(graph.distinct_objects(predicate))
                if isinstance(subject, Variable)
                else float(graph.pattern_cardinality(subject, predicate, None))
            )
            sizes[obj] = min(sizes.get(obj, float("inf")), size)
            adjacency.setdefault(obj, set())
        if isinstance(subject, Variable) and isinstance(obj, Variable):
            adjacency[subject].add(obj)
            adjacency[obj].add(subject)
    order: List[Variable] = []
    chosen: Set[Variable] = set()
    while len(order) < len(sizes):
        candidates = [
            variable
            for variable in sizes
            if variable not in chosen
            and (not order or adjacency[variable] & chosen)
        ]
        if not candidates:
            candidates = [v for v in sizes if v not in chosen]
        best = min(candidates, key=lambda v: (sizes[v], v.name))
        order.append(best)
        chosen.add(best)
    return tuple(order)


def lower_join(plan: BGPPlan, graph, conditions: Sequence[Expression]) -> LeapfrogJoin:
    """The leapfrog operator of an eligible ``plan`` (:func:`assessment`)
    under the FILTER conjuncts ``conditions`` (those with variables)."""
    var_order = _variable_order(plan, graph)
    scans = tuple(Scan(step.node, step.estimate, step.source_index) for step in plan.steps)
    # Slot 0 is for conjuncts without variables, which the caller keeps.
    levels = attach_conditions([{variable} for variable in var_order], conditions)[1:]
    return LeapfrogJoin(scans, var_order, levels)


# ----------------------------------------------------------------------
# execution: the levels as steps of the compiled pipeline
# ----------------------------------------------------------------------
def compile_levels(
    join: LeapfrogJoin,
    allocate: Callable[..., int],
    constant_register: Callable[[int, Term], int],
    register_of: Dict[Variable, int],
    bound: Set[Variable],
    dictionary: TermDictionary,
    counters: List[Tuple[object, int, int]],
) -> List[Callable[[Step], Step]]:
    """The step makers of ``join``'s variable levels, outermost first.
    The arguments are the step compiler's own state
    (:func:`repro.sparql.idexec._compile`), used and extended as every
    other input does: a pattern constant's register may be filled only
    at run start.  The inputs compiled before the levels are the patterns
    without variables, so no level variable is bound on entry.

    Every level's candidate runs are *exact* projections of the
    participating patterns onto the level variable (given the bindings
    above it), so each total assignment is enumerated at most once —
    multiset-identical to the binary pipeline on pure-triple BGPs, where
    every pattern admits multiplicity one per assignment.  Which run a
    pattern contributes (:data:`_RUNS`) is fixed here: its other end is
    known when it is a constant or the variable of an earlier level.
    """
    var_order = join.var_order
    level_of = {variable: level for level, variable in enumerate(var_order)}
    for variable in var_order:
        register_of[variable] = allocate()
    #: Per level, its runs: (accessor, argument registers, the scan's rows
    #: and probes registers, its stats).
    runs: List[List[Tuple]] = [[] for _ in var_order]
    makers: List[Callable[[Step], Step]] = []
    for scan in join.scans:
        if not scan.node.variables():
            continue  # constrains no level: a membership probe, the step compiler's own
        triple = tuple(scan.node.triple)
        reads = [
            register_of[part] if isinstance(part, Variable) else constant_register(position, part)
            for position, part in enumerate(triple)
        ]
        rows, probes = allocate(0), allocate(0)
        counters.append((scan.stats, rows, probes))
        for position, other in ((0, 2), (2, 0)):
            if isinstance(triple[position], Variable):
                level, end = level_of[triple[position]], triple[other]
                known = not isinstance(end, Variable) or level_of[end] < level
                fetch, keys = _RUNS[position, known]
                arguments = tuple(reads[key] for key in keys)
                runs[level].append((fetch, arguments, rows, probes, scan.stats))
    for variable, level_runs, slot in zip(var_order, runs, join.level_conditions):
        bound.add(variable)
        makers.append(
            partial(
                _level_step,
                target=register_of[variable],
                runs=tuple(level_runs),
                test=compile_conditions(slot, dictionary, register_of, bound),
                stats=join.stats,
            )
        )
    return makers


def _candidate_runs(registers: Registers, runs: Sequence[Tuple]) -> List[Sequence[int]]:
    """The sorted runs one level intersects, given the bindings above it.

    ``rows`` counts the candidate ids each run contributes — the
    scan-level "rows produced" of the leapfrog pipeline, and the actual
    the per-probe cardinality estimates are compared against.  Under
    ``execute_rows(timed=True)`` building a run is its scan's self time.
    """
    graph = registers[GRAPH]
    timed = registers[TIMED] is not None
    arrays = []
    for fetch, keys, rows, probes, stats in runs:
        registers[probes] += 1
        if timed:
            started = perf_counter()
        run = getattr(graph, fetch)(*[registers[key] for key in keys])
        if timed:
            stats.seconds += perf_counter() - started
        registers[rows] += len(run)
        arrays.append(run)
    return arrays


def _level_step(
    next_step: Step, target: int, runs: Sequence[Tuple], test: Optional[Test], stats
) -> Step:
    """One variable level: ``target`` takes every id all the level's runs
    share, and each that ``test`` passes continues with ``next_step``."""

    def step(registers: Registers) -> Iterable:
        values = intersect(_candidate_runs(registers, runs))
        if registers[TIMED] is not None:
            # The galloping search is the join's own work; the run
            # construction above went to the scans that produced each array.
            values = registers[TIMED](values, stats)
        for value in values:
            registers[target] = value
            if test is None or test(registers):
                yield from next_step(registers)

    return step


def intersect(arrays: Sequence[Sequence[int]]) -> Iterator[int]:
    """Yield the sorted intersection of sorted int arrays (leapfrog search).

    Each iterator keeps a cursor; the largest value seen so far is sought
    in the next array with a galloping ``bisect_left`` from that cursor,
    so the cost is O(total seeks · log) and skew (one tiny array against
    a huge one) costs the tiny array's length, not the huge one's.
    """
    k = len(arrays)
    if k == 0:
        return
    if k == 1:
        yield from arrays[0]
        return
    for array in arrays:
        if not array:
            return
    positions = [0] * k
    value = arrays[0][0]
    matched = 1
    index = 1
    while True:
        array = arrays[index]
        position = bisect_left(array, value, positions[index])
        if position == len(array):
            return
        positions[index] = position
        current = array[position]
        if current == value:
            matched += 1
            if matched == k:
                yield value
                position += 1
                if position == len(array):
                    return
                positions[index] = position
                value = array[position]
                matched = 1
        else:
            value = current
            matched = 1
        index += 1
        if index == k:
            index = 0
