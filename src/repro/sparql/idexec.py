"""The one executor: a physical plan compiled once over the encoded store, and run.

The physical layer hands every plan to :func:`run`, which compiles it —
once per plan and per domain of the initial binding, kept with the plan
across store versions for as long as the graph's term dictionary is the
one it was compiled against — into a chain
of step closures over one per-execution *register file*
(:mod:`repro.sparql.kernels`).  A register holds a term's integer id on
the dictionary-encoded store (:mod:`repro.store.encoded`); terms exist
only where a FILTER conjunct falls back to them and at the result
boundary.

* **Registers.**  The header, then per-operator row/probe counters, one
  pre-filled register per pattern constant (``UNRESOLVED`` while the
  dictionary has no id for it: :func:`run` looks again at the start of
  every execution and has no rows while one is left), one register per variable,
  one per hash table and, for a DISTINCT plan, one for the set of rows
  emitted so far.  Everything a step touches is addressed by an index
  fixed at compile time; the file is copied from a template per
  execution, so a cached plan is re-entrant and every execution publishes
  its own counters to the plan's
  :class:`~repro.sparql.operators.OperatorStats` when its stream ends or
  is closed.

* **Steps.**  Decided at compile time per step (:func:`pattern_layout`):
  the three registers the index probe reads (a constant, a bound
  variable, or the always-``None`` register of a free position), the
  registers a match writes, whether repeated-variable checks are needed
  at all, the conjuncts that run after it, and — for path steps — which
  endpoints are bound.  What is left per row is a register write, a
  counter increment and the next step.
  :class:`~repro.sparql.operators.HashProbe` steps build their pattern's
  matches into a table keyed by the equality key once per execution and
  probe it per outer row, and a cyclic BGP's multiway join is one step
  per variable level (:func:`repro.sparql.leapfrog.compile_levels`).

* **A probe is a dict lookup.**  Which way a scan reads the store follows
  from the positions its probe leaves free (:func:`access_path`).  With
  at most one — most probes of a join: every step after the first is
  entered with a variable bound — the step asks the store for a verdict
  (S P O) or for the index *entry* of the two bound ids, and a miss, a
  hit or a single id *returns* the rows of the next step: no generator
  frame, no id tuple (:func:`_member_step`, :func:`_entry_step`).  Only
  an entry that is a set of ids fans out, in one frame (:func:`_fan_out`)
  — the frame every other step runs in too, fed by a stream of matches
  (:func:`_step`): two or three free positions, where the matches span
  entries and ``?x p ?x`` has to be checked per triple, a ``HashProbe``'s
  build scan, and a path.  Each shape has one implementation; under
  ``execute_rows(timed=True)`` a lookup goes through the framed form too, so
  per-scan times and counts need no step of their own.

* **Result boundary.**  Only the variables of the plan's ``Project`` are
  decoded, into a plain tuple in name order (:func:`row_header`): the
  executor builds no :class:`~repro.sparql.solutions.Binding`.  A
  ``Project`` that is ``distinct`` drops a row whose id tuple it has
  emitted before — first, so a dropped row costs a tuple and a set probe,
  no decode (:func:`emit_step`).

* **Cut.**  A DISTINCT plan's join may end in a
  :class:`~repro.sparql.operators.Factor` (:func:`repro.sparql.physical.lower_plan`
  places it where a variable dies): one step that drops a prefix row
  whose live id tuple it has seen, runs the suffix — the factor's inputs,
  compiled like any others, ending in :func:`_collect_step` — once per
  distinct key into a per-execution memo of the suffix's distinct id
  tuples, and pairs each new live tuple with its key's list under the
  conjuncts across the cut (:func:`_factor_step`).  The rows are those of
  the uncut plan with its duplicates dropped, in its order.

Property-path steps hand bound endpoint ids straight to the
:class:`~repro.sparql.idpaths.IdPathEngine`.  The live-view join
(:mod:`repro.ivm.delta`) uses the same register layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import Term, Variable
from repro.sparql import leapfrog
from repro.sparql.algebra import TriplePatternNode
from repro.sparql.idpaths import ABSENT, IdPathEngine
from repro.sparql.kernels import (
    FALLBACKS,
    FREE,
    GRAPH,
    HEADER,
    MATCH,
    MEMBER,
    OBJECTS,
    PREDICATES,
    RESULTS,
    SINK,
    SUBJECTS,
    TIMED,
    UNRESOLVED,
    Registers,
    Step,
    Test,
    compile_conditions,
    equality_key_of,
    resolve_constants,
)
from repro.sparql.operators import Factor, Filter, HashProbe, IndexNestedLoopJoin, Scan
from repro.sparql.paths import matches_zero_length, normalize_path
from repro.sparql.solutions import Binding
from repro.store.dictionary import TermDictionary


# ----------------------------------------------------------------------
# probe layout
# ----------------------------------------------------------------------
def pattern_layout(
    parts: Sequence,
    bound: Set[Variable],
    register_of: Dict[Variable, int],
    constant_register: Callable[[int, Term], int],
) -> Tuple[List[int], List[Tuple[int, int]], List[Tuple[int, int]]]:
    """``(reads, writes, repeats)`` of one pattern probed with ``bound`` bound.

    ``reads`` is the register each position is read from: a constant's
    (``constant_register(position, term)``: filled now or later, as the
    caller has it), its variable's when something earlier bound it, the
    always-``None`` one when this probe binds it.  ``writes`` pairs a
    register with the match position that fills it, ``repeats`` the
    positions of a variable occurring twice among the free ones
    (``?x p ?x``).
    """
    reads: List[int] = []
    writes: List[Tuple[int, int]] = []
    repeats: List[Tuple[int, int]] = []
    first_position: Dict[Variable, int] = {}
    for position, part in enumerate(parts):
        if not isinstance(part, Variable):
            reads.append(constant_register(position, part))
        elif part in bound:
            reads.append(register_of[part])
        else:
            reads.append(FREE)
            if part in first_position:
                repeats.append((position, first_position[part]))
            else:
                first_position[part] = position
                writes.append((register_of[part], position))
    return reads, writes, repeats


def probe_shape(parts: Sequence, bound: Set[Variable]) -> str:
    """A triple pattern probed with ``bound`` bound, as ``SPO`` with ``?``
    for every position the probe leaves free (``SP?``, ``?P?``, ...)."""
    return "".join(
        "?" if isinstance(part, Variable) and part not in bound else letter
        for letter, part in zip("SPO", parts)
    )


def access_path(shape: str) -> str:
    """How a scan of ``shape`` (:func:`probe_shape`) reads the store.

    A probe with at most one free position is a dict lookup: ``"member"``
    (S P O: one verdict) or ``"entry"`` (the index entry itself: no id,
    one, or the set) — see :func:`_member_step` / :func:`_entry_step`.
    Everything else is ``"match"``, a stream of id triples
    (:func:`_scan_rows`): two or three free positions, where the matches
    span index entries and a repeated variable (``?x p ?x``) must be
    checked per triple.  The one decision, for the compiler and for what
    ``explain`` prints.
    """
    free = shape.count("?")
    if free > 1:
        return "match"
    return "entry" if free else "member"


#: shape -> (accessor register, the two positions it is keyed on, the one it binds).
_ENTRY_PROBES = {
    "SP?": (OBJECTS, 0, 1, 2),
    "?PO": (SUBJECTS, 1, 2, 0),
    "S?O": (PREDICATES, 0, 2, 1),
}


# ----------------------------------------------------------------------
# the compiled pipeline
# ----------------------------------------------------------------------
@dataclass(slots=True, eq=False)
class CompiledPipeline:
    """One plan compiled for one domain of the initial binding.

    Valid for every version of every graph over ``dictionary``: ids are
    resolved through it, and it only grows."""

    dictionary: TermDictionary
    template: Registers = field(default_factory=lambda: list(HEADER))
    #: Entry step.
    first: Optional[Step] = None
    #: ``(register, term)`` of the pattern constants the dictionary had no
    #: id for when last looked at: their registers hold ``UNRESOLVED``,
    #: and while one is left an execution has no rows.
    unresolved: List[Tuple[int, Term]] = field(default_factory=list)
    #: ``(variable, register)`` of the initial binding's domain.
    initial: Tuple[Tuple[Variable, int], ...] = ()
    #: ``(operator stats, rows register, probes register)`` to publish.
    counters: List[Tuple[object, int, int]] = field(default_factory=list)
    #: ``(operator stats, attribute, register)`` of the other counts to
    #: publish (a :class:`~repro.sparql.operators.Factor`'s runs and hits).
    tallies: List[Tuple[object, str, int]] = field(default_factory=list)
    #: ``(register, container type)`` of what every execution starts empty:
    #: a DISTINCT plan's emitted rows, a cut's live tuples and memo.
    fresh: List[Tuple[int, type]] = field(default_factory=list)


def run(
    plan,
    graph,
    initial: Binding,
    timed_iter: Optional[Callable],
    term_fallbacks,
) -> Iterable[tuple]:
    """Execute ``plan`` on the encoded store ``graph``, streaming rows:
    tuples of terms aligned with :func:`row_header` of ``plan`` and ``initial``.

    ``timed_iter`` is the physical layer's self-time wrapper under
    ``execute_rows(timed=True)``; ``term_fallbacks`` an optional counter
    (``inc(n)``) of conjunct evaluations that ran on decoded terms.
    """
    dictionary = graph.dictionary
    domain = tuple(initial)
    form = (domain, plan.root.distinct)
    compiled = plan._compiled.get(form)
    if compiled is None or compiled.dictionary is not dictionary:
        compiled = plan._compiled[form] = _compile(plan, graph, set(domain))
    if compiled.unresolved:
        # A constant interned since fills its register for good; one still
        # unknown is in no triple, so this execution has no rows.
        compiled.unresolved = resolve_constants(
            compiled.template, compiled.unresolved, dictionary
        )
        if compiled.unresolved:
            return iter(())
    registers = compiled.template.copy()
    registers[MATCH] = graph.match_triple_ids
    registers[MEMBER] = graph.contains_ids
    registers[OBJECTS] = graph.object_entry_ids
    registers[SUBJECTS] = graph.subject_entry_ids
    registers[PREDICATES] = graph.predicate_entry_ids
    registers[TIMED] = timed_iter
    registers[GRAPH] = graph
    # encode (not id_for): an initial term outside the graph gets a fresh
    # id that simply never matches a probe.
    for variable, register in compiled.initial:
        registers[register] = dictionary.encode(initial[variable])
    for register, container in compiled.fresh:
        registers[register] = container()
    return _stream(compiled, registers, term_fallbacks)


def _stream(compiled: CompiledPipeline, registers: Registers, term_fallbacks) -> Iterable[tuple]:
    try:
        yield from compiled.first(registers)
    finally:
        # Runs after every step's own ``finally`` has flushed its batched
        # counts into the registers — on exhaustion and on ``close()``:
        # each operator takes its counts, the ``term_fallbacks`` counter
        # the conjunct evaluations that ran on decoded terms.
        for stats, rows, probes in compiled.counters:
            stats.rows = registers[rows]
            stats.probes = registers[probes]
        for stats, name, register in compiled.tallies:
            setattr(stats, name, registers[register])
        if term_fallbacks is not None and registers[FALLBACKS]:
            term_fallbacks.inc(registers[FALLBACKS])


def _compile(plan, graph, domain: Set[Variable]):
    """Compile ``plan`` for executions whose initial binding has ``domain``."""
    dictionary = graph.dictionary
    compiled = CompiledPipeline(dictionary)
    template = compiled.template

    def allocate(value: object = None) -> int:
        template.append(value)
        return len(template) - 1

    def prefilled(id_of: Callable[[Term], Optional[int]]):
        def constant_register(_position: int, term: Term) -> int:
            term_id = id_of(term)
            if term_id is not None:
                return allocate(term_id)
            # Not in the dictionary, so in no triple — yet: resolved by run().
            register = allocate(UNRESOLVED)
            compiled.unresolved.append((register, term))
            return register

        return constant_register

    scan_constant = prefilled(dictionary.id_for)
    zero = allocate(0)
    register_of: Dict[Variable, int] = {}
    bound: Set[Variable] = set()
    for variable in sorted(domain, key=lambda v: v.name):
        register_of[variable] = allocate()
        bound.add(variable)
    compiled.initial = tuple(register_of.items())

    root = plan.root
    join = root.child
    makers: List[Callable[[Step], Step]] = []
    if isinstance(join, Filter):
        # Conjuncts without variables: one verdict per execution.
        gate_rows, gate_probes = allocate(0), allocate(0)
        compiled.counters.append((join.stats, gate_rows, gate_probes))
        test = compile_conditions(join.conditions, dictionary, register_of, bound)
        makers.append(partial(_gate_step, test=test, rows=gate_rows, probes=gate_probes))
        join = join.child
    compiled.counters.append((root.stats, RESULTS, zero))
    #: Where the rows that reach the result boundary are counted: by the
    #: last step, or — a join without inputs — by the boundary itself.
    joined = RESULTS

    multiway = not isinstance(join, IndexNestedLoopJoin)
    inputs = join.children()
    if multiway:
        # A cyclic BGP's join: a pattern without variables is a membership probe
        # like any other input; the variable levels follow as steps of their own.
        inputs = [scan for scan in inputs if not scan.node.variables()]

    def compile_input(input_op) -> Tuple[Callable[[Step], Step], int]:
        """The step maker of one join input, and the register counting the
        rows it passes on."""
        leaf, conditions, filter_stats = input_op, (), None
        if isinstance(leaf, Filter):
            leaf, conditions, filter_stats = leaf.child, leaf.conditions, leaf.stats
        make = compile_factor(leaf) if isinstance(leaf, Factor) else compile_leaf(leaf)
        rows, probes = allocate(0), allocate(0)
        compiled.counters.append((leaf.stats, rows, probes))
        passed = None
        if filter_stats is not None:
            passed = allocate(0)
            # A filter tests every row its input produced.
            compiled.counters.append((filter_stats, passed, rows))
        maker = partial(
            make,
            test=compile_conditions(conditions, dictionary, register_of, bound),
            rows=rows,
            probes=probes,
            passed=passed,
            stats=leaf.stats,
        )
        return maker, rows if passed is None else passed

    def compile_leaf(leaf) -> Callable[..., Step]:
        node = leaf.node
        parts = (
            tuple(node.triple)
            if isinstance(node, TriplePatternNode)
            else (node.subject, node.object)
        )
        before = set(bound)
        for variable in dict.fromkeys(parts):
            if isinstance(variable, Variable) and variable not in bound:
                register_of[variable] = allocate()
                bound.add(variable)
        if isinstance(leaf, (Scan, HashProbe)):
            layout = pattern_layout(parts, before, register_of, scan_constant)
            reads = layout[0]
            shape = probe_shape(parts, before)
            # A HashProbe's build scan shares no variable with the rows above it.
            access = access_path(shape) if isinstance(leaf, Scan) else "match"
            if access == "member":
                return partial(_member_step, reads=reads)
            if access == "entry":
                fetch, first, second, written = _ENTRY_PROBES[shape]
                return partial(
                    _entry_step,
                    fetch=fetch,
                    first=reads[first],
                    second=reads[second],
                    target=register_of[parts[written]],
                )
            bind = _scan_rows(*layout)
            if isinstance(leaf, HashProbe):
                bind = _hash_probe_rows(
                    bind,
                    key_register=register_of[leaf.probe],
                    build_register=register_of[leaf.build],
                    written=tuple(target for target, _ in layout[1]),
                    table=allocate(),
                    dictionary=dictionary,
                )
            return partial(_step, bind=bind)
        engine = IdPathEngine(graph)
        path = normalize_path(node.path)

        def endpoint_id(part):
            # The engine's unknown-constant rule: an unseen constant
            # can only match zero-length; where the path cannot, it
            # empties the whole BGP until it is interned.
            term_id = engine.endpoint_id(part, path)
            return None if term_id is ABSENT else term_id

        layout = pattern_layout(parts, before, register_of, prefilled(endpoint_id))
        bind = _id_path_rows(
            path,
            layout[0],
            targets=[register_of.get(part) for part in parts],
            # A *substituted* variable endpoint only ranges over graph
            # nodes, so its zero-length self-match requires node
            # membership (constants stay syntactic).
            node_checks=tuple(register_of[part] for part in parts if part in before)
            if matches_zero_length(path)
            else (),
        )
        return partial(_step, bind=bind)

    def compile_factor(factor: Factor) -> Callable[..., Step]:
        live = [register_of[variable] for variable in factor.key + factor.keep]
        key = [register_of[variable] for variable in factor.key]
        suffix_makers = [compile_input(input_op)[0] for input_op in factor.inputs]
        memo = [register_of[variable] for variable in factor.memo]
        bucket = allocate()
        suffix = _collect_step(memo, bucket)
        for make in reversed(suffix_makers):
            suffix = make(suffix)
        runs, hits = allocate(0), allocate(0)
        compiled.tallies += [(factor.stats, "runs", runs), (factor.stats, "hits", hits)]
        seen, known = allocate(), allocate()
        compiled.fresh += [(seen, set), (known, dict)]
        return partial(
            _factor_step,
            suffix=suffix,
            live_of=itemgetter(*live),
            key_of=itemgetter(*key or [FREE]),
            memo=memo,
            bucket=bucket,
            seen=seen,
            known=known,
            runs=runs,
            hits=hits,
        )

    for input_op in inputs:
        maker, joined = compile_input(input_op)
        makers.append(maker)

    if multiway:
        makers += leapfrog.compile_levels(
            join, allocate, scan_constant, register_of, bound, dictionary, compiled.counters
        )
        joined = allocate(0)
        makers.append(partial(_count_step, rows=joined))
    compiled.counters.append((join.stats, joined, zero))
    emitted = None
    if root.distinct:
        emitted = allocate()
        compiled.fresh.append((emitted, set))
    step: Step = emit_step(
        tuple(register_of[variable] for variable in row_header(plan, domain)),
        dictionary.term,
        emitted,
    )
    for make in reversed(makers):
        step = make(step)
    compiled.first = step
    return compiled


# ----------------------------------------------------------------------
# steps
# ----------------------------------------------------------------------
_NO_COLUMNS = ((),)


def row_header(plan, domain: Iterable[Variable] = ()) -> Tuple[Variable, ...]:
    """The variables of each row :func:`run` emits, in tuple order: the
    plan's ``Project`` variables and the initial binding's ``domain``, by name."""
    return tuple(sorted(set(plan.root.variables).union(domain), key=lambda v: v.name))


def emit_step(
    columns: Tuple[int, ...], decode: Callable, emitted: Optional[int] = None
) -> Step:
    """The result boundary: decode the ``columns`` registers into one tuple.

    The step returns a one-row tuple rather than yielding, so the step
    above it pays no generator per result row.  ``emitted`` is the
    register of a DISTINCT plan's set of emitted rows
    (``Project.distinct``): a row whose id tuple is in it is dropped
    here, before a term is decoded, and does not count as a result; the
    first occurrence passes, so the rows keep the order ``distinct_rows``
    would have left them in.
    """
    if not columns:

        def emit(registers: Registers) -> Iterable[tuple]:
            registers[RESULTS] += 1
            return _NO_COLUMNS

    else:

        def emit(registers: Registers) -> Iterable[tuple]:
            registers[RESULTS] += 1
            return (tuple([decode(registers[register]) for register in columns]),)

    if emitted is None:
        return emit
    # The row's key: its id tuple — the id itself for a single variable, and
    # without variables the one value every row has, an always-``None`` register.
    key_of = itemgetter(*columns or [FREE])

    def emit_distinct(registers: Registers) -> Iterable[tuple]:
        key = key_of(registers)
        seen = registers[emitted]
        if key in seen:
            return ()
        seen.add(key)
        return emit(registers)

    return emit_distinct


def _gate_step(next_step: Step, test: Test, rows: int, probes: int) -> Step:
    def step(registers: Registers) -> Iterable[tuple]:
        registers[probes] += 1
        if not test(registers):
            return ()
        registers[rows] += 1
        return next_step(registers)

    return step


def _count_step(next_step: Step, rows: int) -> Step:
    def step(registers: Registers) -> Iterable[tuple]:
        registers[rows] += 1
        return next_step(registers)

    return step


def _fan_out(
    next_step: Step, target: int, test: Optional[Test], rows: int, passed: Optional[int]
) -> Callable[[Registers, Iterable], Iterable[tuple]]:
    """The framed half of every join step: for each of a probe's ``values``,
    written to ``target``, that ``test`` passes, the rows of ``next_step``.

    Row counts batch into locals and flush in the ``finally`` block: on
    the innermost loops a list increment per intermediate row is
    measurable, an ``int +=`` is not.  The flush also runs when a
    partially consumed stream is closed, so abandoned executions still
    report the rows they actually produced.
    """

    def fan_out(registers: Registers, values: Iterable) -> Iterable[tuple]:
        seen = kept = 0
        try:
            for value in values:
                registers[target] = value
                seen += 1
                if test is None or test(registers):
                    kept += 1
                    yield from next_step(registers)
        finally:
            registers[rows] += seen
            if passed is not None:
                registers[passed] += kept

    return fan_out


def _spread(
    next_step: Step,
    targets: Sequence[int],
    test: Optional[Test],
    rows: int,
    passed: Optional[int],
) -> Callable[[Registers, Iterable], Iterable[tuple]]:
    """:func:`_fan_out` for values that are id tuples, one id per register of
    ``targets``."""

    def fan_out(registers: Registers, values: Iterable) -> Iterable[tuple]:
        seen = kept = 0
        try:
            for value in values:
                for register, item in zip(targets, value):
                    registers[register] = item
                seen += 1
                if test is None or test(registers):
                    kept += 1
                    yield from next_step(registers)
        finally:
            registers[rows] += seen
            if passed is not None:
                registers[passed] += kept

    return fan_out


def _collect_step(memo: Sequence[int], bucket: int) -> Step:
    """The last step of a cut's suffix: the id tuple of the ``memo``
    registers joins the run's ordered set (``registers[bucket]``, a dict).

    A suffix with nothing to remember is an existence test: its first row
    comes back as a result, and the run stops there (:func:`_factor_step`).
    """
    if not memo:

        def exists(registers: Registers) -> Iterable[tuple]:
            return _NO_COLUMNS

        return exists
    memo_of = itemgetter(*memo)

    def collect(registers: Registers) -> Iterable[tuple]:
        registers[bucket][memo_of(registers)] = None
        return ()

    return collect


def _factor_step(
    next_step: Step,
    suffix: Step,
    live_of: Callable[[Registers], object],
    key_of: Callable[[Registers], object],
    memo: Sequence[int],
    bucket: int,
    seen: int,
    known: int,
    runs: int,
    hits: int,
    test: Optional[Test],
    rows: int,
    probes: int,
    passed: Optional[int],
    stats,
) -> Step:
    """A join-project cut (:class:`~repro.sparql.operators.Factor`).

    A prefix row whose live id tuple (``live_of``) this execution has seen
    is dropped: everything it could lead to is a duplicate of a row already
    emitted.  A new one looks up its key (``key_of``) in the execution's
    memo (``registers[known]``); on a miss the compiled ``suffix`` runs
    once, into the distinct id tuples of its ``memo`` registers in
    first-occurrence order.  The row is then paired with that list, and
    ``test`` — the conjuncts across the cut — runs on each pair.  The
    suffix reads no prefix register but the key's, so its rows are those
    every row of the key would have found: the pairs come out in the order
    of the uncut pipeline with its duplicates dropped.
    """
    if len(memo) == 1:
        fan_out = _fan_out(next_step, memo[0], test, rows, passed)
    else:
        fan_out = _spread(next_step, memo, test, rows, passed)

    def step(registers: Registers) -> Iterable[tuple]:
        registers[probes] += 1
        live = live_of(registers)
        emitted = registers[seen]
        if live in emitted:
            return ()
        emitted.add(live)
        key = key_of(registers)
        memos = registers[known]
        values = memos.get(key)
        if values is None:
            registers[runs] += 1
            if memo:
                registers[bucket] = found = {}
                for _ in suffix(registers):
                    pass
                values = tuple(found)
            else:
                values = _NO_COLUMNS if _exists(suffix(registers)) else ()
            memos[key] = values
        else:
            registers[hits] += 1
        return fan_out(registers, values)

    return step


def _exists(rows: Iterable) -> bool:
    """Whether ``rows`` has one; a stream is closed after it, so its steps
    flush what they counted."""
    iterator = iter(rows)
    try:
        return next(iterator, None) is not None
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


def _step(
    next_step: Step,
    bind: Callable[[Registers], Iterable],
    test: Optional[Test],
    rows: int,
    probes: int,
    passed: Optional[int],
    stats,
) -> Step:
    """The general join step: ``bind`` writes each of its rows into the
    registers itself and yields nothing worth keeping (:data:`SINK`)."""
    fan_out = _fan_out(next_step, SINK, test, rows, passed)

    def step(registers: Registers) -> Iterable[tuple]:
        registers[probes] += 1
        candidates = bind(registers)
        if registers[TIMED] is not None:
            candidates = registers[TIMED](candidates, stats)
        return fan_out(registers, candidates)

    return step


def _probed(fetch: Callable, *ids: int) -> Iterable:
    """What ``fetch(*ids)`` found, one value at a time, fetched on the
    first ``next()``: how ``execute_rows(timed=True)`` puts a dict-lookup probe
    under its scan's timer and through the framed half of its step."""
    entry = fetch(*ids)
    if type(entry) is set:
        yield from entry
    elif entry is not None and entry is not False:
        yield entry


def _member_step(
    next_step: Step,
    reads: Sequence[int],
    test: Optional[Test],
    rows: int,
    probes: int,
    passed: Optional[int],
    stats,
) -> Step:
    """An S P O probe: one verdict, nothing bound, and no frame —
    a hit *returns* the rows of ``next_step``, as :func:`_gate_step` does."""
    subject, predicate, obj = reads
    fan_out = _fan_out(next_step, SINK, test, rows, passed)

    def step(registers: Registers) -> Iterable[tuple]:
        registers[probes] += 1
        if registers[TIMED] is not None:
            found = _probed(
                registers[MEMBER], registers[subject], registers[predicate], registers[obj]
            )
            return fan_out(registers, registers[TIMED](found, stats))
        if not registers[MEMBER](registers[subject], registers[predicate], registers[obj]):
            return ()
        registers[rows] += 1
        if test is not None:
            if not test(registers):
                return ()
            registers[passed] += 1
        return next_step(registers)

    return step


def _entry_step(
    next_step: Step,
    fetch: int,
    first: int,
    second: int,
    target: int,
    test: Optional[Test],
    rows: int,
    probes: int,
    passed: Optional[int],
    stats,
) -> Step:
    """A probe with one free position: the store hands over the index
    entry of the two bound ids (``registers[fetch]``, one of its
    ``*_entry_ids`` lookups) and ``target`` takes what it holds.

    A miss returns no rows and a single id returns the rows of
    ``next_step``, both without a frame of this step's own; only an id set
    fans out, in one frame (:func:`_fan_out`).
    """
    fan_out = _fan_out(next_step, target, test, rows, passed)

    def step(registers: Registers) -> Iterable[tuple]:
        registers[probes] += 1
        if registers[TIMED] is not None:
            found = _probed(registers[fetch], registers[first], registers[second])
            return fan_out(registers, registers[TIMED](found, stats))
        entry = registers[fetch](registers[first], registers[second])
        if entry is None:
            return ()
        if type(entry) is set:
            return fan_out(registers, entry)
        registers[target] = entry
        registers[rows] += 1
        if test is not None:
            if not test(registers):
                return ()
            registers[passed] += 1
        return next_step(registers)

    return step


def _scan_rows(
    reads: Sequence[int],
    writes: Sequence[Tuple[int, int]],
    repeats: Sequence[Tuple[int, int]],
) -> Callable[[Registers], Iterable]:
    """One triple pattern: probe on the ``reads`` registers, bind the rest.

    ``writes`` pairs a register with the match position that fills it;
    ``repeats`` pairs the positions of a variable occurring twice among
    the free ones (``?x p ?x``).
    """
    subject, predicate, obj = reads

    def rows(registers: Registers) -> Iterable:
        for ids in registers[MATCH](registers[subject], registers[predicate], registers[obj]):
            for position, earlier in repeats:
                if ids[position] != ids[earlier]:
                    break
            else:
                for target, position in writes:
                    registers[target] = ids[position]
                yield

    return rows


def _hash_probe_rows(
    scan: Callable[[Registers], Iterable],
    key_register: int,
    build_register: int,
    written: Tuple[int, ...],
    table: int,
    dictionary: TermDictionary,
) -> Callable[[Registers], Iterable]:
    """An implicit equality join: build the pattern once, probe per outer row.

    The pattern shares no variable with the rows above it, so its matches
    (``scan``) are the same for every outer row of one execution; what
    each wrote goes into a table keyed by the equality key
    (:func:`repro.sparql.kernels.equality_key_of`) of the pattern-side variable, and an outer
    row looks up the key of its own.  Equal keys are exactly ``=``, so the
    pairs produced are those the cross product would have kept.
    """
    equality_key = equality_key_of(dictionary)

    def rows(registers: Registers) -> Iterable:
        built = registers[table]
        if built is None:
            built = registers[table] = {}
            for _ in scan(registers):
                built.setdefault(equality_key(registers[build_register]), []).append(
                    [registers[register] for register in written]
                )
        for values in built.get(equality_key(registers[key_register]), ()):
            for register, value in zip(written, values):
                registers[register] = value
            yield

    return rows


def _id_path_rows(
    path,
    reads: Sequence[int],
    targets: Sequence[Optional[int]],
    node_checks: Tuple[int, ...],
) -> Callable[[Registers], Iterable]:
    """A property path on the id engine: bound endpoint ids in, id pairs out.

    ``reads`` are the registers the two endpoints are read from (the
    always-``None`` one for a free end), ``targets`` the registers of the
    endpoint variables (``None`` for a constant), ``node_checks`` those
    that must hold a graph node for the path to match at all.
    """
    subject, obj = reads
    subject_target = targets[0] if subject == FREE else None
    object_target = targets[1] if obj == FREE else None
    # ?x path ?x with both ends free: one register, and only loops match.
    looped = subject_target is not None and subject_target == object_target

    def rows(registers: Registers) -> Iterable:
        engine = IdPathEngine(registers[GRAPH])
        for register in node_checks:
            if not engine.is_node(registers[register]):
                return
        for start, end in engine.pair_ids(path, registers[subject], registers[obj]):
            if looped and start != end:
                continue
            if subject_target is not None:
                registers[subject_target] = start
            if object_target is not None:
                registers[object_target] = end
            yield

    return rows
