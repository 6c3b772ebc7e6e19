"""Query translation T_Q: SPARQL algebra → Warded Datalog± rules.

The translator walks the algebra tree produced by the SPARQL parser and
emits, for every subpattern, the rules of Figure 5 / Appendix A of the
paper.  Every subpattern ``P_i`` is represented by an answer predicate
whose argument list is ``(Id?, var(P_i) sorted lexicographically, D)``
where ``Id`` is the Skolem tuple ID (bag semantics only) and ``D`` the
active graph.

Two practical refinements over the literal paper rules are applied — both
mirror what building on a real Datalog engine allows (Section 5.1):

* shared join variables are renamed apart and joined through the ``comp``
  predicate only when one of the operands may actually bind the variable
  to ``null`` (i.e. it contains an OPTIONAL or a UNION with unequal
  variable sets below it); otherwise a plain natural join is emitted,
* the zero-length property-path rules take the active graph into account
  (see :mod:`repro.core.path_translation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.data_translation import (
    NULL,
    PRED_NAMED,
    PRED_NULL,
    PRED_COMP,
    PRED_TRIPLE,
)
from repro.core.path_translation import PathTranslator
from repro.core.skolem import SET_ID, SkolemFunctionGenerator
from repro.datalog.rules import (
    AggregateRule,
    AggregateSpec,
    Assignment,
    Atom,
    FilterCondition,
    Negation,
    Program,
    Rule,
)
from repro.datalog.terms import Const, Term as DatalogTerm, Var
from repro.rdf.terms import IRI, Literal, Term as RdfTerm, Variable, XSD_BOOLEAN
from repro.sparql.algebra import (
    AskQuery,
    BGP,
    Bind,
    EmptyPattern,
    Filter,
    GraphGraphPattern,
    GraphPatternNode,
    Join,
    LeftJoin,
    Minus,
    PathPattern,
    Query,
    SelectQuery,
    TriplePatternNode,
    Union as UnionNode,
    ValuesPattern,
)
from repro.sparql.expressions import Aggregate, Expression, VariableExpr

TRUE = Const(Literal("true", XSD_BOOLEAN))
FALSE = Const(Literal("false", XSD_BOOLEAN))


class UnsupportedFeatureError(NotImplementedError):
    """Raised when a query uses a SPARQL feature SparqLog does not cover."""


@dataclass
class PatternInfo:
    """Metadata about the answer predicate of one translated subpattern."""

    predicate: str
    variables: Tuple[Variable, ...]  # lexicographically sorted
    nullable: Set[Variable] = field(default_factory=set)


@dataclass
class TranslationResult:
    """The outcome of translating one SPARQL query."""

    program: Program
    answer_predicate: str
    answer_variables: Tuple[Variable, ...]
    has_id_column: bool
    has_graph_column: bool
    query: Query
    form: str  # "SELECT" or "ASK"


def datalog_variable(variable: Variable, prefix: str = "V") -> Var:
    """Map a SPARQL variable to its Datalog counterpart."""
    return Var(f"{prefix}_{variable.name}")


def term_to_datalog(term: Union[RdfTerm, Variable], prefix: str = "V") -> DatalogTerm:
    """Map a SPARQL term-or-variable to a Datalog term."""
    if isinstance(term, Variable):
        return datalog_variable(term, prefix)
    return Const(term)


class QueryTranslator:
    """Translate parsed SPARQL queries into Datalog± programs."""

    def __init__(self) -> None:
        self._skolem = SkolemFunctionGenerator()
        self._counter = 0
        self._path_translator = PathTranslator(self._skolem, self._fresh_predicate)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def translate(self, query: Query) -> TranslationResult:
        """Translate a SELECT or ASK query into a Datalog± program."""
        if isinstance(query, SelectQuery):
            return self._translate_select(query)
        if isinstance(query, AskQuery):
            return self._translate_ask(query)
        raise UnsupportedFeatureError(
            f"query form {type(query).__name__} is not supported by SparqLog"
        )

    # ------------------------------------------------------------------
    # naming helpers
    # ------------------------------------------------------------------
    def _fresh_predicate(self, kind: str = "ans") -> str:
        self._counter += 1
        return f"{kind}{self._counter}"

    # ------------------------------------------------------------------
    # query forms
    # ------------------------------------------------------------------
    def _translate_select(self, query: SelectQuery) -> TranslationResult:
        distinct = query.distinct or query.reduced
        program = Program()
        inner = self._translate_pattern(
            query.pattern, distinct, Const("default"), program
        )
        if query.has_aggregates():
            return self._translate_aggregation(query, inner, program, distinct)

        for item in query.projection:
            if item.expression is not None:
                raise UnsupportedFeatureError(
                    "SELECT expressions (expr AS ?var) without GROUP BY are not supported"
                )

        projected = tuple(sorted(query.projected_variables(), key=lambda v: v.name))
        name = self._fresh_predicate("select")
        graph_var = Var("D")
        id_var, child_id = Var("Id"), Var("Id1")
        child_atom = self._pattern_atom(inner, child_id, distinct, graph_var)
        body: List = [child_atom]
        # Projected variables that the pattern cannot bind stay unbound (null).
        for variable in projected:
            if variable not in inner.variables:
                body.append(Atom(PRED_NULL, (datalog_variable(variable),)))
        head_args: List[DatalogTerm] = []
        if not distinct:
            head_args.append(id_var)
            body.append(
                self._skolem.tuple_id_assignment(
                    id_var, self._positive_body_vars(body), "select"
                )
            )
        head_args += [datalog_variable(variable) for variable in projected]
        head_args.append(graph_var)
        program.add_rule(Rule(Atom(name, tuple(head_args)), tuple(body), label=name))
        program.add_directive("output", name)
        self._add_post_directives(program, name, query)
        return TranslationResult(
            program=program,
            answer_predicate=name,
            answer_variables=projected,
            has_id_column=not distinct,
            has_graph_column=True,
            query=query,
            form="SELECT",
        )

    def _translate_aggregation(
        self,
        query: SelectQuery,
        inner: PatternInfo,
        program: Program,
        distinct: bool,
    ) -> TranslationResult:
        group_variables: List[Variable] = []
        for key in query.group_by:
            if not isinstance(key, VariableExpr):
                raise UnsupportedFeatureError("GROUP BY only supports plain variables")
            group_variables.append(key.variable)

        aggregate_specs: List[AggregateSpec] = []
        output_variables: List[Variable] = []
        for item in query.projection:
            if item.expression is None:
                if item.variable not in group_variables:
                    raise UnsupportedFeatureError(
                        f"projected variable {item.variable} must appear in GROUP BY"
                    )
                output_variables.append(item.variable)
                continue
            if not isinstance(item.expression, Aggregate):
                raise UnsupportedFeatureError(
                    "only aggregate expressions are supported in grouped SELECT clauses"
                )
            aggregate = item.expression
            if aggregate.argument is not None and not isinstance(
                aggregate.argument, VariableExpr
            ):
                raise UnsupportedFeatureError(
                    "aggregates over complex expressions are not supported"
                )
            argument_var = (
                datalog_variable(aggregate.argument.variable)
                if aggregate.argument is not None
                else None
            )
            aggregate_specs.append(
                AggregateSpec(
                    operation=aggregate.operation,
                    argument=argument_var,
                    target=datalog_variable(item.variable),
                    distinct=aggregate.distinct,
                    unbound=NULL.value,
                )
            )
            output_variables.append(item.variable)
        if query.having is not None:
            raise UnsupportedFeatureError("HAVING is not supported")

        name = self._fresh_predicate("select")
        graph_var = Var("D")
        child_id = Var("Id1")
        body = (self._pattern_atom(inner, child_id, distinct, graph_var),)
        head_args = tuple(datalog_variable(variable) for variable in output_variables)
        program.aggregate_rules.append(
            AggregateRule(
                head=Atom(name, head_args),
                body=body,
                group_variables=tuple(datalog_variable(v) for v in group_variables),
                aggregates=tuple(aggregate_specs),
                label=name,
                solution_variables=tuple(map(datalog_variable, inner.variables)),
            )
        )
        program.add_directive("output", name)
        self._add_post_directives(program, name, query)
        return TranslationResult(
            program=program,
            answer_predicate=name,
            answer_variables=tuple(output_variables),
            has_id_column=False,
            has_graph_column=False,
            query=query,
            form="SELECT",
        )

    def _translate_ask(self, query: AskQuery) -> TranslationResult:
        program = Program()
        inner = self._translate_pattern(query.pattern, True, Const("default"), program)
        aux = self._fresh_predicate("ask_aux")
        name = self._fresh_predicate("ask")
        graph_var = Var("D")
        result_var = Var("HasResult")
        child_atom = self._pattern_atom(inner, Var("Id1"), True, graph_var)
        program.add_rule(
            Rule(
                Atom(aux, (result_var,)),
                (child_atom, Assignment(result_var, TRUE)),
                label=aux,
            )
        )
        program.add_rule(
            Rule(Atom(name, (result_var,)), (Atom(aux, (result_var,)),), label=name)
        )
        program.add_rule(
            Rule(
                Atom(name, (result_var,)),
                (Negation(Atom(aux, (TRUE,))), Assignment(result_var, FALSE)),
                label=name,
            )
        )
        program.add_directive("output", name)
        return TranslationResult(
            program=program,
            answer_predicate=name,
            answer_variables=(),
            has_id_column=False,
            has_graph_column=False,
            query=query,
            form="ASK",
        )

    def _add_post_directives(self, program: Program, name: str, query: SelectQuery) -> None:
        """Record the solution modifiers as Vadalog-style @post directives."""
        if query.order_by:
            program.add_directive("post", name, "orderby")
        if query.limit is not None:
            program.add_directive("post", name, f"limit({query.limit})")
        if query.offset is not None:
            program.add_directive("post", name, f"offset({query.offset})")
        if query.distinct:
            program.add_directive("post", name, "distinct")

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _pattern_atom(
        self,
        info: PatternInfo,
        id_var: Var,
        distinct: bool,
        graph_term: DatalogTerm,
        rename: Optional[Dict[Variable, Var]] = None,
    ) -> Atom:
        """Build a body atom referencing the answer predicate of a subpattern."""
        args: List[DatalogTerm] = []
        if not distinct:
            args.append(id_var)
        for variable in info.variables:
            if rename and variable in rename:
                args.append(rename[variable])
            else:
                args.append(datalog_variable(variable))
        args.append(graph_term)
        return Atom(info.predicate, tuple(args))

    @staticmethod
    def _positive_body_vars(body: Sequence) -> List[Var]:
        variables: List[Var] = []
        for element in body:
            if isinstance(element, Atom):
                for argument in element.arguments:
                    if isinstance(argument, Var) and argument not in variables:
                        variables.append(argument)
        return variables

    def _head_atom(
        self,
        name: str,
        distinct: bool,
        id_var: Var,
        variables: Sequence[Variable],
        graph_term: DatalogTerm,
        overrides: Optional[Dict[Variable, DatalogTerm]] = None,
    ) -> Atom:
        args: List[DatalogTerm] = []
        if not distinct:
            args.append(id_var)
        for variable in variables:
            if overrides and variable in overrides:
                args.append(overrides[variable])
            else:
                args.append(datalog_variable(variable))
        args.append(graph_term)
        return Atom(name, tuple(args))

    # ------------------------------------------------------------------
    # graph patterns
    # ------------------------------------------------------------------
    def _translate_pattern(
        self,
        node: GraphPatternNode,
        distinct: bool,
        graph_spec: DatalogTerm,
        program: Program,
    ) -> PatternInfo:
        if isinstance(node, TriplePatternNode):
            return self._translate_triple(node, distinct, graph_spec, program)
        if isinstance(node, PathPattern):
            return self._translate_path_pattern(node, distinct, graph_spec, program)
        if isinstance(node, BGP):
            return self._translate_bgp(node, distinct, graph_spec, program)
        if isinstance(node, Join):
            left = self._translate_pattern(node.left, distinct, graph_spec, program)
            right = self._translate_pattern(node.right, distinct, graph_spec, program)
            return self._translate_join(left, right, distinct, graph_spec, program)
        if isinstance(node, LeftJoin):
            return self._translate_optional(node, distinct, graph_spec, program)
        if isinstance(node, UnionNode):
            return self._translate_union(node, distinct, graph_spec, program)
        if isinstance(node, Minus):
            return self._translate_minus(node, distinct, graph_spec, program)
        if isinstance(node, Filter):
            return self._translate_filter(node, distinct, graph_spec, program)
        if isinstance(node, GraphGraphPattern):
            return self._translate_graph(node, distinct, graph_spec, program)
        if isinstance(node, EmptyPattern):
            return self._translate_empty(distinct, graph_spec, program)
        if isinstance(node, (Bind, ValuesPattern)):
            raise UnsupportedFeatureError(
                f"{type(node).__name__} is not supported by the SparqLog translation"
            )
        raise UnsupportedFeatureError(f"unsupported pattern {type(node).__name__}")

    def _translate_triple(
        self,
        node: TriplePatternNode,
        distinct: bool,
        graph_spec: DatalogTerm,
        program: Program,
    ) -> PatternInfo:
        name = self._fresh_predicate()
        variables = tuple(sorted(node.triple.variables(), key=lambda v: v.name))
        id_var = Var("Id")
        triple_atom = Atom(
            PRED_TRIPLE,
            (
                term_to_datalog(node.triple.subject),
                term_to_datalog(node.triple.predicate),
                term_to_datalog(node.triple.object),
                graph_spec,
            ),
        )
        body: List = [triple_atom]
        if not distinct:
            body.append(
                self._skolem.tuple_id_assignment(
                    id_var, self._positive_body_vars(body), "triple"
                )
            )
        program.add_rule(
            Rule(
                self._head_atom(name, distinct, id_var, variables, graph_spec),
                tuple(body),
                label=name,
            )
        )
        return PatternInfo(name, variables)

    def _translate_path_pattern(
        self,
        node: PathPattern,
        distinct: bool,
        graph_spec: DatalogTerm,
        program: Program,
    ) -> PatternInfo:
        path_predicate = self._path_translator.translate(
            node.path, distinct, node.subject, node.object, graph_spec, program
        )
        name = self._fresh_predicate()
        variables = tuple(
            sorted(
                {part for part in (node.subject, node.object) if isinstance(part, Variable)},
                key=lambda v: v.name,
            )
        )
        id_var, child_id = Var("Id"), Var("Id1")
        child_args: List[DatalogTerm] = []
        if not distinct:
            child_args.append(child_id)
        child_args.append(term_to_datalog(node.subject))
        child_args.append(term_to_datalog(node.object))
        child_args.append(graph_spec)
        body: List = [Atom(path_predicate, tuple(child_args))]
        if not distinct:
            body.append(
                self._skolem.tuple_id_assignment(
                    id_var, self._positive_body_vars(body), "path-pattern"
                )
            )
        program.add_rule(
            Rule(
                self._head_atom(name, distinct, id_var, variables, graph_spec),
                tuple(body),
                label=name,
            )
        )
        return PatternInfo(name, variables)

    def _translate_bgp(
        self, node: BGP, distinct: bool, graph_spec: DatalogTerm, program: Program
    ) -> PatternInfo:
        infos = [
            self._translate_pattern(pattern, distinct, graph_spec, program)
            for pattern in node.patterns
        ]
        if not infos:
            return self._translate_empty(distinct, graph_spec, program)
        current = infos[0]
        for info in infos[1:]:
            current = self._translate_join(current, info, distinct, graph_spec, program)
        return current

    def _translate_join(
        self,
        left: PatternInfo,
        right: PatternInfo,
        distinct: bool,
        graph_spec: DatalogTerm,
        program: Program,
    ) -> PatternInfo:
        name = self._fresh_predicate()
        shared = [v for v in left.variables if v in right.variables]
        nullable_shared = {
            variable
            for variable in shared
            if variable in left.nullable or variable in right.nullable
        }
        all_variables = tuple(
            sorted(set(left.variables) | set(right.variables), key=lambda v: v.name)
        )
        id_var, left_id, right_id = Var("Id"), Var("Id1"), Var("Id2")

        left_rename = {
            variable: Var(f"VL_{variable.name}") for variable in nullable_shared
        }
        right_rename = {
            variable: Var(f"VR_{variable.name}") for variable in nullable_shared
        }
        body: List = [
            self._pattern_atom(left, left_id, distinct, graph_spec, left_rename),
            self._pattern_atom(right, right_id, distinct, graph_spec, right_rename),
        ]
        for variable in nullable_shared:
            body.append(
                Atom(
                    PRED_COMP,
                    (left_rename[variable], right_rename[variable], datalog_variable(variable)),
                )
            )
        if not distinct:
            body.append(
                self._skolem.tuple_id_assignment(
                    id_var, self._positive_body_vars(body), "join"
                )
            )
        program.add_rule(
            Rule(
                self._head_atom(name, distinct, id_var, all_variables, graph_spec),
                tuple(body),
                label=name,
            )
        )
        nullable = (left.nullable | right.nullable) - set(shared) | nullable_shared
        return PatternInfo(name, all_variables, nullable)

    def _translate_optional(
        self,
        node: LeftJoin,
        distinct: bool,
        graph_spec: DatalogTerm,
        program: Program,
    ) -> PatternInfo:
        left = self._translate_pattern(node.left, distinct, graph_spec, program)
        right = self._translate_pattern(node.right, distinct, graph_spec, program)
        name = self._fresh_predicate()
        opt_name = self._fresh_predicate("ans_opt")

        shared = [v for v in left.variables if v in right.variables]
        nullable_shared = {
            variable
            for variable in shared
            if variable in left.nullable or variable in right.nullable
        }
        right_only = [v for v in right.variables if v not in left.variables]
        all_variables = tuple(
            sorted(set(left.variables) | set(right.variables), key=lambda v: v.name)
        )
        left_id, right_id, id_var = Var("Id1"), Var("Id2"), Var("Id")
        condition_variables = (
            node.condition.variables() if node.condition is not None else set()
        )

        def build_join_body(
            rename_left: bool, merge_targets: Dict[Variable, Var]
        ) -> List:
            left_rename = (
                {v: Var(f"VL_{v.name}") for v in nullable_shared} if rename_left else {}
            )
            right_rename = {v: Var(f"VR_{v.name}") for v in nullable_shared}
            body: List = [
                self._pattern_atom(left, left_id, distinct, graph_spec, left_rename),
                self._pattern_atom(right, right_id, distinct, graph_spec, right_rename),
            ]
            for variable in nullable_shared:
                left_term = left_rename.get(variable, datalog_variable(variable))
                body.append(
                    Atom(
                        PRED_COMP,
                        (left_term, right_rename[variable], merge_targets[variable]),
                    )
                )
            return body

        def condition_filter(merge_targets: Dict[Variable, Var]) -> FilterCondition:
            mapping: List[Tuple[Variable, Var]] = []
            for variable in sorted(condition_variables, key=lambda v: v.name):
                if variable in merge_targets:
                    mapping.append((variable, merge_targets[variable]))
                elif variable in left.variables or variable in right.variables:
                    mapping.append((variable, datalog_variable(variable)))
            return FilterCondition(node.condition, tuple(mapping))

        # Rule 1: ans_opt(var(P1), D) — left mappings extendable to the right.
        merge_targets = {v: Var(f"VM_{v.name}") for v in nullable_shared}
        opt_body = build_join_body(False, merge_targets)
        if node.condition is not None:
            opt_body.append(condition_filter(merge_targets))
        program.add_rule(
            Rule(
                self._head_atom(opt_name, True, Var("unused"), left.variables, graph_spec),
                tuple(opt_body),
                label=opt_name,
            )
        )

        # Rule 2: the extended mappings (join, with the optional filter).
        merge_targets = {v: datalog_variable(v) for v in nullable_shared}
        join_body = build_join_body(True, merge_targets)
        if node.condition is not None:
            join_body.append(condition_filter(merge_targets))
        if not distinct:
            join_body.append(
                self._skolem.tuple_id_assignment(
                    id_var, self._positive_body_vars(join_body), "optional-join"
                )
            )
        program.add_rule(
            Rule(
                self._head_atom(name, distinct, id_var, all_variables, graph_spec),
                tuple(join_body),
                label=name,
            )
        )

        # Rule 3: left mappings with no admissible extension; right-only
        # variables are set to null.
        keep_body: List = [
            self._pattern_atom(left, left_id, distinct, graph_spec),
            Negation(
                self._head_atom(opt_name, True, Var("unused"), left.variables, graph_spec)
            ),
        ]
        for variable in right_only:
            keep_body.append(Atom(PRED_NULL, (datalog_variable(variable),)))
        if not distinct:
            keep_body.append(
                self._skolem.tuple_id_assignment(
                    id_var, self._positive_body_vars(keep_body), "optional-keep"
                )
            )
        program.add_rule(
            Rule(
                self._head_atom(name, distinct, id_var, all_variables, graph_spec),
                tuple(keep_body),
                label=name,
            )
        )
        nullable = left.nullable | right.nullable | set(right_only) | nullable_shared
        return PatternInfo(name, all_variables, nullable)

    def _translate_union(
        self,
        node: UnionNode,
        distinct: bool,
        graph_spec: DatalogTerm,
        program: Program,
    ) -> PatternInfo:
        left = self._translate_pattern(node.left, distinct, graph_spec, program)
        right = self._translate_pattern(node.right, distinct, graph_spec, program)
        name = self._fresh_predicate()
        all_variables = tuple(
            sorted(set(left.variables) | set(right.variables), key=lambda v: v.name)
        )
        for branch, label in ((left, "union-left"), (right, "union-right")):
            id_var, child_id = Var("Id"), Var("Id1")
            body: List = [self._pattern_atom(branch, child_id, distinct, graph_spec)]
            for variable in all_variables:
                if variable not in branch.variables:
                    body.append(Atom(PRED_NULL, (datalog_variable(variable),)))
            if not distinct:
                body.append(
                    self._skolem.tuple_id_assignment(
                        id_var, self._positive_body_vars(body), label
                    )
                )
            program.add_rule(
                Rule(
                    self._head_atom(name, distinct, id_var, all_variables, graph_spec),
                    tuple(body),
                    label=name,
                )
            )
        nullable = (
            left.nullable
            | right.nullable
            | (set(left.variables) ^ set(right.variables))
        )
        return PatternInfo(name, all_variables, nullable)

    def _translate_minus(
        self,
        node: Minus,
        distinct: bool,
        graph_spec: DatalogTerm,
        program: Program,
    ) -> PatternInfo:
        left = self._translate_pattern(node.left, distinct, graph_spec, program)
        right = self._translate_pattern(node.right, distinct, graph_spec, program)
        shared = [v for v in left.variables if v in right.variables]
        name = self._fresh_predicate()
        id_var, left_id, right_id = Var("Id"), Var("Id1"), Var("Id2")

        if not shared:
            # Disjoint domains: MINUS removes nothing (Table 4 semantics).
            body: List = [self._pattern_atom(left, left_id, distinct, graph_spec)]
            if not distinct:
                body.append(
                    self._skolem.tuple_id_assignment(
                        id_var, self._positive_body_vars(body), "minus-copy"
                    )
                )
            program.add_rule(
                Rule(
                    self._head_atom(name, distinct, id_var, left.variables, graph_spec),
                    tuple(body),
                    label=name,
                )
            )
            return PatternInfo(name, left.variables, set(left.nullable))

        join_name = self._fresh_predicate("ans_join")
        equal_name = self._fresh_predicate("ans_equal")
        right_rename = {v: Var(f"VR_{v.name}") for v in shared}

        # ans_join: compatible combinations of left and right mappings.
        join_head_args = (
            tuple(datalog_variable(v) for v in left.variables)
            + tuple(right_rename[v] for v in shared)
            + (graph_spec,)
        )
        join_body: List = [
            self._pattern_atom(left, left_id, distinct, graph_spec),
            self._pattern_atom(right, right_id, distinct, graph_spec, right_rename),
        ]
        for variable in shared:
            join_body.append(
                Atom(
                    PRED_COMP,
                    (
                        datalog_variable(variable),
                        right_rename[variable],
                        Var(f"VM_{variable.name}"),
                    ),
                )
            )
        program.add_rule(
            Rule(Atom(join_name, join_head_args), tuple(join_body), label=join_name)
        )

        # ans_equal: the "forbidden" left mappings — compatible with a right
        # mapping and agreeing on at least one non-null shared variable.
        for variable in shared:
            equal_body = (
                Atom(join_name, join_head_args),
                Atom(PRED_COMP, (datalog_variable(variable), right_rename[variable],
                                 Var(f"VM_{variable.name}"))),
                Negation(Atom(PRED_NULL, (datalog_variable(variable),))),
                Negation(Atom(PRED_NULL, (right_rename[variable],))),
            )
            program.add_rule(
                Rule(
                    self._head_atom(equal_name, True, Var("unused"), left.variables, graph_spec),
                    equal_body,
                    label=equal_name,
                )
            )

        # ans: left mappings that are not forbidden.
        body = [
            self._pattern_atom(left, left_id, distinct, graph_spec),
            Negation(
                self._head_atom(equal_name, True, Var("unused"), left.variables, graph_spec)
            ),
        ]
        if not distinct:
            body.append(
                self._skolem.tuple_id_assignment(
                    id_var, self._positive_body_vars(body), "minus"
                )
            )
        program.add_rule(
            Rule(
                self._head_atom(name, distinct, id_var, left.variables, graph_spec),
                tuple(body),
                label=name,
            )
        )
        return PatternInfo(name, left.variables, set(left.nullable))

    def _translate_filter(
        self,
        node: Filter,
        distinct: bool,
        graph_spec: DatalogTerm,
        program: Program,
    ) -> PatternInfo:
        inner = self._translate_pattern(node.pattern, distinct, graph_spec, program)
        name = self._fresh_predicate()
        id_var, child_id = Var("Id"), Var("Id1")
        body: List = [self._pattern_atom(inner, child_id, distinct, graph_spec)]
        body.append(
            FilterCondition(
                node.condition,
                self._filter_variable_map(node.condition, set(inner.variables)),
            )
        )
        if not distinct:
            body.append(
                self._skolem.tuple_id_assignment(
                    id_var, self._positive_body_vars(body), "filter"
                )
            )
        program.add_rule(
            Rule(
                self._head_atom(name, distinct, id_var, inner.variables, graph_spec),
                tuple(body),
                label=name,
            )
        )
        return PatternInfo(name, inner.variables, set(inner.nullable))

    def _translate_graph(
        self,
        node: GraphGraphPattern,
        distinct: bool,
        graph_spec: DatalogTerm,
        program: Program,
    ) -> PatternInfo:
        name = self._fresh_predicate()
        id_var, child_id = Var("Id"), Var("Id1")
        if isinstance(node.graph, Variable):
            inner_graph: DatalogTerm = datalog_variable(node.graph)
            inner = self._translate_pattern(node.pattern, distinct, inner_graph, program)
            variables = tuple(
                sorted(set(inner.variables) | {node.graph}, key=lambda v: v.name)
            )
        else:
            inner_graph = Const(node.graph)
            inner = self._translate_pattern(node.pattern, distinct, inner_graph, program)
            variables = inner.variables
        body: List = [
            self._pattern_atom(inner, child_id, distinct, inner_graph),
            Atom(PRED_NAMED, (inner_graph,)),
        ]
        if not distinct:
            body.append(
                self._skolem.tuple_id_assignment(
                    id_var, self._positive_body_vars(body), "graph"
                )
            )
        program.add_rule(
            Rule(
                self._head_atom(name, distinct, id_var, variables, graph_spec),
                tuple(body),
                label=name,
            )
        )
        return PatternInfo(name, variables, set(inner.nullable))

    def _translate_empty(
        self, distinct: bool, graph_spec: DatalogTerm, program: Program
    ) -> PatternInfo:
        name = self._fresh_predicate()
        if isinstance(graph_spec, Const):
            if distinct:
                program.add_fact(Atom(name, (graph_spec,)))
            else:
                program.add_fact(Atom(name, (SET_ID, graph_spec)))
        else:
            id_var = Var("Id")
            body: List = [Atom(PRED_NAMED, (graph_spec,))]
            if not distinct:
                body.append(SkolemFunctionGenerator.set_semantics_assignment(id_var))
            program.add_rule(
                Rule(self._head_atom(name, distinct, id_var, (), graph_spec), tuple(body), label=name)
            )
        return PatternInfo(name, ())

    # ------------------------------------------------------------------
    # filters
    # ------------------------------------------------------------------
    @staticmethod
    def _filter_variable_map(
        condition: Expression, available: Set[Variable]
    ) -> Tuple[Tuple[Variable, Var], ...]:
        """Map the SPARQL variables of a filter to their Datalog carriers."""
        mapping: List[Tuple[Variable, Var]] = []
        for variable in sorted(condition.variables(), key=lambda v: v.name):
            if variable in available:
                mapping.append((variable, datalog_variable(variable)))
        return tuple(mapping)
