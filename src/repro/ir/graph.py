"""Dataflow and program graphs.

Two graph views are provided:

* :class:`DataflowGraph` — operator-level: one node per operator call in
  the top-level graph function, edges where one call's output array feeds
  another call.  This is the ``G`` of the paper's input quadruple and the
  unit the control-flow separation masks operate over.
* :func:`build_program_graph` — statement/expression-level graph used by
  the GNNHLS baseline (a ProGraML-flavoured representation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import networkx as nx

from ..errors import LoweringError
from ..lang import ast
from ..lang.analysis import OperatorClass, analyze_function


@dataclass
class OperatorCall:
    """One operator invocation inside the graph function."""

    index: int
    name: str
    args: list[str]
    reads: list[str] = field(default_factory=list)
    writes: list[str] = field(default_factory=list)
    operator_class: OperatorClass = OperatorClass.CLASS_I


@dataclass
class DataflowGraph:
    """Operator-level dataflow graph of a program."""

    graph_function: str
    calls: list[OperatorCall]
    nx_graph: nx.DiGraph
    # Class of every function but the graph function, in program order:
    # entry i classifies the model input's operator segment ``op{i}``.
    operator_classes: tuple[OperatorClass, ...]

    @property
    def operator_count(self) -> int:
        return len(self.calls)

    def class_ii_indices(self) -> list[int]:
        return [
            call.index
            for call in self.calls
            if call.operator_class is OperatorClass.CLASS_II
        ]

    def class_i_indices(self) -> list[int]:
        return [
            call.index
            for call in self.calls
            if call.operator_class is OperatorClass.CLASS_I
        ]


def _infer_read_write(
    func: Optional[ast.FunctionDef], args: list[ast.Expr]
) -> tuple[list[str], list[str]]:
    """Split the array arguments of a call into reads and writes.

    When the callee is known, a parameter is a *write* if its array is
    ever stored to inside the callee; otherwise we fall back to the HLS
    convention that the last array argument is the output.
    """
    arg_names = [a.name if isinstance(a, ast.Var) else None for a in args]
    reads: list[str] = []
    writes: list[str] = []
    if func is not None and len(func.params) == len(args):
        written_params: set[str] = set()
        for node in ast.walk(func.body):
            if isinstance(node, ast.Assign) and isinstance(node.target, ast.Index):
                written_params.add(node.target.base.name)
        for param, arg_name in zip(func.params, arg_names):
            if arg_name is None or not param.type.is_array:
                continue
            if param.name in written_params:
                writes.append(arg_name)
            else:
                reads.append(arg_name)
        return reads, writes
    array_args = [name for name in arg_names if name is not None]
    if array_args:
        reads = array_args[:-1]
        writes = array_args[-1:]
    return reads, writes


def build_dataflow_graph(
    program: ast.Program, graph_function: Optional[str] = None
) -> DataflowGraph:
    """Extract the operator-level dataflow graph.

    *graph_function* defaults to ``dataflow`` or ``graph`` when present,
    otherwise the last function in the program (HLS top-module style).
    """
    if graph_function is None:
        names = program.function_names
        for candidate in ("dataflow", "graph", "main", "top"):
            if candidate in names:
                graph_function = candidate
                break
        else:
            if not names:
                raise LoweringError("program has no functions")
            graph_function = names[-1]
    top = program.function(graph_function)
    defined = {func.name: func for func in program.functions}
    operators = [func for func in program.functions if func.name != graph_function]
    operator_classes = tuple(
        analyze_function(func).operator_class for func in operators
    )
    class_of = dict(zip((func.name for func in operators), operator_classes))
    calls: list[OperatorCall] = []
    for call_expr in ast.calls_in(top.body):
        callee = defined.get(call_expr.name)
        reads, writes = _infer_read_write(callee, call_expr.args)
        calls.append(
            OperatorCall(
                index=len(calls),
                name=call_expr.name,
                args=[
                    arg.name if isinstance(arg, ast.Var) else "<expr>"
                    for arg in call_expr.args
                ],
                reads=reads,
                writes=writes,
                operator_class=class_of.get(call_expr.name, OperatorClass.CLASS_I),
            )
        )
    graph = nx.DiGraph()
    for call in calls:
        graph.add_node(call.index, name=call.name, op_class=call.operator_class.value)
    last_writer: dict[str, int] = {}
    for call in calls:
        for array in call.reads:
            if array in last_writer:
                graph.add_edge(last_writer[array], call.index, array=array)
        for array in call.writes:
            last_writer[array] = call.index
    return DataflowGraph(
        graph_function=graph_function,
        calls=calls,
        nx_graph=graph,
        operator_classes=operator_classes,
    )


# -- statement-level program graph (GNNHLS representation) -------------

_NODE_TYPES = (
    "function",
    "loop",
    "branch",
    "assign",
    "decl",
    "binop_add",
    "binop_mul",
    "binop_div",
    "binop_cmp",
    "binop_logic",
    "unary",
    "load",
    "store",
    "const",
    "var",
    "call",
    "return",
    "ternary",
)

NODE_TYPE_INDEX = {name: i for i, name in enumerate(_NODE_TYPES)}


def _binop_type(op: str) -> str:
    if op in ("+", "-"):
        return "binop_add"
    if op == "*":
        return "binop_mul"
    if op in ("/", "%"):
        return "binop_div"
    if op in ("<", ">", "<=", ">=", "==", "!="):
        return "binop_cmp"
    return "binop_logic"


def build_program_graph(program: ast.Program) -> nx.DiGraph:
    """Build a typed statement/expression graph for GNN baselines.

    Nodes carry ``type`` (one of :data:`NODE_TYPE_INDEX`) and ``value``
    (log-scaled literal magnitude for constants); edges carry ``kind``
    (``ast`` for syntax edges, ``seq`` for statement order).
    """
    graph = nx.DiGraph()
    counter = 0

    def new_node(node_type: str, value: float = 0.0) -> int:
        nonlocal counter
        graph.add_node(counter, type=node_type, value=value)
        counter += 1
        return counter - 1

    def visit_expr(expr: ast.Expr) -> int:
        import math

        if isinstance(expr, ast.IntLit):
            return new_node("const", math.log1p(abs(float(expr.value))))
        if isinstance(expr, ast.FloatLit):
            return new_node("const", math.log1p(abs(expr.value)))
        if isinstance(expr, ast.Var):
            return new_node("var")
        if isinstance(expr, ast.BinOp):
            node = new_node(_binop_type(expr.op))
            graph.add_edge(node, visit_expr(expr.left), kind="ast")
            graph.add_edge(node, visit_expr(expr.right), kind="ast")
            return node
        if isinstance(expr, ast.UnaryOp):
            node = new_node("unary")
            graph.add_edge(node, visit_expr(expr.operand), kind="ast")
            return node
        if isinstance(expr, ast.Index):
            node = new_node("load")
            for index in expr.indices:
                graph.add_edge(node, visit_expr(index), kind="ast")
            return node
        if isinstance(expr, ast.CallExpr):
            node = new_node("call")
            for arg in expr.args:
                graph.add_edge(node, visit_expr(arg), kind="ast")
            return node
        if isinstance(expr, ast.Ternary):
            node = new_node("ternary")
            graph.add_edge(node, visit_expr(expr.cond), kind="ast")
            graph.add_edge(node, visit_expr(expr.then), kind="ast")
            graph.add_edge(node, visit_expr(expr.other), kind="ast")
            return node
        raise LoweringError(f"unknown expression {type(expr).__name__}")

    def visit_stmt(stmt: ast.Stmt) -> Optional[int]:
        if isinstance(stmt, ast.Block):
            previous = None
            for inner in stmt.stmts:
                node = visit_stmt(inner)
                if previous is not None and node is not None:
                    graph.add_edge(previous, node, kind="seq")
                if node is not None:
                    previous = node
            return previous
        if isinstance(stmt, (ast.For, ast.While)):
            node = new_node("loop")
            cond = stmt.cond if stmt.cond is not None else None
            if cond is not None:
                graph.add_edge(node, visit_expr(cond), kind="ast")
            body_node = visit_stmt(stmt.body)
            if body_node is not None:
                graph.add_edge(node, body_node, kind="ast")
            return node
        if isinstance(stmt, ast.If):
            node = new_node("branch")
            graph.add_edge(node, visit_expr(stmt.cond), kind="ast")
            then_node = visit_stmt(stmt.then)
            if then_node is not None:
                graph.add_edge(node, then_node, kind="ast")
            if stmt.other is not None:
                other_node = visit_stmt(stmt.other)
                if other_node is not None:
                    graph.add_edge(node, other_node, kind="ast")
            return node
        if isinstance(stmt, ast.Assign):
            kind = "store" if isinstance(stmt.target, ast.Index) else "assign"
            node = new_node(kind)
            graph.add_edge(node, visit_expr(stmt.value), kind="ast")
            if isinstance(stmt.target, ast.Index):
                for index in stmt.target.indices:
                    graph.add_edge(node, visit_expr(index), kind="ast")
            return node
        if isinstance(stmt, ast.Decl):
            node = new_node("decl")
            if stmt.init is not None:
                graph.add_edge(node, visit_expr(stmt.init), kind="ast")
            return node
        if isinstance(stmt, ast.Return):
            node = new_node("return")
            if stmt.value is not None:
                graph.add_edge(node, visit_expr(stmt.value), kind="ast")
            return node
        if isinstance(stmt, ast.ExprStmt):
            return visit_expr(stmt.expr)
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return None
        raise LoweringError(f"unknown statement {type(stmt).__name__}")

    previous_fn = None
    for func in program.functions:
        fn_node = new_node("function")
        body_node = visit_stmt(func.body)
        if body_node is not None:
            graph.add_edge(fn_node, body_node, kind="ast")
        if previous_fn is not None:
            graph.add_edge(previous_fn, fn_node, kind="seq")
        previous_fn = fn_node
    return graph
