"""Glue: build model inputs from programs, params and runtime data."""

from __future__ import annotations

from typing import Any, Optional

from ..hls import HardwareParams
from ..ir import DataflowGraph, build_dataflow_graph
from ..lang import ast, format_function, parse
from ..lang.analysis import OperatorClass
from ..lang.normalize import normalize as normalize_program
from ..sim import describe_data
from ..tokenizer import ModelInput


def bundle_from_program(
    program: ast.Program | str,
    params: Optional[HardwareParams] = None,
    data: Optional[dict[str, Any]] = None,
    think_text: str = "",
    graph_function: Optional[str] = None,
    normalize: bool = False,
    graph: Optional[DataflowGraph] = None,
) -> ModelInput:
    """Render the paper's ``{G, Op, Params, data}`` quadruple as text.

    The top-level graph function becomes the graph segment; every other
    function becomes an operator segment; ``params`` renders in Bambu
    flag style; ``data`` in ``name = value`` style.

    With ``normalize=True`` the program is canonicalized first (local
    renaming, constant folding, identity simplification) — the paper's
    §7.2 future-work mitigation for deeply abstracted programs.  Use
    the same setting at training and prediction time.

    *graph* is the program's operator graph when the caller has already
    built it (as :func:`class_i_segments` also reads it); it is built
    here otherwise.
    """
    if isinstance(program, str):
        program = parse(program)
    if normalize:
        program = normalize_program(program)
    if graph is None:
        graph = build_dataflow_graph(program, graph_function)
    graph_func = program.function(graph.graph_function)
    op_texts = [
        format_function(func)
        for func in program.functions
        if func.name != graph.graph_function
    ]
    params = params or HardwareParams()
    return ModelInput(
        graph_text=format_function(graph_func),
        op_texts=op_texts,
        params_text=params.describe(),
        data_text=describe_data(data) if data else "",
        think_text=think_text,
    )


def class_i_segments(
    program: ast.Program | str,
    graph_function: Optional[str] = None,
    graph: Optional[DataflowGraph] = None,
) -> list[str]:
    """Names of the operator segments whose control flow is input
    independent (Class I) — the segments the separation mask decouples
    from runtime data.  They are read off the operator graph's
    classification, *graph* when the caller has already built it."""
    if graph is None:
        if isinstance(program, str):
            program = parse(program)
        graph = build_dataflow_graph(program, graph_function)
    return [
        f"op{index}"
        for index, operator_class in enumerate(graph.operator_classes)
        if operator_class is OperatorClass.CLASS_I
    ]
