"""Program validation at the ingestion boundaries.

:class:`ProgramValidator` answers "is this program safe to hand to the
rest of the stack?" with structured evidence instead of a downstream
stack trace.  It runs at every boundary where untrusted source enters
the system — :func:`repro.api.codec.read_program`, the serve request
decoder, campaign cell admission — and splits findings into

* **errors** — the program will misbehave deterministically: parse
  failures, reads of names that are never defined, calls to unknown
  operators or with the wrong arity/kinds, provably out-of-bounds
  constant subscripts (the simulator *clamps* these, silently
  computing with the wrong element).
* **warnings** — the program is executable but degrades analysis or
  smells wrong: non-affine loop bounds, ``while`` loops, non-affine
  subscripts, reads of zero-initialized locals, operators that write
  no output, read/write sets that disagree with the graph builder's
  inference.

Validation never executes the program; everything is derived from the
:mod:`repro.analysis.dataflow` facts plus the operator graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..errors import LexError, LoweringError, ParseError, ReproError, ValidationError
from ..lang import ast, parse
from .dataflow import AffineExpr, FunctionDataflow, Statement, analyze_dataflow

__all__ = [
    "ProgramValidator",
    "ValidationIssue",
    "ValidationReport",
    "validate_program",
    "validate_or_raise",
]


@dataclass(frozen=True)
class ValidationIssue:
    """One finding, renderable as a single line."""

    severity: str  # "error" | "warning"
    code: str
    function: str
    message: str

    def describe(self) -> str:
        where = f" in {self.function!r}" if self.function else ""
        return f"{self.severity}[{self.code}]{where}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    """All findings for one program."""

    issues: tuple[ValidationIssue, ...]
    functions: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def errors(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "error")

    @property
    def warnings(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "warning")

    def reasons(self) -> list[str]:
        """One line per *error* (the 400-body / exception payload)."""
        return [issue.describe() for issue in self.errors]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "errors": [i.describe() for i in self.errors],
            "warnings": [i.describe() for i in self.warnings],
        }

    @classmethod
    def parse_failure(cls, exc: Exception) -> "ValidationReport":
        """The verdict on source that does not lex or parse."""
        return cls(issues=(ValidationIssue("error", "parse", "", str(exc)),))

    def raise_if_invalid(self, context: str = "") -> "ValidationReport":
        if self.ok:
            return self
        raise ValidationError(
            ("invalid program" if not context else f"invalid program ({context})"),
            reasons=self.reasons(),
        )


class ProgramValidator:
    """Static admission check for program source.

    ``max_issues`` bounds the report so a pathological program cannot
    flood a serve response; the cap is per severity.
    """

    def __init__(self, max_issues: int = 32) -> None:
        self.max_issues = max_issues

    # -- entry point -----------------------------------------------------

    def validate(self, program: Union[str, ast.Program]) -> ValidationReport:
        issues: list[ValidationIssue] = []
        if isinstance(program, str):
            try:
                program = parse(program)
            except (LexError, ParseError) as exc:
                return ValidationReport.parse_failure(exc)
        if not program.functions:
            return ValidationReport(
                issues=(
                    ValidationIssue("error", "empty", "", "program has no functions"),
                )
            )
        defined = {func.name: func for func in program.functions}
        flows: dict[str, FunctionDataflow] = {}
        for func in program.functions:
            flows[func.name] = analyze_dataflow(func)
        for func in program.functions:
            self._check_function(func, flows[func.name], issues)
            self._check_calls(func, defined, issues)
        self._check_graph(program, defined, issues)
        return ValidationReport(
            issues=self._capped(issues),
            functions=tuple(defined),
        )

    def _capped(self, issues: list[ValidationIssue]) -> tuple[ValidationIssue, ...]:
        errors = [i for i in issues if i.severity == "error"][: self.max_issues]
        warnings = [i for i in issues if i.severity == "warning"][: self.max_issues]
        return tuple(errors + warnings)

    # -- per-function checks ---------------------------------------------

    def _check_function(
        self,
        func: ast.FunctionDef,
        flow: FunctionDataflow,
        issues: list[ValidationIssue],
    ) -> None:
        for read in flow.undefined_reads:
            statement = flow.statements[read.statement]
            if read.kind == "uninitialized-local":
                issues.append(
                    ValidationIssue(
                        "warning",
                        "uninitialized-local",
                        func.name,
                        f"{read.describe()} (S{read.statement}, "
                        f"{statement.text or statement.kind}); locals are "
                        "zero-filled, so this reads 0",
                    )
                )
            else:
                issues.append(
                    ValidationIssue(
                        "error",
                        "undefined-read",
                        func.name,
                        f"{read.describe()} (S{read.statement}, "
                        f"{statement.text or statement.kind})",
                    )
                )
        for loop in flow.loops:
            if loop.is_while:
                issues.append(
                    ValidationIssue(
                        "warning",
                        "while-loop",
                        func.name,
                        "while loop defeats static loop analysis "
                        "(trip count unknown)",
                    )
                )
            elif not loop.is_canonical or (
                loop.bound_symbol is not None
                and loop.bound_symbol.startswith("<expr:")
            ):
                issues.append(
                    ValidationIssue(
                        "warning",
                        "non-affine-bound",
                        func.name,
                        f"loop {loop.label} has a non-canonical header; "
                        "dependence distances degrade to unknown",
                    )
                )
        ranks = self._declared_ranks(func)
        dims = self._declared_dims(func)
        flagged_nonaffine: set[tuple[int, str]] = set()
        for statement in flow.statements:
            for access in statement.reads + statement.writes:
                if access.opaque:
                    continue
                rank = ranks.get(access.array)
                if rank is not None and len(access.subscripts) != rank:
                    issues.append(
                        ValidationIssue(
                            "error",
                            "rank-mismatch",
                            func.name,
                            f"{access.array!r} is declared rank {rank} but "
                            f"indexed with {len(access.subscripts)} "
                            f"subscript(s) at S{statement.index} "
                            f"({statement.text or statement.kind})",
                        )
                    )
                    continue
                for position, subscript in enumerate(access.subscripts):
                    if not subscript.affine:
                        key = (statement.index, access.array)
                        if key not in flagged_nonaffine:
                            flagged_nonaffine.add(key)
                            issues.append(
                                ValidationIssue(
                                    "warning",
                                    "non-affine-subscript",
                                    func.name,
                                    f"subscript {position} of {access.array!r} "
                                    f"at S{statement.index} is not affine; "
                                    "dependence analysis treats it as unknown",
                                )
                            )
                        continue
                    self._check_subscript(
                        func, flow, statement, access.array, position,
                        subscript, dims, issues,
                    )

    @staticmethod
    def _declared_ranks(func: ast.FunctionDef) -> dict[str, int]:
        ranks = {
            p.name: p.type.rank for p in func.params if p.type.is_array
        }
        for node in ast.walk(func.body):
            if isinstance(node, ast.Decl) and node.type.is_array:
                ranks[node.name] = node.type.rank
        return ranks

    @staticmethod
    def _declared_dims(func: ast.FunctionDef) -> dict[str, list[Optional[int]]]:
        def sizes(t: ast.Type) -> list[Optional[int]]:
            return [
                d.value if isinstance(d, ast.IntLit) else None for d in t.dims
            ]

        dims = {p.name: sizes(p.type) for p in func.params if p.type.is_array}
        for node in ast.walk(func.body):
            if isinstance(node, ast.Decl) and node.type.is_array:
                dims[node.name] = sizes(node.type)
        return dims

    def _check_subscript(
        self,
        func: ast.FunctionDef,
        flow: FunctionDataflow,
        statement: Statement,
        array: str,
        position: int,
        subscript: AffineExpr,
        dims: dict[str, list[Optional[int]]],
        issues: list[ValidationIssue],
    ) -> None:
        sizes = dims.get(array)
        size = sizes[position] if sizes and position < len(sizes) else None
        if size is None:
            return
        bounds = self._subscript_range(flow, statement, subscript)
        if bounds is None:
            return
        lo, hi = bounds
        if hi < 0 or lo >= size:
            # Every execution lands outside the array.
            issues.append(
                ValidationIssue(
                    "error" if not statement.guarded else "warning",
                    "oob-subscript",
                    func.name,
                    f"subscript {position} of {array!r} at S{statement.index} "
                    f"({statement.text or statement.kind}) is always out of "
                    f"bounds: value range [{lo}, {hi}] vs size {size} "
                    "(the simulator clamps, silently using the wrong element)",
                )
            )
        elif (lo < 0 or hi >= size) and subscript.is_constant:
            issues.append(
                ValidationIssue(
                    "error" if not statement.guarded else "warning",
                    "oob-subscript",
                    func.name,
                    f"constant subscript {subscript} of {array!r} at "
                    f"S{statement.index} is out of bounds for size {size}",
                )
            )
        elif lo < 0 or hi >= size:
            issues.append(
                ValidationIssue(
                    "warning",
                    "oob-subscript",
                    func.name,
                    f"subscript {position} of {array!r} at S{statement.index} "
                    f"can leave [0, {size}): value range [{lo}, {hi}]",
                )
            )

    @staticmethod
    def _subscript_range(
        flow: FunctionDataflow, statement: Statement, subscript: AffineExpr
    ) -> Optional[tuple[int, int]]:
        """Min/max value of an affine subscript over the statement's
        static loop ranges; ``None`` when any variable is unbounded."""
        loops = {flow.loops[i].var: flow.loops[i] for i in statement.loop_ids}
        lo = hi = subscript.constant
        for name, coeff in subscript.terms:
            loop = loops.get(name)
            value_range = loop.value_range() if loop is not None else None
            if value_range is None:
                return None
            vlo, vhi = value_range
            if coeff >= 0:
                lo += coeff * vlo
                hi += coeff * vhi
            else:
                lo += coeff * vhi
                hi += coeff * vlo
        return lo, hi

    # -- call-site checks ------------------------------------------------

    def _check_calls(
        self,
        func: ast.FunctionDef,
        defined: dict[str, ast.FunctionDef],
        issues: list[ValidationIssue],
    ) -> None:
        arrays = {p.name for p in func.params if p.type.is_array}
        scalars = {p.name for p in func.params if not p.type.is_array}
        for node in ast.walk(func.body):
            if isinstance(node, ast.Decl):
                (arrays if node.type.is_array else scalars).add(node.name)
        for call in ast.calls_in(func.body):
            callee = defined.get(call.name)
            if callee is None:
                issues.append(
                    ValidationIssue(
                        "error",
                        "unknown-call",
                        func.name,
                        f"call to unknown function {call.name!r} "
                        "(the simulator has no builtins)",
                    )
                )
                continue
            if len(call.args) != len(callee.params):
                issues.append(
                    ValidationIssue(
                        "error",
                        "call-arity",
                        func.name,
                        f"{call.name!r} expects {len(callee.params)} "
                        f"argument(s), got {len(call.args)}",
                    )
                )
                continue
            for param, arg in zip(callee.params, call.args):
                if param.type.is_array:
                    if isinstance(arg, ast.Var) and arg.name in arrays:
                        continue
                    issues.append(
                        ValidationIssue(
                            "error",
                            "arg-kind",
                            func.name,
                            f"argument {param.name!r} of {call.name!r} must "
                            "be an array, got "
                            + (
                                f"scalar {arg.name!r}"
                                if isinstance(arg, ast.Var)
                                else "an expression"
                            ),
                        )
                    )
                elif isinstance(arg, ast.Var) and arg.name in arrays:
                    issues.append(
                        ValidationIssue(
                            "error",
                            "arg-kind",
                            func.name,
                            f"argument {param.name!r} of {call.name!r} must "
                            f"be a scalar, got array {arg.name!r}",
                        )
                    )

    # -- operator-graph cross-check --------------------------------------

    def _check_graph(
        self,
        program: ast.Program,
        defined: dict[str, ast.FunctionDef],
        issues: list[ValidationIssue],
    ) -> None:
        from ..ir.graph import build_dataflow_graph

        try:
            graph = build_dataflow_graph(program)
        except (ReproError, LoweringError):
            return  # call errors are already reported per function
        for call in graph.calls:
            callee = defined.get(call.name)
            if callee is None:
                continue
            if not call.writes:
                issues.append(
                    ValidationIssue(
                        "warning",
                        "operator-no-output",
                        graph.graph_function,
                        f"operator {call.name!r} (call #{call.index}) writes "
                        "no array: it cannot feed the dataflow graph",
                    )
                )
            written_params = {
                node.target.base.name
                for node in ast.walk(callee.body)
                if isinstance(node, ast.Assign) and isinstance(node.target, ast.Index)
            }
            if len(callee.params) == len(call.args):
                expected = {
                    arg
                    for param, arg in zip(
                        (p.name for p in callee.params), call.args
                    )
                    if param in written_params and arg != "<expr>"
                }
                if expected != set(call.writes):
                    issues.append(
                        ValidationIssue(
                            "warning",
                            "operator-report-mismatch",
                            graph.graph_function,
                            f"operator {call.name!r} (call #{call.index}): "
                            f"graph inference reports writes {sorted(call.writes)} "
                            f"but the callee writes {sorted(expected)}",
                        )
                    )


def validate_program(program: Union[str, ast.Program]) -> ValidationReport:
    """Validate with a default-configured :class:`ProgramValidator`."""
    return ProgramValidator().validate(program)


def validate_or_raise(
    program: Union[str, ast.Program], context: str = ""
) -> ValidationReport:
    """Validate and raise :class:`ValidationError` on any error."""
    return validate_program(program).raise_if_invalid(context)
