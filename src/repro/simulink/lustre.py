"""LUSTRE-like textual representation — the SCADE leg of the conversion.

The paper's tool-chain (Fig. 3) does not translate Simulink models directly:
it routes them through SCADE, "because internally, SCADE uses a textual
representation of the model in terms of the programming language LUSTRE,
from which we could then extract the multi-domain constraint satisfaction
problems".  SCADE is proprietary; this module supplies the same intermediate
hop: a single-node combinational LUSTRE dialect with

* a pretty-printer from :class:`~repro.simulink.model.SimulinkModel`,
* a parser back into a :class:`LustreProgram`,
* symbolic resolution of the equation system into input-level formulas.

Input ranges (the sensor intervals of Sec. 3) travel through the text as
``--%range`` pragmas, mirroring SCADE's annotation mechanism.

Dialect grammar (per equation right-hand side)::

    impl  := disj ('=>' impl)?
    disj  := conj ('or' conj)*
    conj  := neg ('and' neg)*
    neg   := 'not' neg | cmp
    cmp   := arith (('<'|'<='|'>'|'>='|'=') arith)?
    arith := term (('+'|'-') term)*
    term  := factor (('*'|'/') factor)*
    factor:= '-' factor | atom
    atom  := number | ident | 'true' | 'false' | fn '(' impl ')' | '(' impl ')'
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.expr import (
    Add,
    Call,
    Const,
    Constraint,
    Div,
    Expr,
    FUNCTION_TABLE,
    Mul,
    Neg,
    Relation,
    Sub,
    Var,
)
from ..sat.tseitin import BAnd, BConst, BImplies, BNot, BoolExpr, BOr, BVar
from .blocks import (
    BoolInport,
    Inport,
    Outport,
    RelationalOperator,
    SIGNAL_BOOL,
    Symbolic,
)
from .model import SimulinkModel

__all__ = ["LustreError", "LustreProgram", "model_to_lustre", "parse_lustre"]


class LustreError(Exception):
    """Malformed LUSTRE text or an unresolvable equation system."""


class LustreProgram:
    """A parsed single-node program.

    Attributes:
        name: node name.
        inputs: ordered (name, type) pairs; type is 'real' or 'bool'.
        outputs: ordered (name, type) pairs.
        locals_: ordered (name, type) pairs.
        equations: ordered (target, rhs-text) pairs.
        ranges: input name -> (low, high), from ``--%range`` pragmas.
    """

    def __init__(self, name: str):
        self.name = name
        self.inputs: List[Tuple[str, str]] = []
        self.outputs: List[Tuple[str, str]] = []
        self.locals_: List[Tuple[str, str]] = []
        self.equations: List[Tuple[str, str]] = []
        self.ranges: Dict[str, Tuple[Optional[float], Optional[float]]] = {}

    # ------------------------------------------------------------------
    def resolve(self) -> Dict[str, Symbolic]:
        """Inline all equations; returns output name -> input-level formula.

        Comparison atoms stay as :class:`Constraint` leaves wrapped in
        Boolean variables internally; use :meth:`resolve_with_atoms` when
        the caller needs the atom table.
        """
        signals, _ = self.resolve_with_atoms()
        return signals

    def resolve_with_atoms(self) -> Tuple[Dict[str, Symbolic], Dict[str, Constraint]]:
        """Like :meth:`resolve` but also returns atom-name -> constraint."""
        env: Dict[str, Symbolic] = {}
        for name, type_ in self.inputs:
            env[name] = BVar(name) if type_ == "bool" else Var(name)
        atoms: Dict[str, Constraint] = {}
        pending = list(self.equations)
        progress = True
        while pending and progress:
            progress = False
            remaining: List[Tuple[str, str]] = []
            for target, rhs in pending:
                parser = _RHSParser(rhs, env, atoms)
                try:
                    value = parser.parse()
                except _Unresolved:
                    remaining.append((target, rhs))
                    continue
                env[target] = value
                progress = True
            pending = remaining
        if pending:
            unresolved = ", ".join(target for target, _ in pending)
            raise LustreError(f"cyclic or dangling equations for: {unresolved}")
        missing = [name for name, _ in self.outputs if name not in env]
        if missing:
            raise LustreError(f"outputs without equations: {missing}")
        return {name: env[name] for name, _ in self.outputs}, atoms

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Serialize back to LUSTRE text."""
        def decls(pairs: Sequence[Tuple[str, str]]) -> str:
            return "; ".join(f"{name}: {type_}" for name, type_ in pairs)

        lines: List[str] = []
        for name, (low, high) in sorted(self.ranges.items()):
            low_text = "-" if low is None else repr(low)
            high_text = "-" if high is None else repr(high)
            lines.append(f"--%range {name} {low_text} {high_text}")
        lines.append(f"node {self.name} ({decls(self.inputs)}) returns ({decls(self.outputs)});")
        if self.locals_:
            lines.append(f"var {decls(self.locals_)};")
        lines.append("let")
        for target, rhs in self.equations:
            lines.append(f"  {target} = {rhs};")
        lines.append("tel")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"LustreProgram({self.name!r}, {len(self.inputs)} inputs, "
            f"{len(self.equations)} equations)"
        )


# ----------------------------------------------------------------------
# Pretty-printing a model
# ----------------------------------------------------------------------
def _expr_to_lustre(expr: Symbolic) -> str:
    """Serialize an Expr/BoolExpr in the dialect's concrete syntax."""
    if isinstance(expr, Expr):
        return str(expr).replace("^", "**")  # Pow never emitted by blocks
    if isinstance(expr, BVar):
        return expr.name
    if isinstance(expr, BConst):
        return "true" if expr.value else "false"
    if isinstance(expr, BNot):
        return f"not ({_expr_to_lustre(expr.arg)})"
    if isinstance(expr, BAnd):
        return "(" + " and ".join(_expr_to_lustre(a) for a in expr.args) + ")"
    if isinstance(expr, BOr):
        return "(" + " or ".join(_expr_to_lustre(a) for a in expr.args) + ")"
    if isinstance(expr, BImplies):
        return f"({_expr_to_lustre(expr.antecedent)} => {_expr_to_lustre(expr.consequent)})"
    raise LustreError(f"cannot serialize {type(expr).__name__} to LUSTRE")


def model_to_lustre(model: SimulinkModel) -> LustreProgram:
    """Translate a block model into a single LUSTRE node.

    Every non-port block contributes one local equation, mirroring how the
    SCADE gateway flattens dataflow diagrams.
    """
    model.validate()
    program = LustreProgram(model.name or "node0")
    for inport in model.inports():
        type_ = "bool" if isinstance(inport, BoolInport) else "real"
        program.inputs.append((inport.name, type_))
        if isinstance(inport, Inport) and (inport.low is not None or inport.high is not None):
            program.ranges[inport.name] = (inport.low, inport.high)
    for outport in model.outports():
        type_ = "bool" if outport.output_type == SIGNAL_BOOL else "real"
        program.outputs.append((outport.name, type_))

    local_name: Dict[str, str] = {}
    for block_name in model._topological_order():
        block = model.blocks[block_name]
        if isinstance(block, (Inport, BoolInport)):
            local_name[block_name] = block.name
            continue
        drivers = [
            local_name[model.driver_of(block_name, port)]  # type: ignore[index]
            for port in range(block.num_inputs)
        ]
        if isinstance(block, Outport):
            program.equations.append((block.name, drivers[0]))
            local_name[block_name] = block.name
            continue
        # flattened subsystem names contain '/', which is not a LUSTRE
        # identifier character
        target = "s_" + block.name.replace("/", "__")
        local_name[block_name] = target
        type_ = "bool" if block.output_type == SIGNAL_BOOL else "real"
        program.locals_.append((target, type_))
        if isinstance(block, RelationalOperator):
            op = "=" if block.op == "==" else block.op
            program.equations.append((target, f"{drivers[0]} {op} {drivers[1]}"))
            continue
        symbolic_inputs: List[Symbolic] = [
            (BVar(d) if block.input_type == SIGNAL_BOOL else Var(d)) for d in drivers
        ]
        program.equations.append((target, _expr_to_lustre(block.symbolic(symbolic_inputs))))
    return program


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def parse_lustre(text: str) -> LustreProgram:
    """Parse a single-node program emitted by :func:`model_to_lustre`."""
    ranges: Dict[str, Tuple[Optional[float], Optional[float]]] = {}
    body_lines: List[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("--%range"):
            parts = line.split()
            if len(parts) != 4:
                raise LustreError(f"malformed range pragma: {line!r}")
            low = None if parts[2] == "-" else float(parts[2])
            high = None if parts[3] == "-" else float(parts[3])
            ranges[parts[1]] = (low, high)
            continue
        if line.startswith("--"):
            continue
        body_lines.append(line)
    body = " ".join(body_lines)

    import re

    header = re.match(
        r"node\s+(\w+)\s*\((.*?)\)\s*returns\s*\((.*?)\)\s*;(.*)", body, re.DOTALL
    )
    if header is None:
        raise LustreError("missing node header")
    program = LustreProgram(header.group(1))
    program.ranges = ranges
    program.inputs = _parse_decls(header.group(2))
    program.outputs = _parse_decls(header.group(3))
    rest = header.group(4).strip()
    if rest.startswith("var"):
        var_end = rest.index(";", 3)
        # locals may span several ';'-separated groups until 'let'
        let_index = rest.index("let")
        program.locals_ = _parse_decls(rest[3:let_index].strip().rstrip(";"))
        rest = rest[let_index:]
    if not rest.startswith("let"):
        raise LustreError("missing let block")
    if "tel" not in rest:
        raise LustreError("missing tel")
    equations_text = rest[3 : rest.rindex("tel")]
    for piece in equations_text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise LustreError(f"malformed equation {piece!r}")
        target, rhs = piece.split("=", 1)
        program.equations.append((target.strip(), rhs.strip()))
    return program


def _parse_decls(text: str) -> List[Tuple[str, str]]:
    result: List[Tuple[str, str]] = []
    for group in text.split(";"):
        group = group.strip()
        if not group:
            continue
        if ":" not in group:
            raise LustreError(f"malformed declaration {group!r}")
        names, type_ = group.rsplit(":", 1)
        type_ = type_.strip()
        if type_ not in ("real", "bool", "int"):
            raise LustreError(f"unknown LUSTRE type {type_!r}")
        for name in names.split(","):
            result.append((name.strip(), "bool" if type_ == "bool" else type_))
    return result


# ----------------------------------------------------------------------
# Right-hand-side parsing with an environment
# ----------------------------------------------------------------------
class _Unresolved(Exception):
    """An identifier is not yet bound (fixpoint will retry)."""


_REL_SYMBOLS = ("<=", ">=", "<", ">", "=")


class _RHSParser:
    """Parses one equation RHS, resolving identifiers via ``env``."""

    def __init__(self, text: str, env: Dict[str, Symbolic], atoms: Dict[str, Constraint]):
        self.text = text
        self.env = env
        self.atoms = atoms
        self.tokens = self._tokenize(text)
        self.index = 0

    @staticmethod
    def _tokenize(text: str) -> List[str]:
        tokens: List[str] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if text.startswith("=>", i):
                tokens.append("=>")
                i += 2
                continue
            if text.startswith("<=", i) or text.startswith(">=", i):
                tokens.append(text[i : i + 2])
                i += 2
                continue
            if ch in "()+-*/<>=":
                tokens.append(ch)
                i += 1
                continue
            if ch.isdigit() or ch == ".":
                j = i
                while j < n and (text[j].isdigit() or text[j] in ".eE" or (text[j] in "+-" and text[j - 1] in "eE")):
                    j += 1
                tokens.append(text[i:j])
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(text[i:j])
                i = j
                continue
            raise LustreError(f"bad character {ch!r} in equation {text!r}")
        return tokens

    # -- token helpers ----------------------------------------------------
    def _peek(self) -> Optional[str]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise LustreError(f"unexpected end of equation {self.text!r}")
        self.index += 1
        return token

    def _expect(self, token: str) -> None:
        got = self._next()
        if got != token:
            raise LustreError(f"expected {token!r}, got {got!r} in {self.text!r}")

    # -- grammar ------------------------------------------------------------
    def parse(self) -> Symbolic:
        value = self._impl()
        if self._peek() is not None:
            raise LustreError(f"trailing tokens in {self.text!r}")
        return value

    def _impl(self) -> Symbolic:
        left = self._disj()
        if self._peek() == "=>":
            self._next()
            right = self._impl()
            return BImplies(self._as_bool(left), self._as_bool(right))
        return left

    def _disj(self) -> Symbolic:
        parts = [self._conj()]
        while self._peek() == "or":
            self._next()
            parts.append(self._conj())
        if len(parts) == 1:
            return parts[0]
        return BOr(*[self._as_bool(p) for p in parts])

    def _conj(self) -> Symbolic:
        parts = [self._neg()]
        while self._peek() == "and":
            self._next()
            parts.append(self._neg())
        if len(parts) == 1:
            return parts[0]
        return BAnd(*[self._as_bool(p) for p in parts])

    def _neg(self) -> Symbolic:
        if self._peek() == "not":
            self._next()
            return BNot(self._as_bool(self._neg()))
        return self._cmp()

    def _cmp(self) -> Symbolic:
        left = self._arith()
        if self._peek() in _REL_SYMBOLS:
            op = self._next()
            right = self._arith()
            if not isinstance(left, Expr) or not isinstance(right, Expr):
                raise LustreError(f"comparison of Boolean operands in {self.text!r}")
            constraint = Constraint(left, Relation.from_symbol(op), right)
            return self._atom(constraint)
        return left

    def _atom(self, constraint: Constraint) -> BoolExpr:
        for name, existing in self.atoms.items():
            if existing == constraint:
                return BVar(name)
        name = f"__atom{len(self.atoms)}__"
        self.atoms[name] = constraint
        return BVar(name)

    def _arith(self) -> Symbolic:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()
            right = self._term()
            value = (
                Add(self._as_expr(value), self._as_expr(right))
                if op == "+"
                else Sub(self._as_expr(value), self._as_expr(right))
            )
        return value

    def _term(self) -> Symbolic:
        value = self._factor()
        while self._peek() in ("*", "/"):
            op = self._next()
            right = self._factor()
            value = (
                Mul(self._as_expr(value), self._as_expr(right))
                if op == "*"
                else Div(self._as_expr(value), self._as_expr(right))
            )
        return value

    def _factor(self) -> Symbolic:
        token = self._peek()
        if token == "-":
            self._next()
            return Neg(self._as_expr(self._factor()))
        return self._primary()

    def _primary(self) -> Symbolic:
        token = self._next()
        if token == "(":
            value = self._impl()
            self._expect(")")
            return value
        if token == "true":
            return BConst(True)
        if token == "false":
            return BConst(False)
        first = token[0]
        if first.isdigit() or first == ".":
            return Const(float(token) if any(c in token for c in ".eE") else int(token))
        if first.isalpha() or first == "_":
            if token in FUNCTION_TABLE and self._peek() == "(":
                self._next()
                arg = self._impl()
                self._expect(")")
                return Call(token, self._as_expr(arg))
            if token not in self.env:
                raise _Unresolved(token)
            return self.env[token]
        raise LustreError(f"unexpected token {token!r} in {self.text!r}")

    @staticmethod
    def _as_bool(value: Symbolic) -> BoolExpr:
        if isinstance(value, BoolExpr):
            return value
        raise LustreError(f"expected a Boolean operand, got arithmetic {value}")

    @staticmethod
    def _as_expr(value: Symbolic) -> Expr:
        if isinstance(value, Expr):
            return value
        raise LustreError(f"expected an arithmetic operand, got Boolean {value!r}")
