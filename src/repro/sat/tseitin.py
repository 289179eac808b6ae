"""Tseitin transformation: Boolean formula trees -> equisatisfiable CNF.

The Simulink/LUSTRE conversion pipeline (paper, Sec. 3 and Fig. 3) produces a
Boolean formula tree whose leaves are either pure Boolean signals or
arithmetic comparisons.  This module encodes such trees into CNF by
introducing one fresh definition variable per internal gate, which is exactly
how the paper obtains its "976 CNF-clauses" from the steering model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .cnf import CNF

__all__ = ["BoolExpr", "BVar", "BNot", "BAnd", "BOr", "BXor", "BImplies", "BIff", "BConst", "tseitin_encode", "TseitinResult"]


class BoolExpr:
    """Base class for Boolean formula nodes (structural, hashable)."""

    __slots__ = ()

    def __invert__(self) -> "BoolExpr":
        return BNot(self)

    def __and__(self, other: "BoolExpr") -> "BoolExpr":
        return BAnd(self, other)

    def __or__(self, other: "BoolExpr") -> "BoolExpr":
        return BOr(self, other)

    def __xor__(self, other: "BoolExpr") -> "BoolExpr":
        return BXor(self, other)

    def implies(self, other: "BoolExpr") -> "BoolExpr":
        return BImplies(self, other)

    def iff(self, other: "BoolExpr") -> "BoolExpr":
        return BIff(self, other)

    def children(self) -> Tuple["BoolExpr", ...]:
        raise NotImplementedError

    def evaluate(self, env: Dict[str, bool]) -> bool:
        raise NotImplementedError

    def atoms(self) -> "set[str]":
        result: set = set()
        stack: List[BoolExpr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, BVar):
                result.add(node.name)
            else:
                stack.extend(node.children())
        return result


class BConst(BoolExpr):
    """A Boolean literal constant."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        object.__setattr__(self, "value", bool(value))

    def __setattr__(self, name, value):
        raise AttributeError("BConst is immutable")

    def children(self) -> Tuple[BoolExpr, ...]:
        return ()

    def evaluate(self, env: Dict[str, bool]) -> bool:
        return self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BConst) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("BConst", self.value))

    def __repr__(self) -> str:
        return "true" if self.value else "false"


class BVar(BoolExpr):
    """A named Boolean atom (either a signal or an arithmetic-constraint tag)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("BVar is immutable")

    def children(self) -> Tuple[BoolExpr, ...]:
        return ()

    def evaluate(self, env: Dict[str, bool]) -> bool:
        return env[self.name]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BVar) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("BVar", self.name))

    def __repr__(self) -> str:
        return self.name


class BNot(BoolExpr):
    __slots__ = ("arg",)

    def __init__(self, arg: BoolExpr):
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, name, value):
        raise AttributeError("BNot is immutable")

    def children(self) -> Tuple[BoolExpr, ...]:
        return (self.arg,)

    def evaluate(self, env: Dict[str, bool]) -> bool:
        return not self.arg.evaluate(env)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BNot) and other.arg == self.arg

    def __hash__(self) -> int:
        return hash(("BNot", self.arg))

    def __repr__(self) -> str:
        return f"!({self.arg!r})"


class _NaryOp(BoolExpr):
    __slots__ = ("args",)
    _name = "?"

    def __init__(self, *args: BoolExpr):
        if len(args) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two operands")
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def children(self) -> Tuple[BoolExpr, ...]:
        return self.args

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.args == self.args  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.args))

    def __repr__(self) -> str:
        inner = f" {self._name} ".join(repr(a) for a in self.args)
        return f"({inner})"


class BAnd(_NaryOp):
    _name = "&"
    __slots__ = ()

    def evaluate(self, env: Dict[str, bool]) -> bool:
        return all(arg.evaluate(env) for arg in self.args)


class BOr(_NaryOp):
    _name = "|"
    __slots__ = ()

    def evaluate(self, env: Dict[str, bool]) -> bool:
        return any(arg.evaluate(env) for arg in self.args)


class BXor(_NaryOp):
    _name = "^"
    __slots__ = ()

    def evaluate(self, env: Dict[str, bool]) -> bool:
        result = False
        for arg in self.args:
            result ^= arg.evaluate(env)
        return result


class BImplies(BoolExpr):
    __slots__ = ("antecedent", "consequent")

    def __init__(self, antecedent: BoolExpr, consequent: BoolExpr):
        object.__setattr__(self, "antecedent", antecedent)
        object.__setattr__(self, "consequent", consequent)

    def __setattr__(self, name, value):
        raise AttributeError("BImplies is immutable")

    def children(self) -> Tuple[BoolExpr, ...]:
        return (self.antecedent, self.consequent)

    def evaluate(self, env: Dict[str, bool]) -> bool:
        return (not self.antecedent.evaluate(env)) or self.consequent.evaluate(env)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BImplies)
            and other.antecedent == self.antecedent
            and other.consequent == self.consequent
        )

    def __hash__(self) -> int:
        return hash(("BImplies", self.antecedent, self.consequent))

    def __repr__(self) -> str:
        return f"({self.antecedent!r} -> {self.consequent!r})"


class BIff(BoolExpr):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: BoolExpr, rhs: BoolExpr):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __setattr__(self, name, value):
        raise AttributeError("BIff is immutable")

    def children(self) -> Tuple[BoolExpr, ...]:
        return (self.lhs, self.rhs)

    def evaluate(self, env: Dict[str, bool]) -> bool:
        return self.lhs.evaluate(env) == self.rhs.evaluate(env)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BIff) and other.lhs == self.lhs and other.rhs == self.rhs

    def __hash__(self) -> int:
        return hash(("BIff", self.lhs, self.rhs))

    def __repr__(self) -> str:
        return f"({self.lhs!r} <-> {self.rhs!r})"


class TseitinResult:
    """Outcome of a Tseitin encoding.

    Attributes:
        cnf: the equisatisfiable CNF formula.
        atom_map: Boolean atom name -> DIMACS variable index.
        root_literal: the literal asserted true (the formula's output pin).
    """

    def __init__(self, cnf: CNF, atom_map: Dict[str, int], root_literal: int):
        self.cnf = cnf
        self.atom_map = atom_map
        self.root_literal = root_literal


def tseitin_encode(
    formula: BoolExpr,
    cnf: Optional[CNF] = None,
    atom_map: Optional[Dict[str, int]] = None,
    assert_root: bool = True,
) -> TseitinResult:
    """Encode ``formula`` into CNF with fresh gate-definition variables.

    Shared sub-formulas (by structural equality) are encoded once.  When
    ``cnf``/``atom_map`` are given, the encoding extends them in place, which
    lets a converter accumulate several assertions into one problem.
    """
    if cnf is None:
        cnf = CNF()
    if atom_map is None:
        atom_map = {}
    cache: Dict[BoolExpr, int] = {}

    def lit_for(node: BoolExpr) -> int:
        if node in cache:
            return cache[node]
        literal = _encode(node)
        cache[node] = literal
        return literal

    def _encode(node: BoolExpr) -> int:
        if isinstance(node, BConst):
            var = cnf.new_var()
            cnf.add_clause([var] if node.value else [-var])
            return var
        if isinstance(node, BVar):
            if node.name not in atom_map:
                atom_map[node.name] = cnf.new_var()
            return atom_map[node.name]
        if isinstance(node, BNot):
            return -lit_for(node.arg)
        if isinstance(node, BAnd):
            literals = [lit_for(arg) for arg in node.args]
            gate = cnf.new_var()
            for literal in literals:
                cnf.add_clause([-gate, literal])
            cnf.add_clause([gate] + [-l for l in literals])
            return gate
        if isinstance(node, BOr):
            literals = [lit_for(arg) for arg in node.args]
            gate = cnf.new_var()
            for literal in literals:
                cnf.add_clause([gate, -literal])
            cnf.add_clause([-gate] + literals)
            return gate
        if isinstance(node, BXor):
            literals = [lit_for(arg) for arg in node.args]
            gate = literals[0]
            for literal in literals[1:]:
                fresh = cnf.new_var()
                # fresh <-> gate XOR literal
                cnf.add_clause([-fresh, gate, literal])
                cnf.add_clause([-fresh, -gate, -literal])
                cnf.add_clause([fresh, gate, -literal])
                cnf.add_clause([fresh, -gate, literal])
                gate = fresh
            return gate
        if isinstance(node, BImplies):
            return lit_for(BOr(BNot(node.antecedent), node.consequent))
        if isinstance(node, BIff):
            a, b = lit_for(node.lhs), lit_for(node.rhs)
            gate = cnf.new_var()
            cnf.add_clause([-gate, -a, b])
            cnf.add_clause([-gate, a, -b])
            cnf.add_clause([gate, a, b])
            cnf.add_clause([gate, -a, -b])
            return gate
        raise TypeError(f"unknown Boolean node {type(node).__name__}")

    root = lit_for(formula)
    if assert_root:
        cnf.add_clause([root])
    return TseitinResult(cnf, atom_map, root)
