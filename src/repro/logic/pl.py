"""Propositional logic.

SWS(PL, PL) services (Section 2, "SWS classes") express both transition and
synthesis queries as propositional formulas.  An input message is a truth
assignment represented as the set of variables that are true; message and
action registers hold a single truth value.

This module provides the formula AST, a small recursive-descent parser, and
the operations the SWS machinery needs: evaluation, substitution of formulas
for variables (used when synthesis formulas are instantiated with successor
action values), variable collection, and structural simplification.

Formulas are **hash-consed**: constructing a formula returns the unique
interned node for that structure, so structurally equal formulas are
reference-identical, ``variables()`` is computed once per node, and
``simplify()`` is memoized.  Interning is what makes the compiled AFA
engine cheap — transition rows compare and hash in O(#states) regardless
of formula size, and :func:`compile_mask` caches compiled evaluators per
interned node.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Iterable, Mapping

from repro._stats import STATS
from repro.errors import QueryError

Assignment = AbstractSet[str]

# Interning tables.  One per constructor shape; keys are the constructor
# arguments (already-interned children hash in O(1) via their cached hash).
_VAR_CACHE: dict[str, "Var"] = {}
_CONST_CACHE: dict[bool, "Const"] = {}
_NOT_CACHE: dict["Formula", "Not"] = {}
_AND_CACHE: dict[tuple["Formula", ...], "And"] = {}
_OR_CACHE: dict[tuple["Formula", ...], "Or"] = {}


class Formula:
    """Base class for propositional formulas.

    Formulas are immutable, interned value objects; ``&``, ``|``, ``~`` and
    ``>>`` build conjunctions, disjunctions, negations and implications.
    """

    __slots__ = ("_hash", "_vars", "_simplified")

    def evaluate(self, assignment: Assignment) -> bool:
        """Truth value under ``assignment`` (the set of true variables)."""
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        """All variables occurring in the formula (cached per node)."""
        vars_ = self._vars
        if vars_ is None:
            vars_ = self._compute_variables()
            object.__setattr__(self, "_vars", vars_)
        return vars_

    def _compute_variables(self) -> frozenset[str]:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, "Formula"]) -> "Formula":
        """Replace variables by formulas, simultaneously.

        Shared subformulas (common under hash-consing) are rewritten once
        per call via an internal memo table.
        """
        return _substitute(self, mapping, {})

    def simplify(self) -> "Formula":
        """Bottom-up constant propagation, flattening and deduplication.

        Memoized: each interned node simplifies at most once per process.
        """
        simplified = self._simplified
        if simplified is None:
            simplified = self._compute_simplify()
            object.__setattr__(self, "_simplified", simplified)
            # A simplified formula is its own fixpoint.
            object.__setattr__(simplified, "_simplified", simplified)
        else:
            STATS.simplify_memo_hits += 1
        return simplified

    def _compute_simplify(self) -> "Formula":
        raise NotImplementedError

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self) -> "Formula":
        return self

    def __deepcopy__(self, memo) -> "Formula":
        return self

    # -- operator sugar -------------------------------------------------------

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Or((Not(self), other))


def _fresh(cls, hash_value: int) -> Formula:
    """Allocate an un-cached node with empty lazy-cache slots."""
    self = object.__new__(cls)
    object.__setattr__(self, "_hash", hash_value)
    object.__setattr__(self, "_vars", None)
    object.__setattr__(self, "_simplified", None)
    return self


class Var(Formula):
    """A propositional variable."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Var":
        cached = _VAR_CACHE.get(name)
        if cached is not None:
            STATS.intern_hits += 1
            return cached
        STATS.intern_misses += 1
        self = _fresh(cls, hash(("pl.Var", name)))
        object.__setattr__(self, "name", name)
        _VAR_CACHE[name] = self
        return self

    def evaluate(self, assignment: Assignment) -> bool:
        return self.name in assignment

    def _compute_variables(self) -> frozenset[str]:
        return frozenset({self.name})

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return mapping.get(self.name, self)

    def simplify(self) -> Formula:
        return self

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Var) and self.name == other.name)

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (Var, (self.name,))

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


class Const(Formula):
    """A propositional constant (true or false)."""

    __slots__ = ("value",)

    def __new__(cls, value: bool) -> "Const":
        value = bool(value)
        cached = _CONST_CACHE.get(value)
        if cached is not None:
            return cached
        self = _fresh(cls, hash(("pl.Const", value)))
        object.__setattr__(self, "value", value)
        _CONST_CACHE[value] = self
        return self

    def evaluate(self, assignment: Assignment) -> bool:
        return self.value

    def _compute_variables(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return self

    def simplify(self) -> Formula:
        return self

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Const) and self.value == other.value)

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (Const, (self.value,))

    def __repr__(self) -> str:
        return f"Const(value={self.value!r})"

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = Const(True)
FALSE = Const(False)


class Not(Formula):
    """Negation."""

    __slots__ = ("operand",)

    def __new__(cls, operand: Formula) -> "Not":
        cached = _NOT_CACHE.get(operand)
        if cached is not None:
            STATS.intern_hits += 1
            return cached
        STATS.intern_misses += 1
        self = _fresh(cls, hash(("pl.Not", operand)))
        object.__setattr__(self, "operand", operand)
        _NOT_CACHE[operand] = self
        return self

    def evaluate(self, assignment: Assignment) -> bool:
        return not self.operand.evaluate(assignment)

    def _compute_variables(self) -> frozenset[str]:
        return self.operand.variables()

    def _compute_simplify(self) -> Formula:
        inner = self.operand.simplify()
        if isinstance(inner, Const):
            return Const(not inner.value)
        if isinstance(inner, Not):
            return inner.operand
        return Not(inner)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Not) and self.operand == other.operand)

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (Not, (self.operand,))

    def __repr__(self) -> str:
        return f"Not(operand={self.operand!r})"

    def __str__(self) -> str:
        return f"!{_wrap(self.operand)}"


class And(Formula):
    """N-ary conjunction.  ``And(())`` is true."""

    __slots__ = ("operands",)

    def __new__(cls, operands: Iterable[Formula]) -> "And":
        operands = tuple(operands)
        cached = _AND_CACHE.get(operands)
        if cached is not None:
            STATS.intern_hits += 1
            return cached
        STATS.intern_misses += 1
        self = _fresh(cls, hash(("pl.And", operands)))
        object.__setattr__(self, "operands", operands)
        _AND_CACHE[operands] = self
        return self

    def evaluate(self, assignment: Assignment) -> bool:
        for op in self.operands:
            if not op.evaluate(assignment):
                return False
        return True

    def _compute_variables(self) -> frozenset[str]:
        return frozenset().union(*(op.variables() for op in self.operands))

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return _substitute(self, mapping, {})

    def _compute_simplify(self) -> Formula:
        flat: list[Formula] = []
        for op in self.operands:
            s = op.simplify()
            if isinstance(s, Const):
                if not s.value:
                    return FALSE
                continue
            if isinstance(s, And):
                flat.extend(s.operands)
            else:
                flat.append(s)
        # Order-preserving dedup: substitution chains replicate operands,
        # and keeping the copies blows formulas up exponentially.
        flat = list(dict.fromkeys(flat))
        if not flat:
            return TRUE
        if len(flat) == 1:
            return flat[0]
        return And(flat)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, And) and self.operands == other.operands
        )

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (And, (self.operands,))

    def __repr__(self) -> str:
        return f"And(operands={self.operands!r})"

    def __str__(self) -> str:
        if not self.operands:
            return "true"
        return " & ".join(_wrap(op) for op in self.operands)


class Or(Formula):
    """N-ary disjunction.  ``Or(())`` is false."""

    __slots__ = ("operands",)

    def __new__(cls, operands: Iterable[Formula]) -> "Or":
        operands = tuple(operands)
        cached = _OR_CACHE.get(operands)
        if cached is not None:
            STATS.intern_hits += 1
            return cached
        STATS.intern_misses += 1
        self = _fresh(cls, hash(("pl.Or", operands)))
        object.__setattr__(self, "operands", operands)
        _OR_CACHE[operands] = self
        return self

    def evaluate(self, assignment: Assignment) -> bool:
        for op in self.operands:
            if op.evaluate(assignment):
                return True
        return False

    def _compute_variables(self) -> frozenset[str]:
        return frozenset().union(*(op.variables() for op in self.operands))

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return _substitute(self, mapping, {})

    def _compute_simplify(self) -> Formula:
        flat: list[Formula] = []
        for op in self.operands:
            s = op.simplify()
            if isinstance(s, Const):
                if s.value:
                    return TRUE
                continue
            if isinstance(s, Or):
                flat.extend(s.operands)
            else:
                flat.append(s)
        flat = list(dict.fromkeys(flat))
        if not flat:
            return FALSE
        if len(flat) == 1:
            return flat[0]
        return Or(flat)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Or) and self.operands == other.operands
        )

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (Or, (self.operands,))

    def __repr__(self) -> str:
        return f"Or(operands={self.operands!r})"

    def __str__(self) -> str:
        if not self.operands:
            return "false"
        return " | ".join(_wrap(op) for op in self.operands)


def _substitute(
    formula: Formula, mapping: Mapping[str, Formula], memo: dict[Formula, Formula]
) -> Formula:
    """Simultaneous substitution with per-call sharing of rewritten nodes."""
    done = memo.get(formula)
    if done is not None:
        return done
    if isinstance(formula, Var):
        result = mapping.get(formula.name, formula)
    elif isinstance(formula, Const):
        result = formula
    elif isinstance(formula, Not):
        result = Not(_substitute(formula.operand, mapping, memo))
    elif isinstance(formula, And):
        result = And(_substitute(op, mapping, memo) for op in formula.operands)
    elif isinstance(formula, Or):
        result = Or(_substitute(op, mapping, memo) for op in formula.operands)
    else:  # pragma: no cover - closed AST
        raise QueryError(f"cannot substitute into {type(formula).__name__}")
    memo[formula] = result
    return result


def _wrap(formula: Formula) -> str:
    if isinstance(formula, (Var, Const, Not)):
        return str(formula)
    return f"({formula})"


def conjoin(formulas: Iterable[Formula]) -> Formula:
    """Conjunction of a (possibly empty) collection, simplified."""
    return And(formulas).simplify()


def disjoin(formulas: Iterable[Formula]) -> Formula:
    """Disjunction of a (possibly empty) collection, simplified."""
    return Or(formulas).simplify()


def iff(left: Formula, right: Formula) -> Formula:
    """Biconditional, expressed through the core connectives."""
    return (left & right) | (~left & ~right)


# -- compiled evaluation ------------------------------------------------------
#
# The AFA hot path evaluates the same transition formulas over millions of
# valuation vectors.  compile_mask() turns a formula into a closure over an
# *int bitset* (bit i = variable index[i] is true).  A whole transition
# row — one formula per target bit — is analysed once into a RowPlan: the
# generated AFA searchers render plans into their loop bodies, and
# row_function() turns one into a single-step mask → mask function.  In
# generated code shared subformulas are hoisted into locals, so shared
# nodes (ubiquitous under hash-consing) evaluate exactly once per call,
# and the code runs on int masks and shifts instead of AST recursion over
# frozensets.

#: Compiled evaluators keyed by the interned formula(s) plus the bit
#: positions of their own variables — the generated code reads nothing
#: else of the index, so engines with different state sets share entries.
#: A key can hold large row formulas, so the cache is cleared at its limit.
_COMPILE_CACHE: dict[tuple, Callable] = {}
_COMPILE_CACHE_LIMIT = 256


def _compiled(key: tuple, build: Callable[[], Callable]) -> Callable:
    """The cached evaluator for ``key``, built on a miss."""
    fn = _COMPILE_CACHE.get(key)
    if fn is not None:
        STATS.compile_cache_hits += 1
        return fn
    STATS.compile_cache_misses += 1
    if len(_COMPILE_CACHE) >= _COMPILE_CACHE_LIMIT:
        _COMPILE_CACHE.clear()
    fn = _COMPILE_CACHE[key] = build()
    return fn


def _positions(formula: Formula, index: Mapping[str, int]) -> tuple[int, ...]:
    # ``variables()`` is cached per interned node, so its iteration order
    # is fixed for a given formula and the tuple is a canonical key part.
    return tuple(index[name] for name in formula.variables())


def _is_literal(node: Formula) -> bool:
    return isinstance(node, Var) or (
        isinstance(node, Not) and isinstance(node.operand, Var)
    )


class RowPlan:
    """One transition row, analysed once for every evaluator of it.

    A row pairs distinct output positions with the formulas that set
    them; ``index`` maps each variable to its input bit.  The plan keeps
    three parts:

    * ``constant`` — the bits of the constant-true entries;
    * ``moves`` — the literal entries, grouped into ``(negated, shift,
      mask)`` triples: every position ``i`` in ``mask`` copies input bit
      ``i + shift`` (complemented when ``negated``), so a whole group costs
      one shift and one mask;
    * ``compound`` — every other ``(position, formula)`` entry, in row
      order.

    Constant-false entries set nothing and are dropped.  The groups keep
    the order of their first entries, the order the searchers render them
    in.
    """

    __slots__ = ("constant", "moves", "compound")

    def __init__(
        self, entries: Iterable[tuple[int, Formula]], index: Mapping[str, int]
    ) -> None:
        moves: dict[tuple[bool, int], int] = {}
        compound: list[tuple[int, Formula]] = []
        constant = 0
        for i, formula in entries:
            if formula is FALSE:
                continue
            if formula is TRUE:
                constant |= 1 << i
            elif _is_literal(formula):
                negated = isinstance(formula, Not)
                var = formula.operand if negated else formula
                move = (negated, index[var.name] - i)
                moves[move] = moves.get(move, 0) | 1 << i
            else:
                compound.append((i, formula))
        self.constant = constant
        self.moves = tuple((negated, shift, mask) for (negated, shift), mask in moves.items())
        self.compound = tuple(compound)


class _MaskCodegen:
    """Shared-subexpression codegen over an int bitset argument ``v``.

    Every subformula evaluates to a 0/1 value (``Var`` extracts a bit;
    ``and``/``or`` on 0/1 operands return 0/1 and short-circuit, which
    matters on conjunction-heavy rows).  The literal operands of an
    ``And``/``Or`` fuse into one mask test: with ``P`` the bits of the
    positive literals, ``N`` those of the negated ones and ``M = P | N``,
    a conjunction tests ``(v & M) == P`` and a disjunction
    ``(v & M) != N`` — one test instead of a bit extraction per literal.
    A variable occurring both ways makes the conjunction ``0`` and the
    disjunction ``1``.  Only subformulas referenced more than once across
    the compilation unit are hoisted into locals — singly-referenced nodes
    inline into one big expression, which CPython evaluates far faster
    than a store/load per node.
    """

    def __init__(
        self, index: Mapping[str, int], arg: str = "v", prefix: str = "t"
    ) -> None:
        self._index = index
        self._arg = arg
        self._prefix = prefix
        self._names: dict[Formula, str] = {}
        self._refs: dict[Formula, int] = {}
        self.lines: list[str] = []

    def count_refs(self, node: Formula) -> None:
        """First pass: count DAG parent edges per internal node.

        Literal operands of ``And``/``Or`` are skipped: they fuse into
        their parent's mask test and are never emitted on their own.
        """
        seen = self._refs.get(node, 0)
        self._refs[node] = seen + 1
        if seen:
            return
        if isinstance(node, Not):
            self.count_refs(node.operand)
        elif isinstance(node, (And, Or)):
            for op in node.operands:
                if not _is_literal(op):
                    self.count_refs(op)

    def _junction(self, node: Formula) -> str:
        conjunction = isinstance(node, And)
        positive = negative = 0
        rest: list[Formula] = []
        for op in node.operands:
            if isinstance(op, Var):
                positive |= 1 << self._index[op.name]
            elif _is_literal(op):
                negative |= 1 << self._index[op.operand.name]
            else:
                rest.append(op)
        if positive & negative:
            return "0" if conjunction else "1"
        parts = []
        if positive | negative:
            test = f"== {positive}" if conjunction else f"!= {negative}"
            parts.append(f"({self._arg} & {positive | negative}) {test}")
        parts += [self.expr(op) for op in rest]
        if not parts:
            return "1" if conjunction else "0"
        return "(" + (" and " if conjunction else " or ").join(parts) + ")"

    def expr(self, node: Formula) -> str:
        known = self._names.get(node)
        if known is not None:
            return known
        if isinstance(node, Var):
            e = f"({self._arg} >> {self._index[node.name]} & 1)"
        elif isinstance(node, Const):
            e = "1" if node.value else "0"
        elif isinstance(node, Not):
            e = f"(not {self.expr(node.operand)})"
        elif isinstance(node, (And, Or)):
            e = self._junction(node)
        else:  # pragma: no cover - closed AST
            raise QueryError(f"cannot compile {type(node).__name__}")
        if isinstance(node, (Not, And, Or)) and self._refs.get(node, 0) > 1:
            temp = f"{self._prefix}{len(self.lines)}"
            self.lines.append(f"    {temp} = {e}")
            self._names[node] = temp
            return temp
        self._names[node] = e
        return e

    def count_row(self, compound: Iterable[tuple[int, Formula]]) -> None:
        """First pass over a row's compound ``(output position, formula)`` entries."""
        for _, formula in compound:
            self.count_refs(formula)

    def compound_terms(self, compound: Iterable[tuple[int, Formula]]) -> list[str]:
        """One term per compound entry: its formula's 0/1 value at its position."""
        terms = []
        for i, formula in compound:
            e = self.expr(formula)
            terms.append(f"({e} << {i})" if i else e)
        return terms

    def row(self, plan: RowPlan) -> str:
        """One expression setting each output position its plan entry holds at.

        Compound entries come first, then one ``(v >> d) & M`` term per
        literal move (a run of bit moves costs a single shift), then the
        constant-true bits as one literal mask.
        """
        terms = self.compound_terms(plan.compound)
        for negated, shift, mask in plan.moves:
            source = f"~{self._arg}" if negated else self._arg
            if shift:
                source = f"({source} >> {shift})" if shift > 0 else f"({source} << {-shift})"
            terms.append(f"({source} & {mask})")
        if plan.constant:
            terms.append(str(plan.constant))
        return " | ".join(terms) if terms else "0"


def _assemble(name: str, header: str, lines: list[str], footer: str) -> Callable:
    source = f"def {name}(v):\n{header}" + "\n".join(lines) + f"\n{footer}\n"
    namespace: dict = {}
    exec(compile(source, f"<pl.{name}>", "exec"), namespace)
    return namespace[name]


def compile_mask(
    formula: Formula, index: Mapping[str, int]
) -> Callable[[int], bool]:
    """Compile ``formula`` into ``fn(mask) -> bool`` over an int bitset.

    ``index`` maps each variable to its bit position.  Compiled functions
    are cached per (interned formula, bit positions of its variables).
    """

    def build() -> Callable[[int], bool]:
        gen = _MaskCodegen(index)
        gen.count_refs(formula)
        root = gen.expr(formula)
        return _assemble("_compiled", "", gen.lines, f"    return bool({root})")

    return _compiled(("mask", formula, _positions(formula, index)), build)


def row_function(plan: RowPlan, index: Mapping[str, int]) -> Callable[[int], int]:
    """The single-step ``fn(mask) -> mask`` of ``plan``: one AFA ``pre_step`` on one class.

    No code is generated for the row as a whole.  The literal moves and
    the constant bits are evaluated directly, as ``(v >> d) & M``; only
    the compound entries compile, into one function cached by those
    entries alone (with their variables' bit positions), so every row
    sharing them shares it.
    """
    compound = plan.compound
    # Output positions are pairwise distinct, so every part sets its own
    # bits: starting from the constant bits plus the masks of the negated
    # moves, XOR-ing in each move's shifted input bits sets the positive
    # moves' bits and complements the negated ones'.
    fixed = plan.constant
    right: list[tuple[int, int]] = []
    left: list[tuple[int, int]] = []
    for negated, shift, mask in plan.moves:
        if negated:
            fixed |= mask
        if shift >= 0:
            right.append((shift, mask))
        else:
            left.append((-shift, mask))
    fn = None
    if compound:

        def build() -> Callable[[int], int]:
            gen = _MaskCodegen(index)
            gen.count_row(compound)
            terms = gen.compound_terms(compound)
            return _assemble("_row", "", gen.lines, "    return " + " | ".join(terms))

        key = ("row", compound, tuple(_positions(f, index) for _, f in compound))
        fn = _compiled(key, build)

    def step(v: int) -> int:
        out = fixed
        for shift, mask in right:
            out ^= v >> shift & mask
        for shift, mask in left:
            out ^= v << shift & mask
        return out if fn is None else out | fn(v)

    return step


# -- parser -----------------------------------------------------------------
#
# Grammar (lowest to highest precedence):
#   formula    := implication
#   implication:= disjunction ('->' implication)?
#   disjunction:= conjunction ('|' conjunction)*
#   conjunction:= unary ('&' unary)*
#   unary      := '!' unary | atom
#   atom       := 'true' | 'false' | identifier | '(' formula ')'


class _Parser:
    def __init__(self, text: str) -> None:
        self._tokens = self._tokenize(text)
        self._pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "()&|!":
                tokens.append(ch)
                i += 1
            elif text.startswith("->", i):
                tokens.append("->")
                i += 2
            elif ch.isalnum() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(text[i:j])
                i = j
            else:
                raise QueryError(f"unexpected character {ch!r} in formula {text!r}")
        return tokens

    def _peek(self) -> str | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise QueryError("unexpected end of formula")
        self._pos += 1
        return token

    def parse(self) -> Formula:
        formula = self._implication()
        if self._peek() is not None:
            raise QueryError(f"trailing tokens after formula: {self._tokens[self._pos:]}")
        return formula

    def _implication(self) -> Formula:
        left = self._disjunction()
        if self._peek() == "->":
            self._next()
            right = self._implication()
            return Or((Not(left), right))
        return left

    def _disjunction(self) -> Formula:
        operands = [self._conjunction()]
        while self._peek() == "|":
            self._next()
            operands.append(self._conjunction())
        if len(operands) == 1:
            return operands[0]
        return Or(operands)

    def _conjunction(self) -> Formula:
        operands = [self._unary()]
        while self._peek() == "&":
            self._next()
            operands.append(self._unary())
        if len(operands) == 1:
            return operands[0]
        return And(operands)

    def _unary(self) -> Formula:
        if self._peek() == "!":
            self._next()
            return Not(self._unary())
        return self._atom()

    def _atom(self) -> Formula:
        token = self._next()
        if token == "(":
            inner = self._implication()
            if self._next() != ")":
                raise QueryError("unbalanced parentheses in formula")
            return inner
        if token == "true":
            return TRUE
        if token == "false":
            return FALSE
        if token in {")", "&", "|", "->", "!"}:
            raise QueryError(f"unexpected token {token!r} in formula")
        return Var(token)


def parse(text: str) -> Formula:
    """Parse a formula from its textual syntax.

    Connectives: ``!`` (not), ``&`` (and), ``|`` (or), ``->`` (implies);
    constants ``true`` / ``false``; identifiers are variables.
    """
    return _Parser(text).parse()
