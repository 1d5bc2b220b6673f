"""Query tree nodes, canonical serialization, and clause extraction.

A parsed query is a binary tree: internal nodes are set operations over
exactly two children, leaves are single SELECT statements. A leaf holds
the canonical text of each of its nine clauses (lowercased words,
byte-exact string literals, numbers as written, tokens separated by
single spaces), so matching is plain text equality and serialization
only puts the clause keywords back.
"""

from dataclasses import dataclass
from typing import Optional, NamedTuple, Union

# The nine clause kinds, in the fixed order used everywhere downstream.
CLAUSE_KINDS = (
    "distinct",
    "select",
    "from",
    "on",
    "where",
    "group_by",
    "having",
    "order_by",
    "limit",
)

SET_OPS = ("union", "union all", "intersect", "except")


@dataclass(frozen=True)
class SelectStatement:
    """One SELECT: its clause texts, and its FROM text for serialization.

    ``clauses`` holds one entry per ``CLAUSE_KINDS`` kind, None where the
    clause is absent, without its leading keyword. DISTINCT's entry is
    the word itself; FROM's lists tables and join connectors only; ON's
    joins every join condition in source order with " | ". ``from_body``
    is the FROM text with each ON condition back in its source position.
    """

    clauses: tuple[Optional[str], ...]
    from_body: str


@dataclass(frozen=True)
class SetOperation:
    op: str  # one of SET_OPS
    left: "QueryTree"
    right: "QueryTree"


QueryTree = Union[SelectStatement, SetOperation]


class Decomposition(NamedTuple):
    """Root-level split of a query: set operation plus two subqueries.

    A leaf decomposes to (None, leaf, None); an internal node to its
    operator and its two children. Deeper set operations stay inside
    the subqueries.
    """

    set_op: Optional[str]
    subq1: Optional[QueryTree]
    subq2: Optional[QueryTree]


def decompose(tree: QueryTree) -> Decomposition:
    if isinstance(tree, SelectStatement):
        return Decomposition(None, tree, None)
    return Decomposition(tree.op, tree.left, tree.right)


def extract_clauses(stmt: SelectStatement) -> dict:
    """Map each of the nine clause kinds to canonical text or None."""
    return dict(zip(CLAUSE_KINDS, stmt.clauses))


# the keywords of the clauses after FROM, in CLAUSE_KINDS order
_TAIL_KEYWORDS = ("where", "group by", "having", "order by", "limit")


def canonicalize(tree: QueryTree) -> str:
    """Deterministic single-space, lowercase-keyword serialization."""
    if isinstance(tree, SetOperation):
        return f"{canonicalize(tree.left)} {tree.op} {canonicalize(tree.right)}"
    distinct, select, _, _, *tail = tree.clauses
    out = ["select distinct" if distinct else "select", select, "from", tree.from_body]
    for keyword, text in zip(_TAIL_KEYWORDS, tail):
        if text is not None:
            out += (keyword, text)
    return " ".join(out)
