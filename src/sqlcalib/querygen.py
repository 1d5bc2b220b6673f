"""Random SQL generators for tests and synthetic candidate pools.

Generated text deliberately varies keyword case, whitespace, quoting and
optional-AS usage so that round-trip tests exercise normalization, while
the underlying statement stays inside the supported grammar. Everything
is driven by ``random.Random`` so fixtures regenerate byte-identically.
"""

import random

from .parser import parse_sql
from .sqlast import SET_OPS, QueryTree, SelectStatement, SetOperation, canonicalize, extract_clauses

_TABLES = ["orders", "users", "flights", "pilotskills", "receipts", "goods", "schools"]
_COLUMNS = ["id", "name", "age", "price", "city", "food", "county", "built_year"]
_FUNCS = ["count", "sum", "avg", "min", "max"]
_STRINGS = ["Piper Cub", "Cake", "Cookie", "Closed", "New York", "it's"]


def _casing(rng: random.Random, word: str) -> str:
    roll = rng.random()
    if roll < 0.45:
        return word.upper()
    if roll < 0.85:
        return word
    return word.capitalize()


def _ws(rng: random.Random) -> str:
    return " " * rng.randint(1, 3) if rng.random() < 0.2 else " "


def _column(rng: random.Random, qualify: bool = False) -> str:
    col = rng.choice(_COLUMNS)
    if qualify and rng.random() < 0.5:
        return f"t{rng.randint(1, 2)}.{col}"
    return col


def _value(rng: random.Random) -> str:
    if rng.random() < 0.5:
        s = rng.choice(_STRINGS)
        quote = "'" if rng.random() < 0.7 else '"'
        return quote + s.replace(quote, quote * 2) + quote
    if rng.random() < 0.8:
        return str(rng.randint(0, 500))
    return f"{rng.uniform(0, 99):.2f}"


def _select_item(rng: random.Random, qualify: bool) -> str:
    if rng.random() < 0.3:
        func = rng.choice(_FUNCS)
        inner = "*" if func == "count" and rng.random() < 0.5 else _column(rng, qualify)
        if inner != "*" and rng.random() < 0.15:
            inner = f"{_casing(rng, 'distinct')} {inner}"
        return f"{_casing(rng, func)}({inner})"
    return _column(rng, qualify)


def _condition(rng: random.Random, qualify: bool, depth: int) -> str:
    kind = rng.random()
    col = _column(rng, qualify)
    if kind < 0.45:
        op = rng.choice(["=", "!=", "<", ">", "<=", ">="])
        return f"{col} {op} {_value(rng)}"
    if kind < 0.6:
        lo, hi = sorted(rng.sample(range(200), 2))
        return f"{col} {_casing(rng, 'between')} {lo} {_casing(rng, 'and')} {hi}"
    if kind < 0.7:
        pattern = rng.choice(_STRINGS).replace("'", "''")
        return f"{col} {_casing(rng, 'like')} '%{pattern}%'"
    if kind < 0.8 and depth < 2:
        sub = generate_select(rng, depth=depth + 1)
        neg = f"{_casing(rng, 'not')} " if rng.random() < 0.3 else ""
        return f"{col} {neg}{_casing(rng, 'in')} ({sub})"
    if kind < 0.9:
        return f"{col} {_casing(rng, 'is')} {_casing(rng, 'null')}"
    values = ", ".join(_value(rng) for _ in range(rng.randint(2, 4)))
    return f"{col} {_casing(rng, 'in')} ({values})"


def generate_select(rng: random.Random, depth: int = 0) -> str:
    """One SELECT statement, possibly with joins, grouping and subqueries."""
    kw = lambda word: _casing(rng, word)
    joined = rng.random() < 0.4
    parts = [kw("select")]
    if rng.random() < 0.2:
        parts.append(_ws(rng) + kw("distinct"))
    items = [_select_item(rng, joined) for _ in range(rng.randint(1, 3))]
    parts.append(_ws(rng) + ("," + _ws(rng)).join(items))
    parts.append(_ws(rng) + kw("from"))
    if joined:
        t1, t2 = rng.sample(_TABLES, 2)
        join_kw = rng.choice(["join", "inner join", "left join", "left outer join"])
        as1 = kw("as") + " " if rng.random() < 0.5 else ""
        as2 = kw("as") + " " if rng.random() < 0.5 else ""
        parts.append(
            _ws(rng)
            + f"{t1} {as1}t1 {' '.join(kw(x) for x in join_kw.split())} {t2} {as2}t2 "
            + f"{kw('on')} t1.id{_ws(rng)}={_ws(rng)}t2.id"
        )
    else:
        parts.append(_ws(rng) + rng.choice(_TABLES))
    if rng.random() < 0.65:
        conds = [_condition(rng, joined, depth) for _ in range(rng.randint(1, 2))]
        glue = f" {kw(rng.choice(['and', 'or']))} "
        parts.append(_ws(rng) + kw("where") + _ws(rng) + glue.join(conds))
    if rng.random() < 0.3:
        parts.append(_ws(rng) + kw("group") + " " + kw("by") + _ws(rng) + _column(rng, joined))
        if rng.random() < 0.4:
            parts.append(_ws(rng) + kw("having") + _ws(rng) + f"count(*) > {rng.randint(1, 9)}")
    if rng.random() < 0.35:
        direction = rng.choice(["", " " + kw("asc"), " " + kw("desc")])
        parts.append(
            _ws(rng) + kw("order") + " " + kw("by") + _ws(rng) + _column(rng, joined) + direction
        )
    if rng.random() < 0.25:
        parts.append(_ws(rng) + kw("limit") + _ws(rng) + str(rng.randint(1, 20)))
    return "".join(parts)


def generate_query(rng: random.Random) -> str:
    """A full statement: a SELECT or a chain of set operations."""
    text = generate_select(rng)
    while rng.random() < 0.22:
        op = " ".join(_casing(rng, word) for word in rng.choice(SET_OPS).split())
        text = f"{text} {op} {generate_select(rng)}"
    if rng.random() < 0.15:
        text += ";"
    return text


# -- candidate-pool records ----------------------------------------------


def mutate_tree(rng: random.Random, tree: QueryTree) -> QueryTree:
    """A nearby but different query: one clause of one leaf is perturbed.

    Edits replace canonical clause text, so the result always serializes
    back into the grammar.
    """
    if isinstance(tree, SetOperation):
        if rng.random() < 0.5:
            return SetOperation(tree.op, mutate_tree(rng, tree.left), tree.right)
        return SetOperation(tree.op, tree.left, mutate_tree(rng, tree.right))
    col = rng.choice(_COLUMNS)
    num = str(rng.randint(501, 999))
    clauses = extract_clauses(tree)
    edits = [
        ("where", f"{col} > {num}"),
        ("limit", num),
        ("order_by", f"{col} desc"),
        ("select", col),
        ("distinct", None if clauses["distinct"] else "distinct"),
    ]
    kind, text = rng.choice(edits)
    clauses[kind] = text
    return SelectStatement(tuple(clauses.values()), tree.from_body)


def generate_candidate_records(n: int, seed: int) -> list[dict]:
    """Synthetic logged candidates: per record, 10 nucleus + 10 beam samples.

    Pool agreement is tied to the label so that clause-frequency features
    carry real signal: correct records keep most samples equal to the
    primary, incorrect ones scatter. A few samples are syntactically
    broken to exercise the filtering path.
    """
    rng = random.Random(seed)
    records = []
    for i in range(n):
        tree = parse_sql(generate_query(rng))
        base = canonicalize(tree)
        label = int(rng.random() < 0.55)
        agreement = rng.uniform(0.6, 0.95) if label else rng.uniform(0.1, 0.55)
        candidates = []
        for j in range(20):
            source = "nucleus" if j < 10 else "beam"
            roll = rng.random()
            if roll < agreement:
                sql = base
            elif roll < agreement + 0.05:
                sql = "selec broken from"  # unparseable on purpose
            else:
                sql = canonicalize(mutate_tree(rng, tree))
            lp = -rng.expovariate(1.0) - (0.3 if sql != base else 0.05)
            candidates.append({"sql": sql, "sum_log_prob": round(lp, 6), "source": source})
        records.append(
            {
                "id": f"ex{i:04d}",
                "label": label,
                "group": rng.choice(["easy", "medium", "hard"]),
                "candidates": candidates,
            }
        )
    return records
