"""Golden bytes: featurize, synth and evaluate output, canonical/clause
text, tokens and parse errors stay fixed.

The digests pin the exact output of the lexer, the parser, the feature
writers and the metrics writer; a refactor of any of them must leave them
unchanged.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from sqlcalib.cli import main
from sqlcalib.errors import ParseError
from sqlcalib.lexer import tokenize
from sqlcalib.parser import parse_sql
from sqlcalib.pipeline import featurize_command, synth_command
from sqlcalib.querygen import generate_query
from sqlcalib.sqlast import SelectStatement, canonicalize, extract_clauses

from corpus import CORPUS_ALL

FIXTURE = Path(__file__).parent / "data" / "fixture_candidates.jsonl"

FEATURES_SHA256 = "41e60665db79c443952b06f074323019791e33a8d96249d09274a6b864da3bd7"
CORPUS_SHA256 = "f76128f7843516f7dd67e1f0134813ed3fd4c02d38d22e03f310898ce5a500c4"
CORRUPTED_CLAUSES_SHA256 = "093bc3719d1b609bacb6decdfeb381a3832b2c31611bdd0735970d8534e86364"


def _leaves(tree):
    if isinstance(tree, SelectStatement):
        return [tree]
    return _leaves(tree.left) + _leaves(tree.right)


def test_featurize_fixture_bytes(tmp_path):
    out = tmp_path / "features.jsonl"
    featurize_command(FIXTURE, out, "mps-nb", "union")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FEATURES_SHA256


def _digest(*paths) -> str:
    """sha256 over the bytes of each file in turn."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


# synth's rows and sidecar, per mode and seed (n = 3000)
SYNTH_SHA256 = {
    ("calibrated", 0): "622bfd917264add26c376553a5f54cbb5dbf37479b862a03578e160f39ea130f",
    ("calibrated", 7): "86b1d77a10d64d9bb708d0fff85318309fbb273da0212edc15b9e12554af71cb",
    ("platt", 0): "d31dd79cf4b8a6f8d1a32c3064d3eacceec7d95f4467ea163c8b76c1b043de1a",
    ("platt", 7): "c25b4f0eb5ba8bf2408e10eae08aa3fbdb2077b9fe1bb32f84951db7a3437fa3",
    ("mps-signal", 0): "7706d5bcbc4a21836541ecda6a59a80a80d418734f06cc134014237e8265eeb9",
    ("mps-signal", 7): "1a8f42fa597b338ac3d0f85a504ea05ce28de9c912b1aa7389974750a3739893",
}


@pytest.mark.parametrize("mode, seed", sorted(SYNTH_SHA256))
def test_synth_bytes(mode, seed, tmp_path):
    out = tmp_path / "syn.jsonl"
    synth_command(3000, mode, seed, out)
    assert _digest(out, f"{out}.sidecar.json") == SYNTH_SHA256[mode, seed]


def _fixture_with_extras(path) -> Path:
    """The fixture with extras p_true and perplexity on every record, except
    that every 11th record lacks perplexity and every 13th has a NaN p_true."""
    lines = []
    for i, line in enumerate(FIXTURE.read_text().splitlines()):
        doc = json.loads(line)
        extras = {"p_true": (i * 37 % 100) / 100, "perplexity": 1 + (i % 7) * 0.25}
        if i % 11 == 10:
            del extras["perplexity"]
        if i % 13 == 12:
            extras["p_true"] = float("nan")
        doc["extra_features"] = extras
        lines.append(json.dumps(doc) + "\n")
    path.write_text("".join(lines))
    return path


# featurize's rows and .summary.json for the fixture with extras, per schema
EXTRAS_SHA256 = {
    "ps": "413c823c70af8b5820d149aee454e31390b49d6132357242eadaa4df48b6e026",
    "mps-nb": "9148ce8cf97e60fec9d21ebf3284b19200891646dd14a11f83a0b0f3dd79e9ea",
}


@pytest.mark.parametrize("schema", sorted(EXTRAS_SHA256))
def test_featurize_with_extras_bytes(schema, tmp_path):
    out = tmp_path / "features.jsonl"
    featurize_command(_fixture_with_extras(tmp_path / "in.jsonl"), out, schema, "union")
    assert _digest(out, f"{out}.summary.json") == EXTRAS_SHA256[schema]


# evaluate's deterministic files; reliability_equal_width.csv is checked
# field by field against the report in tests/test_pipeline.py instead
EVALUATE_FILES = ("metrics.json", "reliability_equal_mass.csv", "scored.jsonl")
EVALUATE_SHA256 = {
    "fixture-by-group": {
        "metrics.json": "efd00b6485a77a3ed8986dd1498a0ad0e8afc8c3fb769dca5d03867dfea1228d",
        "reliability_equal_mass.csv": "f4055928e913a3018e3dec72c407415b565aed8c99f4f58498dbf1aa2a765e37",
        "scored.jsonl": "f0f8d7f35bbe3d94a3cef147872ef905c13c36b366927b32711248f9e5dde1c1",
    },
    "synth-bins-7": {
        "metrics.json": "22096527dcd22deac0f9184664468f9308100f88b64a84aa64865888204d5f59",
        "reliability_equal_mass.csv": "3c6b6fc0f931da7bebe868bb35bbdd931ac711a557bb09fc499c450eaa89311e",
        "scored.jsonl": "7fd87ebe36677d476fc676990d70c8c2b6eaa321464f0d32414ecec803eb54ba",
    },
    "five-rows": {
        "metrics.json": "87a260abb6e03d7e191e881121022195ca327f3704fbf1fbcbbc1b1e704629d5",
        "reliability_equal_mass.csv": "3dc4a123f026384893b113557df16b12aa61b17a13ed3c6455595c38ed3b3ff3",
        "scored.jsonl": "c929a438fd435a0380373977f303d44ec785933dc0e0c3f64f2a3f2280f40270",
    },
}


def _evaluate_input(name, tmp_path) -> tuple[Path, list[str]]:
    """The feature file of one evaluate case and its extra flags."""
    features = tmp_path / "features.jsonl"
    if name == "fixture-by-group":
        featurize_command(FIXTURE, features, "mps-nb", "union")
        return features, ["--group-by", "group"]
    if name == "synth-bins-7":
        argv = ["synth", "--mode", "mps-signal", "--n", "500", "--seed", "3"]
        assert main([*argv, "--output", str(features)]) == 0
        return features, ["--bins", "7"]
    rows = [
        {"id": f"r{i}", "label": i % 2, "group": None, "schema_id": "ps",
         "values": [0.0], "raw_prob": p}
        for i, p in enumerate([0.9, 0.1, 0.35, 0.35, 1.0])
    ]
    features.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return features, ["--bins", "10"]  # fewer rows than bins: ACE has empty bins


@pytest.mark.parametrize("name", sorted(EVALUATE_SHA256))
def test_evaluate_bytes(name, tmp_path):
    features, flags = _evaluate_input(name, tmp_path)
    out = tmp_path / "eval"
    assert main(["evaluate", "--input", str(features), "--output", str(out), *flags]) == 0
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in EVALUATE_FILES}
    assert digests == EVALUATE_SHA256[name]


# Everything the CLI prints, and every file it writes, over one fixture chain:
# defaults and given flags, grouped and raw evaluate, the default and a given
# --fractions, a fraction out of range (a usage error) and synth.
CLI_CHAIN_SHA256 = {
    "printed": "1a650a87dab9a1ad734aca837a0b733f1cad2e39e042352075b1f6113f24c076",
    "files": "ab288b7a6dfcda9d42de11ddba0fb95a17b26bb3c71c9d654521236400dc085a",
}


def test_cli_chain_bytes(tmp_path, capsys):
    names = ("f.jsonl", "ps.json", "mps.json", "s_ps.jsonl", "s_mps.jsonl")
    f, ps, mps, s_ps, s_mps = (str(tmp_path / name) for name in names)
    pair = ["--input-a", s_ps, "--input-b", s_mps]
    chain = [
        ["featurize", "--input", str(FIXTURE), "--output", f],
        ["fit", "--input", f, "--output", mps],
        ["fit", "--input", f, "--output", ps, "--method", "ps", "--penalty", "0.5"],
        ["evaluate", "--input", f, "--model", mps, "--output", str(tmp_path / "ev"),
         "--group-by", "group"],
        ["evaluate", "--input", f, "--output", str(tmp_path / "raw"), "--bins", "7"],
        ["apply", "--input", f, "--model", ps, "--output", s_ps],
        ["apply", "--input", f, "--model", mps, "--output", s_mps],
        ["compare", *pair, "--output", str(tmp_path / "shift.json")],
        ["compare", *pair, "--output", str(tmp_path / "shift2.json"), "--fractions", "0.1,0.3"],
        ["compare", *pair, "--output", str(tmp_path / "shift3.json"), "--fractions", "0.7"],
        ["synth", "--n", "50", "--output", str(tmp_path / "syn.jsonl")],
    ]
    assert [main(argv) for argv in chain] == [0] * 9 + [1, 0]
    captured = capsys.readouterr()
    printed = hashlib.sha256((captured.out + captured.err).encode()).hexdigest()
    files = "".join(
        f"{p.relative_to(tmp_path).as_posix()} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        for p in sorted(tmp_path.rglob("*")) if p.is_file()
    )
    digests = {"printed": printed, "files": hashlib.sha256(files.encode()).hexdigest()}
    assert digests == CLI_CHAIN_SHA256


def _clause_text_digest(texts) -> str:
    """sha256 over the canonical and clause texts of each text that parses."""
    lines = []
    for sql in texts:
        try:
            tree = parse_sql(sql)
        except ParseError:
            continue
        leaves = [extract_clauses(leaf) for leaf in _leaves(tree)]
        lines.append(json.dumps({"canonical": canonicalize(tree), "leaves": leaves}))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_canonical_and_clause_text_bytes():
    # the canonical text prints from_body, so only the clause texts pin the
    # FROM tables and ON of the generated queries
    assert _clause_text_digest(CORPUS_ALL) == CORPUS_SHA256
    assert _clause_text_digest(_corrupted_queries()) == CORRUPTED_CLAUSES_SHA256


# -- lexer and parser output, token by token -----------------------------------

# Characters where str predicates and regex classes could part ways:
# superscript and Arabic-Indic digits, sharp s, dotted capital I (lowercases
# to two characters), no-break, em, ideographic and line-separator spaces,
# an ASCII separator control, a combining accent and fullwidth digits.
UNICODE_CASES = [
    "SELECT a² FROM t",
    "SELECT ²a FROM t",
    "SELECT a FROM t WHERE x = ²",
    "SELECT a FROM t WHERE x = 1²",
    "SELECT a FROM t WHERE x = ٣",
    "SELECT a٣ FROM t WHERE x = 1.٣",
    "SELECT straße FROM t",
    "SELECT STRASSE, ß FROM t",
    "SELECT İd FROM t WHERE İ = 1",
    "SELECT\xa0a\xa0FROM\xa0t",
    "SELECT a\xa0b FROM t",
    "SELECT a FROM\u3000t WHERE x = 1",
    "SELECT\u2003a FROM t\u2028WHERE x = 1",
    "SELECT\x1ca FROM t",
    "SELECT e\u0301 FROM t",
    "SELECT \u0301e FROM t",
    "SELECT a FROM t WHERE x = １２３",
    "SELECT a１ FROM t WHERE x = 1e１",
    "SELECT a FROM t WHERE x = .５ + ５.",
    "SELECT a FROM t WHERE x = '²\xa0ß'",
    "SELECT `İ\xa0x` FROM t",
    "SELECT a FROM t WHERE x = 1e+² OR y = 2E-٣",
    "SELECT _x, x_², __ FROM t_\u3000",
]


# Expression shapes the query generator never emits: arithmetic, signs, NOT
# prefixes, every predicate form, calls and multi-item lists, plus the error
# shapes a grammar change could move. Each case also runs cut at each space.
EXPRESSION_CASES = [
    "SELECT a + b - c || d * e / f % g FROM t",
    "SELECT a * b + c / d - e % f || g FROM t",
    "SELECT (a + b) * (c - d) FROM t WHERE (x || y) = 'z'",
    "SELECT a FROM t WHERE a = 1 AND b == 2 OR c != 3 AND d <> 4",
    "SELECT a FROM t WHERE a < 1 OR b <= 2 OR c > 3 AND d >= 4",
    "SELECT -a, +b, - - c, -+-d, -(a + b) * +3 FROM t",
    "SELECT a FROM t WHERE -x * 2 >= +y - -1.5e3",
    "SELECT a FROM t WHERE NOT a = 1 AND NOT NOT b = 2 OR NOT (c = 3 OR d = 4)",
    "SELECT a FROM t WHERE NOT EXISTS (SELECT b FROM u) OR NOT c",
    "SELECT a FROM t WHERE x IN (1, 2, 3) AND y NOT IN ('a', 'b')",
    "SELECT a FROM t WHERE x IN (SELECT b FROM u) OR y NOT IN (SELECT c FROM v WHERE c > 0)",
    "SELECT a FROM t WHERE x BETWEEN 1 AND 2 AND y NOT BETWEEN a + 1 AND b * 2 OR z = 3",
    "SELECT a FROM t WHERE x LIKE 'a%' AND y NOT LIKE '%b' || c",
    "SELECT a FROM t WHERE x IS NULL OR y IS NOT NULL AND NOT z IS NULL",
    "SELECT count(*), count(DISTINCT a), max(a + 1, b), f(), g(h(x), -y) FROM t",
    "SELECT t.*, t.a AS x, b y, c + 1 AS z FROM t",
    "SELECT a, b FROM t GROUP BY a, b + 1, c HAVING count(*) > 1 AND sum(d) < 10",
    "SELECT a FROM t ORDER BY a, b DESC, c + d ASC, e LIMIT 5",
    "SELECT a FROM t WHERE a = b = c",
    "SELECT a FROM t WHERE NOT IS NULL",
    "SELECT a FROM t WHERE a NOT = 1",
    "SELECT a FROM t WHERE a NOT NULL",
    "SELECT a FROM t WHERE x BETWEEN 1",
    "SELECT a FROM t WHERE x BETWEEN 1 OR 2",
    "SELECT a FROM t WHERE a IN 1",
    "SELECT a FROM t WHERE a IN ()",
    "SELECT a FROM t WHERE a IS NOT 1",
    "SELECT a, FROM t",
    "SELECT a FROM t GROUP BY a, ORDER BY b",
    "SELECT a FROM t ORDER BY a, LIMIT 1",
    "SELECT f(a, ) FROM t",
    "SELECT a FROM t WHERE x IN (1, 2, )",
    "SELECT a + FROM t WHERE * b",
    "SELECT a FROM t WHERE a AND OR b",
]


def _cut_at_spaces(texts) -> list[str]:
    """Each text, preceded by each of its prefixes that ends before a space."""
    out = []
    for text in texts:
        out += [text[:i] for i, c in enumerate(text) if c == " "]
        out.append(text)
    return out


def _corrupted_queries(n: int = 1500, seed: int = 11) -> list[str]:
    """Generated queries, two in three broken by a cut, an inserted character,
    a dropped word or an inserted keyword."""
    rng = random.Random(seed)
    inserts = "()'\"`.,;*=<>!|-+@#$²٣ß\xa0１_"
    keywords = ["select", "from", "where", "not", "union", "in", "between", "is", "on"]
    out = []
    for i in range(n):
        text = generate_query(rng)
        kind = i % 6
        if kind == 1:
            text = text[: rng.randint(0, len(text))]
        elif kind == 2:
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(inserts) + text[at:]
        elif kind == 3:
            words = text.split(" ")
            del words[rng.randrange(len(words))]
            text = " ".join(words)
        elif kind == 4:
            words = text.split(" ")
            words.insert(rng.randint(0, len(words)), rng.choice(keywords).upper())
            text = " ".join(words)
        out.append(text)
    return out


def _lex_parse_lines(texts) -> str:
    """One JSON line per text: its tokens (kind, text, offset) or the lexer's
    ParseError, then its canonical text or the parser's ParseError."""
    lines = []
    for text in texts:
        try:
            lexed = [[t.kind, t.text, t.offset] for t in tokenize(text)]
        except ParseError as exc:
            lexed = {"error": str(exc), "offset": exc.offset}
        try:
            parsed = canonicalize(parse_sql(text))
        except ParseError as exc:
            parsed = {"error": str(exc), "offset": exc.offset}
        lines.append(json.dumps([lexed, parsed]))
    return "\n".join(lines)


LEX_PARSE_SHA256 = {
    "corpus": "04f4a405ff06dbc388f430923225fcfdfe110dcac8d870d4531d270cdddf13fc",
    "corrupted": "ceb5d8740db9580c4be510f711a72b928addde76f75dd549231a377c27b4368f",
    "unicode": "5e37397c09acd986071a50a6aec257b10f4595fa2f4565bd73235f46e23beb82",
    "expressions": "30ab1d09b474ba60f58b0785cfc3fa88dee1788b1bb77caf904a2c635252d101",
}


@pytest.mark.parametrize(
    "name, texts",
    [
        ("corpus", CORPUS_ALL),
        ("corrupted", _corrupted_queries()),
        ("unicode", UNICODE_CASES),
        ("expressions", _cut_at_spaces(EXPRESSION_CASES)),
    ],
)
def test_tokens_and_parse_errors_bytes(name, texts):
    digest = hashlib.sha256(_lex_parse_lines(texts).encode()).hexdigest()
    assert digest == LEX_PARSE_SHA256[name]
