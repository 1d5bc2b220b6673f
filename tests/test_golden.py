"""Golden bytes: featurize output and canonical/clause text stay fixed.

The digests pin the exact output of the parser and the feature writer;
a refactor of either must leave them unchanged.
"""

import hashlib
import json
from pathlib import Path

from sqlcalib.parser import parse_sql
from sqlcalib.pipeline import featurize_command
from sqlcalib.sqlast import SelectStatement, canonicalize, extract_clauses

from corpus import CORPUS_ALL

FIXTURE = Path(__file__).parent / "data" / "fixture_candidates.jsonl"

FEATURES_SHA256 = "41e60665db79c443952b06f074323019791e33a8d96249d09274a6b864da3bd7"
CORPUS_SHA256 = "f76128f7843516f7dd67e1f0134813ed3fd4c02d38d22e03f310898ce5a500c4"


def _leaves(tree):
    if isinstance(tree, SelectStatement):
        return [tree]
    return _leaves(tree.left) + _leaves(tree.right)


def test_featurize_fixture_bytes(tmp_path):
    out = tmp_path / "features.jsonl"
    featurize_command(FIXTURE, out, "mps-nb", "union")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FEATURES_SHA256


def test_canonical_and_clause_text_bytes():
    lines = []
    for sql in CORPUS_ALL:
        tree = parse_sql(sql)
        leaves = [extract_clauses(leaf) for leaf in _leaves(tree)]
        lines.append(json.dumps({"canonical": canonicalize(tree), "leaves": leaves}))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CORPUS_SHA256
