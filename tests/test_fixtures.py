"""The fixture generator's own checks, and the bundled fixtures it must reproduce.

``scripts/generate_fixtures.py`` rebuilds ``fixtures/`` deterministically and
self-checks the result end to end. Here the self-check runs on the committed
fixtures, and a rebuild into a temporary directory must match them byte for
byte.
"""

import sys
from pathlib import Path

import pytest

from conftest import FIXTURES
from ocedf import parse_spec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import generate_fixtures  # noqa: E402


def test_self_check_passes_on_committed_fixtures():
    generate_fixtures.self_check()


@pytest.mark.parametrize("name", sorted(generate_fixtures.FIXTURE_PARAMS))
def test_rebuild_is_byte_identical(name, tmp_path):
    generate_fixtures.build_course(tmp_path / name, **generate_fixtures.FIXTURE_PARAMS[name])
    committed = FIXTURES / name
    rebuilt = tmp_path / name
    files = sorted(p.relative_to(committed) for p in committed.rglob("*") if p.is_file())
    assert sorted(p.relative_to(rebuilt) for p in rebuilt.rglob("*") if p.is_file()) == files
    for rel in files:
        assert (rebuilt / rel).read_bytes() == (committed / rel).read_bytes(), rel


@pytest.mark.parametrize("grading_users", [True, False])
@pytest.mark.parametrize("grades_carry_group", [True, False])
def test_generated_specs_use_only_known_rule_keys(grading_users, grades_carry_group):
    # parse_spec rejects a rule key its kind does not know
    parse_spec(generate_fixtures.spec_document(grading_users, grades_carry_group))
