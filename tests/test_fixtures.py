import pytest

from .conftest import FIXTURES
from .fixtures import make_fixtures


@pytest.mark.parametrize("file_name", sorted(make_fixtures.CHECKPOINTS))
def test_committed_fixture_matches_generator(tmp_path, file_name):
    seed, half_name = make_fixtures.CHECKPOINTS[file_name]
    rebuilt = tmp_path / file_name
    make_fixtures.write(make_fixtures.build(seed, half_name=half_name), rebuilt)
    assert rebuilt.read_bytes() == (FIXTURES / file_name).read_bytes()
