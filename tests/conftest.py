import pytest

from iolw5gsim.cli import default_scenario_path
from iolw5gsim.config import decode_scenario, load_scenario


@pytest.fixture(scope="session")
def default_scenario():
    return load_scenario(decode_scenario(default_scenario_path().read_bytes()))


@pytest.fixture(scope="session")
def default_config_text():
    return default_scenario_path().read_text()
