import pytest

from lexifactor import load_stopwords, parse_lexical_database
from wordnet_fixture import write_lexical_database


@pytest.fixture(scope="session")
def lexicon_dir(tmp_path_factory):
    return write_lexical_database(tmp_path_factory.mktemp("lexdb"))


@pytest.fixture(scope="session")
def lexicon(lexicon_dir):
    return parse_lexical_database(lexicon_dir)


@pytest.fixture(scope="session")
def stopwords():
    return load_stopwords()


def pytest_addoption(parser):
    parser.addoption(
        "--kill-sweep",
        action="store_true",
        help="run every kill point of tests/test_robustness.py, not only its fixed sample",
    )
