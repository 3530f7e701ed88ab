import pytest

from raagaut.core import DefiningGraph


@pytest.fixture
def f2():
    return DefiningGraph(["a", "b"], [])


@pytest.fixture
def k2():
    return DefiningGraph(["a", "b"], [["a", "b"]])


@pytest.fixture
def split():
    """Two disjoint edges: the running example graph."""
    return DefiningGraph(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])


@pytest.fixture
def path4():
    return DefiningGraph(["a", "b", "c", "d"],
                         [["a", "b"], ["b", "c"], ["c", "d"]])


@pytest.fixture
def k3():
    return DefiningGraph(["a", "b", "c"],
                         [["a", "b"], ["b", "c"], ["a", "c"]])


@pytest.fixture
def nodom6():
    """a and b do not dominate each other; both dominate c non-adjacently."""
    return DefiningGraph(["a", "b", "c", "m", "e", "f"],
                         [["a", "m"], ["a", "f"], ["b", "m"], ["b", "e"],
                          ["c", "m"]])
