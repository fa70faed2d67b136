import pytest

from spinecycles import cycles, predictor, ssgraph
from spinecycles.arith import primes_in


@pytest.fixture(scope="session")
def graph_4643_3():
    return ssgraph.build_graph(4643, 3)


@pytest.fixture(scope="session")
def graph_101_2():
    return ssgraph.build_graph(101, 2)


@pytest.fixture(scope="session")
def sweep_3_3():
    """Per-prime graph/formula results for every prime in (2782, 6000]."""
    rows = []
    for p in primes_in(2783, 6000):
        graph = ssgraph.build_graph(p, 3)
        cen = cycles.census(graph, 3)
        rows.append((p, cen, predictor.predict(3, 3, p), cen.untainted_support))
    return rows
