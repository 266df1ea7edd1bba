"""Seeded directed graphs for the betweenness kernel's exactness checks.

Plain Python with no third-party import, so that bare interpreters of every
supported version can build them (tests/test_versions.py).
"""

from __future__ import annotations

import random


def random_graph(rng: random.Random, n: int, p: float) -> list[list[int]]:
    """Sorted successor lists of n nodes; each ordered pair is an edge with probability p."""
    return [[j for j in range(n) if j != i and rng.random() < p] for i in range(n)]


def layered_graph(seed: int) -> list[list[int]]:
    """25-45 layers of 2-5 nodes; each edge between consecutive layers has probability 0.8.

    Every path between two layers is a shortest one. About one seed in four
    gives more than 2**53 of them between some pair.
    """
    rng = random.Random(seed)
    sizes = [rng.randint(2, 5) for _ in range(rng.randint(25, 45))]
    adjacency: list[list[int]] = []
    start = 0
    for size, after in zip(sizes, sizes[1:] + [0]):
        nxt = start + size
        for _ in range(size):
            adjacency.append([nxt + j for j in range(after) if rng.random() < 0.8])
        start = nxt
    return adjacency
