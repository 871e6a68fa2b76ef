import random
from collections import Counter

from tabgrid.evaluate import adjacency_relations


def relation_counts(table) -> Counter:
    return Counter(adjacency_relations(table))


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)
