"""DET001 negative fixture: the sanctioned alternatives stay silent."""

import random
from random import Random


def jitter(seed):
    rng = random.Random(seed)  # silent: per-run seeded stream
    return rng.random(), Random(seed), random.Random(x=seed)  # silent: seeded


def env_mode(mode, seed):
    return mode, seed  # silent: environment passed as explicit parameters


def schedule():
    order = []
    for node in sorted({3, 1, 2}):  # silent: sorted before iteration
        order.append(node)
    return order


def materialize():
    return sorted({"b", "a"})  # silent: sorted() fixes the order


def spread(nodes):
    return [n * 2 for n in sorted(set(nodes))]  # silent: sorted comprehension
