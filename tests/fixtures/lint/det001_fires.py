"""DET001 positive fixture: every unseeded-nondeterminism shape fires.

Linted by ``tests/test_lint.py`` with a :class:`~repro.lint.engine.LintConfig`
whose ``determinism_scopes`` include this module; never imported or run.
"""

import os.path  # binds ``os``: the environ/getenv reads below still fire
import random
import time
from datetime import datetime
from random import Random, SystemRandom, shuffle
from time import perf_counter


def jitter():
    return random.random()  # fires: process-global PRNG


def reorder(items):
    shuffle(items)  # fires: from-imported global PRNG function
    return items


def fresh_streams(seed):
    # fires three times: no seed, and SystemRandom ignores the one it gets
    return random.Random(), Random(), SystemRandom(seed)


def stamp():
    return time.time(), perf_counter(), datetime.now()  # fires three times


def env_mode():
    mode = os.environ["REPRO_MODE"]  # fires: os.environ read
    return mode, os.getenv("REPRO_SEED")  # fires: os.getenv


def schedule():
    order = []
    for node in {3, 1, 2}:  # fires: bare-set iteration order
        order.append(node)
    return order


def materialize():
    return list({"b", "a"})  # fires: list() over a set display


def spread(nodes):
    return [n * 2 for n in set(nodes)]  # fires: comprehension over a set
