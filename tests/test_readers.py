"""Every input reader is total: a file it is given loads or raises DataFormatError.

Bounded mutations of three valid files, a generated scenario, a checkpoint
and an importance file, each go through their reader; any other exception
fails the property.
"""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from metaloc import cli, meta, model, tasks
from metaloc.tasks import DataFormatError

# replacement values: wrong JSON types, edge numbers and empty or nested containers
VALUES = [
    None, True, False, "x", 0, 1, -1, 2, 1.5, 1e308, -1e308, 10**30, 10**400, math.nan,
    [], {}, [[1.0, 2.0], [3.0]],
]


def scenarios():
    config = tasks.ChannelConfig(samples_per_rp=5)  # 12 reference points, 60 samples
    return [tasks.generate_scenario(seed, config, f"room{seed}") for seed in (1, 2)]


@functools.cache
def valid_docs(directory):
    """(reader, valid JSON document) per file kind; each reader takes a path."""
    rooms = scenarios()
    scenario_path = directory / "scenario_000.json"
    tasks.save_scenario(rooms[0], scenario_path)
    checkpoint_path = directory / "checkpoint.json"
    model.save_params(model.init_params(0), checkpoint_path)
    vector = meta.ImportanceVector(
        np.array([0.5, -0.5]), np.array([10.0, 20.0]), np.array([[np.nan, 10.0], [20.0, np.nan]]),
        [s.id for s in rooms],
    )
    importance = cli._importance_doc(vector, meta.MetaConfig(), rooms)
    return {
        "scenario": (tasks.load_scenario, json.loads(scenario_path.read_text())),
        "checkpoint": (model.load_params, json.loads(checkpoint_path.read_text())),
        "importance": (lambda path: cli._load_importance(path, rooms), importance),
    }


def mutated(node, path, action):
    """A copy of node with the entry at path replaced, deleted or duplicated.

    Only the containers along the path are copied; the rest is shared.
    """
    head, rest = path[0], path[1:]
    copy = list(node) if isinstance(node, list) else dict(node)
    if rest:
        copy[head] = mutated(node[head], rest, action)
    elif action[0] == "set":
        copy[head] = action[1]
    elif action[0] == "delete":
        del copy[head]
    elif isinstance(copy, list):  # duplicate
        copy.insert(head, copy[head])
    else:
        copy[f"{head}_copy"] = copy[head]
    return copy


@st.composite
def mutations(draw, doc):
    """A path to an entry of doc, at any depth, and what to do there."""
    path, node = [], doc
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        path.append(draw(st.sampled_from(keys)))
        node = node[path[-1]]
        if not (isinstance(node, (dict, list)) and node and draw(st.booleans())):
            break
    action = draw(
        st.one_of(st.tuples(st.just("set"), st.sampled_from(VALUES)), st.sampled_from([("delete",), ("duplicate",)]))
    )
    return path, action


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    # the documents are cached by directory, not passed in, so a failing
    # example prints the directory rather than every document
    return tmp_path_factory.mktemp("readers")


@pytest.mark.parametrize("kind", ["scenario", "checkpoint", "importance"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_mutation_loads_or_is_a_data_error(directory, kind, data):
    reader, doc = valid_docs(directory)[kind]
    path, action = data.draw(mutations(doc))
    target = directory / f"{kind}_mutated.json"
    target.write_text(json.dumps(mutated(doc, path, action)))
    try:
        reader(target)
    except DataFormatError:
        pass
