"""The benchmark's config generator: deterministic, and admissible."""

import json

import pytest

import generator
from kricci.cli import config_from_document
from kricci.model import derive_config, validate
from kricci.obstruction import find_kappa1_compact, find_kappa1_noncompact


@pytest.mark.parametrize("workload", sorted(generator.WORKLOADS))
def test_same_seed_same_configs(workload):
    make = generator.WORKLOADS[workload]
    assert json.dumps(make(7)) == json.dumps(make(7))
    assert json.dumps(make(7)) != json.dumps(make(8))


@pytest.mark.parametrize("workload", sorted(generator.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_configs_are_admissible_once_kappa1_is_solved(workload, seed):
    for doc in generator.WORKLOADS[workload](seed):
        config = config_from_document(json.loads(json.dumps(doc)))
        if doc["kappa1"] == "solve":
            assert not validate(config).structural_violations(), doc
            find = find_kappa1_compact if config.is_compact else find_kappa1_noncompact
            kappa1 = find(config).kappa1
            assert kappa1 != 0, doc
            config = derive_config(config.epsilon, config.factors, config.boundary,
                                   kappa1, config.kappa0)
        assert validate(config).admissible, (doc, validate(config).violations)
