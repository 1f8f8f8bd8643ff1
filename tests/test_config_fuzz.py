"""Exhaustive scenario mutation sweep.

Every key path of two base scenarios (object keys, containers and list
items alike) is deleted or replaced by each value of MUTANTS, and each
variant block gets, one at a time, each key that only its sibling
variants read. Loading the result either succeeds, never with a NaN, or
raises ConfigError, and `example1` on it exits 0 with nothing on stderr,
or 2 with one located config error. A sibling's key is an unknown key,
reported on its line.
"""

import copy
import functools
import json
import re

import pytest

from guaranteesim import cli
from guaranteesim.config import (
    ConfigError,
    default_scenario_dict,
    scenario_from_dict,
)

DELETE, NAN = object(), float("nan")
MUTANTS = [DELETE, None, True, "x", [], {}, [1], {"a": 1}, -1, 0, 0.5, 1.5,
           10 ** 12, -1e300, NAN]

# the alternative form of every block that has one
ALTERNATIVE = {
    "economics": {
        "population": 4,
        "cost": {"form": "table", "values": [1.0, 2.0, 3.5, 5.0]},
        "benefit": {"form": "table", "values": [0.0, 2.0, 4.0, 6.0, 8.0]},
        "dilution_q": 0.5,
    },
    "procedure": {"kind": "wald", "alpha": 0.05, "n": 30},
    "strategy": {"variant": "selective", "n_per_arm": 20, "alpha": 0.05},
    "belief": {"untruthful_weight": 0.3, "conditioning": "joint_unconditional"},
    "policy": {"u_bar": -3.0, "p0": 0.5,
               "alpha_belief": {"knots": [[-4.0, 0.02], [-1.0, 0.3]]}},
    "contract": {"variant": "proportional", "share": 0.4},
    "utility": {"form": "linear", "v_bar": -6.0},
    "researcher_payoff": {
        "base_pub": 1.0,
        "impl_value": {"kind": "linear", "amount": 0.5},
        "failure_exposure": 0.2,
        "noise": {"epsilon": 0.5},
    },
    "risk_strategy": {"variant": "exchange", "retained": 0.3, "assumed": 0.6,
                      "partner_loss": {"values": [0.0, -3.0],
                                       "probs": [0.5, 0.5]}},
    "pool": {
        "members": [{"base": 0.0, "values": [0.0, -5.0], "probs": [0.8, 0.2]},
                    {"base": 1.0, "values": [0.0, -9.0], "probs": [0.9, 0.1]}],
        "utility": {"form": "cara", "risk_aversion": 0.1},
        "shares": [[0.6, 0.4], [0.4, 0.6]],
    },
    "grids": {"coverage_denom": 64, "sup_base_denom": 32,
              "sup_refine_denom": 256, "alpha_levels": [0.01, 0.05]},
}
BASES = {"default": default_scenario_dict(), "alternative": ALTERNATIVE}
LOCATED = re.compile(r"config error \(line \d+\): \S+: .+\n")

# a valid block of each variant, holding every key that variant reads
VARIANTS = {
    ("economics", "cost"): {
        "linear": {"form": "linear", "unit": 1.0},
        "affine": {"form": "affine", "fixed": 2.0, "unit": 1.0},
        "table": {"form": "table", "values": [float(m) for m in range(1, 21)]},
    },
    ("economics", "benefit"): {
        "linear": {"form": "linear", "per_success": 2.5},
        "table": {"form": "table", "values": [2.5 * s for s in range(21)]},
    },
    ("strategy",): {
        "truthful": {"variant": "truthful"},
        "fraudulent": {"variant": "fraudulent", "guess_spread": 0.05},
        "selective": {"variant": "selective", "n_per_arm": 20, "alpha": 0.05},
    },
    ("contract",): {
        "full": {"variant": "full"},
        "tail": {"variant": "tail", "k": -12.0},
        "proportional": {"variant": "proportional", "share": 0.4},
    },
    ("utility",): {
        "linear": {"form": "linear", "v_bar": -6.0},
        "cara": {"form": "cara", "risk_aversion": 0.05, "v_bar": -6.0},
    },
    ("risk_strategy",): {
        "none": {"variant": "none"},
        "transfer": {"variant": "transfer", "retained": 0.3, "premium": 0.5},
        "exchange": {"variant": "exchange", "retained": 0.3, "assumed": 0.6,
                     "partner_loss": {"values": [0.0, -3.0], "probs": [0.5, 0.5]}},
        "tail_only": {"variant": "tail_only", "k": -12.0},
        "proportional_only": {"variant": "proportional_only", "share": 0.4},
    },
    ("pool", "utility"): {
        "linear": {"form": "linear"},
        "cara": {"form": "cara", "risk_aversion": 0.1},
    },
}


def key_paths(node, path=()):
    """Every key path under node, through objects and lists."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from key_paths(child, path + (key,))


def set_at(data, path, value):
    *head, last = path
    parent = functools.reduce(lambda node, key: node[key], head, data)
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value


def sibling_keys(block, variants):
    """The keys that block's siblings among variants read and it does not."""
    name = block.get("variant", block.get("form"))
    return sorted({key for other in variants.values() for key in other}
                  - set(variants[name]))


def with_sibling_keys(base):
    """base with one key of a sibling variant put into one variant block."""
    for block, variants in VARIANTS.items():
        for key in sibling_keys(functools.reduce(dict.get, block, base), variants):
            data = copy.deepcopy(base)
            set_at(data, block + (key,), 0.5)
            yield block + (key,), 0.5, data


def mutants(base):
    for path in key_paths(base):
        for value in MUTANTS:
            data = copy.deepcopy(base)
            set_at(data, path, value)
            yield path, value, data
    yield from with_sibling_keys(base)


def test_alternative_base_uses_the_alternative_forms():
    s = scenario_from_dict(ALTERNATIVE)
    assert s.strategy.n == 20 and s.researcher_payoff.noise.epsilon == 0.5
    assert s.risk_strategy.hedge.assumed == 0.6
    assert s.pool.shares[0, 1] == 0.4 and len(s.pool.members) == 2
    assert s.economics.benefit.table is not None
    assert s.policy_alpha.alpha_at(-4.0) == 0.02


def dotted(value):
    return ".".join(value) if isinstance(value, tuple) else None


@pytest.mark.parametrize("block,name", [
    (block, name) for block, variants in VARIANTS.items() for name in variants],
    ids=dotted)
def test_each_variant_block_loads(block, name):
    data = copy.deepcopy(BASES["default"])
    set_at(data, block, VARIANTS[block][name])
    scenario_from_dict(data)


@pytest.mark.parametrize("block,name,key", [
    (block, name, key) for block, variants in VARIANTS.items()
    for name, variant in variants.items() for key in sibling_keys(variant, variants)],
    ids=dotted)
def test_a_sibling_variants_key_exits_2_on_its_line(tmp_path, capsys, block,
                                                     name, key):
    data = copy.deepcopy(BASES["default"])
    set_at(data, block, {**VARIANTS[block][name], key: 0.125})
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    lines = cfg.read_text().splitlines()
    line = next(i for i, ln in enumerate(lines, 1) if f'"{key}": 0.125' in ln)
    rc = cli.main(["example1", "--config", str(cfg), "--out", str(tmp_path)])
    where = ".".join(block + (key,))
    assert rc == 2
    assert capsys.readouterr().err == (
        f"config error (line {line}): {where}: unknown key {key!r}\n")


@pytest.mark.parametrize("name", BASES)
def test_every_mutation_loads_or_fails_with_a_config_error(name):
    failures = []
    for path, value, data in mutants(BASES[name]):
        try:
            scenario_from_dict(data)
        except ConfigError:
            continue
        except Exception as exc:  # noqa: BLE001 - collected and reported
            failures.append((path, value, repr(exc)))
            continue
        if value is NAN:  # every number a scenario reads must be finite
            failures.append((path, value, "loaded"))
    assert not failures


@pytest.mark.parametrize("name", BASES)
def test_every_mutation_exits_0_or_2_with_a_located_error(
        name, tmp_path, capsys, monkeypatch):
    # one parser serves every call; building it dominates a call's cost
    monkeypatch.setattr(cli, "_build_parser",
                        functools.lru_cache(cli._build_parser))
    cfg, out = tmp_path / "scenario.json", str(tmp_path / "out")
    failures = []
    for path, value, data in mutants(BASES[name]):
        cfg.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        rc = cli.main(["example1", "--config", str(cfg), "--out", out])
        err = capsys.readouterr().err
        if not ((rc == 0 and not err) or (rc == 2 and LOCATED.fullmatch(err))):
            failures.append((path, value, rc, err))
    assert not failures
