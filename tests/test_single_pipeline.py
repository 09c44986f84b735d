"""One pipeline: networkx crosses in once, every solver is exact, errors are typed.

* every registered solver matches exhaustive 2^n enumeration on small
  graphs of every generator family;
* a labelled graph's Minor-Aggregation round ledger does not depend on
  the process's string-hash seed;
* bad weights are a :class:`~repro.errors.GraphValidationError` at the
  boundary (a ``stage="validate"`` failure inside a sweep);
* a witness whose partition disagrees with its candidate value is a
  :class:`~repro.errors.CertificationError`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import repro
from repro.accounting import RoundAccountant
from repro.core.cut_values import CutCandidate, two_respecting_oracle
from repro.core.registry import registered_solvers
from repro.core.session import SolveContext
from repro.errors import CertificationError, GraphValidationError
from repro.graphs import CSR_FAMILY_BUILDERS, CSRGraph
from tests.reference import exhaustive_min_cut

SRC = str(Path(repro.__file__).resolve().parents[1])


class TestExhaustiveAgreement:
    @pytest.mark.parametrize("solver", registered_solvers())
    @pytest.mark.parametrize("family", sorted(CSR_FAMILY_BUILDERS))
    def test_solver_matches_exhaustive(self, family, solver):
        for seed in (0, 1):
            graph = CSR_FAMILY_BUILDERS[family](10, seed)
            expected, _side = exhaustive_min_cut(graph)
            result = repro.minimum_cut(graph, seed=seed, solver=solver)
            assert result.value == pytest.approx(expected), (family, seed)

    def test_labelled_networkx_input(self):
        graph = nx.relabel_nodes(
            CSR_FAMILY_BUILDERS["gnm"](11, 3).to_networkx(),
            lambda i: f"v{i}",
        )
        expected, _side = exhaustive_min_cut(graph)
        for solver in registered_solvers():
            result = repro.minimum_cut(graph, seed=3, solver=solver)
            assert result.value == pytest.approx(expected)
            assert set().union(*result.partition) == set(graph.nodes())


_HASHSEED_SCRIPT = """
import json
import networkx as nx
import repro
from repro.graphs import random_connected_gnm

graph = random_connected_gnm(30, 75, seed=4, weight_high=9)
graph = nx.relabel_nodes(graph, {i: f"node-{i}" for i in graph.nodes()})
result = repro.minimum_cut(graph, seed=1, solver="minor-aggregation")
print(json.dumps({
    "value": result.value,
    "ma_rounds": result.ma_rounds,
    "accountant": result.stats["accountant"],
}, sort_keys=True))
"""


def _solve_under_hash_seed(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _HASHSEED_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(completed.stdout)


def test_labelled_ledger_independent_of_hash_seed():
    first = _solve_under_hash_seed(1)
    second = _solve_under_hash_seed(2)
    assert first["value"] == second["value"]
    assert first["ma_rounds"] == second["ma_rounds"]
    assert first["accountant"] == second["accountant"]


def _cycle_edges(weight):
    return [(i, (i + 1) % 4, weight) for i in range(4)]


@pytest.mark.parametrize(
    "weight", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"]
)
@pytest.mark.parametrize("kind", ["networkx", "csr"])
def test_bad_weights_raise_typed_errors(kind, weight):
    session = repro.MinCutSolver(repro.SolverConfig(solver="oracle"))
    if kind == "csr":
        # A CSR graph validates its weights on construction, so a bad
        # one never reaches the pipeline at all.
        with pytest.raises(GraphValidationError):
            session.pack(CSRGraph.from_edge_list(_cycle_edges(weight)))
        return
    graph = nx.Graph()
    graph.add_weighted_edges_from(_cycle_edges(weight))
    with pytest.raises(GraphValidationError):
        session.pack(graph)
    with pytest.raises(GraphValidationError):
        repro.minimum_cut(graph, solver="oracle")
    good = CSR_FAMILY_BUILDERS["cycle"](6, 0)
    sweep = repro.minimum_cut_many([graph, good], solver="oracle")
    failure = sweep[0]
    assert isinstance(failure, repro.SweepFailure)
    assert failure.stage == "validate"
    assert failure.error == "GraphValidationError"
    assert failure.graph_hash is None
    assert isinstance(sweep[1], repro.MinCutResult)


def test_inconsistent_witness_raises_certification_error():
    graph = CSR_FAMILY_BUILDERS["gnm"](16, 2)
    packed = repro.MinCutSolver(repro.SolverConfig(solver="oracle")).pack(
        graph, seed=2
    )
    rooted = packed.rooted_trees[0]
    honest = two_respecting_oracle(graph, rooted, arrays=packed.arrays)
    forged = CutCandidate(value=honest.value + 5.0, edges=honest.edges)
    ctx = SolveContext(
        accountant=RoundAccountant(), compute_congest=False, solver="oracle"
    )
    with pytest.raises(CertificationError, match="witness inconsistent") as info:
        packed.finalize([forged], ctx)
    error = info.value
    assert error.candidate_value == forged.value
    assert error.partition_value == honest.value
    assert error.tolerance == 1e-6 * max(1.0, abs(honest.value))
