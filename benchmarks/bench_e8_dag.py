"""E8 — exponential outputs as linear DAGs (Section 1 remark).

Claim: a DTOP can translate a monadic tree of height n into a full
binary tree of height n; representing outputs as minimal DAGs avoids the
exponential blow-up, and the DAG is computable in time linear in the
input size.

Trees are interned, so the engine's output *is* its minimal DAG: its
distinct nodes (counted by ``uid``) are the DAG, and ``Tree.size`` is
the unfolded tree's node count.
"""

import time

from repro.engine import engine_for
from repro.trees.generate import monadic_tree
from repro.workloads.families import exp_full_binary

from benchmarks.conftest import report
from tests.conftest import dag_node_count


def test_e8_dag_output(benchmark):
    transducer, _ = exp_full_binary()
    engine = engine_for(transducer)
    height = 60
    source = monadic_tree(["a"] * height, end="e")

    def cold_run():
        engine.clear_cache()
        return engine.run(source)

    output = benchmark(cold_run)

    dag_nodes = dag_node_count(output)
    unfolded = output.size
    assert dag_nodes == height + 1
    assert unfolded == 2 ** (height + 1) - 1
    report(
        "E8",
        "height-n monadic input → full binary tree; DAG linear, computed in "
        "linear time",
        f"n={height}: output tree has {unfolded:,} nodes "
        f"(≈2^{height + 1}), minimal DAG has {dag_nodes} nodes",
    )


def test_e8_dag_linear_time(benchmark):
    """Evaluation time grows linearly with the input height."""
    transducer, _ = exp_full_binary()
    engine = engine_for(transducer)

    def sweep():
        rows = []
        for height in [200, 400, 800, 1600]:
            source = monadic_tree(["a"] * height, end="e")
            engine.clear_cache()
            start = time.perf_counter()
            engine.run(source)
            rows.append((height, time.perf_counter() - start))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Time per node must not grow with n (allow generous noise).
    per_node = [elapsed / height for height, elapsed in rows]
    assert per_node[-1] < per_node[0] * 20
    report(
        "E8/time",
        "DAG output computable in linear time in the input",
        "; ".join(f"n={h}: {t * 1e3:.2f} ms" for h, t in rows),
    )
