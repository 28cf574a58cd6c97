"""Whole trials replayed query by query against `bf_run_trial`, a simulator
built from the brute-force references and set-up alone."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeknow import engine
from edgeknow.engine import SimConfig, Strategy

from conftest import bf_run_trial, draw_workload


def library_trial(config, workload=None) -> list[tuple[int, list[dict]]]:
    """The engine's trial in `bf_run_trial`'s form: per cycle, its
    `adv_sets_sent` and a record of each query of the batch `run_cycle`
    routed, its answer taken over and scored by the engine's take-over,
    oracle and hit test."""
    trial = engine.setup_trial(config, workload)
    n, card = config.node_count, config.predicting_cardinality
    uniform = math.log2(card)
    routed = []

    def recorded(trial, keys, index, strategy):
        routed.append((keys, index, route_query(trial, keys, index, strategy)))
        return routed[-1][2]

    route_query = engine.route_query
    cycles = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "route_query", recorded)
        for cycle in range(1, config.cycles + 1):
            row = engine.run_cycle(trial, cycle)
            (keys, index, paths), = routed
            step, quality = engine.take_over(trial.model, keys, index, paths)
            achieved = np.where(np.isinf(quality), uniform, quality)
            optimal = engine.oracle_best(trial.model, keys, index, card)
            hit = engine.accuracy(achieved, optimal)[0]
            records = []
            for i, key in enumerate(index):
                target, bound = keys[key]
                path = paths[i][paths[i] < n].tolist()
                records.append(dict(
                    issuer=i, target=target, bound=bound, path=path,
                    answered_by=(
                        int(paths[i, step[i]]) if math.isfinite(quality[i]) else None
                    ),
                    achieved=float(achieved[i]), optimal=float(optimal[i]),
                    hit=bool(hit[i]),
                ))
            assert sum(r["hit"] for r in records) == row.hits
            cycles.append((row.adv_sets_sent, records))
            routed.clear()
    return cycles


def assert_same_trial(got, want):
    assert len(got) == len(want)
    for (sent, records), (ref_sent, ref_records) in zip(got, want):
        assert sent == ref_sent
        assert len(records) == len(ref_records)
        for record, ref in zip(records, ref_records):
            assert record == ref


def untrain(workload, nodes, drop):
    """`workload` with the entries of `nodes` removed (`drop`) or holding no
    observation."""
    entries = []
    for entry in workload.entries:
        if entry.node_id not in nodes:
            entries.append(entry)
        elif not drop:
            entries.append(replace(entry, counts=np.zeros_like(entry.counts)))
    return replace(workload, entries=entries)


class TestReplay:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_trial_matches_the_reference(self, data):
        """Per query: issuer, target, evidence, path, answering node, achieved
        and optimal quality and hit; per cycle: the sets sent. Over 1 to 24
        nodes, pools of up to 10 contexts (ids 8 and 9 share hash slots with
        0 and 1), K from 1 to 4, hop budgets from 0, both strategies, blocks
        of 1 to 30 queries, change thresholds from 0.005 to 0.5 (the engine
        and the reference read the config's `resolved_policy`), and
        workloads in which some nodes trained nothing."""
        contexts = data.draw(st.integers(2, 10))
        config = SimConfig(
            node_count=data.draw(st.just(1) | st.integers(4, 24)),
            predicting_var_count=data.draw(st.integers(2, 6)),
            context_var_count=contexts,
            contexts_per_table=data.draw(st.integers(1, min(3, contexts))),
            combinations_pool=data.draw(st.integers(1, 12)),
            vars_trained_per_node=data.draw(st.integers(1, 3)),
            observations_per_var=data.draw(st.integers(5, 120)),
            predicting_cardinality=data.draw(st.integers(2, 4)),
            context_cardinality=data.draw(st.integers(2, 3)),
            k_sets=data.draw(st.integers(1, 4)),
            hop_budget=data.draw(st.none() | st.integers(0, 6)),
            cycles=data.draw(st.integers(1, 4)),
            strategy=data.draw(st.sampled_from(Strategy)),
            seed=data.draw(st.integers(0, 2**16)),
        )
        workload = None
        if data.draw(st.booleans()):
            drawn = draw_workload(config, data.draw(st.integers(0, 2**16)))
            idle = data.draw(
                st.sets(st.integers(0, config.node_count - 1),
                        max_size=config.node_count - 1)
            )
            workload = untrain(drawn, idle, data.draw(st.booleans()))
        policy = replace(
            config.resolved_policy(),
            change_threshold=data.draw(st.sampled_from((0.005, 0.05, 0.5))),
        )
        config.resolved_policy = lambda: policy
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "ISSUER_BLOCK", data.draw(st.integers(1, 30)))
            assert_same_trial(
                library_trial(config, workload), bf_run_trial(config, workload)
            )
