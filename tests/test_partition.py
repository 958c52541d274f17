import numpy as np
import pytest

from dprep import ConfigError, PartitionPlan, make_partition


def _blocks(plan, values):
    """The M subset blocks of ``values``, read off the plan's stacks."""
    return [block for stack in plan.split(values) for block in stack]


def test_exact_division():
    plan = make_partition(10, 5, seed=1)
    assert plan.sizes.tolist() == [2, 2, 2, 2, 2]
    assert [stack.shape for stack in plan.split(np.arange(10))] == [(5, 2)]
    all_rows = np.concatenate(_blocks(plan, np.arange(10)))
    assert sorted(all_rows.tolist()) == list(range(10))


def test_remainder_rule_lowest_indexed_subsets():
    plan = make_partition(11, 5, seed=3)
    assert plan.sizes.tolist() == [3, 2, 2, 2, 2]
    plan = make_partition(17, 4, seed=3)
    assert plan.sizes.tolist() == [5, 4, 4, 4]


def test_single_subset_is_identity():
    v = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
    plan = make_partition(6, 1, seed=9)
    ((sub,),) = plan.split(v)
    assert sub.tolist() == v.tolist()
    assert sub.mean() == v.mean()


def test_argument_errors():
    with pytest.raises(ConfigError, match="exceed"):
        make_partition(4, 5, seed=0)
    with pytest.raises(ConfigError):
        make_partition(4, 0, seed=0)


def test_reproducible_and_seed_sensitive():
    a = make_partition(100, 7, seed=42)
    b = make_partition(100, 7, seed=42)
    c = make_partition(100, 7, seed=43)
    assert np.array_equal(a.assignment, b.assignment)
    assert not np.array_equal(a.assignment, c.assignment)


def test_uniform_assignment_over_seeds():
    # each row should land in each of 4 subsets about a quarter of the time
    n_seeds, N, M = 10_000, 100, 4
    counts = np.zeros((N, M))
    for seed in range(n_seeds):
        assignment = make_partition(N, M, seed=seed).assignment
        counts[np.arange(N), assignment] += 1
    freq = counts / n_seeds
    assert np.all(np.abs(freq - 0.25) <= 0.02)


def test_record_round_trip():
    plan = make_partition(23, 4, seed=77)
    record = plan.to_record()
    assert '"assignment"' not in record  # assignment is recomputable, never stored
    clone = PartitionPlan.from_record(record)
    assert np.array_equal(clone.assignment, plan.assignment)


def test_split_order_and_mismatch():
    plan = make_partition(12, 3, seed=5)
    blocks = _blocks(plan, np.arange(12.0))
    assert len(blocks) == 3
    for l, v in enumerate(blocks):
        assert np.all(np.diff(v) > 0)  # original order preserved
        assert np.all(plan.assignment[v.astype(int)] == l)
    with pytest.raises(ConfigError, match="plan covers"):
        plan.split(np.arange(5.0))


def test_split_blocks_of_a_matrix():
    plan = make_partition(11, 4, seed=2)
    X = np.arange(22.0).reshape(11, 2)
    for l, block in enumerate(_blocks(plan, X)):
        assert np.array_equal(block, X[np.flatnonzero(plan.assignment == l)])
        assert block.flags.c_contiguous


def test_split_stacks_blocks_by_size():
    # 11 rows in 4 subsets: three blocks of 3 rows, then one of 2, cut from
    # one sorted copy without a copy per block
    plan = make_partition(11, 4, seed=2)
    X = np.arange(22.0).reshape(11, 2)
    big, small = plan.split(X)
    assert big.shape == (3, 3, 2) and small.shape == (1, 2, 2)
    assert big.base is not None and big.base is small.base


def test_split_sorts_once_per_plan(monkeypatch):
    plan = make_partition(11, 4, seed=2)
    X = np.arange(22.0).reshape(11, 2)
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k))
    first, second = plan.split(X), plan.split(X)
    assert len(sorts) == 1
    assert len(first) == len(second) == 2
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_plan_refuses_sizes_split_cannot_stack():
    for assignment in ([0, 1, 1, 1], [1, 0, 0, 0], [0, 0, 2, 1], [0, -1, 1, 0]):
        with pytest.raises(ConfigError, match="sizes differ"):
            PartitionPlan(n_rows=4, M=2, seed=0, assignment=assignment)
    PartitionPlan(n_rows=5, M=2, seed=0, assignment=[1, 0, 0, 1, 0])


def test_assignment_cuts_the_permutation_into_blocks():
    # the first N mod M blocks of the seeded permutation get one extra row
    from dprep.privacy import RngStream
    N, M, seed = 103, 7, 12
    perm = RngStream(seed).child("partition").generator.permutation(N)
    expected = np.empty(N, dtype=np.intp)
    start = 0
    for l in range(M):
        size = N // M + (1 if l < N % M else 0)
        expected[perm[start:start + size]] = l
        start += size
    assert np.array_equal(make_partition(N, M, seed).assignment, expected)


def test_appending_a_row_redraws_the_partition():
    # neighbours substitute a row and keep N: the plan is a function of
    # (N, M, seed), so it is unchanged.  One appended row re-draws it, so
    # the sensitivities do not cover add/remove neighbours.
    N, M = 20_000, 50
    moved = []
    for seed in range(10):
        before = make_partition(N, M, seed).assignment
        assert np.array_equal(before, make_partition(N, M, seed).assignment)
        moved.append(int(np.sum(make_partition(N + 1, M, seed).assignment[:N] != before)))
    assert moved[0] > 0.45 * N  # seed 0: 9,646 rows change subset
    assert min(moved) > 100
    assert np.median(moved) > N / 4
