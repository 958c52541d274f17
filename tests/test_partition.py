import numpy as np
import pytest

from helpers import synth_dataset

from dprep import ConfigError, PartitionPlan, make_partition, parse_formula
from dprep.linmod import fit_subsets


def test_exact_division():
    plan = make_partition(10, 5, seed=1)
    assert plan.sizes.tolist() == [2, 2, 2, 2, 2]
    assert plan.blocks.shape == (5, 2)  # no pad
    assert sorted(plan.blocks.ravel().tolist()) == list(range(10))


def test_remainder_rule_lowest_indexed_subsets():
    plan = make_partition(11, 5, seed=3)
    assert plan.sizes.tolist() == [3, 2, 2, 2, 2]
    plan = make_partition(17, 4, seed=3)
    assert plan.sizes.tolist() == [5, 4, 4, 4]


def test_single_subset_is_identity():
    v = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
    plan = make_partition(6, 1, seed=9)
    assert plan.blocks.tolist() == [list(range(6))]
    assert v[plan.blocks[0]].tolist() == v.tolist()


def test_argument_errors():
    with pytest.raises(ConfigError, match="exceed"):
        make_partition(4, 5, seed=0)
    with pytest.raises(ConfigError):
        make_partition(4, 0, seed=0)
    with pytest.raises(ConfigError, match="exceed"):
        PartitionPlan(4, 5, 0)
    with pytest.raises(ConfigError, match="exceed"):
        PartitionPlan.from_record('{"n_rows": 4, "M": 5, "seed": 0}')


def test_integer_arguments_are_stored_as_python_ints():
    plan = PartitionPlan(np.int64(23), np.int32(4), np.uint8(77))
    assert plan == make_partition(23, 4, 77)
    assert all(type(v) is int for v in (plan.n_rows, plan.M, plan.seed))
    assert plan.to_record() == make_partition(23, 4, 77).to_record()
    for args in ((23, 4.0, 0), (23, 4, 1.5), (23.0, 4, 0), (23, True, 0), (23, 4, False)):
        with pytest.raises(ConfigError, match="must be an integer"):
            PartitionPlan(*args)


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
    assert clone == plan and hash(clone) == hash(plan)


def test_blocks_ascend_within_each_subset():
    for N, M in [(12, 3), (11, 4), (203, 7), (203, 10)]:
        plan = make_partition(N, M, seed=5)
        for l, (block, size) in enumerate(zip(plan.blocks, plan.sizes)):
            assert np.all(np.diff(block) > 0)  # the pad N, if any, comes last
            assert np.array_equal(block[:size], np.flatnonzero(plan.assignment == l))


def test_blocks_gather_the_rows_of_a_matrix():
    # a gather through the blocks from rows with a zero row appended gives
    # each subset's rows, in order, then zeros for the pad
    plan = make_partition(11, 4, seed=2)
    X = np.arange(22.0).reshape(11, 2)
    gathered = np.take(np.vstack([X, np.zeros((1, 2))]), plan.blocks, axis=0)
    assert gathered.shape == (4, 3, 2) and gathered.flags.c_contiguous
    for l, (block, size) in enumerate(zip(gathered, plan.sizes)):
        assert np.array_equal(block[:size], X[np.flatnonzero(plan.assignment == l)])
        assert not block[size:].any()


def test_pad_ends_the_short_blocks():
    # 11 rows in 4 subsets: three blocks of 3 rows, then one of 2 padded
    # with the index 11; a block is padded only at its end
    plan = make_partition(11, 4, seed=2)
    assert plan.blocks.shape == (4, 3) and not plan.blocks.flags.writeable
    assert (plan.blocks == 11).tolist() == [[False] * 3] * 3 + [[False, False, True]]
    plan = make_partition(20_011, 25, seed=2)  # 11 blocks of 801 rows, 14 of 800
    pad = plan.blocks == 20_011
    assert np.array_equal(pad.sum(axis=1), plan.sizes.max() - plan.sizes)
    assert not pad[:11].any() and pad[11:, -1].all() and not pad[:, :-1].any()


def test_blocks_are_sorted_once_per_plan(monkeypatch):
    # the plan sorts its blocks once, when it is made; fitting on it runs
    # no sort or argsort
    plan = make_partition(203, 10, seed=2)
    sorts = []
    for name in ("sort", "argsort", "lexsort"):
        original = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _f=original, **k: sorts.append(1) or _f(*a, **k))
    ds = synth_dataset(203, seed=1)
    first, second = (fit_subsets(ds, [parse_formula("y ~ x1 + x2")], plan) for _ in range(2))
    assert not sorts
    assert np.array_equal(first[0][0].coefficients, second[0][0].coefficients)


@pytest.mark.parametrize("N, M", [(103, 7), (100, 10), (6, 1), (9, 9),
                                  (160_000, 5000), (160_000, 1000)])
def test_assignment_cuts_the_permutation_into_blocks(N, M):
    # the first N mod M blocks of the seeded permutation get one extra row;
    # the blocks, pads dropped, are the stable argsort of that scatter
    from dprep.privacy import RngStream
    seed = 12
    perm = RngStream(seed).child("partition").generator.permutation(N)
    expected = np.empty(N, dtype=np.intp)
    start = 0
    for l in range(M):
        size = N // M + (1 if l < N % M else 0)
        expected[perm[start:start + size]] = l
        start += size
    plan = make_partition(N, M, seed)
    assert np.array_equal(plan.blocks[plan.blocks < N], np.argsort(expected, kind="stable"))
    assert np.array_equal(plan.assignment, expected)


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
