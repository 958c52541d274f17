import math
import re

import numpy as np
import pytest

from helpers import BAD_LEDGER_RECORDS, LEDGER_RECORD

from dprep import (
    BudgetExceededError,
    BudgetLedger,
    ConfigError,
    LedgerCorruptError,
    NoisyRelease,
    PrivacyParams,
    RngStream,
    UncappedBudgetWarning,
    laplace_sample,
    release_scalar,
)


# ------------------------------------------------------------- rng streams

def test_same_path_replays_identical_sequence():
    a = RngStream(123).child("noise", 4)
    b = RngStream(123).child("noise", 4)
    assert laplace_sample(a, 1.0, size=100).tolist() == \
           laplace_sample(b, 1.0, size=100).tolist()


def test_distinct_paths_are_distinct():
    root = RngStream(123)
    draws = {
        tuple(laplace_sample(root.child(label, i), 1.0, size=4))
        for label in ("a", "b") for i in range(3)
    }
    assert len(draws) == 6
    # different root seeds differ too
    assert laplace_sample(RngStream(1).child("a"), 1.0) != \
           laplace_sample(RngStream(2).child("a"), 1.0)


# ---------------------------------------------------------- laplace draws

def test_laplace_variance_identity():
    b = 2.0
    draws = laplace_sample(RngStream(7).child("var"), b, size=1_000_000)
    assert draws.var() == pytest.approx(2 * b * b, rel=0.02)


def test_laplace_tail_mass():
    # P(|x| > 3b) = exp(-3) ~ 0.049787
    b = 1.5
    draws = laplace_sample(RngStream(8).child("tail"), b, size=1_000_000)
    emp = np.mean(np.abs(draws) > 3 * b)
    assert abs(emp - math.exp(-3)) < 0.003


def test_laplace_sign_balance():
    draws = laplace_sample(RngStream(9).child("sign"), 1.0, size=1_000_000)
    assert abs(np.mean(draws > 0) - 0.5) < 0.002


def test_laplace_scale_validation():
    with pytest.raises(ConfigError):
        laplace_sample(RngStream(0), 0.0)
    with pytest.raises(ConfigError):
        laplace_sample(RngStream(0), -1.0)


# -------------------------------------------------------------- releases

def test_release_adds_exactly_the_stream_noise():
    # the released value is true + Laplace(sensitivity/epsilon), unclamped
    stream = RngStream(21).child("rel")
    twin = RngStream(21).child("rel")
    ledger = BudgetLedger(cap=10.0)
    rel = release_scalar(5.0, 2.0, PrivacyParams(0.5), ledger, stream)
    assert rel.value == 5.0 + laplace_sample(twin, 2.0 / 0.5)
    assert rel.epsilon_spent == 0.5
    assert rel.sensitivity == 2.0
    assert rel.mechanism == "laplace"


def test_noise_variance_shrinks_with_sensitivity_over_m():
    # sensitivity 1/M at fixed epsilon shrinks noise variance by 1/M^2
    M = 8
    s1 = laplace_sample(RngStream(3).child("v1"), 1.0, size=200_000)
    sM = laplace_sample(RngStream(3).child("v2"), 1.0 / M, size=200_000)
    assert sM.var() / s1.var() == pytest.approx(1.0 / M**2, rel=0.05)


def test_budget_composition_and_refusal():
    ledger = BudgetLedger(cap=1.0)
    stream = RngStream(4).child("budget")
    params = PrivacyParams(0.6)
    release_scalar(0.0, 1.0, params, ledger, stream)
    assert ledger.spent == pytest.approx(0.6)

    # second release refused before any noise is sampled
    next_draw_if_untouched = laplace_sample(RngStream(4).child("budget-probe"), 1.0)
    probe_twin = RngStream(4).child("budget-probe")
    with pytest.raises(BudgetExceededError):
        release_scalar(0.0, 1.0, params, ledger, stream)
    assert len(ledger.entries) == 1
    assert laplace_sample(probe_twin, 1.0) == next_draw_if_untouched

    # exact-fit spending is allowed
    release_scalar(0.0, 1.0, PrivacyParams(0.4), ledger, stream)
    assert ledger.spent == pytest.approx(1.0)
    assert (ledger.spent, ledger.remaining) == (pytest.approx(1.0), pytest.approx(0.0))


def test_refusal_consumes_no_randomness():
    stream = RngStream(17).child("norand")
    twin = RngStream(17).child("norand")
    ledger = BudgetLedger(cap=0.5)
    with pytest.raises(BudgetExceededError):
        release_scalar(0.0, 1.0, PrivacyParams(0.6), ledger, stream)
    # stream state untouched: next draw equals a fresh twin's first draw
    assert laplace_sample(stream, 1.0) == laplace_sample(twin, 1.0)


def test_uncapped_ledger_warns_per_release():
    ledger = BudgetLedger()
    with pytest.warns(UncappedBudgetWarning):
        release_scalar(0.0, 1.0, PrivacyParams(1.0), ledger, RngStream(5).child("w"))
    assert ledger.remaining is None


def test_ledger_totals_and_immutability():
    ledger = BudgetLedger(cap=5.0)
    stream = RngStream(6).child("tot")
    for eps in (0.25, 0.5, 1.0):
        release_scalar(1.0, 1.0, PrivacyParams(eps), ledger, stream)
    assert ledger.spent == pytest.approx(sum(e.epsilon_spent for e in ledger.entries))
    assert isinstance(ledger.entries, tuple)  # no in-place mutation surface
    with pytest.raises(AttributeError):
        ledger.entries.append(None)


def test_invalid_parameters():
    with pytest.raises(ConfigError):
        PrivacyParams(0.0)
    with pytest.raises(ConfigError):
        NoisyRelease(value=0.0, epsilon_spent=1.0, sensitivity=0.0)
    with pytest.raises(ConfigError):
        release_scalar(0.0, -1.0, PrivacyParams(1.0), BudgetLedger(), RngStream(0))
    with pytest.raises(ConfigError):
        BudgetLedger(cap=-1.0)


# ------------------------------------------------------------ ledger file

def test_ledger_file_write_through_and_reload(tmp_path):
    path = tmp_path / "ledger.ndjson"
    ledger = BudgetLedger(cap=2.0, path=path)
    stream = RngStream(30).child("file")
    r1 = release_scalar(3.0, 1.0, PrivacyParams(0.7), ledger, stream)

    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    parsed = NoisyRelease.from_record(lines[0])
    assert parsed == r1

    reloaded = BudgetLedger(cap=2.0, path=path)
    assert reloaded.spent == pytest.approx(0.7)
    release_scalar(3.0, 1.0, PrivacyParams(0.7), reloaded, stream)
    with pytest.raises(BudgetExceededError):
        release_scalar(3.0, 1.0, PrivacyParams(0.7), reloaded, stream)
    assert len(path.read_text().strip().splitlines()) == 2


def test_ledger_file_cap_already_blown(tmp_path):
    path = tmp_path / "ledger.ndjson"
    ledger = BudgetLedger(path=path)
    release_scalar(0.0, 1.0, PrivacyParams(3.0), ledger, RngStream(1).child("x"))
    with pytest.raises(BudgetExceededError):
        BudgetLedger(cap=1.0, path=path)


@pytest.mark.parametrize("kind", sorted(BAD_LEDGER_RECORDS))
def test_ledger_file_unreadable_record_fails_closed(tmp_path, kind):
    path = tmp_path / "ledger.ndjson"
    path.write_text(LEDGER_RECORD + "\n" + BAD_LEDGER_RECORDS[kind])
    with pytest.raises(LedgerCorruptError, match=re.escape(f"{path}:2:")):
        BudgetLedger(cap=5.0, path=path)


def test_append_to_corrupt_ledger_file_writes_nothing(tmp_path):
    path = tmp_path / "ledger.ndjson"
    ledger = BudgetLedger(cap=5.0, path=path)
    stream = RngStream(31).child("corrupt")
    release_scalar(1.0, 1.0, PrivacyParams(0.5), ledger, stream)
    # another writer died part-way through its record
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(BAD_LEDGER_RECORDS["torn"])
    before = path.read_bytes()
    with pytest.raises(LedgerCorruptError, match=re.escape(f"{path}:2:")):
        release_scalar(1.0, 1.0, PrivacyParams(0.5), ledger, stream)
    assert path.read_bytes() == before
    assert len(ledger.entries) == 1
