import ast
import dataclasses
import math
import multiprocessing
import os
import re
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from helpers import (
    BAD_LEDGER_RECORDS,
    LEDGER_RECORD,
    TORN_NON_UTF8,
    laplace_sample_reference,
    parse_records_oracle,
)

import dprep.privacy
from dprep import (
    BudgetExceededError,
    BudgetLedger,
    ConfigError,
    Laplace,
    LedgerCorruptError,
    NoisyRelease,
    RngStream,
    UncappedBudgetWarning,
    release_scalar,
)
from dprep.privacy import RunConfig, law_of


# ------------------------------------------------------------- rng streams

def test_same_path_replays_identical_sequence():
    a = RngStream(123).child("noise", 4)
    b = RngStream(123).child("noise", 4)
    assert Laplace(1.0, 1.0).sample(a, size=100).tolist() == \
           Laplace(1.0, 1.0).sample(b, size=100).tolist()


def _integers_uniforms(gen, size):
    """The uniforms of ``uniform_open`` as first written, on integers()."""
    raw = gen.integers(0, 2**64, size=size, dtype=np.uint64)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) / float(2**53)


def _integers_laplace(gen, scale, size):
    t = _integers_uniforms(gen, size) - 0.5
    out = -scale * np.sign(t) * np.log1p(-2.0 * np.abs(t))
    return float(out) if size is None else out


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
def test_uniform_open_is_bit_equal_to_the_integers_formula(seed):
    # uniform_open reads the bit generator's raw words; for the full range
    # integers(0, 2**64, dtype=np.uint64) returns the same words, and the
    # two streams stay in step through interleaved Laplace draws
    stream, twin = RngStream(seed).child("u"), RngStream(seed).child("u")
    for size in (None, 1, 5, (2, 3), None, 0, (4, 1, 2), None):
        got, want = stream.uniform_open(size), _integers_uniforms(twin.generator, size)
        assert type(got) is float if size is None else got.shape == want.shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        got = Laplace(1.0, 2.5).sample(stream, size=size)
        want = _integers_laplace(twin.generator, 2.5, size)
        assert type(got) is float if size is None else got.dtype == np.float64
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_distinct_paths_are_distinct():
    root = RngStream(123)
    draws = {
        tuple(Laplace(1.0, 1.0).sample(root.child(label, i), size=4))
        for label in ("a", "b") for i in range(3)
    }
    assert len(draws) == 6
    # different root seeds differ too
    assert Laplace(1.0, 1.0).sample(RngStream(1).child("a")) != \
           Laplace(1.0, 1.0).sample(RngStream(2).child("a"))


# ---------------------------------------------------------- laplace draws

def test_laplace_variance_identity():
    b = 2.0
    draws = Laplace(1.0, b).sample(RngStream(7).child("var"), size=1_000_000)
    assert draws.var() == pytest.approx(2 * b * b, rel=0.02)


def test_laplace_tail_mass():
    # P(|x| > 3b) = exp(-3) ~ 0.049787
    b = 1.5
    draws = Laplace(1.0, b).sample(RngStream(8).child("tail"), size=1_000_000)
    emp = np.mean(np.abs(draws) > 3 * b)
    assert abs(emp - math.exp(-3)) < 0.003


def test_laplace_sign_balance():
    draws = Laplace(1.0, 1.0).sample(RngStream(9).child("sign"), size=1_000_000)
    assert abs(np.mean(draws > 0) - 0.5) < 0.002


LAWS = [(eps, sensitivity) for eps in (0.01, 1.0, 5.0) for sensitivity in (1.0, 1 / 25, 1 / 5000)]
Q = np.array([0.01, 0.1, 0.3, 0.49, 0.5, 0.51, 0.7, 0.9, 0.99])


@pytest.mark.parametrize("eps, sensitivity", LAWS)
def test_laplace_law_matches_scipy(eps, sensitivity):
    law, scale = Laplace(eps, sensitivity), sensitivity / eps
    ref = stats.laplace(scale=scale)
    x = scale * np.array([-30.0, -3.0, -0.5, -1e-9, 0.0, 1e-9, 0.5, 3.0, 30.0])
    assert law.cdf(x) == pytest.approx(ref.cdf(x), rel=1e-12, abs=0)
    assert law.quantile(Q) == pytest.approx(ref.ppf(Q), rel=1e-12, abs=0)
    # the log density up to its constant, the same at every x
    gap = law.loglik(x) - ref.logpdf(x)
    assert np.ptp(gap) < 1e-12
    assert law.variance == ref.var() == 2 * scale**2
    assert law.cdf(law.quantile(Q)) == pytest.approx(Q, rel=1e-12, abs=0)


@pytest.mark.parametrize("eps, sensitivity", LAWS)
def test_laplace_sample_is_the_reference_inverse_cdf_bit_for_bit(eps, sensitivity):
    law = Laplace(eps, sensitivity)
    stream, twin = RngStream(3).child("law"), RngStream(3).child("law")
    for size in (None, 1, 7, (2, 3), None):
        got = law.sample(stream, size)
        want = laplace_sample_reference(twin, sensitivity / eps, size)
        assert type(got) is float if size is None else got.shape == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("eps, sensitivity", LAWS)
def test_scalar_laplace_draws_are_the_reference_bit_for_bit(eps, sensitivity):
    # the one-draw path of Laplace.quantile, over 9 x 12,000 draws
    law = Laplace(eps, sensitivity)
    stream, twin = RngStream(5).child("scalar"), RngStream(5).child("scalar")
    got = [law.sample(stream) for _ in range(12_000)]
    want = [laplace_sample_reference(twin, sensitivity / eps) for _ in range(12_000)]
    assert set(map(type, got)) == {float}
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_laplace_scale_validation():
    with pytest.raises(ConfigError):
        Laplace(1.0, 0.0)
    with pytest.raises(ConfigError):
        Laplace(1.0, -1.0)


# -------------------------------------------------------------- releases

def test_release_adds_exactly_the_stream_noise():
    # the released value is true + Laplace(sensitivity/epsilon), unclamped
    stream = RngStream(21).child("rel")
    twin = RngStream(21).child("rel")
    ledger = BudgetLedger(cap=10.0)
    rel = release_scalar(5.0, Laplace(0.5, 2.0), ledger, stream)
    assert rel.value == 5.0 + Laplace(0.5, 2.0).sample(twin)
    assert rel.epsilon_spent == 0.5
    assert rel.sensitivity == 2.0
    assert rel.mechanism == "laplace"
    # the record is written from the law, and law_of reads the law back from it
    law = law_of(NoisyRelease.from_record(rel.to_record()))
    assert type(law) is Laplace and (law.epsilon, law.sensitivity) == (0.5, 2.0)


@pytest.mark.parametrize("mechanism", ["gaussian", "geometric", "Laplace", ""])
def test_law_of_refuses_an_unknown_mechanism(mechanism):
    # a posterior under a law the release was not drawn from would pass for a right one
    release = NoisyRelease(0.0, 1.0, 1.0, mechanism=mechanism)
    with pytest.raises(ConfigError, match=f"unknown release mechanism {mechanism!r}"):
        law_of(release)


def _source_nodes():
    """Every node of dprep's source, with its file name and the names of the
    classes and functions that enclose it, outermost first."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            yield child, scope
            inner = (scope + (child.name,) if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) else scope)
            yield from walk(child, inner)
    for path in sorted(Path(dprep.privacy.__file__).parent.glob("*.py")):
        for node, scope in walk(ast.parse(path.read_text(encoding="utf-8")), ()):
            yield path.name, node, scope


def test_the_mechanism_is_named_once():
    named = [(name, scope) for name, node, scope in _source_nodes()
             if isinstance(node, ast.Constant) and node.value == "laplace"]
    assert named == [("privacy.py", ("Laplace",))]
    assert Laplace.name == "laplace"
    # a record's default mechanism is that name, not a second literal
    [default] = [node.value for name, node, scope in _source_nodes()
                 if scope == ("NoisyRelease",) and isinstance(node, ast.AnnAssign)
                 and node.target.id == "mechanism"]
    assert ast.unparse(default) == "Laplace.name"


def test_only_the_release_and_law_of_build_a_law_from_a_record_or_config():
    # planning builds its law from its own published arguments
    built = [(name, scope) for name, node, scope in _source_nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Laplace" and name != "planning.py"]
    assert sorted(built) == [("privacy.py", ("law_of",)), ("privacy.py", ("release_run",))]


def test_noise_variance_shrinks_with_sensitivity_over_m():
    # sensitivity 1/M at fixed epsilon shrinks noise variance by 1/M^2
    M = 8
    s1 = Laplace(1.0, 1.0).sample(RngStream(3).child("v1"), size=200_000)
    sM = Laplace(1.0, 1.0 / M).sample(RngStream(3).child("v2"), size=200_000)
    assert sM.var() / s1.var() == pytest.approx(1.0 / M**2, rel=0.05)


def test_budget_composition_and_refusal():
    ledger = BudgetLedger(cap=1.0)
    stream = RngStream(4).child("budget")
    law = Laplace(0.6, 1.0)
    release_scalar(0.0, law, ledger, stream)
    assert ledger.spent == pytest.approx(0.6)

    # second release refused before any noise is sampled
    next_draw_if_untouched = Laplace(1.0, 1.0).sample(RngStream(4).child("budget-probe"))
    probe_twin = RngStream(4).child("budget-probe")
    with pytest.raises(BudgetExceededError):
        release_scalar(0.0, law, ledger, stream)
    assert len(ledger.entries) == 1
    assert Laplace(1.0, 1.0).sample(probe_twin) == next_draw_if_untouched

    # exact-fit spending is allowed
    release_scalar(0.0, Laplace(0.4, 1.0), ledger, stream)
    assert ledger.spent == pytest.approx(1.0)
    assert (ledger.spent, ledger.remaining) == (pytest.approx(1.0), pytest.approx(0.0))


def test_refusal_consumes_no_randomness():
    stream = RngStream(17).child("norand")
    twin = RngStream(17).child("norand")
    ledger = BudgetLedger(cap=0.5)
    with pytest.raises(BudgetExceededError):
        release_scalar(0.0, Laplace(0.6, 1.0), ledger, stream)
    # stream state untouched: next draw equals a fresh twin's first draw
    assert Laplace(1.0, 1.0).sample(stream) == Laplace(1.0, 1.0).sample(twin)


def test_uncapped_ledger_warns_per_release():
    ledger = BudgetLedger()
    with pytest.warns(UncappedBudgetWarning):
        release_scalar(0.0, Laplace(1.0, 1.0), ledger, RngStream(5).child("w"))
    assert ledger.remaining is None


def test_ledger_totals_and_immutability():
    ledger = BudgetLedger(cap=5.0)
    stream = RngStream(6).child("tot")
    for eps in (0.25, 0.5, 1.0):
        release_scalar(1.0, Laplace(eps, 1.0), ledger, stream)
    assert ledger.spent == pytest.approx(sum(e.epsilon_spent for e in ledger.entries))
    assert isinstance(ledger.entries, tuple)  # no in-place mutation surface
    with pytest.raises(AttributeError):
        ledger.entries.append(None)


def test_invalid_parameters():
    with pytest.raises(ConfigError):
        RunConfig(M=10, epsilon=0.0)
    with pytest.raises(ConfigError):
        NoisyRelease(value=0.0, epsilon_spent=1.0, sensitivity=0.0)
    for bad in ({"value": "abc"}, {"value": True}, {"value": math.nan},
                {"value": math.inf}, {"mechanism": 5}, {"timestamp": None},
                {"epsilon_spent": math.inf}, {"sensitivity": math.inf},
                {"epsilon_spent": True}, {"sensitivity": True}):
        with pytest.raises(ConfigError):
            NoisyRelease(**{"value": 0.0, "epsilon_spent": 1.0, "sensitivity": 1.0,
                            **bad})
    with pytest.raises(ConfigError):
        release_scalar(0.0, Laplace(1.0, -1.0), BudgetLedger(), RngStream(0))
    with pytest.raises(ConfigError):
        BudgetLedger(cap=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            RunConfig(M=10, epsilon=bad)
        with pytest.raises(ConfigError):
            BudgetLedger(cap=bad)


# ------------------------------------------------------------ ledger file

def test_ledger_file_write_through_and_reload(tmp_path):
    path = tmp_path / "ledger.ndjson"
    ledger = BudgetLedger(cap=2.0, path=path)
    stream = RngStream(30).child("file")
    r1 = release_scalar(3.0, Laplace(0.7, 1.0), ledger, stream)

    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    parsed = NoisyRelease.from_record(lines[0])
    assert parsed == r1

    reloaded = BudgetLedger(cap=2.0, path=path)
    assert reloaded.spent == pytest.approx(0.7)
    release_scalar(3.0, Laplace(0.7, 1.0), reloaded, stream)
    with pytest.raises(BudgetExceededError):
        release_scalar(3.0, Laplace(0.7, 1.0), reloaded, stream)
    assert len(path.read_text().strip().splitlines()) == 2


def test_ledger_file_cap_already_blown(tmp_path):
    path = tmp_path / "ledger.ndjson"
    ledger = BudgetLedger(path=path)
    release_scalar(0.0, Laplace(3.0, 1.0), ledger, RngStream(1).child("x"))
    with pytest.raises(BudgetExceededError):
        BudgetLedger(cap=1.0, path=path)


@pytest.mark.parametrize("kind", sorted(BAD_LEDGER_RECORDS))
def test_ledger_file_unreadable_record_fails_closed(tmp_path, kind):
    path = tmp_path / "ledger.ndjson"
    path.write_text(LEDGER_RECORD + "\n" + BAD_LEDGER_RECORDS[kind])
    with pytest.raises(LedgerCorruptError, match=re.escape(f"{path}:2:")):
        BudgetLedger(cap=5.0, path=path)


@pytest.mark.parametrize("tail", [
    TORN_NON_UTF8,
    LEDGER_RECORD.replace('"timestamp": ""', '"timestamp": "\xff"')
    .encode("latin-1") + b"\n" + LEDGER_RECORD.encode() + b"\n",
], ids=["torn", "complete"])
def test_ledger_file_non_utf8_record_fails_closed(tmp_path, tail):
    path = tmp_path / "ledger.ndjson"
    path.write_bytes(LEDGER_RECORD.encode() + b"\n" + tail)
    with pytest.raises(LedgerCorruptError, match=re.escape(f"{path}:2:")):
        BudgetLedger(cap=5.0, path=path)


def test_append_to_corrupt_ledger_file_writes_nothing(tmp_path):
    path = tmp_path / "ledger.ndjson"
    ledger = BudgetLedger(cap=5.0, path=path)
    stream = RngStream(31).child("corrupt")
    release_scalar(1.0, Laplace(0.5, 1.0), ledger, stream)
    # another writer died part-way through its record
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(BAD_LEDGER_RECORDS["torn"])
    before = path.read_bytes()
    with pytest.raises(LedgerCorruptError, match=re.escape(f"{path}:2:")):
        release_scalar(1.0, Laplace(0.5, 1.0), ledger, stream)
    assert path.read_bytes() == before
    assert len(ledger.entries) == 1


def test_the_first_record_syncs_the_ledger_directory(tmp_path, monkeypatch):
    # fsync(2): a new file's directory entry is durable once the directory is
    # synced; the ledger does so after the first record, and not again
    synced, fsync = [], os.fsync

    def recorded(fd):
        synced.append(os.fstat(fd))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recorded)
    path, stream = tmp_path / "ledger.ndjson", RngStream(39).child("dir")
    ledger = BudgetLedger(cap=5.0, path=path)
    release_scalar(0.0, Laplace(0.5, 1.0), ledger, stream)
    directory, ledger_file = os.stat(tmp_path), os.stat(path)
    assert [os.path.samestat(st, directory) for st in synced] == [False, True]
    assert os.path.samestat(synced[0], ledger_file)
    for _ in range(2):
        synced.clear()
        release_scalar(0.0, Laplace(0.5, 1.0), ledger, stream)
        assert len(synced) == 1 and os.path.samestat(synced[0], ledger_file)


# ---------------------------------------------- appends read only the tail

def _fresh(path):
    ledger = BudgetLedger(path=path)
    return ledger.entries, ledger.spent


def test_append_takes_in_another_instances_records(tmp_path):
    path = tmp_path / "ledger.ndjson"
    stream = RngStream(32).child("tail")
    first = BudgetLedger(cap=1.0, path=path)
    release_scalar(0.0, Laplace(0.3, 1.0), first, stream)
    second = BudgetLedger(cap=1.0, path=path)
    theirs = release_scalar(0.0, Laplace(0.4, 1.0), second, stream)
    mine = release_scalar(0.0, Laplace(0.2, 1.0), first, stream)
    assert first.entries[1:] == (theirs, mine)
    assert (first.entries, first.spent) == _fresh(path)
    # 0.9 spent: 0.2 more passes the cap, which only the file shows the
    # second instance
    release_scalar(0.0, Laplace(0.05, 1.0), first, stream)
    before = path.read_bytes()
    with pytest.raises(BudgetExceededError):
        release_scalar(0.0, Laplace(0.1, 1.0), second, stream)
    assert (second.entries, second.spent) == _fresh(path)
    assert path.read_bytes() == before


def test_spent_is_a_left_fold_in_file_order(tmp_path):
    path = tmp_path / "ledger.ndjson"
    stream = RngStream(33).child("fold")
    ledgers = [BudgetLedger(cap=100.0, path=path) for _ in range(2)]
    for i, eps in enumerate([0.1, 0.2, 0.3, 1e-3, 0.7, 1 / 3, 0.1, 2.9, 1e-5]):
        ledger = ledgers[i % 3 % 2]
        release_scalar(0.0, Laplace(eps, 1.0), ledger, stream)
        entries, spent = _fresh(path)
        assert ledger.entries == entries
        assert ledger.spent.hex() == spent.hex()


def test_in_place_rewrite_of_a_read_record_is_caught(tmp_path):
    path = tmp_path / "ledger.ndjson"
    path.write_text(LEDGER_RECORD + "\n" + LEDGER_RECORD + "\n")
    ledger = BudgetLedger(cap=5.0, path=path)
    inode = path.stat().st_ino
    with open(path, "r+b") as fh:  # same length, same inode
        fh.seek(len(LEDGER_RECORD) + 1)
        fh.write(LEDGER_RECORD.replace('"value": 3.0', '"value": "x"').encode())
    assert (path.stat().st_ino, path.stat().st_size) == \
           (inode, 2 * (len(LEDGER_RECORD) + 1))
    before = path.read_bytes()
    with pytest.raises(LedgerCorruptError, match=re.escape(f"{path}:2:")):
        release_scalar(0.0, Laplace(0.5, 1.0), ledger, RngStream(34).child("x"))
    assert path.read_bytes() == before
    assert ledger.spent == 1.0


def test_bad_tail_raises_at_its_line_and_changes_nothing(tmp_path):
    path = tmp_path / "ledger.ndjson"
    stream = RngStream(35).child("torn")
    ledger = BudgetLedger(cap=5.0, path=path)
    for _ in range(2):
        release_scalar(0.0, Laplace(0.5, 1.0), ledger, stream)
    entries, spent = ledger.entries, ledger.spent
    with open(path, "a", encoding="utf-8") as fh:  # another writer, then a crash
        fh.write(LEDGER_RECORD + "\n" + BAD_LEDGER_RECORDS["torn"])
    before = path.read_bytes()
    with pytest.raises(LedgerCorruptError, match=re.escape(f"{path}:4:")):
        release_scalar(0.0, Laplace(0.5, 1.0), ledger, stream)
    assert path.read_bytes() == before
    assert (ledger.entries, ledger.spent) == (entries, spent)
    # once the torn line is cut, the next append reads the valid record
    path.write_bytes(before[:-len(BAD_LEDGER_RECORDS["torn"])])
    release_scalar(0.0, Laplace(0.5, 1.0), ledger, stream)
    assert len(ledger.entries) == 4
    assert (ledger.entries, ledger.spent) == _fresh(path)


def _replace_with_longer_file(path):
    # the same length up to the old end, other values: a reader that trusted
    # the length alone would keep the old records
    text = path.read_text()
    swapped = text.replace('"value": 3.0', '"value": 4.0')
    assert len(swapped) == len(text) and swapped != text
    tmp = path.with_suffix(".new")
    tmp.write_text(swapped + LEDGER_RECORD + "\n")
    os.replace(tmp, path)


def _truncate(path):
    path.write_text(LEDGER_RECORD + "\n")


@pytest.mark.parametrize("change", [_replace_with_longer_file, _truncate],
                         ids=["replaced", "truncated"])
def test_changed_file_is_reread_from_the_start(tmp_path, change):
    path = tmp_path / "ledger.ndjson"
    path.write_text((LEDGER_RECORD + "\n") * 3)
    ledger = BudgetLedger(cap=5.0, path=path)
    change(path)
    release_scalar(0.0, Laplace(0.5, 1.0), ledger, RngStream(36).child("re"))
    assert (ledger.entries, ledger.spent) == _fresh(path)
    assert len(ledger.entries) == len(path.read_text().splitlines())


def test_append_after_a_record_without_newline(tmp_path):
    path = tmp_path / "ledger.ndjson"
    path.write_text(LEDGER_RECORD + "\n" + LEDGER_RECORD)
    ledger = BudgetLedger(cap=5.0, path=path)
    release_scalar(0.0, Laplace(0.5, 1.0), ledger, RngStream(37).child("nl"))
    assert len(ledger.entries) == 3
    assert (ledger.entries, ledger.spent) == _fresh(path)


def test_record_glued_to_an_unterminated_line_is_caught(tmp_path):
    path = tmp_path / "ledger.ndjson"
    path.write_text(LEDGER_RECORD + "\n" + LEDGER_RECORD)
    ledger = BudgetLedger(cap=5.0, path=path)
    with open(path, "a", encoding="utf-8") as fh:  # a writer that adds no newline
        fh.write(LEDGER_RECORD + "\n")
    with pytest.raises(LedgerCorruptError, match=re.escape(f"{path}:2:")):
        release_scalar(0.0, Laplace(0.5, 1.0), ledger, RngStream(38).child("glue"))


# ------------------------------------ bulk open against the per-line oracle

def _record(**raw):
    """A record line; ``raw`` replaces fields by their JSON text."""
    fields = {"timestamp": '"2026-01-01T00:00:00+00:00"', "mechanism": '"laplace"',
              "sensitivity": "1.0", "epsilon": "0.25", "value": "12.5", **raw}
    return "{" + ", ".join(f'"{key}": {text}' for key, text in fields.items()) + "}"


def _ledger_corpus(seed: int = 1207) -> dict:
    rng = np.random.default_rng(seed)
    # the bench's seeded ledger: 2,000 records at epsilon 0.01
    bench = "".join(
        NoisyRelease(value=float(v), epsilon_spent=0.01, sensitivity=1.0,
                     timestamp=f"2026-01-01T00:00:{i % 60:02d}+00:00").to_record() + "\n"
        for i, v in enumerate(rng.uniform(0.0, 200.0, 2000)))
    good = [NoisyRelease(value=float(rng.normal(0.0, 1e3)),
                         epsilon_spent=float(rng.choice([0.01, 0.1, 1 / 3, 1.0, 2.5e-3])),
                         sensitivity=float(rng.choice([1.0, 1 / 50, 1 / 1000])),
                         timestamp=f"2026-01-01T00:{i:02d}:00+00:00").to_record()
            for i in range(40)]

    def among(line, end="\n"):  # ``line`` as the fourth of six lines
        return "\n".join(good[:3] + [line] + good[3:5]) + end

    lines = {
        "leading-spaces": "   " + _record(),
        "trailing-spaces": _record() + " \t ",
        "extra-keys": _record(run_id='"q-17"', M="50"),
        "reordered-keys": "{" + ", ".join(reversed(_record()[1:-1].split(", "))) + "}",
        "duplicate-key": _record()[:-1] + ', "epsilon": 0.75}',
        "duplicate-key-bad": _record()[:-1] + ', "epsilon": 0}',
        "int-fields": _record(value="-12", epsilon="1", sensitivity="2"),
        "negative-zero": _record(value="-0.0"),
        "int-value": _record(value="3"),
        "negative-int-zero": _record(value="-0"),
        "uppercase-exponent": _record(value="1.5E+16", epsilon="2.5E-1"),
        "escaped-ascii": _record(mechanism=r'"\u006caplace"'),
        "true-value": _record(value="true"),
        "true-epsilon": _record(epsilon="true"),
        "true-sensitivity": _record(sensitivity="true"),
        "false-epsilon": _record(epsilon="false"),
        "null-value": _record(value="null"),
        "nan-value": _record(value="NaN"),
        "nan-epsilon": _record(epsilon="NaN"),
        "infinity-value": _record(value="Infinity"),
        "minus-infinity-value": _record(value="-Infinity"),
        "infinity-sensitivity": _record(sensitivity="Infinity"),
        "1e400-value": _record(value="1e400"),
        "1e-400-epsilon": _record(epsilon="1e-400"),
        "leading-zero-value": _record(value="012.5"),
        "leading-zero-epsilon": _record(epsilon="00.25"),
        "1e+400-value": _record(value="-1e+400"),
        "9e+308-value": _record(value="9e+308"),
        "1e+400-epsilon": _record(epsilon="1e+400"),
        "huge-decimal-value": _record(value="1" + "0" * 400 + ".0"),
        "largest-double-value": _record(value="-1.7976931348623157e+308"),
        "largest-double-epsilon": _record(epsilon="1.7976931348623157e+308"),
        "1e+400-sensitivity": _record(sensitivity="1e+400"),
        "huge-int-value": _record(value="1" + "0" * 400),
        "huge-int-epsilon": _record(epsilon="1" + "0" * 400),
        "huge-int-sensitivity": _record(sensitivity="1" + "0" * 400),
        "string-epsilon": _record(epsilon='"0.25"'),
        "nested-value": _record(value='{"a": 1}'),
        "nested-timestamp": _record(timestamp='{"a": [1, 2]}'),
        "list-mechanism": _record(mechanism='["laplace"]'),
        "deeply-nested-value": _record(value="[" * 100_000 + "]" * 100_000),
        "missing-key": _record()[:_record().index(', "value"')] + "}",
        "not-an-object": "[0.5]",
        "a-number": "12",
        "null": "null",
        "two-records-on-a-line": _record() + " " + _record(),
        "control-character": _record(timestamp='"a\tb"'),
        "escaped-surrogate": _record(timestamp=r'"\ud800"'),
        "escaped-u2028": _record(timestamp=r'"a\u2028b"'),
        "form-feed-before": "\x0c" + _record(),
        "cr-between-tokens": _record().replace(", ", ",\r "),
        "crlf-between-tokens": _record().replace(", ", ",\r\n "),
        "torn-middle": _record()[:30],
    }
    for name, line in BAD_LEDGER_RECORDS.items():  # the ones not above by name
        lines.setdefault(name, line)
    corpus = {name: among(line).encode() for name, line in lines.items()}
    corpus.update({
        "bench-2000": bench.encode(),
        "bench-2000-bad-line-1500": bench.replace(
            bench.splitlines()[1499], _record(epsilon="true")).encode(),
        "mixed-40": ("\n".join(good) + "\n").encode(),
        "empty": b"",
        "one-newline": b"\n",
        "crlf": ("\r\n".join(good) + "\r\n").encode(),
        "cr-only": ("\r".join(good) + "\r").encode(),
        "mixed-endings": (good[0] + "\r\n" + good[1] + "\r" + good[2] + "\n").encode(),
        "no-final-newline": "\n".join(good).encode(),
        "blank-lines": ("\n" + "\n\n".join(good[:6]) + "\n\n").encode(),
        "whitespace-lines": ("\n \t \n".join(good[:6]) + "\n\x0b\x0c\n  \n").encode(),
        "non-ascii-timestamp": among(_record(timestamp='"2026-01-01T00:00:00 Zürich"')).encode(),
        "raw-u2028-timestamp": among(_record(timestamp='"a\u2028b"')).encode(),
        "u+fffd-timestamp": among(_record(timestamp='"\ufffd"')).encode(),
        "invalid-utf8-timestamp": among(_record(timestamp='"X"')).encode().replace(b"X", b"\xff"),
        "utf8-bom": ("\ufeff" + "\n".join(good[:5]) + "\n").encode(),
        "torn-last-line": ("\n".join(good[:5]) + "\n" + _record()[:40]).encode(),
        "torn-last-line-non-utf8": ("\n".join(good[:5]) + "\n").encode() + TORN_NON_UTF8,
    })
    # valid variants mixed at seeded positions, so both paths fold one file
    variants = [lines[k] for k in ("leading-spaces", "trailing-spaces", "extra-keys",
                                   "reordered-keys", "duplicate-key", "int-fields")]
    mixed = good + [variants[i] for i in rng.integers(0, len(variants), 30)] + [""] * 5
    corpus["mixed-variants"] = ("\n".join(rng.permutation(mixed)) + "\n").encode()
    return corpus


LEDGER_CORPUS = _ledger_corpus()


def _fold(entries) -> float:
    spent = 0.0
    for entry in entries:
        spent += entry.epsilon_spent
    return spent


@pytest.mark.parametrize("name", sorted(LEDGER_CORPUS))
def test_open_matches_per_line_oracle(tmp_path, name):
    path, data = tmp_path / "ledger.ndjson", LEDGER_CORPUS[name]
    path.write_bytes(data)
    try:
        entries, count = parse_records_oracle(data, str(path), 1)
    except LedgerCorruptError as exc:
        with pytest.raises(type(exc)) as raised:
            BudgetLedger(path=path)
        assert str(raised.value) == str(exc)
        return
    ledger = BudgetLedger(path=path)
    assert ledger.entries == tuple(entries)
    assert ledger.spent.hex() == _fold(entries).hex()
    assert (ledger._lines, len(ledger._read)) == (count, len(data))


@pytest.mark.parametrize("name", sorted(LEDGER_CORPUS))
def test_tail_catch_up_matches_per_line_oracle(tmp_path, name):
    path, data = tmp_path / "ledger.ndjson", LEDGER_CORPUS[name]
    path.write_text(LEDGER_RECORD + "\n" + " \n" + LEDGER_RECORD + "\n")
    ledger = BudgetLedger(path=path)
    head = ledger.entries
    with open(path, "ab") as fh:  # another writer
        fh.write(data)
    before = path.read_bytes()
    release = NoisyRelease(value=1.0, epsilon_spent=0.5, sensitivity=1.0)
    try:
        tail, count = parse_records_oracle(data, str(path), 4)
    except LedgerCorruptError as exc:
        with pytest.raises(type(exc)) as raised:
            ledger.append(release)
        assert str(raised.value) == str(exc)
        assert (path.read_bytes(), ledger.entries) == (before, head)
        return
    ledger.append(release)
    expected = head + tuple(tail) + (release,)
    assert ledger.entries == expected
    assert ledger.spent.hex() == _fold(expected).hex()
    assert (ledger._lines, len(ledger._read)) == (3 + count + 1, path.stat().st_size)


def _no_per_line_loop(monkeypatch):
    def per_line(*args):
        raise AssertionError("a record dprep wrote took the per-line loop")
    monkeypatch.setattr(dprep.privacy, "_parse_lines", per_line)


def test_open_builds_no_release_objects(tmp_path, monkeypatch):
    path, data = tmp_path / "ledger.ndjson", LEDGER_CORPUS["bench-2000"]
    path.write_bytes(data)
    built = []
    post_init = NoisyRelease.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(NoisyRelease, "__post_init__", counted)
    with monkeypatch.context() as patched:
        _no_per_line_loop(patched)
        ledger = BudgetLedger(path=path)
    assert len(built) == 0
    assert ledger.entries == tuple(parse_records_oracle(data, str(path), 1)[0])


def _doubles(rng, n: int) -> list:
    """Finite doubles across the range: subnormals, -0.0, integral floats,
    the exponent forms repr writes, then ±1e-300 to 1e300."""
    fixed = [5e-324, -4.9e-320, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
             9.99e307, -0.0, 0.0, 2.0, -7.0, 1e15, 1e16, 1e-05, 1e-04, 1e22,
             123456789012345.67, 0.1, 1 / 3]
    drawn = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    return fixed + drawn.tolist()


def test_what_to_record_writes_takes_the_pattern_pass_and_reads_back(tmp_path, monkeypatch):
    # writer and reader in lock-step: every line NoisyRelease.to_record writes
    # takes the pattern pass and reads back equal, field by field and bit by bit
    rng = np.random.default_rng(2032)
    values = _doubles(rng, 500)
    positives = [abs(x) for x in _doubles(rng, 500) if x != 0]
    stamps = [datetime(2026, 3, 4, 5, 6, 7, tzinfo=timezone.utc).isoformat(),
              datetime(2026, 3, 4, 5, 6, 7, 89, tzinfo=timezone.utc).isoformat(),
              datetime.now(timezone.utc).isoformat(), ""]
    assert len(stamps[0]) == 25 and len(stamps[1]) == 32
    releases = [NoisyRelease(value=value, epsilon_spent=positives[i % len(positives)],
                             sensitivity=positives[-1 - i % len(positives)],
                             timestamp=stamps[i % len(stamps)])
                for i, value in enumerate(values)]
    path = tmp_path / "ledger.ndjson"
    path.write_text("".join(release.to_record() + "\n" for release in releases))
    _no_per_line_loop(monkeypatch)
    ledger = BudgetLedger(path=path)
    assert len(ledger) == len(releases)
    for got, want in zip(ledger.entries, releases, strict=True):
        assert list(map(repr, dataclasses.astuple(got))) == \
               list(map(repr, dataclasses.astuple(want)))
    assert ledger.spent.hex() == _fold(releases).hex()


def _spend_concurrently(path, start, results):
    ledger = BudgetLedger(cap=6.0, path=path)
    stream = RngStream(os.getpid()).child("race")
    start.wait()
    accepted, refused_at = 0, []
    for _ in range(40):
        try:
            release_scalar(0.0, Laplace(0.1, 1.0), ledger, stream)
            accepted += 1
        except BudgetExceededError:
            refused_at.append(ledger.spent)
    results.put((accepted, refused_at))


def test_two_processes_never_pass_the_cap(tmp_path):
    path = tmp_path / "ledger.ndjson"
    ctx = multiprocessing.get_context("spawn")
    start, results = ctx.Barrier(2), ctx.Queue()
    workers = [ctx.Process(target=_spend_concurrently, args=(path, start, results))
               for _ in range(2)]
    for worker in workers:
        worker.start()
    outcomes = [results.get(timeout=60) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0
    assert sum(accepted for accepted, _ in outcomes) == 60
    for _, refused_at in outcomes:
        assert all(spent + 0.1 > 6.0 + 1e-9 for spent in refused_at)
    entries, spent = _fresh(path)
    assert len(entries) == len(path.read_text().splitlines()) == 60
    assert spent <= 6.0 + 1e-9
