"""Config files and run-log provenance for the table-driven CLI options."""

import os
import shutil
import time
from datetime import datetime, timezone

import pytest

from warmstart.cli import SAMPLE_BATCHES_OPTIONS, main

from test_cli import (  # noqa: F401 (fixtures)
    _isolate_run_log,
    corpus_store,
    emb_file,
    vocab_file,
)


def _single_config_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("warmstart: error: ConfigError:")
    assert err.count("\n") == 1 and err.endswith("\n")  # a single line
    for needle in needles:
        assert needle in err


def _run_log(tmp_path) -> list[list[str]]:
    return [line.split("\t") for line in (tmp_path / "runs.log").read_text().splitlines()]


class TestConfigChoices:
    """A `choices` option read from a config file is checked like the flag."""

    CASES = {
        "mode": ("sample-batches", "iid"),
        "format": ("sample-batches", "text"),
        "shape": ("lr-curve", "rsqrt"),
        "precision": ("memplan", "bf16"),
        "provider": ("transplant", "identity"),
    }

    def _argv(self, subcommand, tmp_path, corpus_store, vocab_file, emb_file):
        return {
            "sample-batches": [
                "sample-batches", "--store", str(corpus_store), "--vocab", str(vocab_file),
                "--micro-batch", "2", "--effective-batch", "8", "--sentinel-count", "3",
                "--out", str(tmp_path / "b.tsv"),
            ],
            "lr-curve": [
                "lr-curve", "--total", "20000", "--stride", "5000",
                "--out", str(tmp_path / "lr.csv"),
            ],
            "memplan": ["memplan", "--params", "1000"],
            "transplant": [
                "transplant", "--src-emb", str(emb_file), "--src-vocab", str(vocab_file),
                "--tgt-vocab", str(vocab_file), "--out", str(tmp_path / "o.embt"),
                "--sentinel-count", "3",
            ],
        }[subcommand]

    @pytest.mark.parametrize("key", sorted(CASES))
    def test_bad_value_is_one_line_error(
        self, key, tmp_path, corpus_store, vocab_file, emb_file, capsys
    ):
        subcommand, good = self.CASES[key]
        argv = self._argv(subcommand, tmp_path, corpus_store, vocab_file, emb_file)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {good}\n", encoding="utf-8")
        assert main([*argv, "--config", str(cfg)]) == 0
        capsys.readouterr()
        cfg.write_text(f"{key} = bogus\n", encoding="utf-8")
        assert main([*argv, "--config", str(cfg)]) == 1
        _single_config_error(capsys, key, "'bogus'")

    def test_unused_branch_values_are_still_checked(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = many\n", encoding="utf-8")
        assert main(["lr-curve", "--total", "100", "--config", str(cfg)]) == 1
        _single_config_error(capsys, "epochs", "'many'")


class TestUnknownConfigKeys:
    def test_misspelt_key_is_rejected_with_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "memplan.cfg"
        cfg.write_text("# plan\nparams = 1000\nofflod = true\n", encoding="utf-8")
        assert main(["memplan", "--config", str(cfg)]) == 1
        _single_config_error(capsys, f"{cfg}:3", "'offlod'")

    def test_other_subcommands_keys_and_seed_are_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(
            "seed = 3\nparams = 1000\nseq_len = 8\nmode = iid\npeak = 0.001\n"
            "provider = dict\ninput = corpus/\n",
            encoding="utf-8",
        )
        assert main(["memplan", "--config", str(cfg)]) == 0
        assert "weights_bytes=4000" in capsys.readouterr().out


# One value per sample-batches option that differs from the base run below.
def _alternates(tmp_path, corpus_store, vocab_file):
    store2 = tmp_path / "copy.seqs"
    shutil.copyfile(corpus_store, store2)
    shutil.copyfile(f"{corpus_store}.idx", f"{store2}.idx")
    vocab2 = tmp_path / "copy-vocab.txt"
    shutil.copyfile(vocab_file, vocab2)
    return {
        "pad_id": ["--pad-id", "3"],
        "eos_id": ["--eos-id", "3"],
        "unk_id": ["--unk-id", "3"],
        "sentinel_count": ["--sentinel-count", "2"],
        "boundary_marker": ["--boundary-marker", "_"],
        "store": ["--store", str(store2)],
        "vocab": ["--vocab", str(vocab2)],
        "epoch": ["--epoch", "1"],
        "mode": ["--mode", "iid"],
        "rate": ["--rate", "0.3"],
        "mean_span": ["--mean-span", "2.0"],
        "micro_batch": ["--micro-batch", "4"],
        "effective_batch": ["--effective-batch", "16"],
        "sort_by_length": ["--sort-by-length"],
        "format": ["--format", "binary"],
        "out": ["--out", str(tmp_path / "other.tsv")],
        "report": ["--report", str(tmp_path / "eff.txt")],
    }


@pytest.mark.parametrize("option", SAMPLE_BATCHES_OPTIONS, ids=lambda opt: opt.key)
def test_changing_any_sample_batches_option_changes_the_logged_hash(
    option, tmp_path, corpus_store, vocab_file
):
    base = [
        "sample-batches", "--store", str(corpus_store), "--vocab", str(vocab_file),
        "--seed", "5", "--micro-batch", "2", "--effective-batch", "8",
        "--sentinel-count", "3", "--out", str(tmp_path / "b.tsv"),
    ]
    change = _alternates(tmp_path, corpus_store, vocab_file)[option.key]
    log_before = len(_run_log(tmp_path))
    assert main(base) == 0
    assert main(base) == 0
    assert main([*base, *change]) == 0
    records = _run_log(tmp_path)[log_before:]
    hashes = [next(f for f in rec if f.startswith("config=")) for rec in records]
    assert hashes[0] == hashes[1]  # same options, same hash
    assert hashes[2] != hashes[0]


@pytest.fixture
def non_utc_zone():
    old = os.environ.get("TZ")
    os.environ["TZ"] = "EST+5"
    time.tzset()
    try:
        yield
    finally:
        if old is None:
            del os.environ["TZ"]
        else:
            os.environ["TZ"] = old
        time.tzset()


def test_run_log_timestamp_is_utc(non_utc_zone, tmp_path):
    assert time.localtime().tm_gmtoff == -5 * 3600
    before = datetime.now(timezone.utc).replace(microsecond=0)
    assert main(["memplan", "--params", "1000"]) == 0
    after = datetime.now(timezone.utc)
    stamp = _run_log(tmp_path)[-1][0]
    assert stamp.endswith("+0000")
    logged = datetime.strptime(stamp, "%Y-%m-%dT%H:%M:%S%z")
    assert before <= logged <= after
