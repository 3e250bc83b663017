"""Config files and run-log provenance for the table-driven CLI options."""

import os
import shutil
import time
from datetime import datetime, timezone

import pytest

from warmstart.cli import SAMPLE_BATCHES_OPTIONS, gibibytes, main, per_second
from warmstart.config import parse_bool

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

    @pytest.mark.parametrize("text, error", [
        (" = 5\n", "1: empty key"),
        ("seed = 1\nparams = 1000\nseed = 2\n", "3: duplicate key 'seed'"),
    ], ids=["empty", "duplicate"])
    def test_empty_or_duplicate_key_is_rejected_with_its_line(self, text, error, tmp_path,
                                                               capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["memplan", "--params", "1000", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"warmstart: error: ConfigError: {cfg}:{error}\n"

    def test_run_log_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"run_log = {tmp_path / 'other.log'}\n", encoding="utf-8")
        assert main(["memplan", "--params", "1000", "--config", str(cfg)]) == 1
        _single_config_error(capsys, f"{cfg}:1", "unknown key 'run_log'")
        assert not (tmp_path / "other.log").exists()

    def test_other_subcommands_keys_and_seed_are_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(
            "seed = 3\nparams = 1000\nseq_len = 8\nmode = iid\npeak = 0.001\n"
            "provider = dict\ninput = corpus/\n",
            encoding="utf-8",
        )
        assert main(["memplan", "--config", str(cfg)]) == 0
        assert "weights_bytes=4000" in capsys.readouterr().out


SOURCES = {"seed": "WARMSTART_SEED", "run_log": "WARMSTART_RUN_LOG"}


@pytest.mark.parametrize("key, flag, config, env, expected", [
    ("seed", "7", "5", "3", "7"),
    ("seed", None, "5", "3", "5"),
    ("seed", None, None, "3", "3"),
    ("seed", None, None, None, "0"),
    ("run_log", "flag.log", None, "env.log", "flag.log"),
    ("run_log", None, None, "env.log", "env.log"),
    ("run_log", None, None, None, "warmstart-runs.log"),
])
def test_flag_then_config_then_environment_then_default(
    key, flag, config, env, expected, tmp_path, monkeypatch
):
    """--seed and --run-log resolve like every other option row."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SOURCES[key], raising=False)
    argv = ["memplan", "--params", "1000"]
    if flag is not None:
        argv += [f"--{key.replace('_', '-')}", flag]
    if config is not None:
        (tmp_path / "run.cfg").write_text(f"{key} = {config}\n", encoding="utf-8")
        argv += ["--config", "run.cfg"]
    if env is not None:
        monkeypatch.setenv(SOURCES[key], env)
    assert main(argv) == 0
    if key == "seed":
        assert _run_log(tmp_path)[-1][3] == f"seed={expected}"
    else:
        logs = {"flag.log", "env.log", "warmstart-runs.log"} & set(os.listdir(tmp_path))
        assert logs == {expected}
        assert (tmp_path / expected).read_text().count("\tmemplan\t") == 1


@pytest.mark.parametrize("source", ["config", "environment"])
def test_bad_seed_is_one_config_error_line(source, tmp_path, monkeypatch, capsys):
    argv = ["memplan", "--params", "1000"]
    if source == "config":
        (tmp_path / "run.cfg").write_text("seed = five\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        monkeypatch.setenv("WARMSTART_SEED", "five")
    assert main(argv) == 1
    _single_config_error(capsys, "seed" if source == "config" else "WARMSTART_SEED", "'five'")


@pytest.mark.parametrize("raw, on", [
    ("true", True), ("1", True), ("Yes", True), ("ON", True),
    ("FALSE", False), ("0", False), ("no", False), ("Off", False),
])
def test_a_config_switch_takes_every_spelling(raw, on, tmp_path, capsys):
    assert parse_bool(f" {raw}\t") is on
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"offload =  {raw} \n", encoding="utf-8")
    assert main(["memplan", "--params", "1000", "--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert main(["memplan", "--params", "1000", *["--offload"] * on]) == 0
    assert from_config == capsys.readouterr().out
    assert f"offload={str(on).lower()}\n" in from_config


def test_a_bad_config_switch_names_its_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sort_by_length = maybe\n", encoding="utf-8")
    assert main(["sample-batches", "--store", str(tmp_path / "missing.seqs"),
                 "--vocab", str(tmp_path / "missing.txt"), "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("warmstart: error: ConfigError: config key sort_by_length: "
                   "cannot parse 'maybe': not a boolean: 'maybe'\n")


@pytest.mark.parametrize("raw, value", [
    ("5", 5.0), ("5/s", 5.0), (" 2.5/s ", 2.5), ("0.25", 0.25),
])
def test_rate_limit_converter(raw, value):
    assert per_second(raw) == value


@pytest.mark.parametrize("raw, value", [
    ("40", 40 * 2**30), ("0.5", 2**29), ("1/3", round(2**30 / 3)), (" 8 ", 8 * 2**30),
])
def test_gibibytes_converter(raw, value):
    assert gibibytes(raw) == value


# Each bad typed value, with a missing --src-emb: had anything been opened,
# the error would name that file instead.
BAD_TYPED_VALUES = {
    "rate-limit-garbage": ("transplant", "rate_limit", "garbage"),
    "rate-limit-unit": ("transplant", "rate_limit", "5/min"),
    "gpu-mem-zero": ("memplan", "gpu_mem", "0"),
    "gpu-mem-negative": ("memplan", "gpu_mem", "-1"),
    "ram-divide-by-zero": ("memplan", "ram", "1/0"),
    "ram-words": ("memplan", "ram", "lots"),
}


def _typed_argv(subcommand, tmp_path, vocab_file):
    if subcommand == "transplant":
        return ["transplant", "--provider", "dict", "--dict-file", str(tmp_path / "none.tsv"),
                "--src-emb", str(tmp_path / "missing.embt"), "--src-vocab", str(vocab_file),
                "--tgt-vocab", str(vocab_file), "--out", str(tmp_path / "o.embt"),
                "--sentinel-count", "3"]
    return ["memplan", "--params", "1000", "--gpu-mem", "40", "--ram", "64"]


@pytest.mark.parametrize("case", sorted(BAD_TYPED_VALUES))
def test_bad_typed_flag_is_a_usage_error(case, tmp_path, vocab_file, capsys):
    subcommand, key, raw = BAD_TYPED_VALUES[case]
    flag = f"--{key.replace('_', '-')}"
    with pytest.raises(SystemExit) as exc:
        main([*_typed_argv(subcommand, tmp_path, vocab_file), flag, raw])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage:" in err and f"argument {flag}:" in err
    assert not (tmp_path / "runs.log").exists()


@pytest.mark.parametrize("case", sorted(BAD_TYPED_VALUES))
def test_bad_typed_config_value_is_one_config_error_line(case, tmp_path, vocab_file, capsys):
    subcommand, key, raw = BAD_TYPED_VALUES[case]
    argv = _typed_argv(subcommand, tmp_path, vocab_file)
    if key in ("gpu_mem", "ram"):  # drop the flag so the config value applies
        i = argv.index(f"--{key.replace('_', '-')}")
        del argv[i : i + 2]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {raw}\n", encoding="utf-8")
    assert main([*argv, "--config", str(cfg)]) == 1
    _single_config_error(capsys, f"config key {key}", repr(raw))
    assert not (tmp_path / "runs.log").exists()


# Taken from the run log at the commit before --seed and --run-log became
# option rows: runs that set none of the typed flags keep their hashes.
@pytest.mark.parametrize("argv, logged", [
    (["sample-batches", "--store", "corpus.seqs", "--vocab", "vocab.txt", "--seed", "5",
      "--micro-batch", "2", "--effective-batch", "8", "--sentinel-count", "3", "--out", "b.tsv"],
     "config=afc0d26943acd1f7"),
    (["lr-curve", "--total", "20000", "--stride", "5000"], "config=ceafba0e1b38376f"),
])
def test_logged_config_hash_is_pinned(argv, logged, tmp_path, corpus_store, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert _run_log(tmp_path)[-1][2] == logged


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
