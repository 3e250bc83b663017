"""Which subcommands start without numpy, the dataclasses machinery or the
layers they never run, the names cli binds on first use, and that
sample-batches renders micro-batch 0 before numpy, dataclasses or fractions
loads.

cli imports the modules that use numpy (batcher, masking and transplant),
memplan and translate only when a subcommand reaches them, and binds the
names it takes from them then. Each test runs in a fresh child process,
where `sys.modules` shows what a run imported and no earlier test has bound
a name.
"""

import json

import pytest

from test_cli import _isolate_run_log, corpus_store, emb_file, vocab_file  # noqa: F401
from test_prepare_workers import big_corpus, prepare, vocab  # noqa: F401
from test_sample_workers import BASE, FORKS, big_store, cli  # noqa: F401

# Modules that only some subcommands need. dataclasses, with the inspect, ast,
# dis and copy it imports, comes with memplan; inspect, ast and dis also come
# with numpy.
DEFERRED = ("ast", "copy", "dataclasses", "decimal", "dis", "fractions", "inspect", "json",
            "warmstart.memplan", "warmstart.translate")

RUN = (
    f"{FORKS}"
    "import warmstart.cli as cli\n"
    "assert cli.main(sys.argv[1:]) == 0\n"
    f"print(sorted(set({DEFERRED!r}) & sys.modules.keys()))\n"
    "print('numpy' in sys.modules, len(forks), pool())\n"
)


@pytest.mark.parametrize("workers, forks", [("1", 0), ("2", 2)])
def test_prepare_corpus_runs_without_numpy(tmp_path, vocab, big_corpus, workers, forks):
    proc = cli(tmp_path, "-c", RUN, *prepare(tmp_path, vocab, big_corpus), workers=workers)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-2:] == ["[]", f"False {forks} []"]


@pytest.mark.parametrize("argv", [
    ["memplan", "--params", "1000000", "--gpu-mem", "16", "--ram", "64", "--gpus", "2"],
    ["lr-curve", "--total", "10", "--warmup", "2"],
    ["lr-curve", "--store", "<corpus_store>", "--warmup", "1", "--effective-batch", "1"],
])
def test_subcommands_without_numpy_code_run_without_numpy(tmp_path, argv, corpus_store):
    argv = [str(corpus_store) if arg == "<corpus_store>" else arg for arg in argv]
    proc = cli(tmp_path, "-c", RUN, *argv)
    assert proc.returncode == 0, proc.stderr
    deferred = ("['ast', 'copy', 'dataclasses', 'decimal', 'dis', 'fractions', 'inspect', "
                "'warmstart.memplan']" if argv[0] == "memplan" else "[]")
    assert proc.stdout.decode().splitlines()[-2:] == [deferred, "False 0 []"]


# Runs the CLI with cli.make_example wrapped, and prints whether numpy was
# loaded at its first call: the first row of micro-batch 0.
FIRST_ROW = """
import sys
import warmstart.cli as cli

real, loaded = cli.make_example, []

def first(*args, **kwargs):
    loaded.append("numpy" in sys.modules)
    return real(*args, **kwargs)

cli.make_example = first
assert cli.main(sys.argv[1:]) == 0
print(loaded[0])
"""


@pytest.mark.parametrize("extra, numpy_loaded", [
    ([], False),
    (["--out", "b.tsv"], False),
    (["--report", "b.eff"], False),
    (["--format", "binary", "--out", "bin"], False),
    (["--sort-by-length"], True),  # the order needs the reader's lengths first
])
def test_micro_batch_0_is_rendered_before_numpy_loads(tmp_path, vocab, big_store, extra,
                                                      numpy_loaded):
    proc = cli(tmp_path, "-c", FIRST_ROW, *BASE, "--store", big_store, "--vocab", vocab, *extra)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == str(numpy_loaded)


# Runs the CLI with cli.make_example wrapped, and prints which of the modules
# micro-batch 0 never needs were loaded at its first call, then which of those
# that numpy does not import were loaded by the end of the run.
FIRST_ROW_MODULES = """
import sys
import warmstart.cli as cli

SLOW = {"ast", "copy", "dataclasses", "decimal", "dis", "fractions", "inspect", "numpy"}
real, loaded = cli.make_example, []

def first(*args, **kwargs):
    if not loaded:
        loaded.append(sorted(SLOW & sys.modules.keys()))
    return real(*args, **kwargs)

cli.make_example = first
assert cli.main(sys.argv[1:]) == 0
print(loaded[0], sorted({"copy", "dataclasses", "decimal", "fractions"} & sys.modules.keys()))
"""


@pytest.mark.parametrize("extra", [[], ["--out", "b.tsv"], ["--format", "binary", "--out", "bin"]])
def test_micro_batch_0_loads_no_dataclasses_or_fractions(tmp_path, vocab, big_store, extra):
    proc = cli(tmp_path, "-c", FIRST_ROW_MODULES, *BASE, "--store", big_store, "--vocab",
               vocab, *extra)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == "[] []"


def test_only_the_report_loads_fractions(tmp_path, vocab, big_store):
    # its lines print each batch's efficiencies as exact fractions
    proc = cli(tmp_path, "-c", FIRST_ROW_MODULES, *BASE, "--store", big_store, "--vocab",
               vocab, "--report", "b.eff")
    assert proc.returncode == 0, proc.stderr
    first_row, after_run = proc.stdout.decode().splitlines()[-1].split(" ", 1)
    assert first_row == "[]"
    assert "fractions" in after_run and "dataclasses" not in after_run


def test_stats_loads_no_deferred_module_of_its_own(tmp_path, corpus_store):
    # numpy imports inspect, and with it ast and dis
    proc = cli(tmp_path, "-c", RUN, "stats", "--store", corpus_store)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-2:] == ["['ast', 'dis', 'inspect']", "True 0 []"]


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_load_no_deferred_module(tmp_path, flag):
    code = (
        "import sys\n"
        "import warmstart.cli as cli\n"
        "try:\n"
        "    cli.main(sys.argv[1:])\n"
        "except SystemExit as e:\n"
        "    assert e.code == 0, e.code\n"
        f"print(sorted(set({DEFERRED!r}) & sys.modules.keys()), 'numpy' in sys.modules)\n"
    )
    proc = cli(tmp_path, "-c", code, flag)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == "[] False"


def test_every_lazy_name_is_the_layers_own_object(tmp_path):
    code = (
        "import sys\n"
        "from importlib import import_module\n"
        "import warmstart.cli as cli\n"
        "assert 'numpy' not in sys.modules\n"
        "for module, names in cli._LAZY_NAMES.items():\n"
        "    own = import_module(module, 'warmstart')\n"
        "    for name in names:\n"
        "        assert getattr(cli, name) is getattr(own, name), name\n"
        "print(sum(map(len, cli._LAZY_NAMES.values())))\n"
    )
    proc = cli(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == "23\n"


# Runs one subcommand, checks that every name of each module it bound is the
# layer's own object in cli's namespace, and prints the modules bound.
BOUND = """
import sys
import warmstart.cli as cli

assert cli.main(sys.argv[1:]) == 0
bound = []
for module, names in cli._LAZY_NAMES.items():
    if any(name in vars(cli) for name in names):
        own = sys.modules["warmstart" + module]
        for name in names:
            assert vars(cli)[name] is getattr(own, name), name
        bound.append(module)
print(bound)
"""


@pytest.mark.parametrize("subcommand, bound", [
    ("transplant", "['.translate', '.transplant']"),
    ("memplan", "['.memplan']"),
])
def test_a_subcommand_binds_every_name_of_the_layers_it_runs(
    tmp_path, vocab_file, emb_file, subcommand, bound
):
    argv = {
        "transplant": ["--src-emb", emb_file, "--src-vocab", vocab_file, "--tgt-vocab",
                       vocab_file, "--out", tmp_path / "out.embt", "--sentinel-count", "3"],
        "memplan": ["--params", "1000000", "--gpu-mem", "16", "--ram", "64", "--gpus", "2"],
    }[subcommand]
    proc = cli(tmp_path, "-c", BOUND, subcommand, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == bound


# Wraps names on cli before any subcommand has run, as bench/layertrace.py
# does: the original is read with getattr, the wrapper set with setattr.
TRACED = """
import json, sys
from collections import Counter
import warmstart.cli as cli

calls = Counter()

def count(name):
    raw = getattr(cli, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return raw(*args, **kwargs)

    setattr(cli, name, counted)

count("padding_stats")
count("transplant")
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0
print(json.dumps(calls, sort_keys=True))
"""


def test_wrappers_set_before_the_first_run_are_the_ones_called(
    tmp_path, corpus_store, vocab_file, emb_file
):
    runs = [
        ["sample-batches", "--store", str(corpus_store), "--vocab", str(vocab_file),
         "--micro-batch", "2", "--effective-batch", "4", "--sentinel-count", "3"],
        ["transplant", "--src-emb", str(emb_file), "--src-vocab", str(vocab_file),
         "--tgt-vocab", str(vocab_file), "--out", str(tmp_path / "out.embt"),
         "--sentinel-count", "3"],
    ]
    proc = cli(tmp_path, "-c", TRACED, json.dumps(runs), workers="1")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.decode().splitlines()
    batches = next(line for line in out if line.startswith("batches=")).split()[0]
    assert batches == "batches=2"
    assert json.loads(out[-1]) == {"padding_stats": 2, "transplant": 1}
