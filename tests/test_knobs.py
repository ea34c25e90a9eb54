"""The switchboard: every ``DEX_*`` switch reads one grammar, one
precedence rule, once per cluster, and only :mod:`repro.knobs` touches the
environment."""

import ast
from pathlib import Path

import pytest

from repro import DexCluster, SimParams
from repro.knobs import TABLE, resolve

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: row -> (env var, SimParams field or None, off value, on value)
ROWS = {
    "sanitize": ("DEX_SANITIZE", "sanitize", "", "all"),
    "chaos": ("DEX_CHAOS", "chaos", None, "on"),
    "trace": ("DEX_TRACE", "trace", "", "spans"),
    "lens": ("DEX_LENS", "lens", "", "on"),
    "scope": ("DEX_SCOPE", "scope", "", "on"),
    "engine_fastlane": ("DEX_ENGINE_FASTLANE", None, False, True),
    "engine_inline": ("DEX_ENGINE_INLINE", None, False, True),
    "msg_freelist": ("DEX_MSG_FREELIST", None, False, True),
}
OFF_SPELLINGS = ("", "0", "off", "none", "false", "no", "OFF", " None ")
ON_SPELLINGS = ("1", "on", "true", "yes", "ON", " Yes ")
#: spellings only some rows accept, and the ones a row must refuse
#: (ValueError); chaos reads any other text as a scenario file path
EXTRA = [
    ("sanitize", "all", "all"),
    ("sanitize", "race", "race"),
    ("sanitize", "deadlock", "deadlock"),
    ("trace", "all", "spans"),
    ("trace", "spans", "spans"),
    ("trace", "bogus", ValueError),
    ("lens", "all", "on"),
    ("lens", "bogus", ValueError),
    ("lens", "spans", ValueError),  # a trace mode, not a lens mode
    ("scope", "all", "on"),
    ("scope", "bogus", ValueError),
    ("scope", "spans", ValueError),
    ("chaos", "scenario.json", "scenario.json"),
    ("chaos", " Faults.JSON ", "Faults.JSON"),
    ("engine_inline", "all", ValueError),
]
UNKNOWN = "garbage"


def _cases():
    for row, (_, field, off, on) in ROWS.items():
        inputs = [(s, off) for s in OFF_SPELLINGS] + [(s, on) for s in ON_SPELLINGS]
        inputs.append((UNKNOWN, UNKNOWN if row == "chaos" else ValueError))
        inputs += [(s, want) for r, s, want in EXTRA if r == row]
        for source in ("env", "params") if field else ("env",):
            for spelling, want in inputs:
                yield pytest.param(row, source, spelling, want,
                                   id=f"{row}-{source}-{spelling.strip() or 'empty'}")


@pytest.mark.parametrize("row, source, spelling, want", list(_cases()))
def test_knob_grammar(row, source, spelling, want, monkeypatch):
    env, field, _, _ = ROWS[row]
    for other in ROWS.values():
        monkeypatch.delenv(other[0], raising=False)
    if source == "env":
        monkeypatch.setenv(env, spelling)
        params, named = SimParams(), env
    else:
        params, named = SimParams(**{field: spelling}), f"SimParams.{field}"
    if want is ValueError:
        with pytest.raises(ValueError) as info:
            resolve(params)
        message = str(info.value)
        assert named in message and repr(spelling) in message
        assert "'off'" in message and "'1'" in message  # the accepted values
    else:
        assert getattr(resolve(params), row) == want


def test_table_rows_match_the_spec():
    assert {row: (k.env, k.field) for row, k in TABLE.items()} == {
        row: spec[:2] for row, spec in ROWS.items()
    }


def test_defaults_with_nothing_set(monkeypatch):
    for env, *_ in ROWS.values():
        monkeypatch.delenv(env, raising=False)
    knobs = resolve(SimParams())
    assert (knobs.sanitize, knobs.chaos, knobs.trace, knobs.lens, knobs.scope) == (
        "", None, "", "", "")
    assert knobs.engine_fastlane and knobs.engine_inline and knobs.msg_freelist
    assert resolve() == knobs  # no params: env and defaults only


def test_explicit_params_beat_the_env(monkeypatch):
    monkeypatch.setenv("DEX_TRACE", "1")
    monkeypatch.setenv("DEX_LENS", "bogus")  # never read: the field is set
    knobs = resolve(SimParams(trace="", lens="0"))
    assert knobs.trace == "" and knobs.lens == ""
    monkeypatch.delenv("DEX_LENS")
    assert resolve(SimParams()).trace == "spans"  # field None: env wins


def test_knobs_are_not_written_into_params(monkeypatch):
    monkeypatch.setenv("DEX_TRACE", "1")
    params = SimParams()
    cluster = DexCluster(num_nodes=2, params=params)
    assert cluster.tracer is not None
    assert cluster.params is params and params == SimParams()
    assert params.trace is None


def test_env_change_after_import_reaches_the_next_cluster(monkeypatch):
    monkeypatch.delenv("DEX_MSG_FREELIST", raising=False)
    monkeypatch.delenv("DEX_ENGINE_INLINE", raising=False)
    monkeypatch.delenv("DEX_ENGINE_FASTLANE", raising=False)
    first = DexCluster(num_nodes=2)
    assert first.net._recycle is True and first.engine._inline is True
    monkeypatch.setenv("DEX_MSG_FREELIST", "0")
    monkeypatch.setenv("DEX_ENGINE_INLINE", "none")
    monkeypatch.setenv("DEX_ENGINE_FASTLANE", "off")
    second = DexCluster(num_nodes=2)
    assert second.net._recycle is False
    assert second.engine._inline is False and second.engine._fastlane_on is False
    # ... and the cluster built earlier keeps what it resolved
    assert first.net._recycle is True and first.engine._inline is True


def test_processes_of_one_cluster_share_one_sanitize_mode(monkeypatch):
    monkeypatch.setenv("DEX_SANITIZE", "race")
    cluster = DexCluster(num_nodes=2)
    first = cluster.create_process()
    monkeypatch.setenv("DEX_SANITIZE", "deadlock")
    second = cluster.create_process()
    for proc in (first, second):
        assert proc.sanitizer is not None and proc.deadlocks is None
    assert DexCluster(num_nodes=2).create_process().deadlocks is not None


def _environment_readers(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ("environ", "getenv") for alias in node.names):
            yield node.lineno


def test_only_knobs_reads_the_environment():
    readers = {
        str(path.relative_to(SRC)): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := list(_environment_readers(path)))
    }
    assert list(readers) == ["knobs.py"], readers
