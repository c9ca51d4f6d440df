"""Central env-registry tests: declaration rules, parsing, doc generation."""

import pytest

from repro.analysis.cli import main as analysis_main
from repro.runtime import env

pytestmark = pytest.mark.analysis


def test_declared_knobs_cover_the_runtime():
    names = set(env.REGISTRY)
    assert {"REPRO_WORKERS", "REPRO_RESULT_CACHE", "REPRO_CACHE_DIR",
            "REPRO_CACHE_MAX_MB", "REPRO_CELL_TIMEOUT",
            "REPRO_MAX_RETRIES", "REPRO_FAULT_PLAN",
            "REPRO_SANITIZE"} <= names


def test_every_knob_is_read_outside_the_registry():
    """A declared knob nothing reads would be silently inert."""
    import os
    import re

    import repro
    package = os.path.dirname(os.path.abspath(repro.__file__))
    registry = os.path.join(package, "runtime", "env.py")
    sources = []
    for directory, _, files in os.walk(package):
        for name in files:
            path = os.path.join(directory, name)
            if name.endswith(".py") and path != registry:
                with open(path, encoding="utf-8") as handle:
                    sources.append(handle.read())
    code = "\n".join(sources)
    attrs = {var.name: attr for attr, var in vars(env).items()
             if isinstance(var, env.EnvVar)}
    assert set(attrs) == set(env.REGISTRY)
    inert = [name for name, attr in attrs.items()
             if not re.search(rf"env\.{attr}\b", code)]
    assert inert == []


def test_declare_rejects_non_repro_prefix():
    with pytest.raises(ValueError, match="REPRO_"):
        env.declare("OTHER_THING", "int", default=0, doc="nope")


def test_declare_rejects_conflicting_redeclaration():
    with pytest.raises(ValueError, match="already declared"):
        env.declare("REPRO_WORKERS", "int", default=99, doc="conflict")


def test_declare_is_idempotent_for_identical_redeclares():
    var = env.REGISTRY["REPRO_WORKERS"]
    again = env.declare(var.name, var.type, default=var.default, doc=var.doc)
    assert again == var


def test_get_returns_default_when_unset(monkeypatch):
    monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
    assert env.MAX_RETRIES.get() == 2


def test_get_parses_typed_values(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "4")
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1.5")
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    assert env.WORKERS.get() == 4
    assert env.CACHE_MAX_MB.get() == 1.5  # repro: noqa[R005] -- float('1.5') parses to an exactly representable double
    assert env.RESULT_CACHE.get() is False
    monkeypatch.setenv("REPRO_RESULT_CACHE", "1")
    assert env.RESULT_CACHE.get() is True


def test_get_raises_naming_the_variable(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "lots")
    with pytest.raises(ValueError, match="REPRO_WORKERS must be an integer"):
        env.WORKERS.get()
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "soon")
    with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT must be a number"):
        env.CELL_TIMEOUT.get()


def test_set_round_trips(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    env.WORKERS.set(3)
    try:
        assert env.WORKERS.raw() == "3"
        assert env.WORKERS.get() == 3
    finally:
        monkeypatch.delenv("REPRO_WORKERS", raising=False)


def test_lookup_undeclared_raises():
    with pytest.raises(env.UndeclaredEnvVar):
        env.lookup("REPRO_NOT_A_THING")


# ---------------------------------------------------------------------------
# Generated documentation
# ---------------------------------------------------------------------------

def test_rendered_table_lists_every_knob():
    table = env.render_markdown_table()
    for name in env.REGISTRY:
        assert f"`{name}`" in table
    assert table.startswith(env.TABLE_BEGIN)
    assert table.endswith(env.TABLE_END)


def test_sync_markdown_table_replaces_between_markers():
    stale = (f"# Doc\n\n{env.TABLE_BEGIN}\nstale content\n{env.TABLE_END}\n"
             "\ntrailing prose\n")
    synced = env.sync_markdown_table(stale)
    assert "stale content" not in synced
    assert "trailing prose" in synced
    assert env.render_markdown_table() in synced
    # Idempotent: syncing a synced document is a no-op.
    assert env.sync_markdown_table(synced) == synced


def test_sync_markdown_table_requires_markers():
    with pytest.raises(ValueError, match="markers"):
        env.sync_markdown_table("# Doc without markers\n")


def test_readme_table_is_in_sync():
    import os
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "README.md")
    assert analysis_main(["envdoc", "--check", readme]) == 0


def test_cli_envdoc_check_and_write(tmp_path, capsys):
    doc = tmp_path / "DOC.md"
    doc.write_text(f"intro\n{env.TABLE_BEGIN}\nold\n{env.TABLE_END}\nend\n",
                   encoding="utf-8")
    assert analysis_main(["envdoc", "--check", str(doc)]) == 1
    assert "stale" in capsys.readouterr().out
    assert analysis_main(["envdoc", "--write", str(doc)]) == 0
    capsys.readouterr()
    assert analysis_main(["envdoc", "--check", str(doc)]) == 0
    assert "in sync" in capsys.readouterr().out
