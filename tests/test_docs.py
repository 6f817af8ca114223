"""Docs stay true: links resolve, snippets parse, docstrings exist."""

import importlib.util
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(REPO_ROOT, "scripts")


def _load(script):
    spec = importlib.util.spec_from_file_location(
        script, os.path.join(SCRIPTS, script + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load("check_docs")
check_docstrings = _load("check_docstrings")


class TestCheckDocs:
    def test_static_pass_is_clean(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(SCRIPTS, "check_docs.py")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_every_doc_page_exists(self):
        for path in check_docs.DOC_FILES:
            assert os.path.exists(os.path.join(REPO_ROOT, path)), path

    def test_index_links_every_docs_page(self):
        index = open(os.path.join(REPO_ROOT, "docs", "index.md")).read()
        for path in check_docs.DOC_FILES:
            if path.startswith("docs/") and path != "docs/index.md":
                assert os.path.basename(path) in index, path

    def test_readme_points_at_docs(self):
        readme = open(os.path.join(REPO_ROOT, "README.md")).read()
        assert "docs/index.md" in readme

    def test_detects_broken_link(self):
        problems = []
        check_docs.check_links(
            "docs/index.md", "[gone](does-not-exist.md)", problems
        )
        assert problems

    def test_detects_bad_cli_snippet(self):
        problems = []
        check_docs.check_commands(
            "x.md", "```bash\nrepro-sim run --no-such-flag\n```", problems
        )
        assert problems

    def test_good_cli_snippet_parses(self):
        problems = []
        check_docs.check_commands(
            "x.md",
            "```bash\nrepro-sim run health --machine psb --metrics\n```",
            problems,
        )
        assert problems == []

    def test_cli_argv_strips_env_prefixes_and_continuations(self):
        commands = list(check_docs.shell_commands(
            "```bash\nA_B=1 repro-sim run health \\\n  --metrics\n```"
        ))
        assert [c.split() for c in commands] == [
            ["A_B=1", "repro-sim", "run", "health", "--metrics"]
        ]
        assert check_docs.cli_argv(commands[0]) == [
            "run", "health", "--metrics"
        ]

    def test_cli_argv_ignores_other_tools(self):
        assert check_docs.cli_argv("pytest tests/") is None
        assert check_docs.cli_argv("pip install -e .") is None
        assert check_docs.cli_argv("python -m repro workloads") == [
            "workloads"
        ]

    def test_detects_broken_python_fence(self):
        problems = []
        check_docs.check_python_fences(
            "x.md", "```python\ndef broken(:\n```", problems
        )
        assert problems


    def test_running_md_command_table_matches_cli(self):
        import argparse

        from repro.cli import _build_parser

        text = open(os.path.join(REPO_ROOT, "docs", "running.md")).read()
        section = text.split("## The CLI", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"^\| `([\w-]+)` \|", section, re.M))
        subparsers = next(
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert documented == set(subparsers.choices)


class TestCheckDocstrings:
    def test_public_api_is_documented(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(SCRIPTS, "check_docstrings.py")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_detects_missing_docstring(self):
        class Undocumented:
            """Doc."""

            def method(self):
                pass

        problem = check_docstrings._docstring_problem(
            "x.method", Undocumented.method
        )
        assert "missing docstring" in problem

    def test_detects_non_sentence_first_line(self):
        def wrapped():
            """A first line that wraps without
            ending punctuation."""

        problem = check_docstrings._docstring_problem("x.wrapped", wrapped)
        assert "not a sentence" in problem

    def test_accepts_clean_docstring(self):
        def clean():
            """Do the thing."""

        assert check_docstrings._docstring_problem("x.clean", clean) is None
