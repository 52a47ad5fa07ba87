"""Line gate for the trusted core, as a pytest plugin.

Every function-body line of the modules in
``certificate.trusted_core_inventory()`` must run in some test, or be on
``trusted_lines_allowlist.json`` with the reason it cannot or need not.
Load the plugin over the whole Tier-1 suite:

    PYTHONPATH=src:tests python -m pytest -q -p trusted_lines

It traces with ``sys.settrace`` (no ``coverage`` package), armed around
each test's setup and call, since a test or Hypothesis may replace the
tracer in between.  At the end the run fails when a trusted line ran in no
test and is not allowlisted, when an allowlisted line ran, or when an
allowlist entry names no line of the source.  A run over part of the suite
fails the gate by design.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pathlib
import sys
import threading

import pytest

ALLOWLIST = pathlib.Path(__file__).with_name("trusted_lines_allowlist.json")


def trusted_lines() -> dict[tuple[str, int], tuple[str, str, str]]:
    """(file, line) -> (module, function, source text) for every line that
    a function of the trusted core runs.

    A line belongs to the innermost named function around it; a lambda's
    or comprehension's lines belong to the function it is in.  A
    function's first line (its ``def``, or its first decorator) is not a
    body line; a nested ``def`` is a line of the function around it.
    """
    from certplc.certificate import trusted_core_inventory

    out = {}
    for module in trusted_core_inventory():
        path = importlib.import_module(module).__file__
        source = pathlib.Path(path).read_text()
        text = source.splitlines()
        todo = [(compile(source, path, "exec"), None)]
        while todo:
            code, owner = todo.pop()
            named = (code.co_flags & inspect.CO_NEWLOCALS
                     and not code.co_name.startswith("<"))
            if named:
                owner = code.co_qualname
            if owner is not None:  # not module level, not a class body
                for _, _, line in code.co_lines():
                    if line is not None and not (
                            named and line == code.co_firstlineno):
                        out[path, line] = (module, owner,
                                           text[line - 1].strip())
            todo.extend((c, owner) for c in code.co_consts
                        if inspect.iscode(c))
    return out


def load_allowlist() -> dict[tuple[str, str, str], str]:
    """(module, function, source text) -> why that line never runs."""
    return {(e["module"], e["function"], e["line"]): e["reason"]
            for e in json.loads(ALLOWLIST.read_text())}


class LineGate:
    """Records which trusted lines run while armed; registered as a
    plugin, it arms around each test's setup and call and judges the
    session at its end."""

    def __init__(self):
        self.lines = trusted_lines()
        self.files = {path for path, _ in self.lines}
        self.ran: set[tuple[str, int]] = set()
        self.faults: list[str] = []
        # code object -> its trusted lines not run yet; a code object
        # whose lines have all run is traced no further
        self._unrun: dict = {}

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files:
            return None
        unrun = self._unrun.get(code)
        if unrun is None:
            path = code.co_filename
            unrun = self._unrun[code] = {
                line for _, _, line in code.co_lines()
                if (path, line) in self.lines
                and (path, line) not in self.ran}
        return self._line if unrun else None

    def _line(self, frame, event, arg):
        if event == "line":
            path, line = frame.f_code.co_filename, frame.f_lineno
            self.ran.add((path, line))
            unrun = self._unrun[frame.f_code]
            unrun.discard(line)
            if not unrun:
                return None
        return self._line

    def arm(self):
        threading.settrace(self._call)
        sys.settrace(self._call)

    def disarm(self):
        sys.settrace(None)
        threading.settrace(None)

    def verdict(self, allowlist) -> list[str]:
        """One message per fault; none when the gate passes."""
        unrun, ran = {}, set()
        for where, key in self.lines.items():
            if where in self.ran:
                ran.add(key)
            else:
                unrun.setdefault(key, where)
        faults = [f"never run, not allowlisted: {path}:{line}: "
                  f"{key[2]}  [{key[1]}]"
                  for key, (path, line) in sorted(unrun.items(),
                                                  key=lambda kv: kv[1])
                  if key not in allowlist]
        known = set(self.lines.values())
        for key in sorted(allowlist):
            if key not in known:
                faults.append(f"allowlisted, no such line: {key}")
            elif key in ran:
                faults.append(f"allowlisted, but ran: {key}")
        return faults

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        self.arm()
        try:
            yield
        finally:
            self.disarm()

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        self.arm()
        try:
            yield
        finally:
            self.disarm()

    def pytest_sessionfinish(self, session):
        self.faults = self.verdict(load_allowlist())
        if self.faults and session.exitstatus == 0:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        tr = terminalreporter
        tr.section("trusted-core line gate")
        tr.write_line(f"{len(self.lines)} trusted lines, "
                      f"{len(load_allowlist())} allowlisted")
        for fault in self.faults:
            tr.write_line(fault)
        tr.write_line("gate " + ("FAILED" if self.faults else "passed"))


def pytest_configure(config):
    config.pluginmanager.register(LineGate(), "trusted-line-gate")
