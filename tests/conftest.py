import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coarse_embed.lamplighter import lamplighter_ball  # noqa: E402
from coarse_embed.spaces import (FiniteMetricSpace, grid_space,  # noqa: E402
                                 rational_window)

_CRITERION_LINES = []


def rebuilt(space):
    """A fresh window of the same points, metric, radii, kind and geodesic
    flag: no strides, and nothing derived or cached yet."""
    if space.kind == "rational":
        return rational_window(space.points, space.interior_radius, space.window_tag)
    return FiniteMetricSpace(space.points, space.dist, space.window_tag,
                             space.interior_radius, geodesic=space.geodesic,
                             kind=space.kind)


@pytest.fixture(scope="session")
def announce():
    """One pass/fail line per acceptance criterion, echoed immediately and
    repeated in the terminal summary (which capture never swallows)."""

    def _announce(number, ok, elapsed, budget, detail):
        flag = "PASS" if ok else "FAIL"
        line = f"[criterion {number:2d}] {flag}  {elapsed:6.1f}s / {budget}s  {detail}"
        print("\n" + line)
        _CRITERION_LINES.append(line)

    return _announce


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERION_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def line_window():
    return grid_space(1, 100)


@pytest.fixture(scope="session")
def small_grid():
    return grid_space(2, 10)


@pytest.fixture(scope="session")
def ball8():
    return lamplighter_ball(8, certify=False)


@pytest.fixture(scope="session")
def ball10():
    return lamplighter_ball(10, certify=False)
