"""Tests for the operator console."""

from repro.system import OperatorConsole


class TestOperatorConsole:
    def test_notify_records(self):
        console = OperatorConsole()
        alert = console.notify(90, "bus congestion", "SCATS0001", "hello",
                               region="north")
        assert console.alerts == [alert]

    def test_format(self):
        console = OperatorConsole()
        alert = console.notify(3723, "scats congestion", "SCATS0002",
                               "sensors agree", region="west")
        line = alert.format()
        assert line.startswith("01:02:03")
        assert "[west]" in line
        assert "SCATS0002" in line
        assert "sensors agree" in line

    def test_format_without_region(self):
        console = OperatorConsole()
        alert = console.notify(0, "crowd resolution", "X", "msg")
        assert "[" not in alert.format().split("CROWD")[0]

    def test_of_kind_and_counts(self):
        console = OperatorConsole()
        console.notify(1, "a", "x", "m")
        console.notify(2, "a", "y", "m")
        console.notify(3, "b", "z", "m")
        assert [a.kind for a in console.alerts].count("a") == 2
        assert console.counts() == {"a": 2, "b": 1}

    def test_render_sorted_and_limited(self):
        console = OperatorConsole()
        console.notify(30, "late", "x", "m")
        console.notify(10, "early", "y", "m")
        rendered = console.render()
        assert rendered.index("EARLY") < rendered.index("LATE")
        limited = console.render(limit=1)
        assert "EARLY" not in limited
        assert "LATE" in limited

    def test_render_summary(self):
        console = OperatorConsole()
        console.notify(1, "a", "x", "m")
        summary = console.render_summary()
        assert "a" in summary
        assert "total" in summary
