"""Tests for the XML data-flow description parser."""

import pytest

from repro.streams import (
    StreamRuntime,
    XmlConfigError,
    coerce_attribute,
    parse_topology,
)

from .helpers import Collect, make_item


def _source_factory(n=3, **_):
    return [make_item({"v": i}, time=i) for i in range(n)]


class _SinkService:
    def __init__(self, label="sink"):
        self.label = label


_COLLECTORS: list[Collect] = []


def _collector_factory(**_):
    collector = Collect()
    _COLLECTORS.append(collector)
    return collector


REGISTRY = {
    "test.Source": _source_factory,
    "test.Collect": _collector_factory,
    "test.Service": _SinkService,
}


class TestCoercion:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("42", 42),
            ("-3", -3),
            ("2.5", 2.5),
            ("true", True),
            ("False", False),
            ("hello", "hello"),
            ("6.2.2", "6.2.2"),
        ],
    )
    def test_coerce(self, raw, expected):
        assert coerce_attribute(raw) == expected


class TestParseTopology:
    def setup_method(self):
        _COLLECTORS.clear()

    def test_full_container(self):
        xml = """
        <container>
          <stream id="s" class="test.Source" n="4"/>
          <service id="svc" class="test.Service" label="x"/>
          <process id="p" input="s" output="out">
            <processor class="test.Collect"/>
          </process>
        </container>
        """
        topo = parse_topology(xml, REGISTRY)
        assert "s" in topo.sources
        assert len(list(topo.sources["s"])) == 4
        assert "out" in topo.queues
        assert topo.services._services["svc"].label == "x"
        StreamRuntime(topo).run()
        assert [i["v"] for i in _COLLECTORS[0].items] == [0, 1, 2, 3]
        assert len(topo.queues["out"]) == 4

    def test_dotted_path_resolution(self):
        xml = """
        <container>
          <stream id="s" class="test.Source"/>
          <process id="p" input="s">
            <processor class="tests.streams.helpers.Collect"/>
          </process>
        </container>
        """
        topo = parse_topology(xml, REGISTRY)
        assert topo.processes["p"].processors[0].__class__.__name__ == "Collect"

    def test_invalid_xml(self):
        with pytest.raises(XmlConfigError, match="invalid XML"):
            parse_topology("<container", REGISTRY)

    def test_wrong_root(self):
        with pytest.raises(XmlConfigError, match="container"):
            parse_topology("<bogus/>", REGISTRY)

    def test_unknown_element(self):
        with pytest.raises(XmlConfigError, match="unknown element"):
            parse_topology("<container><widget/></container>", REGISTRY)

    def test_stream_requires_id(self):
        with pytest.raises(XmlConfigError, match="id"):
            parse_topology(
                '<container><stream class="test.Source"/></container>',
                REGISTRY,
            )

    def test_stream_requires_class(self):
        with pytest.raises(XmlConfigError, match="class"):
            parse_topology(
                '<container><stream id="s"/></container>', REGISTRY
            )

    def test_unresolvable_class(self):
        with pytest.raises(XmlConfigError, match="cannot import"):
            parse_topology(
                '<container><stream id="s" class="no.such.Mod"/></container>',
                REGISTRY,
            )

    def test_missing_attribute_on_module(self):
        with pytest.raises(XmlConfigError, match="no attribute"):
            parse_topology(
                '<container><stream id="s" class="repro.streams.Nope"/>'
                "</container>",
                REGISTRY,
            )

    def test_bare_name_without_registry_entry(self):
        with pytest.raises(XmlConfigError, match="not in the registry"):
            parse_topology(
                '<container><stream id="s" class="Bare"/></container>',
                REGISTRY,
            )

    def test_process_children_must_be_processors(self):
        xml = """
        <container>
          <stream id="s" class="test.Source"/>
          <process id="p" input="s"><thing/></process>
        </container>
        """
        with pytest.raises(XmlConfigError, match="processor"):
            parse_topology(xml, REGISTRY)

    def test_validation_runs(self):
        xml = """
        <container>
          <process id="p" input="ghost">
            <processor class="test.Collect"/>
          </process>
        </container>
        """
        with pytest.raises(ValueError, match="unknown input"):
            parse_topology(xml, REGISTRY)
