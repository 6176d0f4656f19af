"""XML data-flow descriptions for the Streams analog.

The Streams framework "provides a XML-based language for the
description of data flow graphs, which are then compiled into a
computation graph for a stream processing engine" (paper, Sections 2
and 3).  This module parses the equivalent XML dialect::

    <container>
      <stream id="bus" class="myapp.BusSource" limit="1000"/>
      <service id="traffic-model" class="myapp.TrafficModelService"/>
      <process id="cep" input="bus" output="complex-events">
        <processor class="myapp.RtecProcessor" window="600" step="300"/>
      </process>
    </container>

``class`` attributes are resolved against an explicit registry of
factories first and dotted import paths second.  All remaining XML
attributes are passed to the factory as keyword arguments, with literal
coercion (int / float / bool) applied to the string values.
"""

from __future__ import annotations

import importlib
import xml.etree.ElementTree as ET
from collections.abc import Callable, Mapping
from typing import Any, Optional

from .processes import Process, Source
from .runtime import Topology

Factory = Callable[..., Any]


class XmlConfigError(ValueError):
    """A malformed data-flow description."""


def coerce_attribute(value: str) -> Any:
    """Coerce an XML attribute string to int, float or bool if it
    looks like one; otherwise return the string unchanged."""
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def _resolve_class(
    path: str, registry: Optional[Mapping[str, Factory]]
) -> Factory:
    if registry and path in registry:
        return registry[path]
    module_name, _, attr = path.rpartition(".")
    if not module_name:
        raise XmlConfigError(
            f"cannot resolve class {path!r}: not in the registry and not "
            "a dotted import path"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise XmlConfigError(f"cannot import module {module_name!r}") from exc
    try:
        return getattr(module, attr)
    except AttributeError as exc:
        raise XmlConfigError(
            f"module {module_name!r} has no attribute {attr!r}"
        ) from exc


def _instantiate(
    element: ET.Element,
    registry: Optional[Mapping[str, Factory]],
    *,
    skip: tuple[str, ...] = ("id", "class"),
) -> Any:
    path = element.get("class")
    if path is None:
        raise XmlConfigError(
            f"<{element.tag}> element requires a 'class' attribute"
        )
    factory = _resolve_class(path, registry)
    kwargs = {
        key: coerce_attribute(value)
        for key, value in element.attrib.items()
        if key not in skip
    }
    return factory(**kwargs)


def parse_topology(
    xml_text: str,
    registry: Optional[Mapping[str, Factory]] = None,
) -> Topology:
    """Parse an XML data-flow description into a :class:`Topology`.

    Stream factories must return something iterable over data items (it
    is wrapped in a :class:`~repro.streams.processes.Source`); service
    factories may return any object; processor factories must return
    :class:`~repro.streams.processors.Processor` instances.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise XmlConfigError(f"invalid XML: {exc}") from exc
    if root.tag != "container":
        raise XmlConfigError(
            f"expected <container> root element, got <{root.tag}>"
        )

    topology = Topology()
    for element in root:
        if element.tag == "stream":
            stream_id = element.get("id")
            if not stream_id:
                raise XmlConfigError("<stream> requires an 'id' attribute")
            items = _instantiate(element, registry)
            topology.add_source(Source(stream_id, items))
        elif element.tag == "service":
            service_id = element.get("id")
            if not service_id:
                raise XmlConfigError("<service> requires an 'id' attribute")
            topology.services.register(
                service_id, _instantiate(element, registry)
            )
        elif element.tag == "process":
            _parse_process(element, topology, registry)
        else:
            raise XmlConfigError(f"unknown element <{element.tag}>")
    topology.validate()
    return topology


def _parse_process(
    element: ET.Element,
    topology: Topology,
    registry: Optional[Mapping[str, Factory]],
) -> None:
    process_id = element.get("id")
    input_name = element.get("input")
    if not process_id or not input_name:
        raise XmlConfigError("<process> requires 'id' and 'input' attributes")
    processors = []
    for child in element:
        if child.tag != "processor":
            raise XmlConfigError(
                f"<process> may only contain <processor> elements, got "
                f"<{child.tag}>"
            )
        processors.append(_instantiate(child, registry))
    topology.add_process(
        Process(
            process_id,
            input=input_name,
            processors=processors,
            output=element.get("output"),
        )
    )
