"""DEF-lite: a small DEF-inspired dialect for routed layouts.

Covers exactly what the library models — die area, routed signal nets with
driver/sink pins, and fill features — in DEF-flavoured syntax::

    VERSION 1.0 ;
    DESIGN t1 ;
    UNITS DISTANCE MICRONS 1000 ;
    DIEAREA ( 0 0 ) ( 128000 128000 ) ;
    NETS 2 ;
    - net0
      + PIN drv ( 1000 5000 ) LAYER metal3 DRIVER RES 120
      + PIN s0 ( 90000 5000 ) LAYER metal3 CAP 5
      + ROUTED metal3 ( 1000 5000 ) ( 90000 5000 ) WIDTH 400
      + ROUTED metal4 ( 50000 5000 ) ( 50000 20000 ) WIDTH 400
    ;
    END NETS
    FILLS 1 ;
    - LAYER metal3 RECT ( 10000 10000 10500 10500 ) ;
    END FILLS
    END DESIGN

All coordinates in DBU. Segment order within a net is free; the RC-tree
builder re-orients by signal flow.

Two readers share one line-fed statement machine (:class:`_DefMachine`):

* :func:`parse_def` materializes the whole layout from a text string —
  the historical API.
* :func:`parse_def_streaming` consumes any line source (string, open
  file, iterator) and hands each net to a callback the moment its
  terminating ``;`` arrives, so a chip-scale DEF never has to be held
  in memory at once.

Both readers attribute *every* error to a physical input line — including
net-level validation failures (unknown layer, geometry leaving the die),
which the materialized reader used to raise long after the parse loop
with no line information at all.
"""

from __future__ import annotations

import hashlib
import re
from typing import IO, Callable, Iterable, Iterator

from repro.errors import LayoutError, ParseError
from repro.geometry import Point, Rect
from repro.layout import FillFeature, Net, Pin, RoutedLayout, WireSegment
from repro.tech.process import ProcessStack

_PAREN = re.compile(r"[()]")


# ---------------------------------------------------------------------------
# writing


def write_def_lines(
    name: str,
    die: Rect,
    dbu_per_micron: int,
    nets: Iterable[Net],
    fills: Iterable[FillFeature] = (),
    *,
    net_count: int | None = None,
    fill_count: int | None = None,
    exact: bool = False,
) -> Iterator[str]:
    """Yield DEF-lite lines one at a time.

    The streaming dual of :func:`write_def`: ``nets`` may be a lazy
    iterator (pass ``net_count`` so the ``NETS n ;`` header can be
    emitted before the first net is realized — the readers never check
    the declared count, but round-trips should still be faithful).
    When counts are omitted the iterables are materialized to count them.
    Pin ``DRIVER RES`` and ``CAP`` values are printed to 6 significant
    digits, or as their full ``repr`` when ``exact`` is set.
    """

    def value(v: float) -> str:
        return repr(v) if exact else f"{v:g}"

    if net_count is None:
        nets = list(nets)
        net_count = len(nets)
    if fill_count is None:
        fills = list(fills)
        fill_count = len(fills)
    yield "VERSION 1.0 ;"
    yield f"DESIGN {name} ;"
    yield f"UNITS DISTANCE MICRONS {dbu_per_micron} ;"
    yield f"DIEAREA ( {die.xlo} {die.ylo} ) ( {die.xhi} {die.yhi} ) ;"
    yield f"NETS {net_count} ;"
    for net in nets:
        yield f"- {net.name}"
        for pin in net.pins:
            if pin.is_driver:
                yield (
                    f"  + PIN {pin.name} ( {pin.point.x} {pin.point.y} ) "
                    f"LAYER {pin.layer} DRIVER RES {value(pin.driver_res_ohm)}"
                )
            else:
                yield (
                    f"  + PIN {pin.name} ( {pin.point.x} {pin.point.y} ) "
                    f"LAYER {pin.layer} CAP {value(pin.load_cap_ff)}"
                )
        for seg in net.segments:
            yield (
                f"  + ROUTED {seg.layer} ( {seg.start.x} {seg.start.y} ) "
                f"( {seg.end.x} {seg.end.y} ) WIDTH {seg.width}"
            )
        yield ";"
    yield "END NETS"
    yield f"FILLS {fill_count} ;"
    for fill in fills:
        r = fill.rect
        yield f"- LAYER {fill.layer} RECT ( {r.xlo} {r.ylo} {r.xhi} {r.yhi} ) ;"
    yield "END FILLS"
    yield "END DESIGN"


def write_def(layout: RoutedLayout) -> str:
    """Serialize a layout to DEF-lite text."""
    lines = write_def_lines(
        layout.name,
        layout.die,
        layout.stack.dbu_per_micron,
        layout.nets.values(),
        layout.fills,
        net_count=len(layout.nets),
        fill_count=len(layout.fills),
    )
    return "\n".join(lines) + "\n"


def layout_digest(layout: RoutedLayout) -> str:
    """sha256 of the layout's canonical DEF-lite serialization.

    Streamed line by line, so digesting a chip-scale layout never builds
    the full text. The text is :func:`write_def`'s except that pin
    ``DRIVER RES`` and ``CAP`` values are hashed at full precision
    (``repr``): two layouts digest equal iff their geometry, fills and pin
    values are identical, even where ``write_def``'s 6 digits would print
    them alike. The equivalence oracle for the streaming reader and for
    ECO round-trips.
    """
    h = hashlib.sha256()
    lines = write_def_lines(
        layout.name,
        layout.die,
        layout.stack.dbu_per_micron,
        layout.nets.values(),
        layout.fills,
        net_count=len(layout.nets),
        fill_count=len(layout.fills),
        exact=True,
    )
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# parsing


class _DefMachine:
    """Line-fed DEF-lite statement machine.

    Feed physical lines in order via :meth:`feed`; terminated nets and
    fill records are handed to the callbacks as soon as they complete.
    The machine never retains nets, so the caller decides what survives.
    """

    def __init__(
        self,
        stack: ProcessStack,
        on_net: Callable[[Net, int], None],
        on_fill: Callable[[FillFeature, int], None],
    ):
        self.stack = stack
        self.on_net = on_net
        self.on_fill = on_fill
        self.name = "design"
        self.die: Rect | None = None
        self.done = False
        self._section: str | None = None  # None | "nets" | "fills"
        self._net: Net | None = None
        self._net_start_line = 0

    def _close_net(self) -> None:
        if self._net is not None:
            self.on_net(self._net, self._net_start_line)
            self._net = None

    def feed(self, line_no: int, raw: str) -> bool:
        """Process one physical line; True once ``END DESIGN`` was seen."""
        if self.done:
            return True
        tokens = _PAREN.sub(" ", raw).replace(";", " ; ").split()
        if not tokens or tokens[0].startswith("#"):
            return False
        tokens = [t for t in tokens if t != ";"] or ["_SEMI_ONLY_"]
        head = tokens[0].upper()
        try:
            if head == "_SEMI_ONLY_":
                # bare ';' — terminates the current net
                if self._section == "nets":
                    self._close_net()
            elif head == "VERSION":
                pass
            elif head == "DESIGN":
                self.name = tokens[1]
            elif head == "UNITS":
                declared_dbu = int(tokens[3])
                if declared_dbu != self.stack.dbu_per_micron:
                    raise ParseError(
                        f"DEF units {declared_dbu} do not match stack "
                        f"units {self.stack.dbu_per_micron}",
                        line_no,
                    )
            elif head == "DIEAREA":
                x1, y1, x2, y2 = (int(t) for t in tokens[1:5])
                self.die = Rect(x1, y1, x2, y2)
            elif head == "NETS":
                self._section = "nets"
            elif head == "FILLS":
                self._section = "fills"
            elif head == "END":
                what = tokens[1].upper() if len(tokens) > 1 else ""
                if what in ("NETS", "FILLS"):
                    self._close_net()
                    self._section = None
                elif what == "DESIGN":
                    self._close_net()
                    self.done = True
                    return True
            elif head == "-":
                if self._section == "nets":
                    self._close_net()
                    self._net = Net(tokens[1])
                    self._net_start_line = line_no
                elif self._section == "fills":
                    self.on_fill(_parse_fill(tokens, line_no), line_no)
                else:
                    raise ParseError("'-' outside NETS/FILLS section", line_no)
            elif head == "+":
                if self._section != "nets" or self._net is None:
                    raise ParseError("'+' outside a net statement", line_no)
                _parse_net_item(tokens, self._net, line_no)
            else:
                raise ParseError(f"unexpected token {tokens[0]!r}", line_no)
        except (ValueError, IndexError) as exc:
            raise ParseError(f"malformed statement: {exc}", line_no) from exc
        return False

    def finish(self) -> None:
        """Flush an unterminated trailing net (missing ';' at EOF)."""
        self._close_net()


def _iter_lines(source: "str | IO[str] | Iterable[str]") -> Iterator[str]:
    """Physical lines of any line source, newline characters stripped."""
    if isinstance(source, str):
        yield from source.splitlines()
    else:
        for raw in source:
            yield raw.rstrip("\r\n")


def parse_def_streaming(
    source: "str | IO[str] | Iterable[str]",
    stack: ProcessStack,
    *,
    on_die: Callable[[Rect], None] | None = None,
    on_net: Callable[[Net, int], None] | None = None,
    keep_nets: bool = True,
) -> RoutedLayout:
    """Parse DEF-lite from any line source, streaming nets as they close.

    ``on_die(rect)`` fires once, as soon as the ``DIEAREA`` statement is
    read — the streaming preprocessor needs the die before the first
    net arrives.
    ``on_net(net, start_line)`` fires as soon as a net's terminating
    ``;`` is read — the net's start line lets callers attribute their own
    validation errors to the input. With ``keep_nets=False`` the returned
    layout is a *shell* (die, stack, fills — no nets), so peak memory is
    bounded by one net plus whatever the callback retains. With the
    default ``keep_nets=True`` the result is identical to
    :func:`parse_def`.

    Net-level validation (unknown layer, geometry leaving the die) is
    performed here per net and raises :class:`ParseError` carrying the
    net's opening line.
    """
    collected: list[tuple[Net, int]] = []

    def _collect(net: Net, start_line: int) -> None:
        if on_net is not None:
            on_net(net, start_line)
        if keep_nets:
            collected.append((net, start_line))

    fills: list[tuple[FillFeature, int]] = []

    def _fill(fill: FillFeature, line_no: int) -> None:
        fills.append((fill, line_no))

    machine = _DefMachine(stack, _collect, _fill)
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        done = machine.feed(line_no, raw)
        if on_die is not None and machine.die is not None:
            on_die(machine.die)
            on_die = None
        if done:
            break
    machine.finish()

    if machine.die is None:
        raise ParseError("missing DIEAREA statement")
    layout = RoutedLayout(machine.name, machine.die, stack)
    for net, start_line in collected:
        _add_net_checked(layout, net, start_line)
    for fill, line_no in fills:
        try:
            layout.add_fill(fill)
        except LayoutError as exc:
            raise ParseError(str(exc), line_no) from exc
    return layout


def parse_def(text: str, stack: ProcessStack) -> RoutedLayout:
    """Parse DEF-lite text against a process stack."""
    return parse_def_streaming(text, stack)


def _add_net_checked(layout: RoutedLayout, net: Net, start_line: int) -> None:
    """Add a parsed net, converting validation failures to ParseError.

    The historical reader batch-added nets after the parse loop, so a
    net whose geometry left the die surfaced as a bare ``LayoutError``
    with no line reference (and naive wrapping at the terminator blamed
    the ``;`` line, one past the offending statement). Attributing to
    the net's opening ``-`` line is stable however many continuation
    lines the net spans.
    """
    try:
        layout.add_net(net)
    except LayoutError as exc:
        raise ParseError(str(exc), start_line) from exc


# ---------------------------------------------------------------------------
# net banding


def net_ylo(net: Net) -> int:
    """Bounding-box y-low of a net's geometry (segments and pins) —
    the sort key of band-sorted DEF input and the streaming
    preprocessor's sweep-watermark contract."""
    coords = [seg.rect.ylo for seg in net.segments]
    coords.extend(pin.point.y for pin in net.pins)
    if not coords:
        raise LayoutError(f"net {net.name}: no geometry to band")
    return min(coords)


# ---------------------------------------------------------------------------
# statement parsers (shared by both readers)


def _parse_net_item(tokens: list[str], net: Net, line_no: int) -> None:
    kind = tokens[1].upper()
    if kind == "PIN":
        pin_name = tokens[2]
        x, y = int(tokens[3]), int(tokens[4])
        if tokens[5].upper() != "LAYER":
            raise ParseError("expected LAYER after pin coordinates", line_no)
        layer = tokens[6]
        rest = [t.upper() for t in tokens[7:]]
        if rest[:1] == ["DRIVER"]:
            if len(tokens) < 10 or rest[1] != "RES":
                raise ParseError("driver pin needs 'DRIVER RES <ohm>'", line_no)
            net.add_pin(
                Pin(pin_name, Point(x, y), layer, is_driver=True,
                    driver_res_ohm=float(tokens[9]))
            )
        elif rest[:1] == ["CAP"]:
            if len(tokens) < 9:
                raise ParseError("sink pin needs 'CAP <ff>'", line_no)
            net.add_pin(
                Pin(pin_name, Point(x, y), layer, load_cap_ff=float(tokens[8]))
            )
        else:
            raise ParseError("pin needs 'DRIVER RES <ohm>' or 'CAP <ff>'", line_no)
    elif kind == "ROUTED":
        layer = tokens[2]
        x1, y1, x2, y2 = (int(t) for t in tokens[3:7])
        if tokens[7].upper() != "WIDTH":
            raise ParseError("expected WIDTH after segment coordinates", line_no)
        width = int(tokens[8])
        net.add_segment(
            WireSegment(net.name, len(net.segments), layer, Point(x1, y1), Point(x2, y2), width)
        )
    else:
        raise ParseError(f"unknown net item {tokens[1]!r}", line_no)


def _parse_fill(tokens: list[str], line_no: int) -> FillFeature:
    if len(tokens) < 8:
        raise ParseError(
            "truncated fill record: expected '- LAYER <name> RECT ( x1 y1 x2 y2 )'",
            line_no,
        )
    if tokens[1].upper() != "LAYER" or tokens[3].upper() != "RECT":
        raise ParseError("expected '- LAYER <name> RECT ( x1 y1 x2 y2 )'", line_no)
    layer = tokens[2]
    x1, y1, x2, y2 = (int(t) for t in tokens[4:8])
    return FillFeature(layer=layer, rect=Rect(x1, y1, x2, y2))
