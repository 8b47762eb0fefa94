"""Streaming DEF-lite ingest: equivalence, banding, memory, error paths.

The contract under test (see :mod:`repro.io.deflite` and
:func:`repro.pilfill.prepare.prepare_streaming`): consuming a DEF-lite
source net-by-net must be *indistinguishable* from materializing it —
same layout digest, same :meth:`PreparedInstance.digest`, same engine
placements across every dispatch backend — while holding only one net
resident. Malformed input must fail loud with the offending line number
from both readers.
"""

from __future__ import annotations

import io
import tracemalloc

import pytest

from repro.errors import FillError, LayoutError, ParseError
from repro.io.deflite import (
    layout_digest,
    net_ylo,
    parse_def,
    parse_def_streaming,
    write_def,
)
from repro.pilfill import EngineConfig, PILFillEngine, prepare, prepare_streaming
from repro.synth import (
    default_fill_rules,
    density_rules_for,
    edit_window,
    generate_layout,
    iter_banded_def_lines,
    make_t1,
    make_t2,
    t1_spec,
    t3_spec,
)

LAYER = "metal3"


@pytest.fixture(scope="module")
def t1_text(stack):
    return write_def(make_t1(stack))


@pytest.fixture(scope="module")
def banded_t1_lines(stack):
    return list(iter_banded_def_lines(t1_spec(), stack))


@pytest.fixture(scope="module")
def t1_rules(stack):
    return default_fill_rules(stack), density_rules_for(32, 2, stack)


@pytest.fixture(scope="module")
def mat_prep(stack, t1_text, t1_rules):
    fill_rules, density_rules = t1_rules
    return prepare(parse_def(t1_text, stack), LAYER, fill_rules, density_rules)


@pytest.fixture(scope="module")
def stream_prep(stack, t1_text, t1_rules):
    fill_rules, density_rules = t1_rules
    return prepare_streaming(t1_text, stack, LAYER, fill_rules, density_rules)


class TestStreamingLayoutEquivalence:
    def test_t1_streaming_equals_materialized(self, stack, t1_text):
        streamed = parse_def_streaming(io.StringIO(t1_text), stack)
        assert layout_digest(streamed) == layout_digest(parse_def(t1_text, stack))

    def test_t2_streaming_equals_materialized(self, stack):
        text = write_def(make_t2(stack))
        streamed = parse_def_streaming(iter(text.splitlines()), stack)
        assert layout_digest(streamed) == layout_digest(parse_def(text, stack))

    def test_eco_edited_layout_roundtrips_identically(self, stack):
        layout = make_t1(stack)
        edited, _summary = edit_window(layout, layout.die, seed=7)
        text = write_def(edited)
        streamed = parse_def_streaming(io.StringIO(text), stack)
        assert layout_digest(streamed) == layout_digest(parse_def(text, stack))

    def test_shell_layout_has_die_but_no_nets(self, stack, t1_text):
        shell = parse_def_streaming(t1_text, stack, keep_nets=False)
        full = parse_def(t1_text, stack)
        assert shell.die == full.die
        assert shell.name == full.name
        assert not shell.nets

    def test_bounded_memory_on_multiwindow_input(self, stack):
        # A chip-scale slice: many nets spread over many bands. The
        # text and its split lines are materialized *outside* both
        # measured regions, so the peaks compare resident parse state
        # only: full layout vs one net at a time.
        layout = generate_layout(t3_spec(seed=3, n_nets=250), stack)
        text = write_def(layout)
        lines = text.splitlines()

        tracemalloc.start()
        parse_def(text, stack)
        mat_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        tracemalloc.start()
        parse_def_streaming(iter(lines), stack, keep_nets=False)
        stream_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        assert stream_peak < 0.5 * mat_peak, (stream_peak, mat_peak)


class TestPreparedDigestEquivalence:
    def test_streaming_prepare_digest_equals_materialized(self, mat_prep, stream_prep):
        assert stream_prep.digest() == mat_prep.digest()

    def test_banded_prepare_digest_equals_materialized(
        self, stack, banded_t1_lines, t1_rules
    ):
        fill_rules, density_rules = t1_rules
        text = "\n".join(banded_t1_lines) + "\n"
        banded = prepare_streaming(
            iter(banded_t1_lines), stack, LAYER, fill_rules, density_rules,
            banded=True,
        )
        reference = prepare(parse_def(text, stack), LAYER, fill_rules, density_rules)
        assert banded.digest() == reference.digest()

    def test_banded_rejects_unsorted_input(self, stack, t1_text, t1_rules):
        # write_def emits nets in insertion order, not band order; the
        # banded contract must fail loud, never emit columns a late net
        # could have invalidated.
        fill_rules, density_rules = t1_rules
        with pytest.raises(FillError, match="band-sorted"):
            prepare_streaming(
                t1_text, stack, LAYER, fill_rules, density_rules, banded=True
            )

    def test_diearea_must_precede_nets(self, stack, t1_text, t1_rules):
        fill_rules, density_rules = t1_rules
        lines = t1_text.splitlines()
        die_line = next(ln for ln in lines if ln.startswith("DIEAREA"))
        lines.remove(die_line)
        lines.insert(lines.index("END NETS") + 1, die_line)
        with pytest.raises(ParseError, match="DIEAREA must precede NETS"):
            prepare_streaming(
                iter(lines), stack, LAYER, fill_rules, density_rules
            )


class TestStreamedEngineRuns:
    def test_features_bit_identical_across_backends(
        self, stack, t1_rules, mat_prep, stream_prep
    ):
        fill_rules, density_rules = t1_rules
        results = {}
        for label, workers in (("materialized", 1), ("serial", 1), ("process", 2)):
            prep = mat_prep if label == "materialized" else stream_prep
            config = EngineConfig(
                fill_rules=fill_rules, density_rules=density_rules,
                method="greedy", backend="scipy", seed=0, workers=workers,
            )
            engine = PILFillEngine(prep.layout, LAYER, config, prepared=prep)
            results[label] = engine.run().features
        assert results["serial"] == results["materialized"]
        assert results["process"] == results["serial"]


def _banded_def(stack, ys, die_hi=100000):
    """A DEF-lite text with one horizontal net per entry of ``ys``.

    Each net ``n<i>`` is a 400-wide wire centered at ``ys[i]``, so its
    lowest geometry (``net_ylo``) is ``ys[i] - 200`` — tests pick the
    center to land ``net_ylo`` exactly where they want it.
    """
    lines = [
        "VERSION 1.0 ;",
        "DESIGN banded ;",
        f"UNITS DISTANCE MICRONS {stack.dbu_per_micron} ;",
        f"DIEAREA ( 0 0 ) ( {die_hi} {die_hi} ) ;",
        f"NETS {len(ys)} ;",
    ]
    for i, y in enumerate(ys):
        lines += [
            f"- n{i}",
            f"  + PIN drv ( 1000 {y} ) LAYER metal3 DRIVER RES 100",
            f"  + PIN s0 ( 9000 {y} ) LAYER metal3 CAP 5",
            f"  + ROUTED metal3 ( 1000 {y} ) ( 9000 {y} ) WIDTH 400",
            ";",
        ]
    lines += ["END NETS", "FILLS 0 ;", "END FILLS", "END DESIGN"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# malformed input, both readers


def _tiny_def(stack, *, net_items=None, fills=(), tail=None, header_order="normal"):
    """A numbered DEF-lite template: returns (text, line numbers dict)."""
    net_items = net_items if net_items is not None else [
        "  + PIN drv ( 1000 1000 ) LAYER metal3 DRIVER RES 100",
        "  + PIN s0 ( 9000 1000 ) LAYER metal3 CAP 5",
        "  + ROUTED metal3 ( 1000 1000 ) ( 9000 1000 ) WIDTH 400",
    ]
    lines = [
        "VERSION 1.0 ;",
        "DESIGN tiny ;",
        f"UNITS DISTANCE MICRONS {stack.dbu_per_micron} ;",
    ]
    if header_order == "normal":
        lines.append("DIEAREA ( 0 0 ) ( 20000 20000 ) ;")
    lines.append("NETS 1 ;")
    net_line = len(lines) + 1
    lines.append("- n0")
    item_lines = list(range(len(lines) + 1, len(lines) + 1 + len(net_items)))
    lines.extend(net_items)
    lines.extend([";", "END NETS", f"FILLS {len(fills)} ;"])
    fill_lines = list(range(len(lines) + 1, len(lines) + 1 + len(fills)))
    lines.extend(fills)
    lines.append("END FILLS")
    if tail:
        lines.extend(tail)
    lines.append("END DESIGN")
    text = "\n".join(lines) + "\n"
    return text, {"net": net_line, "items": item_lines, "fills": fill_lines}


def _readers():
    return [
        pytest.param(lambda text, stack: parse_def(text, stack), id="materialized"),
        pytest.param(
            lambda text, stack: parse_def_streaming(io.StringIO(text), stack),
            id="streaming",
        ),
    ]


class TestMalformedInput:
    @pytest.mark.parametrize("read", _readers())
    def test_truncated_fill_record(self, stack, read):
        text, where = _tiny_def(stack, fills=["- LAYER metal3 RECT ( 0 0 100"])
        with pytest.raises(ParseError, match="truncated fill record") as err:
            read(text, stack)
        assert err.value.line_no == where["fills"][0]

    @pytest.mark.parametrize("read", _readers())
    def test_unknown_toplevel_token(self, stack, read):
        text, _ = _tiny_def(stack, tail=["FROBNICATE 3 ;"])
        with pytest.raises(ParseError, match="unexpected token 'FROBNICATE'"):
            read(text, stack)

    @pytest.mark.parametrize("read", _readers())
    def test_truncated_sink_cap(self, stack, read):
        text, where = _tiny_def(
            stack,
            net_items=["  + PIN s0 ( 1000 1000 ) LAYER metal3 CAP"],
        )
        with pytest.raises(ParseError, match="sink pin needs 'CAP <ff>'") as err:
            read(text, stack)
        assert err.value.line_no == where["items"][0]

    @pytest.mark.parametrize("read", _readers())
    def test_truncated_driver_res(self, stack, read):
        text, where = _tiny_def(
            stack,
            net_items=["  + PIN drv ( 1000 1000 ) LAYER metal3 DRIVER RES"],
        )
        with pytest.raises(ParseError, match="driver pin needs") as err:
            read(text, stack)
        assert err.value.line_no == where["items"][0]

    @pytest.mark.parametrize("read", _readers())
    def test_unknown_net_item(self, stack, read):
        text, where = _tiny_def(
            stack, net_items=["  + VIAS metal3 ( 0 0 ) ( 1 1 )"]
        )
        with pytest.raises(ParseError, match="unknown net item") as err:
            read(text, stack)
        assert err.value.line_no == where["items"][0]

    @pytest.mark.parametrize("read", _readers())
    def test_net_validation_reports_net_start_line(self, stack, read):
        # A net on a layer the stack doesn't know fails *net-level*
        # validation (not statement parsing); the error must point at
        # the net's opening '-' line, not at EOF or a later statement.
        text, where = _tiny_def(
            stack,
            net_items=[
                "  + PIN drv ( 1000 1000 ) LAYER metal9 DRIVER RES 100",
                "  + PIN s0 ( 9000 1000 ) LAYER metal9 CAP 5",
                "  + ROUTED metal9 ( 1000 1000 ) ( 9000 1000 ) WIDTH 400",
            ],
        )
        with pytest.raises(ParseError) as err:
            read(text, stack)
        assert err.value.line_no == where["net"]

    def test_net_ylo_is_the_lowest_geometry_edge(self, stack):
        """The off-by-one pin: a net whose lowest geometry sits exactly on
        a cut line keys at the cut line, one DBU lower keys one below."""
        cut = 32000
        # Wires are 400 wide: centers cut+199 / cut+200 put net_ylo at
        # cut-1 and exactly cut.
        layout = parse_def(_banded_def(stack, [cut + 199, cut + 200]), stack)
        assert net_ylo(layout.nets["n0"]) == cut - 1
        assert net_ylo(layout.nets["n1"]) == cut

    def test_net_ylo_requires_geometry(self):
        from repro.layout import Net

        with pytest.raises(LayoutError, match="no geometry"):
            net_ylo(Net("empty"))
