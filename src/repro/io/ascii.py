"""The placement tool's ASCII-file interface.

Paper, section 4: *"For using the tool all placement relevant circuit data
(e.g. 3D description of the components, net list) and given design rules
are read in using an ASCII-file interface."*

The format is line-oriented, human-editable, millimetres/degrees::

    EMIPLACE 1
    TITLE buck converter
    BOARD 0
      OUTLINE 0,0 70,0 70,50 0,50
      AREA main 5,5 65,5 65,45 5,45
      KEEPOUT hs1 10,10 30,30 Z 0 15
    END
    COMP CX1 TYPE FilmCapacitorX2 PN CX1-X2 SIZE 18x8x15 GROUP input_filter
    COMP Q1 TYPE PowerMosfet PN Q1-DPAK SIZE 10x9x2.3 FIXED AT 35 25 ROT 0
    NET VIN CX1.1 LF1.1
    RULE MINDIST CX1 CX2 25.0 K 0.01
    RULE CLEAR * * 0.5
    RULE GROUP input_filter SPREAD 40 MEMBERS CX1,LF1,CX2
    RULE NETLEN VIN 120

A ``GROUND 0|1`` token pair after the board index is accepted and
ignored: older files declare a ground plane there, but no simulation
reads it.  The plane the design flow simulates is
``EmiDesignFlow.ground_plane_z``.

Components are reconstructed by class name with the serialised footprint
dimensions applied, so a file round-trips the placement-relevant geometry
without needing the originating catalogue.
"""

from __future__ import annotations

import math

from ..components import (
    BobbinChoke,
    SmdPowerInductor,
    CeramicCapacitor,
    ChipResistor,
    CommonModeChoke,
    Component,
    Connector,
    ControllerIC,
    ElectrolyticCapacitor,
    FilmCapacitorX2,
    PowerDiode,
    PowerMosfet,
    ShuntResistor,
    TantalumCapacitorSMD,
)
from ..geometry import Cuboid, Placement2D, Polygon2D, Rect, Vec2
from ..placement import (
    Board,
    Keepout3D,
    PlacedComponent,
    PlacementArea,
    PlacementProblem,
)
from ..rules import (
    ClearanceRule,
    GroupCoherenceRule,
    MinDistanceRule,
    NetLengthRule,
    RuleSet,
)

__all__ = ["write_problem", "read_problem", "AsciiFormatError"]

_MM = 1e-3

_COMPONENT_CLASSES: dict[str, type[Component]] = {
    cls.__name__: cls
    for cls in (
        FilmCapacitorX2,
        TantalumCapacitorSMD,
        ElectrolyticCapacitor,
        CeramicCapacitor,
        BobbinChoke,
        CommonModeChoke,
        PowerMosfet,
        PowerDiode,
        ChipResistor,
        ShuntResistor,
        Connector,
        ControllerIC,
        SmdPowerInductor,
    )
}


class AsciiFormatError(ValueError):
    """Malformed interface file (message cites the line number)."""


def _fmt_mm(value: float) -> str:
    return f"{value / _MM:.7g}"


def _fmt_point(p: Vec2) -> str:
    return f"{_fmt_mm(p.x)},{_fmt_mm(p.y)}"


def _parse_point(token: str) -> Vec2:
    x_str, _, y_str = token.partition(",")
    return Vec2(float(x_str) * _MM, float(y_str) * _MM)


# -- writer --------------------------------------------------------------


def write_problem(problem: PlacementProblem, title: str = "") -> str:
    """Serialise a placement problem to interface text."""
    lines: list[str] = ["EMIPLACE 1"]
    if title:
        lines.append(f"TITLE {title}")

    for board in problem.boards:
        lines.append(f"BOARD {board.index}")
        outline = " ".join(_fmt_point(v) for v in board.outline.vertices)
        lines.append(f"  OUTLINE {outline}")
        for area in board.areas:
            pts = " ".join(_fmt_point(v) for v in area.polygon.vertices)
            lines.append(f"  AREA {area.name} {pts}")
        for keepout in board.keepouts:
            r = keepout.cuboid.rect
            lines.append(
                f"  KEEPOUT {keepout.name} {_fmt_mm(r.xmin)},{_fmt_mm(r.ymin)} "
                f"{_fmt_mm(r.xmax)},{_fmt_mm(r.ymax)} Z "
                f"{_fmt_mm(keepout.cuboid.zmin)} {_fmt_mm(keepout.cuboid.zmax)}"
            )
        lines.append("END")

    for ref, comp in problem.components.items():
        c = comp.component
        fields = [
            f"COMP {ref}",
            f"TYPE {type(c).__name__}",
            f"PN {c.part_number}",
            f"SIZE {_fmt_mm(c.footprint_w)}x{_fmt_mm(c.footprint_h)}x{_fmt_mm(c.body_height)}",
            f"BOARD {comp.board}",
        ]
        if comp.group:
            fields.append(f"GROUP {comp.group}")
        if comp.fixed:
            fields.append("FIXED")
        if comp.placement is not None:
            p = comp.placement
            fields.append(
                f"AT {_fmt_mm(p.position.x)} {_fmt_mm(p.position.y)} "
                f"ROT {p.rotation_deg:.4g}"
            )
        if comp.allowed_rotations_deg is not None:
            angles = ",".join(f"{a:.4g}" for a in comp.allowed_rotations_deg)
            fields.append(f"ANGLES {angles}")
        if comp.preferred_rotation_deg is not None:
            fields.append(f"PREF {comp.preferred_rotation_deg:.4g}")
        lines.append(" ".join(fields))

    for net in problem.nets:
        pins = " ".join(f"{ref}.{pad}" for ref, pad in net.pins)
        lines.append(f"NET {net.name} {pins}")

    for rule in problem.rules.min_distance:
        lines.append(
            f"RULE MINDIST {rule.ref_a} {rule.ref_b} {_fmt_mm(rule.pemd)}"
            + (f" K {rule.k_threshold:.4g}" if rule.k_threshold else "")
            + (f" R {rule.residual:.4g}" if rule.residual else "")
        )
    for rule in problem.rules.clearance:
        a = rule.ref_a or "*"
        b = rule.ref_b or "*"
        lines.append(f"RULE CLEAR {a} {b} {_fmt_mm(rule.clearance)}")
    for rule in problem.rules.groups:
        members = ",".join(rule.members)
        lines.append(
            f"RULE GROUP {rule.group} SPREAD {_fmt_mm(rule.max_spread)} MEMBERS {members}"
        )
    for rule in problem.rules.net_lengths:
        lines.append(f"RULE NETLEN {rule.net} {_fmt_mm(rule.max_length)}")
    return "\n".join(lines) + "\n"


# -- reader --------------------------------------------------------------


def read_problem(text: str) -> PlacementProblem:
    """Parse interface text back into a placement problem.

    Raises:
        AsciiFormatError: on any malformed line.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("EMIPLACE"):
        raise AsciiFormatError("missing EMIPLACE header")

    boards: list[Board] = []
    comps: list[PlacedComponent] = []
    nets: list[tuple[str, list[tuple[str, str]]]] = []
    rules = RuleSet()
    groups: dict[str, list[str]] = {}

    current_board: dict | None = None

    def finish_board() -> None:
        nonlocal current_board
        if current_board is None:
            return
        if current_board.get("outline") is None:
            raise AsciiFormatError(
                f"board {current_board['index']} has no OUTLINE"
            )
        boards.append(
            Board(
                current_board["index"],
                current_board["outline"],
                areas=current_board["areas"],
                keepouts=current_board["keepouts"],
            )
        )
        current_board = None

    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            keyword = tokens[0].upper()
            if keyword == "TITLE":
                continue
            elif keyword == "BOARD":
                finish_board()
                current_board = {
                    "index": int(tokens[1]),
                    "outline": None,
                    "areas": [],
                    "keepouts": [],
                }
            elif keyword == "OUTLINE":
                assert current_board is not None
                points = [_parse_point(t) for t in tokens[1:]]
                current_board["outline"] = Polygon2D(points)
            elif keyword == "AREA":
                assert current_board is not None
                name = tokens[1]
                points = [_parse_point(t) for t in tokens[2:]]
                current_board["areas"].append(
                    PlacementArea(name, Polygon2D(points), current_board["index"])
                )
            elif keyword == "KEEPOUT":
                assert current_board is not None
                name = tokens[1]
                p_min = _parse_point(tokens[2])
                p_max = _parse_point(tokens[3])
                z_index = [t.upper() for t in tokens].index("Z")
                zmin = float(tokens[z_index + 1]) * _MM
                zmax = float(tokens[z_index + 2]) * _MM
                cuboid = Cuboid(Rect(p_min.x, p_min.y, p_max.x, p_max.y), zmin, zmax)
                current_board["keepouts"].append(
                    Keepout3D(name, cuboid, current_board["index"])
                )
            elif keyword == "END":
                finish_board()
            elif keyword == "COMP":
                comps.append(_parse_comp(tokens, lineno, groups))
            elif keyword == "NET":
                pins = []
                for pin in tokens[2:]:
                    ref, _, pad = pin.partition(".")
                    pins.append((ref, pad or "1"))
                nets.append((tokens[1], pins))
            elif keyword == "RULE":
                _parse_rule(tokens, rules, lineno)
            else:
                raise AsciiFormatError(f"unknown keyword {tokens[0]!r}")
        except AsciiFormatError:
            raise
        except (IndexError, ValueError, AssertionError) as exc:
            raise AsciiFormatError(f"line {lineno}: {raw!r}: {exc}") from exc
    finish_board()

    if not boards:
        raise AsciiFormatError("no boards defined")
    problem = PlacementProblem(boards)
    for comp in comps:
        problem.add_component(comp)
    for name, pins in nets:
        problem.add_net(name, pins)
    for group, members in groups.items():
        problem.define_group(group, members)
    problem.rules = rules
    return problem


def _parse_comp(
    tokens: list[str], lineno: int, groups: dict[str, list[str]]
) -> PlacedComponent:
    ref = tokens[1]
    values: dict[str, str] = {}
    flags: set[str] = set()
    i = 2
    at_pos: tuple[float, float] | None = None
    rot_deg = 0.0
    while i < len(tokens):
        key = tokens[i].upper()
        if key == "FIXED":
            flags.add("FIXED")
            i += 1
        elif key == "AT":
            at_pos = (float(tokens[i + 1]) * _MM, float(tokens[i + 2]) * _MM)
            i += 3
        elif key == "ROT":
            rot_deg = float(tokens[i + 1])
            i += 2
        else:
            values[key] = tokens[i + 1]
            i += 2

    cls_name = values.get("TYPE")
    if cls_name not in _COMPONENT_CLASSES:
        raise AsciiFormatError(f"line {lineno}: unknown component TYPE {cls_name!r}")
    cls = _COMPONENT_CLASSES[cls_name]

    kwargs: dict = {}
    if "PN" in values:
        kwargs["part_number"] = values["PN"]
    if "SIZE" in values:
        w_str, h_str, bh_str = values["SIZE"].split("x")
        kwargs["footprint_w"] = float(w_str) * _MM
        kwargs["footprint_h"] = float(h_str) * _MM
        kwargs["body_height"] = float(bh_str) * _MM
    component = cls(**kwargs)

    placement = None
    if at_pos is not None:
        placement = Placement2D(Vec2(*at_pos), math.radians(rot_deg))

    allowed = None
    if "ANGLES" in values:
        allowed = tuple(float(a) for a in values["ANGLES"].split(","))

    placed = PlacedComponent(
        refdes=ref,
        component=component,
        placement=placement,
        board=int(values.get("BOARD", "0")),
        fixed="FIXED" in flags,
        allowed_rotations_deg=allowed,
        preferred_rotation_deg=(
            float(values["PREF"]) if "PREF" in values else None
        ),
    )
    if "GROUP" in values:
        groups.setdefault(values["GROUP"], []).append(ref)
    return placed


def _parse_rule(tokens: list[str], rules: RuleSet, lineno: int) -> None:
    kind = tokens[1].upper()
    if kind == "MINDIST":
        k_threshold = 0.0
        residual = 0.0
        i = 5
        while i < len(tokens):
            key = tokens[i].upper()
            if key == "K":
                k_threshold = float(tokens[i + 1])
            elif key == "R":
                residual = float(tokens[i + 1])
            else:
                raise AsciiFormatError(
                    f"line {lineno}: unknown MINDIST keyword {tokens[i]!r}"
                )
            i += 2
        rules.min_distance.append(
            MinDistanceRule(
                tokens[2],
                tokens[3],
                pemd=float(tokens[4]) * _MM,
                k_threshold=k_threshold,
                residual=residual,
                source="ascii",
            )
        )
    elif kind == "CLEAR":
        ref_a = "" if tokens[2] == "*" else tokens[2]
        ref_b = "" if tokens[3] == "*" else tokens[3]
        rules.clearance.append(
            ClearanceRule(ref_a=ref_a, ref_b=ref_b, clearance=float(tokens[4]) * _MM)
        )
    elif kind == "GROUP":
        spread_i = [t.upper() for t in tokens].index("SPREAD")
        members_i = [t.upper() for t in tokens].index("MEMBERS")
        rules.groups.append(
            GroupCoherenceRule(
                group=tokens[2],
                members=tuple(tokens[members_i + 1].split(",")),
                max_spread=float(tokens[spread_i + 1]) * _MM,
            )
        )
    elif kind == "NETLEN":
        rules.net_lengths.append(
            NetLengthRule(net=tokens[2], max_length=float(tokens[3]) * _MM)
        )
    else:
        raise AsciiFormatError(f"line {lineno}: unknown rule kind {tokens[1]!r}")
