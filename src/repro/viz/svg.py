"""SVG rendering of boards — the reproduction's stand-in for the tool GUI.

The paper's Figs. 9 and 15-18 are screenshots of the placement tool: the
board, the components, the functional groups (shaded), and the pairwise
rule circles (red = violated, green = met).  This renderer emits the same
content as standalone SVG, so every placement benchmark can drop a visual
artefact next to its numbers.
"""

from __future__ import annotations

from ..placement import DesignRuleChecker, PlacementProblem

__all__ = ["render_board_svg"]

_GROUP_COLORS = [
    "#aed6f1",
    "#a9dfbf",
    "#f9e79f",
    "#d7bde2",
    "#f5b7b1",
    "#a3e4d7",
]


def _mm(value: float) -> float:
    return value * 1000.0


def render_board_svg(
    problem: PlacementProblem,
    board_index: int = 0,
    show_markers: bool = True,
    show_groups: bool = True,
    scale: float = 8.0,
    title: str = "",
) -> str:
    """Render one board to an SVG string.

    Args:
        problem: the placement problem (placed components are drawn).
        board_index: which board.
        show_markers: draw the red/green min-distance circles.
        show_groups: tint component bodies by functional group.
        scale: pixels per millimetre.
        title: optional caption.
    """
    board = problem.board(board_index)
    xmin, ymin, xmax, ymax = board.outline.bbox()
    margin_mm = 6.0
    width = (_mm(xmax - xmin) + 2 * margin_mm) * scale
    height = (_mm(ymax - ymin) + 2 * margin_mm) * scale

    def sx(x: float) -> float:
        return (_mm(x - xmin) + margin_mm) * scale

    def sy(y: float) -> float:
        # SVG y grows downwards; board y grows upwards.
        return height - (_mm(y - ymin) + margin_mm) * scale

    group_color: dict[str, str] = {}
    for i, group in enumerate(problem.groups):
        group_color[group.name] = _GROUP_COLORS[i % len(_GROUP_COLORS)]

    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]

    # Board outline.
    outline_pts = " ".join(
        f"{sx(v.x):.1f},{sy(v.y):.1f}" for v in board.outline.vertices
    )
    parts.append(
        f'<polygon points="{outline_pts}" fill="#f4f6f7" stroke="#2c3e50" '
        'stroke-width="2"/>'
    )

    # Areas and keepouts.
    for area in board.areas:
        pts = " ".join(f"{sx(v.x):.1f},{sy(v.y):.1f}" for v in area.polygon.vertices)
        parts.append(
            f'<polygon points="{pts}" fill="none" stroke="#7f8c8d" '
            'stroke-dasharray="6,4" stroke-width="1"/>'
        )
    for keepout in board.keepouts:
        r = keepout.cuboid.rect
        parts.append(
            f'<rect x="{sx(r.xmin):.1f}" y="{sy(r.ymax):.1f}" '
            f'width="{_mm(r.width) * scale:.1f}" height="{_mm(r.height) * scale:.1f}" '
            'fill="#e74c3c" fill-opacity="0.15" stroke="#e74c3c" '
            'stroke-dasharray="3,3"/>'
        )

    # Rule markers first (under the components).
    if show_markers:
        checker = DesignRuleChecker(problem)
        for marker in checker.rule_markers():
            parts.append(
                f'<circle cx="{sx(marker.center.x):.1f}" cy="{sy(marker.center.y):.1f}" '
                f'r="{_mm(marker.radius) * scale:.1f}" fill="none" '
                f'stroke="{marker.color}" stroke-width="2" stroke-opacity="0.75"/>'
            )

    # Components.
    for comp in problem.placed():
        if comp.board != board_index:
            continue
        color = "#d5dbdb"
        if show_groups and comp.group in group_color:
            color = group_color[comp.group]
        # Exact oriented body for visual fidelity.
        from ..geometry import OrientedRect

        oriented = OrientedRect.from_footprint(
            comp.component.footprint_w, comp.component.footprint_h, comp.placement
        )
        pts = " ".join(f"{sx(v.x):.1f},{sy(v.y):.1f}" for v in oriented.corners())
        parts.append(
            f'<polygon points="{pts}" fill="{color}" stroke="#34495e" '
            'stroke-width="1.5"/>'
        )
        cx, cy = sx(comp.center().x), sy(comp.center().y)
        parts.append(
            f'<text x="{cx:.1f}" y="{cy:.1f}" font-size="{2.6 * scale:.1f}" '
            'text-anchor="middle" dominant-baseline="middle" '
            f'font-family="monospace" fill="#17202a">{comp.refdes}</text>'
        )
        # Magnetic axis tick when the axis is in-plane.
        axis = comp.axis_world()
        if abs(axis.z) < 0.7:
            length = 4e-3
            dx = axis.x * length
            dy = axis.y * length
            parts.append(
                f'<line x1="{sx(comp.center().x - dx / 2):.1f}" '
                f'y1="{sy(comp.center().y - dy / 2):.1f}" '
                f'x2="{sx(comp.center().x + dx / 2):.1f}" '
                f'y2="{sy(comp.center().y + dy / 2):.1f}" '
                'stroke="#8e44ad" stroke-width="1.5"/>'
            )

    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="{1.8 * scale:.0f}" font-size="{3.2 * scale:.0f}" '
            f'text-anchor="middle" font-family="sans-serif">{title}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
