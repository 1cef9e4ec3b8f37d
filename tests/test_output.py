from fractions import Fraction

import pytest

from spectral_riesz.output import fmt_number, series_csv, series_svg
from spectral_riesz.scan import FIGURES, Series, figure


def _reference_fmt(x):
    """Per-value formatting as the writers define it: a Fraction as num/den
    (or an integer), a float with 17 significant digits, anything else by
    str."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
            else str(x.numerator)
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _reference_csv(series_list):
    lines = ["z,series_label,value"]
    for s in series_list:
        for z, v in s.points:
            lines.append(f"{_reference_fmt(z)},{s.label},{_reference_fmt(v)}")
    return "\n".join(lines) + "\n"


def _reference_svg(series_list, width=900, height=540):
    pts = [(z, v) for s in series_list for z, v in s.points]
    if not pts:
        return ('<svg xmlns="http://www.w3.org/2000/svg" '
                f'viewBox="0 0 {width} {height}"></svg>')
    zmin = min(z for z, _ in pts)
    zmax = max(z for z, _ in pts)
    vmin = min(v for _, v in pts)
    vmax = max(v for _, v in pts)
    zspan = float((zmax - zmin) or 1.0)  # float coordinates on any data
    vspan = float((vmax - vmin) or 1.0)

    def sx(z):
        return (z - zmin) / zspan * width

    def sy(v):
        return height - (v - vmin) / vspan * height

    palette = ("#1f77b4", "#d62728", "#9467bd", "#ff7f0e", "#2ca02c",
               "#8c564b", "#e377c2", "#7f7f7f")
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {width} {height}">']
    for i, s in enumerate(series_list):
        coords = " ".join(f"{sx(z):.3f},{sy(v):.3f}" for z, v in s.points)
        parts.append(f'<polyline fill="none" '
                     f'stroke="{palette[i % len(palette)]}" '
                     f'stroke-width="1" points="{coords}">'
                     f'<title>{s.label}</title></polyline>')
    parts.append("</svg>")
    return "\n".join(parts)


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_figure_writers_match_the_per_value_reference(fig_id):
    series = figure(fig_id, 6, 12)
    assert series_csv(series) == _reference_csv(series)
    assert series_svg(series) == _reference_svg(series)


MIXED = [
    Series("ints", ((1, 0.25), (2, 1e-300), (12, -3.5))),
    Series("fractions", ((Fraction(1, 3), Fraction(5, 7)),
                         (Fraction(3, 2), 2.5), (Fraction(4), 7))),
    Series("floats", ((0.1, 1 / 3), (2.0, 2.0))),
    Series("empty", ()),
]
CASES = {"all": MIXED, "ints": MIXED[:1], "fractions": MIXED[1:2],
         "empty": MIXED[3:], "none": []}


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_falls_back_per_value_on_int_and_fraction_points(case):
    assert series_csv(CASES[case]) == _reference_csv(CASES[case])


ALL_FRACTIONS = [Series("exact", ((Fraction(1, 3), Fraction(5, 7)),
                                   (Fraction(3, 2), Fraction(5, 2)),
                                   (Fraction(4), Fraction(7))))]
FRACTION_VALUES = [Series("float-z", ((0.5, Fraction(1, 3)),
                                      (1.5, Fraction(2, 3)), (2.5, 1)))]
SVG_CASES = {**CASES, "all-fractions": ALL_FRACTIONS,
             "ints-and-fractions": MIXED[:2],
             "fraction-values": FRACTION_VALUES}


@pytest.mark.parametrize("case", sorted(SVG_CASES))
def test_svg_matches_the_reference_on_int_and_fraction_points(case):
    assert series_svg(SVG_CASES[case]) == _reference_svg(SVG_CASES[case])


# Fraction extents make Fraction coordinates, which the '.3f' format does
# not take before Python 3.12.
@pytest.mark.parametrize("series_list", [ALL_FRACTIONS, MIXED[1:2]],
                         ids=["all-fractions", "mixed"])
def test_svg_formats_fraction_extents(series_list):
    points = series_svg(series_list).split('points="')[1].split('"')[0]
    assert points == "0.000,540.000 286.364,386.591 900.000,0.000"


def test_mixed_rows_format_each_value_by_type():
    rows = series_csv(MIXED[:2]).splitlines()
    assert rows[1:] == ["1,ints,0.25", "2,ints,1e-300", "12,ints,-3.5",
                        "1/3,fractions,5/7", "3/2,fractions,2.5",
                        "4,fractions,7"]


@pytest.mark.parametrize("x", [0.1, -0.0, 1e300, 5e-324, Fraction(7, 3),
                               Fraction(-4), 12, True, "text"])
def test_fmt_number_matches_the_reference(x):
    assert fmt_number(x) == _reference_fmt(x)


# Labels are written into the batched row format with '%' escaped; the
# other characters pass through as text.
LABELS = ["50%", "100%% sure", "{}", "a,b", "%s%d%(x)s", "%.17g"]


@pytest.mark.parametrize("label", LABELS)
def test_writers_keep_labels_verbatim(label):
    series = [Series(label, ((0.5, 0.25), (1.5, -2.0)))]
    assert series_csv(series) == _reference_csv(series)
    assert series_svg(series) == _reference_svg(series)


EXTREME_FLOATS = [Series("extremes", ((-1e300, -0.0), (-0.0, 5e-324),
                                      (5e-324, 1e-300), (1e-300, 1e300),
                                      (1e300, -1e300)))]


def test_batched_csv_formats_extreme_floats():
    assert series_csv(EXTREME_FLOATS) == _reference_csv(EXTREME_FLOATS)
    assert series_csv(EXTREME_FLOATS).splitlines()[1:3] == [
        "-1.0000000000000001e+300,extremes,-0",
        "-0,extremes,4.9406564584124654e-324"]


def test_svg_formats_extreme_floats():
    assert series_svg(EXTREME_FLOATS) == _reference_svg(EXTREME_FLOATS)


# One all-float series beside series whose int or Fraction point sits
# mid-series: the batched path or the per-value one is chosen per series.
BESIDE = [
    Series("floats", ((0.25, 1 / 3), (0.5, -0.0), (2.0, 1e-300))),
    Series("int-mid", ((0.5, 0.1), (1, 0.2), (1.5, 0.3))),
    Series("fraction-mid", ((0.5, 0.1), (0.75, Fraction(1, 3)),
                            (1.5, 0.3))),
    Series("floats-again", ((3.0, 2.5), (4.0, 5e-324))),
]


@pytest.mark.parametrize("cut", [slice(None), slice(0, 2), slice(1, 4)],
                         ids=["all", "float-first", "float-last"])
def test_writers_choose_the_format_per_series(cut):
    assert series_csv(BESIDE[cut]) == _reference_csv(BESIDE[cut])
    assert series_svg(BESIDE[cut]) == _reference_svg(BESIDE[cut])


@pytest.mark.parametrize("fig_id,resolution,l_max", [("f34", 41, 59),
                                                     ("f2", 39, 61)])
def test_writers_match_the_reference_at_the_benchmark_shape(
        fig_id, resolution, l_max):
    series = figure(fig_id, resolution, l_max)
    assert series_csv(series) == _reference_csv(series)
    assert series_svg(series) == _reference_svg(series)
