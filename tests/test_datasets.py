import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risbeam.array_model import ArraySpec, Direction
from risbeam.codebook import (CodebookGrid, build_codebook, read_codebook,
                              write_codebook)
from risbeam.datasets import (
    DEFAULT_MAPPING,
    POWER_SANITY_FLOOR_DBM,
    AbsorptionTable,
    BeampatternTable,
    load_column_mapping,
    read_table,
    write_absorption,
    write_beampattern,
)
from risbeam.errors import DomainError, NotFoundError, ParseError
from risbeam.surrogate import MlpSpec, TrainSpec, save_model, train
from risbeam.svgplot import line_plot


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def small_beampattern():
    beams = [(-3, 0), (0, 0), (3, 0)]
    rotations = [-6.0, 0.0, 6.0]
    power = [[-61.5, -60.0, -63.25],
             [-60.0, -59.5, -61.0],
             [-64.0, -62.0, -60.5]]
    return BeampatternTable(beams, rotations, power, theta_t_deg=-1.5)


def small_absorption():
    beams = [(0, -3), (3, -3)]
    counts = [4, 16, 100]
    power = [[-75.0, -66.0, -60.0],
             [-76.5, -67.25, -61.0]]
    return AbsorptionTable(beams, counts, power)


def float_parse_outcome(text):
    """Oracle: the body of a beampattern file parsed with float() per cell
    row by row, then checked as a table.

    ("accept", beams, power) or ("reject", line), where line is the first
    row with a wrong field count or a field float() rejects, or None when
    every row parses but a beam is not finite or repeated, or a power is not
    finite or lies below the sanity floor.
    """
    beams, rows = [], []
    for ln, line in enumerate(text.splitlines()[2:], start=3):
        parts = line.split(",")
        if len(parts) != 5:
            return ("reject", ln)
        try:
            cells = [float(p) for p in parts]
        except ValueError:
            return ("reject", ln)
        beams.append(tuple(cells[:2]))
        rows.append(cells[2:])
    values = [v for row in rows for v in row]
    if (not all(math.isfinite(v) for beam in beams for v in beam)
            or len(set(beams)) != len(beams)
            or not all(math.isfinite(v) for v in values)
            or any(v < POWER_SANITY_FLOOR_DBM for v in values)):
        return ("reject", None)
    return ("accept", np.array(beams), np.array(rows))


class TestBeampatternTable:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError, match="shape"):
            BeampatternTable([(0, 0)], [0.0, 3.0], [[-60.0]])

    def test_validate_catches_unsorted_rotations(self):
        t = BeampatternTable([(0, 0)], [3.0, 0.0], [[-60.0, -61.0]])
        with pytest.raises(DomainError):
            t.validate()

    def test_validate_catches_duplicate_beams(self):
        t = BeampatternTable([(0, 0), (0, 0)], [0.0],
                             [[-60.0], [-61.0]])
        with pytest.raises(DomainError):
            t.validate()

    def test_validate_catches_nan_and_sanity_floor(self):
        t = BeampatternTable([(0, 0)], [0.0], [[np.nan]])
        with pytest.raises(DomainError):
            t.validate()
        t = BeampatternTable([(0, 0)], [0.0],
                             [[POWER_SANITY_FLOOR_DBM - 1]])
        with pytest.raises(DomainError):
            t.validate()

    @pytest.mark.parametrize("beams, rotations", [
        ([(np.nan, 0)], [0.0]),
        ([(0, np.inf)], [0.0]),
        ([(0, 0)], [np.nan]),
        ([(0, 0)], [np.inf]),
    ])
    def test_validate_catches_non_finite_beams_and_labels(self, beams,
                                                         rotations, tmp_path):
        t = BeampatternTable(beams, rotations, [[-60.0]])
        with pytest.raises(DomainError, match="finite"):
            t.validate()
        with pytest.raises(DomainError, match="finite"):
            write_beampattern(t, tmp_path / "bp.csv")

    def test_row_and_column_slices(self):
        t = small_beampattern()
        labels, vals = t.row((0, 0))
        np.testing.assert_array_equal(labels, [-6.0, 0.0, 6.0])
        np.testing.assert_array_equal(vals, [-60.0, -59.5, -61.0])
        labels, vals = t.column(6.0)
        np.testing.assert_array_equal(vals, [-63.25, -61.0, -60.5])

    def test_slices_are_copies(self):
        t = small_beampattern()
        t.row((0, 0)).values[0] = 0.0
        assert t.power_dbm[1, 0] == -60.0

    def test_missing_beam_names_neighbours(self):
        with pytest.raises(NotFoundError, match="nearest"):
            small_beampattern().row((1, 0))

    def test_missing_rotation(self):
        for rotation in (2.0, 6.5, np.nan):
            with pytest.raises(NotFoundError):
                small_beampattern().column(rotation)

    def test_equality_is_by_value(self):
        assert small_beampattern() == small_beampattern()
        other = small_beampattern()
        other.power_dbm[0, 0] += 1e-9
        assert small_beampattern() != other
        assert small_beampattern() != "not a table"


class TestAbsorptionTable:
    def test_validate_catches_non_square_count(self):
        t = AbsorptionTable([(0, 0)], [50], [[-60.0]])
        with pytest.raises(DomainError, match="non-square"):
            t.validate()

    def test_validate_catches_descending_counts(self):
        t = AbsorptionTable([(0, 0)], [16, 4], [[-60.0, -61.0]])
        with pytest.raises(DomainError):
            t.validate()

    def test_column_lookup(self):
        t = small_absorption()
        labels, vals = t.column(16)
        np.testing.assert_array_equal(vals, [-66.0, -67.25])
        # labels match exactly: no truncation to a count, nan matches none
        for missing in (25, 16.9, np.nan):
            with pytest.raises(NotFoundError):
                t.column(missing)


class TestRoundTrips:
    def test_beampattern_round_trip(self, tmp_path):
        t = small_beampattern()
        p = tmp_path / "bp.csv"
        write_beampattern(t, p)
        assert read_table(p) == t

    def test_absorption_round_trip(self, tmp_path):
        t = small_absorption()
        p = tmp_path / "ab.csv"
        write_absorption(t, p)
        assert read_table(p) == t

    def test_write_is_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_beampattern(small_beampattern(), p1)
        write_beampattern(read_table(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_integral_angles_written_without_decimals(self, tmp_path):
        p = tmp_path / "bp.csv"
        write_beampattern(small_beampattern(), p)
        lines = p.read_text().splitlines()
        assert lines[0] == "# theta_t=-1.5"
        assert lines[1] == "theta_n,phi_n,rot_-6,rot_0,rot_6"
        assert lines[2].startswith("-3,0,")

    @settings(max_examples=100, deadline=None)
    @given(beams=st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=4,
                          unique=True),
           rotations=st.lists(FINITE, min_size=1, max_size=5,
                              unique=True).map(sorted),
           theta_t=FINITE,
           tx=st.tuples(st.floats(-90, 90), st.floats(-90, 90)))
    @example(beams=[(-0.0, 5e-324), (1e300, 0.1)],
             rotations=[-1.7976931348623157e308, -1e-07, 33.333333,
                        1.7976931348623157e308],
             theta_t=-1.5, tx=(-0.0, 1e-07))
    def test_any_finite_angles_read_back_exactly(self, tmp_path_factory,
                                                 beams, rotations, theta_t,
                                                 tx):
        """Beams, rotations and theta_t of any finite float, and a
        codebook's tx direction, read back equal; writing what was read
        gives the same bytes."""
        t = BeampatternTable(beams, rotations,
                             np.full((len(beams), len(rotations)), -60.5),
                             theta_t_deg=theta_t)
        tx = Direction(*tx)
        cb = build_codebook(ArraySpec(2, 2), tx,
                            CodebookGrid((0, 3, 3), (0, 0, 3)))
        tmp = tmp_path_factory.mktemp("angles")
        write_beampattern(t, tmp / "a.csv")
        write_codebook(cb, tmp / "a_cb.csv")
        assert read_table(tmp / "a.csv") == t
        assert read_codebook(tmp / "a_cb.csv").tx == tx
        write_beampattern(read_table(tmp / "a.csv"), tmp / "b.csv")
        write_codebook(read_codebook(tmp / "a_cb.csv"), tmp / "b_cb.csv")
        for name in ("", "_cb"):
            assert ((tmp / f"a{name}.csv").read_bytes()
                    == (tmp / f"b{name}.csv").read_bytes())

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        p = tmp_path / "bp.csv"
        write_beampattern(small_beampattern(), p)
        before = p.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_beampattern(BeampatternTable([(0, 0)], [0.0], [[-70.0]]), p)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["bp.csv"]

    @pytest.mark.parametrize("writer", [
        "write_codebook", "write_beampattern", "save_model", "line_plot"])
    def test_writer_creates_missing_directories(self, writer, tmp_path):
        write = {
            "write_codebook": lambda p: write_codebook(build_codebook(
                ArraySpec(2, 2), Direction(0, 0), CodebookGrid((0, 3, 3),
                                                               (0, 0, 3))), p),
            "write_beampattern": lambda p: write_beampattern(
                small_beampattern(), p),
            "save_model": lambda p: save_model(train(
                np.column_stack([np.arange(40.0)] * 4),
                MlpSpec(hidden_layers=1, hidden_width=2),
                TrainSpec(epochs=1, batch_size=10))[0], p),
            "line_plot": lambda p: line_plot([([0, 1], [1, 0], "x")], p,
                                             title="t", x_label="x",
                                             y_label="y"),
        }[writer]
        path = tmp_path / "a" / "b" / "out"
        write(path)
        assert path.stat().st_size > 0
        assert [str(f.relative_to(tmp_path)) for f in tmp_path.rglob("*")
                if f.is_file()] == [os.path.join("a", "b", "out")]

    def test_campaign_round_trip(self, quiet_beampattern, tmp_path):
        p = tmp_path / "campaign.csv"
        write_beampattern(quiet_beampattern, p)
        assert read_table(p) == quiet_beampattern

    @settings(max_examples=25, deadline=None)
    @given(st.data(), st.sampled_from([
        (BeampatternTable, lambda n: np.arange(n) * 3.0, write_beampattern),
        (AbsorptionTable, lambda n: (np.arange(n) + 1) ** 2,
         write_absorption),
    ]))
    def test_random_table_round_trip(self, tmp_path_factory, data, schema):
        cls, labels, write = schema
        n_beams = data.draw(st.integers(1, 6))
        n_rot = data.draw(st.integers(1, 5))
        beams = [(3 * i, -3 * i) for i in range(n_beams)]
        power = data.draw(
            st.lists(
                st.lists(st.floats(-120, 0).map(lambda v: round(v, 6)),
                         min_size=n_rot, max_size=n_rot),
                min_size=n_beams, max_size=n_beams))
        t = cls(beams, labels(n_rot), power)
        p = tmp_path_factory.mktemp("rt") / "t.csv"
        write(t, p)
        assert read_table(p) == t


class TestReaderErrors:
    def test_ragged_row_located(self, tmp_path):
        p = tmp_path / "bp.csv"
        p.write_text("theta_n,phi_n,rot_0\n0,0,-60\n3,0\n")
        with pytest.raises(ParseError, match="line 3"):
            read_table(p)

    def test_bad_number_located_by_column(self, tmp_path):
        p = tmp_path / "bp.csv"
        p.write_text("theta_n,phi_n,rot_0,rot_3\n0,0,-60,oops\n")
        with pytest.raises(ParseError, match="column 2"):
            read_table(p)

    def test_wrong_header_start(self, tmp_path):
        p = tmp_path / "bp.csv"
        p.write_text("azimuth,phi_n,rot_0\n0,0,-60\n")
        with pytest.raises(ParseError, match="header"):
            read_table(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "bp.csv"
        for text in ("", "# theta_t=0\n"):
            p.write_text(text)
            with pytest.raises(ParseError, match="no header row found"):
                read_table(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "bp.csv"
        p.write_text("theta_n,phi_n,rot_0\n")
        with pytest.raises(ParseError, match="no data rows"):
            read_table(p)

    def test_bad_theta_t_comment(self, tmp_path):
        p = tmp_path / "bp.csv"
        p.write_text("# tilt=4\ntheta_n,phi_n,rot_0\n0,0,-60\n")
        with pytest.raises(ParseError, match="line 1"):
            read_table(p)

    def test_non_square_count_in_header(self, tmp_path):
        p = tmp_path / "ab.csv"
        p.write_text("theta_n,phi_n,n_50\n0,0,-60\n")
        with pytest.raises(ParseError, match="non-square"):
            read_table(p)

    @pytest.mark.parametrize("reader", [read_table, load_column_mapping])
    def test_non_utf8_is_parse_error(self, tmp_path, reader):
        p = tmp_path / "bp.csv"
        p.write_bytes(b"theta_n,phi_n,rot_0\n0,0,-60\xff\n")
        with pytest.raises(ParseError, match="UTF-8"):
            reader(p)

    @settings(max_examples=300, deadline=None)
    @given(row=st.integers(0, 2), col=st.integers(0, 4),
           field=st.one_of(
               st.floats(allow_nan=True, allow_infinity=True).map(repr),
               st.floats(-150, 0).map(lambda v: "%.6f" % v),
               st.sampled_from(["nan", "-inf", "inf", "1e999", "-6_0.5",
                                "1_0", " -61.5 ", "\t-60\r", "-0", "0x1",
                                ".", "", " ", "-", "1__0", "+-1",
                                "\u0663", "\uff11"]),
               st.text("0123456789+-_ .eEinfa\t\u0663", max_size=7),
               st.text(max_size=4)))
    def test_row_parser_matches_float_parser(self, row, col, field):
        """Each body row's cells are one numpy conversion; on valid and
        mutated rows the reader accepts what float() per cell accepted, with
        the same values, and names the same line when it rejects."""
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "bp.csv"
            write_beampattern(small_beampattern(), p)
            lines = p.read_text(encoding="utf-8").splitlines()
            parts = lines[2 + row].split(",")
            parts[col] = field
            lines[2 + row] = ",".join(parts)
            p.write_text("\n".join(lines) + "\n", encoding="utf-8")
            expected = float_parse_outcome(p.read_text(encoding="utf-8"))
            try:
                back = read_table(p)
            except ParseError as exc:
                line = re.search(r": line (\d+): ", str(exc))
                assert expected == ("reject", line and int(line.group(1)))
                return
        assert expected[0] == "accept"
        np.testing.assert_array_equal(back.beams, expected[1])
        np.testing.assert_array_equal(back.power_dbm, expected[2])

    def test_validation_failure_reported_as_parse_error(self, tmp_path):
        p = tmp_path / "bp.csv"
        p.write_text("theta_n,phi_n,rot_3,rot_0\n0,0,-60,-61\n")
        with pytest.raises(ParseError):
            read_table(p)


class TestColumnMapping:
    def test_load_and_apply(self, tmp_path):
        mp = tmp_path / "cols.map"
        mp.write_text("# external column names\n"
                      "theta_n = beam_az\n"
                      "phi_n = beam_el\n"
                      "rot_prefix = angle_\n")
        mapping = load_column_mapping(mp)
        assert mapping == {"theta_n": "beam_az", "phi_n": "beam_el",
                           "rot_prefix": "angle_"}
        p = tmp_path / "bp.csv"
        p.write_text("beam_az,beam_el,angle_0,angle_3\n0,0,-60,-61\n")
        t = read_table(p, mapping)
        assert isinstance(t, BeampatternTable)
        np.testing.assert_array_equal(t.rotations, [0.0, 3.0])

    def test_unknown_key_rejected(self, tmp_path):
        mp = tmp_path / "cols.map"
        mp.write_text("power_prefix = p_\n")
        with pytest.raises(ParseError, match="unknown mapping key"):
            load_column_mapping(mp)

    def test_missing_equals_rejected(self, tmp_path):
        mp = tmp_path / "cols.map"
        mp.write_text("theta_n beam_az\n")
        with pytest.raises(ParseError, match="line 1"):
            load_column_mapping(mp)

    def test_unknown_key_in_dict_rejected(self, tmp_path):
        p = tmp_path / "bp.csv"
        p.write_text("theta_n,phi_n,rot_0\n0,0,-60\n")
        with pytest.raises(DomainError):
            read_table(p, {"bogus": "x"})

    def test_defaults_cover_all_keys(self):
        assert set(DEFAULT_MAPPING) == {"theta_n", "phi_n", "rot_prefix",
                                        "n_prefix", "theta_t_key"}


class TestSchemaSniffing:
    def test_dispatch_beampattern(self, tmp_path):
        p = tmp_path / "t.csv"
        write_beampattern(small_beampattern(), p)
        assert isinstance(read_table(p), BeampatternTable)

    def test_dispatch_absorption(self, tmp_path):
        p = tmp_path / "t.csv"
        write_absorption(small_absorption(), p)
        assert isinstance(read_table(p), AbsorptionTable)

    def test_unidentifiable_schema(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("theta_n,phi_n,power\n0,0,-60\n")
        with pytest.raises(ParseError, match="schema"):
            read_table(p)


def test_absorption_full_mask_matches_beampattern_at_zero(
        quiet_beampattern, quiet_absorption):
    """The all-elements-active absorption column is the same physical
    measurement as the beampattern at rotation 0."""
    full = quiet_absorption.column(100).values
    fixed = quiet_beampattern.column(0.0).values
    np.testing.assert_array_equal(full, fixed)
