import contextlib
import csv
import io
import re
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_flow, sort_flows
from flowgnn import cli
from flowgnn.ingest import (BENIGN_NAME, FeatureCodec, FormatError,
                            LabelVocabulary, NUMERIC_FEATURES,
                            OPTIONAL_FIELDS, REQUIRED_FIELDS, SchemaError,
                            UNLABELED, build_label_vocabulary, encode_flows,
                            fit_codec, label_records, load_flow_csv,
                            read_flow_cache, strip_labels, write_flow_cache)
from flowgnn.synth import CSV_SCHEMA, write_schema_file
import reference_ops
from reference_ops import encode_flow


def encode_one(record, codec):
    return encode_flows([record], codec)[0]

SCHEMA = {
    "start_time": "ts_start", "end_time": "ts_end", "src_ip": "src",
    "dst_ip": "dst", "src_port": "sport", "dst_port": "dport",
    "protocol": "proto", "in_bytes": "ib", "out_bytes": "ob",
    "in_pkts": "ip", "out_pkts": "op", "tcp_flags": "flags",
    "attack_name": "attack",
}
HEADER = "ts_start,ts_end,src,dst,sport,dport,proto,ib,ob,ip,op,flags,attack"


def write_csv(tmp_path, rows, header=HEADER, name="flows.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def row(ts_start, ts_end, src="a", dst="b", attack=""):
    return f"{ts_start},{ts_end},{src},{dst},1000,80,6,100,50,3,2,18,{attack}"


class TestLoadCsv:
    def test_three_rows_sorted_by_start(self, tmp_path):
        path = write_csv(tmp_path, [row(2.0, 2.5), row(0.0, 1.0), row(1.0, 1.5)])
        result = load_flow_csv(path, SCHEMA)
        assert result.accepted == 3 and result.rejected == 0
        starts = [r.start_time for r in result.records]
        assert starts == sorted(starts)

    def test_end_before_start_rejected_with_diagnostic(self, tmp_path):
        path = write_csv(tmp_path, [row(0.0, 1.0), row(5.0, 2.0)])
        result = load_flow_csv(path, SCHEMA)
        assert result.accepted == 1 and result.rejected == 1
        assert len(result.diagnostics) == 1
        assert "end_time" in result.diagnostics[0]

    def test_shuffled_rows_load_identically(self, tmp_path):
        rows = [row(float(i), float(i) + 0.5, src=f"h{i % 3}")
                for i in range(10)]
        a = load_flow_csv(write_csv(tmp_path, rows, name="a.csv"), SCHEMA)
        shuffled = [rows[i] for i in (7, 2, 9, 0, 5, 1, 8, 3, 6, 4)]
        b = load_flow_csv(write_csv(tmp_path, shuffled, name="b.csv"), SCHEMA)
        assert a.records == b.records

    def test_missing_column_names_it(self, tmp_path):
        path = write_csv(tmp_path, ["0,1,a,b,1,2,6,1,1,1,1,0"],
                         header=HEADER.replace("proto", "notproto"))
        with pytest.raises(SchemaError, match="proto"):
            load_flow_csv(path, SCHEMA)

    def test_empty_file_is_empty_sequence(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        result = load_flow_csv(path, SCHEMA)
        assert result.records == () and result.rejected == 0

    def test_unparseable_timestamp_reports_line(self, tmp_path):
        path = write_csv(tmp_path, [row(0.0, 1.0), row("bogus", 2.0)])
        result = load_flow_csv(path, SCHEMA)
        assert result.rejected == 1
        assert "line 3" in result.diagnostics[0]

    def test_iso_timestamps_autodetected(self, tmp_path):
        path = write_csv(tmp_path, [
            row("2024-01-01T00:00:00+00:00", "2024-01-01T00:00:02+00:00"),
            row("2024-01-01T00:00:05+00:00", "2024-01-01T00:00:06+00:00"),
        ])
        result = load_flow_csv(path, SCHEMA)
        assert result.accepted == 2
        assert result.records[1].start_time - result.records[0].start_time \
            == pytest.approx(5.0)

    def test_port_out_of_range_rejected(self, tmp_path):
        bad = row(0.0, 1.0).replace(",1000,", ",70000,")
        result = load_flow_csv(write_csv(tmp_path, [bad]), SCHEMA)
        assert result.rejected == 1 and "src_port" in result.diagnostics[0]

    def test_short_rows_rejected_naming_line(self, tmp_path):
        # end_time's column comes last: a row lacking only it is short
        header = HEADER.replace("ts_end,", "") + ",ts_end,note"
        full = [f"{i}.0,a,b,1000,80,6,100,50,3,2,18,,{i}.5,x".split(",")
                for i in range(4)]
        rows = [",".join(cells) for cells in
                (full[0][:5], full[1], full[2][:-1], full[3][:-2])]
        result = load_flow_csv(write_csv(tmp_path, rows, header=header), SCHEMA)
        assert result.accepted == 2
        assert result.diagnostics == ("line 2: short row (5 cells)",
                                      "line 5: short row (12 cells)")

    def test_row_without_timestamp_cells_picks_no_parser(self, tmp_path):
        iso = row("2024-01-01T00:00:00", "2024-01-01T00:00:02")
        result = load_flow_csv(write_csv(tmp_path, ["1", iso]), SCHEMA)
        assert result.accepted == 1 and result.rejected == 1
        assert result.records[0].duration == 2.0

    def test_diagnostics_name_physical_lines(self, tmp_path):
        path = write_csv(tmp_path, [row(0.0, 1.0), "", "", row(5.0, 2.0)])
        result = load_flow_csv(path, SCHEMA)
        assert result.accepted == 1
        assert result.diagnostics == ("line 5: end_time 2.0 < start_time 5.0",)

    def test_oversized_cell_is_format_error_naming_line(self, tmp_path):
        limit = csv.field_size_limit()
        path = write_csv(tmp_path, [row(0.0, 1.0),
                                    row(1.0, 2.0, src="h" * (limit + 1))])
        with pytest.raises(FormatError, match=r"flows\.csv: line 3: field "
                                              r"larger than field limit"):
            load_flow_csv(path, SCHEMA)
        assert csv.field_size_limit() == limit

    def test_attack_names_become_labels(self, tmp_path):
        path = write_csv(tmp_path, [row(0.0, 1.0, attack="Benign"),
                                    row(1.0, 2.0, attack="Dos"),
                                    row(2.0, 3.0)])
        result = load_flow_csv(path, SCHEMA)
        vocab = build_label_vocabulary(result.records)
        labeled = label_records(result.records, vocab)
        assert vocab.classes == (BENIGN_NAME, "Dos")
        assert [r.label for r in labeled] == [0, 1, UNLABELED]


class TestCodec:
    def test_single_protocol_vocab(self):
        flows = [mk_flow(i, i, i + 1.0) for i in range(3)]
        codec = fit_codec(flows)
        assert codec.protocol_vocab == (6,)

    def test_constant_feature_clamped_and_zero(self):
        flows = [mk_flow(i, float(i), float(i) + 1.0) for i in range(4)]
        codec = fit_codec(flows)
        i = codec.numeric_features.index("duration")
        assert codec.stds[i] == pytest.approx(1e-8)
        assert encode_one(flows[0], codec)[i] == pytest.approx(0.0)

    def test_two_record_population_statistics(self):
        flows = [mk_flow(0, 0.0, 1.0, in_bytes=100),
                 mk_flow(1, 1.0, 2.0, in_bytes=300)]
        codec = fit_codec(flows)
        i = codec.numeric_features.index("in_bytes")
        assert codec.means[i] == pytest.approx(200.0)
        assert codec.stds[i] == pytest.approx(100.0)  # population std

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_codec([])

    def test_feature_dim_layout(self):
        flows = [mk_flow(0, 0.0, 1.0, protocol=6),
                 mk_flow(1, 1.0, 2.0, protocol=17)]
        codec = fit_codec(flows)
        assert codec.feature_dim == len(NUMERIC_FEATURES) + 2 + 8

    def test_json_roundtrip_exact(self):
        flows = [mk_flow(i, i * 0.1, i * 0.1 + 0.05, in_bytes=i * 37)
                 for i in range(5)]
        codec = fit_codec(flows)
        again = FeatureCodec.from_json(codec.to_json())
        assert again == codec
        assert again.digest() == codec.digest()


class TestEncode:
    def test_record_at_means_encodes_zero_numerics(self):
        flows = [mk_flow(0, 0.0, 1.0, in_bytes=100),
                 mk_flow(1, 2.0, 3.0, in_bytes=300)]
        codec = fit_codec(flows)
        mean_flow = mk_flow(2, 1.0, 2.0, in_bytes=200, src_port=1001,
                            out_bytes=50, in_pkts=3, out_pkts=2)
        vec = encode_one(mean_flow, codec)
        n = len(NUMERIC_FEATURES)
        numerics = vec[:n]
        # duration/out_bytes/pkts/dst_port are constant -> 0; in_bytes at mean
        # -> 0; src_port halfway between 1000 and 1001 -> not necessarily 0
        assert numerics[codec.numeric_features.index("in_bytes")] == 0.0
        assert numerics[codec.numeric_features.index("duration")] == 0.0

    def test_unseen_protocol_is_zero_onehot(self):
        flows = [mk_flow(0, 0.0, 1.0, protocol=6)]
        codec = fit_codec(flows)
        vec = encode_one(mk_flow(1, 0.0, 1.0, protocol=17), codec)
        n = len(NUMERIC_FEATURES)
        assert np.all(vec[n:n + 1] == 0.0)

    def test_flag_bits_lsb_first(self):
        flows = [mk_flow(0, 0.0, 1.0)]
        codec = fit_codec(flows)
        vec = encode_one(mk_flow(1, 0.0, 1.0, tcp_flags=0b00010010), codec)
        assert list(vec[-8:]) == [0, 1, 0, 0, 1, 0, 0, 0]

    def test_encoding_idempotent(self):
        flows = [mk_flow(i, i * 1.0, i * 1.0 + 0.5, in_bytes=100 * i + 7)
                 for i in range(6)]
        codec = fit_codec(flows)
        for f in flows:
            a, b = encode_one(f, codec), encode_one(f, codec)
            assert np.array_equal(a, b)

    def test_no_leakage_from_test_split(self):
        train = [mk_flow(i, i * 1.0, i + 0.5, in_bytes=10 * i) for i in range(5)]
        test = [mk_flow(i + 10, i * 1.0, i + 0.5, in_bytes=9999) for i in range(5)]
        codec = fit_codec(train)
        before = codec.to_json()
        for f in test:
            encode_one(f, codec)
        assert codec.to_json() == before


class TestVocabulary:
    def test_benign_always_index_zero(self):
        with pytest.raises(ValueError):
            LabelVocabulary(("Dos", BENIGN_NAME))
        vocab = LabelVocabulary((BENIGN_NAME, "Dos", "Scan"))
        assert vocab.index_of(BENIGN_NAME) == 0
        assert vocab.index_of("Scan") == 2

    def test_unknown_name_raises(self):
        vocab = LabelVocabulary((BENIGN_NAME,))
        with pytest.raises(KeyError):
            vocab.index_of("Worm")

    def test_label_records_keeps_correctly_labelled_records(self):
        vocab = LabelVocabulary((BENIGN_NAME, "Dos", "Scan"))
        flows = [mk_flow(0, 0.0, 1.0, attack_name="Dos"),
                 mk_flow(1, 0.0, 1.0, label=2, attack_name="Scan"),
                 mk_flow(2, 0.0, 1.0, label=2, attack_name="Dos"),
                 mk_flow(3, 0.0, 1.0),
                 mk_flow(4, 0.0, 1.0, label=0, attack_name=BENIGN_NAME)]
        labelled = label_records(flows, vocab)
        assert [r.label for r in labelled] == [1, 2, 1, UNLABELED, 0]
        assert [r is f for r, f in zip(labelled, flows)] == \
            [False, True, False, True, True]
        again = label_records(labelled, vocab)
        assert again == labelled
        assert all(r is f for r, f in zip(again, labelled))

    def test_strip_labels(self):
        flows = [mk_flow(0, 0.0, 1.0, label=1, attack_name="Dos")]
        stripped = strip_labels(flows)
        assert stripped[0].label == UNLABELED
        assert stripped[0].attack_name is None


class TestCache:
    def test_roundtrip_identity(self, tmp_path):
        flows = sort_flows([mk_flow(i, i * 0.5, i * 0.5 + 0.2,
                                    src=f"host-{i % 3}", dst="sink",
                                    label=i % 2,
                                    attack_name="Dos" if i % 2 else "Benign")
                            for i in range(20)])
        path = tmp_path / "flows.pptf"
        write_flow_cache(flows, path)
        assert read_flow_cache(path) == flows

    def test_rewrite_is_byte_identical(self, tmp_path):
        flows = sort_flows([mk_flow(i, i * 1.0, i + 0.75) for i in range(7)])
        p1, p2 = tmp_path / "a.pptf", tmp_path / "b.pptf"
        write_flow_cache(flows, p1)
        write_flow_cache(flows, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "junk.pptf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            read_flow_cache(path)

    def test_format_error_is_a_value_error(self):
        assert issubclass(FormatError, ValueError)
        assert not issubclass(FormatError, SchemaError)

    def test_every_truncation_names_offset(self, tmp_path):
        path = tmp_path / "flows.pptf"
        write_flow_cache([mk_flow(0, 0.0, 1.0, attack_name="Dos"),
                          mk_flow(1, 0.5, 1.0)], path)
        raw = path.read_bytes()
        for end in range(len(raw)):
            path.write_bytes(raw[:end])
            with pytest.raises(FormatError, match=f"file ends at {end}"):
                read_flow_cache(path)

    def test_trailing_bytes_and_bad_table_index_rejected(self, tmp_path):
        path = tmp_path / "flows.pptf"
        write_flow_cache([mk_flow(0, 0.0, 1.0)], path)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00")
        with pytest.raises(FormatError, match=f"1 trailing bytes after offset "
                                             f"{len(raw)}"):
            read_flow_cache(path)
        # the record is the last 86 bytes; its src key index sits at byte 24
        record = len(raw) - 86
        path.write_bytes(raw[:record + 24] + (7).to_bytes(4, "little")
                         + raw[record + 28:])
        with pytest.raises(FormatError, match=f"offset {record}"):
            read_flow_cache(path)

    @pytest.mark.parametrize("entry", [b"host-x", b"Dos"],
                             ids=["endpoint-key", "attack-name"])
    def test_invalid_utf8_names_offset(self, tmp_path, entry):
        path = tmp_path / "flows.pptf"
        write_flow_cache([mk_flow(0, 0.0, 1.0, src="host-x",
                                  attack_name="Dos")], path)
        raw = path.read_bytes()
        at = raw.index(entry) + 1
        path.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
        with pytest.raises(FormatError, match=f"invalid UTF-8 in flow cache "
                                             f"at offset {at}"):
            read_flow_cache(path)

    def test_load_cache_load_roundtrip_ordering(self, tmp_path):
        rows = [f"{i}.0,{i}.5,h{i % 4},sink,1000,80,6,10,5,1,1,0,"
                for i in (4, 1, 3, 0, 2)]
        csv_path = write_csv(tmp_path, rows)
        loaded = load_flow_csv(csv_path, SCHEMA)
        cache = tmp_path / "c.pptf"
        write_flow_cache(loaded.records, cache)
        assert read_flow_cache(cache) == loaded.records


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                          st.floats(min_value=0, max_value=10),
                          st.integers(min_value=0, max_value=100000)),
                min_size=1, max_size=20))
def test_codec_encoding_deterministic(rows):
    flows = sort_flows([mk_flow(i, s, s + d, in_bytes=b)
                        for i, (s, d, b) in enumerate(rows)])
    codec = fit_codec(flows)
    mats = [encode_flows(flows, codec) for _ in range(2)]
    assert np.array_equal(mats[0], mats[1])
    assert mats[0].shape[1] == codec.feature_dim
    assert np.all(np.isfinite(mats[0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e6),
                          st.floats(min_value=0, max_value=1e3),
                          st.integers(min_value=0, max_value=2 ** 63 - 1),
                          st.integers(min_value=0, max_value=255),
                          st.integers(min_value=0, max_value=255)),
                min_size=1, max_size=25),
       st.lists(st.integers(min_value=0, max_value=255), max_size=4),
       st.integers(min_value=0, max_value=24))
def test_encode_flows_matches_per_record_encoding(rows, extra_protocols, fit_on):
    """The vectorised encoder is bitwise the per-record `encode_flow` of
    `reference_ops`, for byte counts beyond 2**53, protocols outside the
    vocabulary and a vocabulary with repeats."""
    flows = sort_flows([mk_flow(i, s, s + d, in_bytes=b, protocol=p,
                                tcp_flags=flags)
                        for i, (s, d, b, p, flags) in enumerate(rows)])
    codec = fit_codec(flows[:fit_on + 1])
    codec = FeatureCodec(codec.numeric_features, codec.means, codec.stds,
                         codec.protocol_vocab + tuple(extra_protocols))
    expected = np.array([encode_flow(f, codec) for f in flows])
    got = encode_flows(flows, codec)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert encode_flows((), codec).shape == (0, codec.feature_dim)


# ---------------------------------------------------------------------------
# generated and damaged CSVs

#: cells that no field parses, or that break a record invariant
BAD_CELLS = ("", "x", "nan", "inf", "-1", "1e3", " 7 ", "0x10", "70000",
             "2024-13-01", str(2 ** 64))


@st.composite
def flow_csvs(draw):
    """(CSV text, schema): every mapped column, optional ones or not, some
    header names repeated (the last counts), epoch or ISO timestamps, ids
    that repeat, and bad cells; no blank lines and no short rows."""
    optional = draw(st.lists(st.sampled_from(OPTIONAL_FIELDS), unique=True))
    schema = {field: f"c_{field}" for field in (*REQUIRED_FIELDS, *optional)}
    extra = draw(st.lists(st.sampled_from([*schema.values(), "note"]),
                          max_size=3))
    header = draw(st.permutations([*schema.values(), *extra]))
    field_of = {column: field for field, column in schema.items()}
    last = {column: i for i, column in enumerate(header)}
    iso = {f: draw(st.booleans()) for f in ("start_time", "end_time")}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 8))):
        start = draw(st.floats(0, 1e6, allow_subnormal=False))
        length = draw(st.sampled_from([0.0, 0.5, 3.25]))
        good = {
            "start_time": start, "end_time": start + length,
            "duration": draw(st.sampled_from([length, length + 1.0])),
            "attack_name": draw(st.sampled_from(["", "Benign", " Dos ", "Scan"])),
            "flow_id": draw(st.integers(0, 4)),
            "src_ip": draw(st.sampled_from(["a", "b", "c,d", 'q"t'])),
            "dst_ip": draw(st.sampled_from(["a", "sink"])),
            "src_port": draw(st.integers(0, 65535)), "dst_port": 80,
            "protocol": draw(st.sampled_from([6, 17])),
            "in_bytes": draw(st.integers(0, 2 ** 63 - 1)), "out_bytes": 50,
            "in_pkts": 3, "out_pkts": 2, "tcp_flags": draw(st.integers(0, 255)),
            "label": draw(st.integers(-1, 3)),
        }
        for field in ("start_time", "end_time"):
            if iso[field]:
                dt = datetime.fromtimestamp(good[field], timezone.utc)
                good[field] = (dt if draw(st.booleans())
                               else dt.replace(tzinfo=None)).isoformat()
        spoiled = draw(st.sets(st.integers(0, len(header) - 1), max_size=2))
        writer.writerow([
            draw(st.sampled_from(BAD_CELLS)) if i in spoiled
            else "junk" if last[column] != i or column not in field_of
            else good[field_of[column]] for i, column in enumerate(header)])
    return out.getvalue(), schema


@settings(max_examples=150, deadline=None)
@given(flow_csvs())
def test_generated_csvs_load_like_the_dictreader_loader(generated):
    """The field-table loader gives the `LoadResult` of the DictReader
    loader it replaced, on CSVs without blank lines or short rows."""
    text, schema = generated
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flows.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert load_flow_csv(path, schema) == \
            reference_ops.load_flow_csv(path, schema)


def test_first_bad_cell_reported_as_by_the_dictreader_loader(tmp_path):
    """Of any two bad cells in a row, both loaders report the same one:
    the fields convert in the same order."""
    schema = {field: f"c_{field}" for field in (*REQUIRED_FIELDS,
                                                *OPTIONAL_FIELDS)}
    good = {"start_time": "0.0", "end_time": "1.0", "duration": "1.0",
            "flow_id": "0", "label": "0"}
    cells = [good.get(field, "1") for field in schema]
    rows = []
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            row = list(cells)
            row[i], row[j] = f"bad{i}", f"bad{j}"
            rows.append(",".join(row))
    path = write_csv(tmp_path, rows, header=",".join(schema.values()))
    result = load_flow_csv(path, schema)
    assert result.rejected > len(rows) // 2
    assert result == reference_ops.load_flow_csv(path, schema)


def _valid_rows():
    return [list(CSV_SCHEMA.values())] + [
        [repr(i * 1.5), repr(i * 1.5 + 0.5), f"h{i % 3}", "sink", "1000",
         "80", "6", "100", "50", "3", "2", "18", "Dos" if i % 2 else "Benign"]
        for i in range(6)]


#: replacement cells: empty, quoted, NUL, non-ASCII and oversized ones
ODD_CELLS = ("", '"', 'a"b', "a,b", "a\nb", "\x00", "é", "日本", "٣",
             "1" * (csv.field_size_limit() + 1))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(
           st.sampled_from(["cut", "extend", "cell", "blank"]),
           st.integers(0, 6), st.integers(0, 14),
           st.one_of(st.sampled_from(ODD_CELLS),
                     st.text(st.characters(blacklist_categories=("Cs",)),
                             max_size=4))),
           max_size=4),
       st.booleans(), st.one_of(st.none(), st.integers(0, 2000)))
def test_damaged_csv_ingest_exits_zero_or_two(damage, quote_all, bad_byte):
    """`flowgnn ingest` of a damaged CSV returns 0 or 2 and never raises;
    on 0 every non-empty data row is accepted or rejected."""
    rows = _valid_rows()
    for op, at, cell, text in damage:
        if op == "cut":
            rows[at] = rows[at][:cell]
        elif op == "extend":
            rows[at] = rows[at] + [text] * (cell % 3 + 1)
        elif op == "cell" and cell < len(rows[at]):
            rows[at][cell] = text
        elif op == "blank":
            rows.insert(at, [])
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL,
               lineterminator="\n").writerows(rows)
    raw = out.getvalue().encode("utf-8")
    if bad_byte is not None:
        at = min(bad_byte, len(raw))
        raw = raw[:at] + b"\xff" + raw[at:]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "flows.csv").write_bytes(raw)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["ingest", "--input", str(tmp / "flows.csv"),
                             "--schema", str(write_schema_file(tmp / "s.txt")),
                             "--out", str(tmp / "flows.pptf")])
    assert code in (0, 2), stderr.getvalue()
    if code == 0:
        data_rows = sum(1 for cells in list(csv.reader(
            io.StringIO(raw.decode("utf-8"), newline="")))[1:] if cells)
        accepted, rejected = map(int, re.search(
            r"accepted (\d+) rejected (\d+)", stdout.getvalue()).groups())
        assert accepted + rejected == data_rows
