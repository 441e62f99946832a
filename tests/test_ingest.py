import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_flow, sort_flows
from flowgnn.ingest import (BENIGN_NAME, FeatureCodec, FormatError,
                            LabelVocabulary, NUMERIC_FEATURES, SchemaError,
                            UNLABELED, build_label_vocabulary, encode_flows,
                            fit_codec, label_records, load_flow_csv,
                            read_flow_cache, strip_labels, write_flow_cache)
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
