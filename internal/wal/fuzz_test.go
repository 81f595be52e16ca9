package wal

import (
	"bytes"
	"testing"

	"pip/internal/core"
	"pip/internal/ctable"
)

// fuzzSeedRecords are realistic log records whose encoded payloads seed the
// fuzz corpus: every argument kind, failure flags, empty and multi-byte
// text, large sequence and session numbers.
var fuzzSeedRecords = []Record{
	{Seq: 1, M: core.Mutation{Session: 1, Seed: 1, Text: "CREATE TABLE orders (cust, shipto, price)"}},
	{Seq: 2, M: core.Mutation{Session: 1, Seed: 1, Text: "INSERT INTO orders VALUES ('Joe', 'NY', CREATE_VARIABLE('Normal', 100, 10))"}},
	{Seq: 3, M: core.Mutation{Session: 7, Seed: 42, Text: "SET max_samples = 4096"}},
	{Seq: 4, M: core.Mutation{Session: 7, Seed: 42, Text: "INSERT INTO nosuch VALUES (1)", Failed: true}},
	{Seq: 1 << 40, M: core.Mutation{Session: 1 << 30, Seed: ^uint64(0), Text: "DROP TABLE orders"}},
	{Seq: 5, M: core.Mutation{Session: 2, Seed: 9, Text: "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
		Args: []ctable.Value{
			ctable.Null(), ctable.Float(-0.0), ctable.Int(-1 << 62),
			ctable.String_("héllo\x00wörld"), ctable.Bool(false),
		}}},
}

// FuzzWALDecode hammers the record payload decoder with arbitrary bytes:
// it must never panic or over-allocate, and any payload it accepts must
// survive a re-encode/re-decode round trip unchanged (the decoder and
// encoder agree on the format). The accepted payload is then framed and
// pushed through the segment scanner, which must agree with the decoder.
func FuzzWALDecode(f *testing.F) {
	for _, r := range fuzzSeedRecords {
		payload, err := appendPayload(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodePayload(data)
		if err != nil {
			return
		}
		re, err := appendPayload(nil, Record{Seq: rec.Seq, M: rec.M})
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		back, err := DecodePayload(re)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		// Records compare by their canonical encoding: a NaN argument
		// round-trips bit for bit but is not reflect.DeepEqual to itself.
		if again, _ := appendPayload(nil, back); !bytes.Equal(again, re) {
			t.Fatalf("round trip changed the record: %+v vs %+v", rec, back)
		}
		// The canonical re-encoding framed into a segment must scan back to
		// the same record.
		frame, err := AppendRecord(nil, back)
		if err != nil {
			t.Fatal(err)
		}
		recs, n, tailErr := scanSegment(frame, back.Seq)
		if tailErr != nil || n != len(frame) || len(recs) != 1 {
			t.Fatalf("segment scan disagrees with decoder: %d recs, %d/%d bytes, %v", len(recs), n, len(frame), tailErr)
		}
		if scanned, _ := appendPayload(nil, recs[0]); !bytes.Equal(scanned, re) {
			t.Fatalf("segment scan decoded %+v, decoder %+v", recs[0], back)
		}
	})
}

// FuzzSegmentScan feeds arbitrary bytes to the segment scanner, which must
// classify them without panicking and never report more valid bytes than
// it was given.
func FuzzSegmentScan(f *testing.F) {
	var seg []byte
	for _, r := range fuzzSeedRecords[:3] {
		var err error
		seg, err = AppendRecord(seg, Record{Seq: r.Seq, M: r.M})
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seg, uint64(1))
	f.Add(seg[:len(seg)-3], uint64(1))
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, first uint64) {
		recs, n, _ := scanSegment(data, first)
		if n < 0 || n > len(data) {
			t.Fatalf("scanner reported %d valid bytes of %d", n, len(data))
		}
		for i, r := range recs {
			if r.Seq != first+uint64(i) {
				t.Fatalf("scanner returned out-of-order record %d at %d", r.Seq, i)
			}
		}
	})
}
