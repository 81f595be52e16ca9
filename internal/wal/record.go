// Log record codec. Each record is framed as
//
//	u32 length | u32 CRC-32C of payload | payload
//
// (both little endian) and the payload encodes one core.Mutation plus its
// sequence number: version, seq, session, seed, a flags byte, the statement
// text, and the bound scalar arguments. The CRC covers the payload only;
// a frame whose length field itself is torn shows up as a short read and
// is classified as a truncated tail.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"pip/internal/core"
	"pip/internal/ctable"
)

// recordVersion is the current record payload encoding version.
const recordVersion = 1

// maxRecordLen bounds a record frame's declared payload length; anything
// larger is treated as corruption rather than allocated.
const maxRecordLen = 64 << 20

// flagFailed marks a statement whose execution returned an error. Failed
// statements are logged too: partial effects (rows appended, variables
// allocated before the failure) are deterministic, so replaying the
// statement reproduces them — and replay checks that it fails again.
const flagFailed = 1

// castagnoli is the CRC-32C table used for record and snapshot checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one entry of the statement log: a catalog-mutating statement
// with its sequence number.
type Record struct {
	// Seq is the record's position in the log, starting at 1 and
	// incrementing by exactly 1; gaps mean lost history and fail recovery.
	Seq uint64
	// M is the logged statement.
	M core.Mutation
}

// AppendRecord appends r's framed encoding to buf. It fails if the
// mutation cannot be represented — in particular if any bound argument is
// symbolic (KindExpr): arguments bind literal scalars, and a symbolic value
// here would mean the log cannot reproduce the statement from text alone.
func AppendRecord(buf []byte, r Record) ([]byte, error) {
	payload, err := appendPayload(nil, r)
	if err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...), nil
}

// EncodePayload returns r's unframed payload encoding — the bytes a frame's
// CRC covers and DecodePayload inverts. The replication stream ships
// records in this form (with its own framing), so primary and replica
// agree on the exact bytes the checksum protects.
func EncodePayload(r Record) ([]byte, error) {
	return appendPayload(nil, r)
}

// Checksum returns the CRC-32C (Castagnoli) checksum the log and the
// replication stream use for payload and snapshot integrity.
func Checksum(p []byte) uint32 {
	return crc32.Checksum(p, castagnoli)
}

// appendPayload appends the unframed record payload.
func appendPayload(buf []byte, r Record) ([]byte, error) {
	buf = binary.AppendUvarint(buf, recordVersion)
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = binary.AppendUvarint(buf, r.M.Session)
	buf = binary.AppendUvarint(buf, r.M.Seed)
	var flags byte
	if r.M.Failed {
		flags |= flagFailed
	}
	buf = append(buf, flags)
	buf = ctable.AppendString(buf, r.M.Text)
	buf = binary.AppendUvarint(buf, uint64(len(r.M.Args)))
	for i, v := range r.M.Args {
		// One scalar cell per bound argument: a kind byte and its payload.
		var ok bool
		if buf, ok = ctable.AppendScalar(buf, v); !ok {
			return nil, fmt.Errorf("wal: argument %d: cannot log value kind %v (arguments must be scalar)", i+1, v.Kind)
		}
	}
	return buf, nil
}

// DecodePayload decodes one unframed record payload (the bytes the frame's
// CRC covers). Errors wrap ErrCorruptRecord. It is the inverse of the
// payload half of AppendRecord and the surface FuzzWALDecode exercises.
func DecodePayload(p []byte) (Record, error) {
	d := ctable.BinReader{Buf: p, Sentinel: ErrCorruptRecord}
	ver := d.Uvarint()
	if d.Err == nil && ver != recordVersion {
		return Record{}, fmt.Errorf("%w: unknown record version %d", ErrCorruptRecord, ver)
	}
	var r Record
	r.Seq = d.Uvarint()
	r.M.Session = d.Uvarint()
	r.M.Seed = d.Uvarint()
	flags := d.Byte()
	r.M.Failed = flags&flagFailed != 0
	r.M.Text = d.Str()
	nargs := d.Uvarint()
	if d.Err == nil && nargs > uint64(len(p)) {
		// Each argument costs at least one byte, so more args than
		// remaining bytes is structurally impossible.
		d.Fail("argument count %d exceeds payload size", nargs)
	}
	if d.Err == nil && nargs > 0 {
		r.M.Args = make([]ctable.Value, 0, nargs)
		for i := uint64(0); i < nargs && d.Err == nil; i++ {
			kind := ctable.Kind(d.Byte())
			v, ok := d.Scalar(kind)
			if !ok {
				d.Fail("unknown argument kind %d", kind)
			}
			r.M.Args = append(r.M.Args, v)
		}
	}
	if d.Err == nil && d.Off != len(p) {
		d.Fail("%d trailing bytes", len(p)-d.Off)
	}
	if d.Err != nil {
		return Record{}, d.Err
	}
	return r, nil
}

// scanSegment walks the framed records of one segment body (magic already
// stripped), verifying sequence continuity starting at firstSeq. It returns
// the valid records, the byte length of the valid prefix, and the typed
// error that stopped the scan: nil for a clean end, ErrTruncatedTail for a
// frame cut short, ErrCorruptRecord for a bad length/CRC/payload, ErrGap
// for a sequence discontinuity. The caller decides whether the error is
// tolerable (tail of the final segment) or fatal (anywhere else).
func scanSegment(body []byte, firstSeq uint64) (recs []Record, goodLen int, tailErr error) {
	off := 0
	next := firstSeq
	for off < len(body) {
		rem := len(body) - off
		if rem < 8 {
			return recs, off, fmt.Errorf("%w: %d dangling header bytes at offset %d", ErrTruncatedTail, rem, off)
		}
		length := int(binary.LittleEndian.Uint32(body[off:]))
		if length == 0 || length > maxRecordLen {
			return recs, off, fmt.Errorf("%w: implausible frame length %d at offset %d", ErrCorruptRecord, length, off)
		}
		if rem < 8+length {
			return recs, off, fmt.Errorf("%w: frame of %d bytes cut to %d at offset %d", ErrTruncatedTail, length, rem-8, off)
		}
		wantCRC := binary.LittleEndian.Uint32(body[off+4:])
		payload := body[off+8 : off+8+length]
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			return recs, off, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorruptRecord, off)
		}
		r, err := DecodePayload(payload)
		if err != nil {
			return recs, off, fmt.Errorf("record at offset %d: %w", off, err)
		}
		if r.Seq != next {
			return recs, off, fmt.Errorf("%w: record %d where %d expected at offset %d", ErrGap, r.Seq, next, off)
		}
		next++
		off += 8 + length
		recs = append(recs, r)
	}
	return recs, off, nil
}
