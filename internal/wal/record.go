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
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"pip/internal/core"
	"pip/internal/ctable"
)

// recordVersion is the current record payload encoding version.
const recordVersion = 1

// FrameHeaderLen is the size of a frame's header: the u32 payload length
// and the u32 CRC-32C that precede every payload.
const FrameHeaderLen = 8

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

// frameHeader parses the frame header at the start of hdr (at least
// FrameHeaderLen bytes) — the one place a frame header is read — and
// returns the whole frame's length and its payload's CRC. ok is false when
// the declared payload length is implausible. It builds no error, so
// tailHoldsRecord can probe every byte offset of a damaged tail cheaply.
func frameHeader(hdr []byte) (n int, crc uint32, ok bool) {
	length := int(binary.LittleEndian.Uint32(hdr))
	return FrameHeaderLen + length, binary.LittleEndian.Uint32(hdr[4:]), length > 0 && length <= maxRecordLen
}

// decodeFrame decodes the frame at the start of b and returns its record
// and length. It fails with ErrTruncatedTail when b ends before the frame
// does, and with ErrCorruptRecord for an implausible length, a CRC
// mismatch or an undecodable payload.
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) < FrameHeaderLen {
		return Record{}, 0, fmt.Errorf("%w: %d dangling header bytes", ErrTruncatedTail, len(b))
	}
	n, crc, ok := frameHeader(b)
	if !ok {
		return Record{}, 0, fmt.Errorf("%w: implausible frame length %d", ErrCorruptRecord, n-FrameHeaderLen)
	}
	if len(b) < n {
		return Record{}, 0, fmt.Errorf("%w: frame of %d bytes cut to %d", ErrTruncatedTail, n-FrameHeaderLen, len(b)-FrameHeaderLen)
	}
	if crc32.Checksum(b[FrameHeaderLen:n], castagnoli) != crc {
		return Record{}, 0, fmt.Errorf("%w: CRC mismatch", ErrCorruptRecord)
	}
	r, err := DecodePayload(b[FrameHeaderLen:n])
	return r, n, err
}

// ReadRecord reads one frame from r — a stream laid out like a segment
// body after its magic, as the replication stream's records are — and
// returns its record and payload length. The frame is buffered as it
// arrives, so a hostile length costs memory only for bytes actually sent.
// It returns io.EOF when r ends cleanly between frames,
// io.ErrUnexpectedEOF when it ends inside one, r's own read errors, and
// errors wrapping ErrCorruptRecord as decodeFrame does.
func ReadRecord(r io.Reader) (Record, int, error) {
	var frame bytes.Buffer
	if _, err := io.CopyN(&frame, r, FrameHeaderLen); err != nil {
		if err == io.EOF && frame.Len() > 0 {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, 0, err
	}
	// Past an implausible length nothing is read; decodeFrame reports it.
	if n, _, ok := frameHeader(frame.Bytes()); ok {
		if _, err := io.CopyN(&frame, r, int64(n-FrameHeaderLen)); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Record{}, 0, err
		}
	}
	rec, n, err := decodeFrame(frame.Bytes())
	if err != nil {
		return Record{}, 0, err
	}
	return rec, n - FrameHeaderLen, nil
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
		r, n, err := decodeFrame(body[off:])
		if err != nil {
			return recs, off, fmt.Errorf("record at offset %d: %w", off, err)
		}
		if r.Seq != next {
			return recs, off, fmt.Errorf("%w: record %d where %d expected at offset %d", ErrGap, r.Seq, next, off)
		}
		next++
		off += n
		recs = append(recs, r)
	}
	return recs, off, nil
}
