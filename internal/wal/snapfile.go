// Snapshot files: one whole-catalog state encoded by core's versioned
// snapshot codec, wrapped in a small durable envelope —
//
//	8-byte magic | u64 covered seq | u32 CRC-32C of body | body
//
// — and written to a temp file, fsynced, and renamed into place so a crash
// mid-write can never leave a half-snapshot under a valid name.
package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"pip/internal/core"
)

// snapHeaderLen is the envelope size before the encoded catalog body.
const snapHeaderLen = len(snapMagic) + 8 + 4

// writeSnapshotFile encodes db's catalog and durably writes it as the
// snapshot covering records 1..seq, returning the final path. The caller
// holds the statement-commit lock so the encoded state sits exactly on a
// record boundary.
func writeSnapshotFile(dir string, seq uint64, db *core.DB) (string, error) {
	var body bytes.Buffer
	if err := db.EncodeCatalog(&body); err != nil {
		return "", fmt.Errorf("wal: encode snapshot: %w", err)
	}
	buf := make([]byte, 0, snapHeaderLen+body.Len())
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body.Bytes(), castagnoli))
	buf = append(buf, body.Bytes()...)

	final := filepath.Join(dir, snapName(seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return final, nil
}

// readSnapshotFile validates the snapshot at path against the sequence
// number its file name claims and decodes it into db. All failures wrap
// ErrSnapshotCorrupt; every check runs before the decode, and the catalog
// decode itself is staged, so on failure db is left untouched and the
// caller can safely fall back to an older snapshot.
func readSnapshotFile(path string, wantSeq uint64, db *core.DB) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
	}
	seq, err := DecodeSnapshotImage(raw, db)
	if err != nil {
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	if seq != wantSeq {
		return fmt.Errorf("%w: %s: header covers record %d, name says %d", ErrSnapshotCorrupt, filepath.Base(path), seq, wantSeq)
	}
	return nil
}

// DecodeSnapshotImage validates one complete snapshot image — the exact
// bytes of a snapshot file, however delivered (read from disk, or streamed
// over the replication wire) — and decodes it into db, returning the
// sequence number the snapshot covers through. All failures wrap
// ErrSnapshotCorrupt; the envelope checks run before the decode and the
// catalog decode is staged, so on failure db is left untouched.
func DecodeSnapshotImage(raw []byte, db *core.DB) (uint64, error) {
	if len(raw) < snapHeaderLen || string(raw[:len(snapMagic)]) != snapMagic {
		return 0, fmt.Errorf("%w: bad header", ErrSnapshotCorrupt)
	}
	seq := binary.LittleEndian.Uint64(raw[len(snapMagic):])
	wantCRC := binary.LittleEndian.Uint32(raw[len(snapMagic)+8:])
	body := raw[snapHeaderLen:]
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return 0, fmt.Errorf("%w: CRC mismatch", ErrSnapshotCorrupt)
	}
	if err := db.DecodeCatalog(bytes.NewReader(body)); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
	}
	return seq, nil
}
