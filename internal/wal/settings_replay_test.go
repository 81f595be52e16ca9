package wal

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"pip/internal/core"
	"pip/internal/sampler"
	"pip/internal/sql"
)

// TestSetSpellingsReplay pins what a data directory written before the
// settings table (internal/sampler/settings.go) recovers to. SET is logged
// as text and re-parsed on replay, so the table must read every spelling
// the old per-name parser took — float spellings of integers, and the
// literal seed 0 — exactly as it did. The configuration and the answer's
// bits were recorded on the commit before the table existed.
func TestSetSpellingsReplay(t *testing.T) {
	dir := t.TempDir()
	frames := []byte(segMagic)
	for i, text := range []string{
		"CREATE TABLE orders (cust, price)",
		"INSERT INTO orders VALUES ('Joe', CREATE_VARIABLE('Normal', 100, 10))",
		"INSERT INTO orders VALUES ('Ann', CREATE_VARIABLE('Normal', 80, 5)), ('Bob', 42.5)",
		"SET workers = 2.0",
		"SET samples = 1e3",
		"SET seed = 0",
		"SET max_samples = 20000",
	} {
		var err error
		frames, err = AppendRecord(frames, Record{Seq: uint64(i + 1), M: core.Mutation{Session: core.RootSessionID, Text: text}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), frames, 0o644); err != nil {
		t.Fatal(err)
	}
	db := newDB(59)
	if _, err := Restore(dir, db); err != nil {
		t.Fatalf("restore: %v", err)
	}

	want := sampler.DefaultConfig()
	want.Workers, want.FixedSamples, want.WorldSeed, want.MaxSamples = 2, 1000, 0, 20000
	got := db.Config()
	got.Stats = nil // per-database collection point
	if got != want {
		t.Fatalf("recovered configuration %+v, want %+v", got, want)
	}
	out, err := sql.Exec(db, "SELECT expected_sum(price * price) AS r FROM orders WHERE price > 95")
	if err != nil {
		t.Fatal(err)
	}
	f, _ := out.Tuples[0].Values[0].AsFloat()
	if bits := math.Float64bits(f); bits != 0x40bdd1640e56f525 {
		t.Fatalf("sampled answer %v (%#x), want 7633.3908438061235 (0x40bdd1640e56f525)", f, bits)
	}
}
