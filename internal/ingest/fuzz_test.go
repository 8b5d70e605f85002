package ingest

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// fuzzSeedWAL builds a healthy three-record log in its exact wire form.
func fuzzSeedWAL() []byte {
	return []byte(`{"user":"u0000001","item":"i0000002","value":4}
{"user":"u0000002","item":"i0000007","value":5}
{"user":"sim-user-0000001","item":"i0000001","value":1}
`)
}

// FuzzLogOpenAndReplay throws arbitrary bytes at the write-ahead log's
// recovery path. The contract: OpenLog never panics; it either repairs the
// file (torn trailing records are truncated away) or fails with the typed
// ErrCorruptLog; after a successful open, the file is clean — an append must
// succeed and a reopen must count exactly one more record. ReadRange over the
// reopened log, for a fuzzed (after, end), must never fail with anything but
// ErrCorruptLog (arbitrary valid-JSON lines may still not decode as events —
// typed, not a panic) and must return exactly the slice (after, end] of a
// full decode; a range past the end is ErrPastEnd.
func FuzzLogOpenAndReplay(f *testing.F) {
	valid := fuzzSeedWAL()
	f.Add(valid, uint64(0), uint64(4))
	f.Add([]byte{}, uint64(0), uint64(1))
	// Torn trailing record (no newline): legitimately repaired.
	f.Add(append(append([]byte(nil), valid...), []byte(`{"user":"u3","it`)...), uint64(1), uint64(3))
	// Corruption mid-file: invalid record with data after it.
	f.Add([]byte("{\"user\":\"a\",\"item\":\"b\",\"value\":1}\ngarbage-not-json\n{\"user\":\"c\",\"item\":\"d\",\"value\":2}\n"), uint64(0), uint64(2))
	// Valid JSON that is not an event object.
	f.Add([]byte("5\n[1,2,3]\n\"quoted\"\n"), uint64(2), uint64(4))
	// Blank lines interleaved.
	f.Add([]byte("\n\n{\"user\":\"a\",\"item\":\"b\",\"value\":1}\n\n"), uint64(1), uint64(2))
	// Binary junk.
	f.Add([]byte{0x00, 0xFF, 0x47, 0x41, 0x4E, 0x43, 0x0A, 0x80}, uint64(0), uint64(0))
	// A range past the end.
	f.Add(valid, uint64(2), uint64(9))

	f.Fuzz(func(t *testing.T, data []byte, after, end uint64) {
		path := filepath.Join(t.TempDir(), "events.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(path)
		if err != nil {
			if !errors.Is(err, ErrCorruptLog) {
				t.Fatalf("untyped open error %v (input %d bytes)", err, len(data))
			}
			return
		}
		seq0 := l.Seq()
		if _, err := l.Append([]Event{{User: "fuzz-user", Item: "fuzz-item", Value: 3}}); err != nil {
			t.Fatalf("append to a repaired log failed: %v", err)
		}
		if got := l.Seq(); got != seq0+1 {
			t.Fatalf("sequence after append %d, want %d", got, seq0+1)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// Reopen: the repaired-and-appended file must be fully clean.
		l2, err := OpenLog(path)
		if err != nil {
			t.Fatalf("reopen after repair failed: %v", err)
		}
		defer l2.Close()
		if got := l2.Seq(); got != seq0+1 {
			t.Fatalf("reopened sequence %d, want %d", got, seq0+1)
		}

		// A full read sees every record; decode failures on arbitrary-JSON
		// lines must surface as ErrCorruptLog, never panic.
		all, err := l2.ReadRange(0, l2.Seq())
		if err != nil {
			if !errors.Is(err, ErrCorruptLog) {
				t.Fatalf("untyped read error %v", err)
			}
			return
		}
		if uint64(len(all)) != seq0+1 {
			t.Fatalf("read %d records, reopen counted %d", len(all), seq0+1)
		}
		got, err := l2.ReadRange(after, end)
		switch {
		case end > l2.Seq():
			if !errors.Is(err, ErrPastEnd) {
				t.Fatalf("ReadRange(%d, %d) of a %d-record log: want ErrPastEnd, got %v", after, end, l2.Seq(), err)
			}
		case err != nil:
			t.Fatalf("ReadRange(%d, %d): %v", after, end, err)
		case after >= end:
			if len(got) != 0 {
				t.Fatalf("ReadRange(%d, %d) returned %d records", after, end, len(got))
			}
		case !slices.Equal(got, all[after:end]):
			t.Fatalf("ReadRange(%d, %d) = %v, the full decode holds %v", after, end, got, all[after:end])
		}
	})
}

// FuzzReplayCursor checks the range arithmetic on healthy logs: for any
// (after, end) within a log of n records — long enough to span several
// offset-index entries, and appended in batches that cross them — ReadRange
// must deliver exactly the records (after, end], in order: the same slice a
// full read holds. A range past the end is ErrPastEnd.
func FuzzReplayCursor(f *testing.F) {
	f.Add(uint64(0), uint64(5), 5, 1)
	f.Add(uint64(3), uint64(3), 3, 2)
	f.Add(uint64(10), uint64(12), 2, 1)
	f.Add(uint64(1023), uint64(2049), 2500, 700)
	f.Add(uint64(2048), uint64(2500), 2500, 1024)
	f.Fuzz(func(t *testing.T, after, end uint64, n, batch int) {
		if n < 0 || n > 3000 || batch < 1 || n/batch > 64 {
			t.Skip()
		}
		l, err := OpenLog(filepath.Join(t.TempDir(), "events.wal"))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		events := make([]Event, n)
		for k := range events {
			events[k] = Event{User: "u", Item: "i", Value: float64(k)}
		}
		for lo := 0; lo < n; lo += batch {
			if _, err := l.Append(events[lo:min(n, lo+batch)]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := l.ReadRange(after, end)
		if end > uint64(n) {
			if !errors.Is(err, ErrPastEnd) {
				t.Fatalf("ReadRange(%d, %d) of %d records: want ErrPastEnd, got %v", after, end, n, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		all, err := l.ReadRange(0, l.Seq())
		if err != nil || len(all) != n {
			t.Fatalf("a full read returned %d of %d records (%v)", len(all), n, err)
		}
		var want []Event
		if after < end {
			want = all[after:end]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("read %d records of (%d, %d], want %d: the slice of a full read", len(got), after, end, len(want))
		}
		for k, ev := range got {
			if seq := after + uint64(k) + 1; ev.Value != float64(seq-1) {
				t.Fatalf("record %d carries value %v", seq, ev.Value)
			}
		}
	})
}
