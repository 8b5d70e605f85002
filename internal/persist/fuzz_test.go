package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// fuzzSeedContainer builds a realistic two-section snapshot for the corpus —
// the shape every real snapshot (dataset + base + prefs + coverage) has.
func fuzzSeedContainer(t testing.TB) []byte {
	var b Builder
	b.Add("meta", []byte(`{"name":"GANC(Pop)","topn":10}`))
	b.AddGob("prefs", struct{ Values []float64 }{Values: []float64{0.1, 0.9, 0.5}})
	b.Add("coverage", bytes.Repeat([]byte{0xAB, 0xCD}, 512))
	return saved(t, &b)
}

// FuzzSnapshotRead throws arbitrary bytes at the container parser. The
// contract under corruption: never panic, never allocate unboundedly (the
// parser caps counts and names, checks the section table against the bytes
// present and allocates no payload), and always fail with
// one of the three typed sentinels so callers can produce precise operator
// messages. Structurally valid inputs must yield enumerable sections.
func FuzzSnapshotRead(f *testing.F) {
	valid := fuzzSeedContainer(f)
	f.Add(valid)
	// Truncations at every structural boundary: magic, version, count, table,
	// payload.
	for _, cut := range []int{0, 4, 8, 10, 12, 14, 20, len(valid) / 2, len(valid) - 1} {
		if cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	// Bit flips in the header, table and payload regions.
	for _, pos := range []int{0, 9, 13, 17, 30, len(valid) - 3} {
		if pos >= 0 && pos < len(valid) {
			mut := append([]byte(nil), valid...)
			mut[pos] ^= 0x40
			f.Add(mut)
		}
	}
	// A header claiming an absurd section size: must fail on the table
	// check, before any payload is touched.
	huge := append([]byte(nil), valid[:16]...)
	var hdr bytes.Buffer
	hdr.WriteString(Magic)
	binary.Write(&hdr, binary.BigEndian, uint32(FormatVersion))
	binary.Write(&hdr, binary.BigEndian, uint32(1))
	binary.Write(&hdr, binary.BigEndian, uint16(4))
	hdr.WriteString("boom")
	binary.Write(&hdr, binary.BigEndian, uint64(1<<39))
	binary.Write(&hdr, binary.BigEndian, uint32(0))
	f.Add(hdr.Bytes())
	f.Add([]byte("GANCSNAP"))
	f.Add([]byte("not a snapshot at all"))
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := parse(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrUnsupportedVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped parse error %v (input %d bytes)", err, len(data))
			}
			return
		}
		// A successfully parsed container must be internally consistent:
		// every listed section resolvable, unknown sections refused with the
		// typed sentinel.
		for _, name := range snap.Sections() {
			if !snap.Has(name) {
				t.Fatalf("section %q listed but not present", name)
			}
			if _, err := snap.Section(name); err != nil {
				t.Fatalf("section %q listed but unreadable: %v", name, err)
			}
		}
		if _, err := snap.Section("no-such-section-name"); !errors.Is(err, ErrNoSection) {
			t.Fatalf("missing-section error is untyped: %v", err)
		}
	})
}

// FuzzSnapshotGob narrows in on the second parse layer: gob payloads inside a
// valid container must decode or fail with ErrCorrupt — a bit-flipped model
// section must never panic or mis-decode silently into success.
func FuzzSnapshotGob(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 0xFF, 0x82, 0x00})
	b := &Builder{}
	b.AddGob("v", []float64{1, 2, 3})
	ok := saved(f, b)
	f.Add(ok[len(ok)/2:])

	f.Fuzz(func(t *testing.T, payload []byte) {
		var b Builder
		b.Add("v", payload)
		snap, err := parse(saved(t, &b))
		if err != nil {
			t.Fatalf("self-built container unreadable: %v", err)
		}
		var out []float64
		if err := snap.Gob("v", &out); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped gob error %v", err)
		}
	})
}
