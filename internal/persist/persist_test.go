package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// saved returns the bytes b.Save writes.
func saved(t testing.TB, b *Builder) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.ganc")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func buildSample(t *testing.T) []byte {
	t.Helper()
	var b Builder
	b.Add("alpha", []byte("hello snapshot"))
	b.AddGob("beta", map[string]int{"x": 1, "y": 2})
	b.Add("gamma", nil) // empty payloads are legal
	return saved(t, &b)
}

// TestSaveStreamsTheSameBytes: Save streams each section into the file and
// writes the section table back in front of the payloads afterwards. The
// file must be byte for byte the container laid out in memory: header, then
// table, then payloads, each payload produced by the same encoder.
func TestSaveStreamsTheSameBytes(t *testing.T) {
	chunked := func(w io.Writer) error {
		for k := 0; k < 50; k++ {
			if _, err := w.Write(bytes.Repeat([]byte{byte(k)}, 100+k)); err != nil {
				return err
			}
		}
		return nil
	}
	prefs := struct{ Values []float64 }{Values: []float64{0.1, 0.9, 0.5}}
	var b Builder
	b.Add("meta", []byte(`{"name":"GANC(Pop)","topn":10}`))
	b.AddGob("prefs", &prefs)
	b.AddFrom("base", chunked)
	b.Add("empty", nil)

	names := []string{"meta", "prefs", "base", "empty"}
	var gobbed bytes.Buffer
	if err := gob.NewEncoder(&gobbed).Encode(&prefs); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	if err := chunked(&streamed); err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte(`{"name":"GANC(Pop)","topn":10}`), gobbed.Bytes(), streamed.Bytes(), nil}
	var want bytes.Buffer
	want.WriteString(Magic)
	binary.Write(&want, binary.BigEndian, uint32(FormatVersion))
	binary.Write(&want, binary.BigEndian, uint32(len(names)))
	for k, name := range names {
		binary.Write(&want, binary.BigEndian, uint16(len(name)))
		want.WriteString(name)
		binary.Write(&want, binary.BigEndian, uint64(len(payloads[k])))
		binary.Write(&want, binary.BigEndian, crc32.ChecksumIEEE(payloads[k]))
	}
	for _, payload := range payloads {
		want.Write(payload)
	}

	if got := saved(t, &b); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("Save wrote %d bytes that differ from the %d-byte container laid out in memory", len(got), want.Len())
	}
}

// TestSaveFailureLeavesNoFile: an encoder's error fails Save with the
// section's name, and neither the target nor a temp file is left behind.
func TestSaveFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	var b Builder
	b.Add("first", []byte("fine"))
	b.AddFrom("second", func(w io.Writer) error {
		w.Write([]byte("half"))
		return boom
	})
	err := b.Save(filepath.Join(dir, "snap.ganc"))
	if !errors.Is(err, boom) || !bytes.Contains([]byte(err.Error()), []byte(`"second"`)) {
		t.Fatalf("err = %v, want the encoder's error naming its section", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("a failed Save left %d entries in %s", len(entries), dir)
	}
}

func TestRoundTrip(t *testing.T) {
	raw := buildSample(t)
	snap, err := parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	got := snap.Sections()
	want := []string{"alpha", "beta", "gamma"}
	if len(got) != len(want) {
		t.Fatalf("sections %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("sections %v, want %v", got, want)
		}
	}
	payload, err := snap.Section("alpha")
	if err != nil || string(payload) != "hello snapshot" {
		t.Fatalf("alpha payload %q err %v", payload, err)
	}
	var m map[string]int
	if err := snap.Gob("beta", &m); err != nil {
		t.Fatal(err)
	}
	if m["x"] != 1 || m["y"] != 2 {
		t.Fatalf("beta decoded to %v", m)
	}
	if _, err := snap.Section("missing"); !errors.Is(err, ErrNoSection) {
		t.Fatalf("missing section error = %v, want ErrNoSection", err)
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ganc")
	var b Builder
	b.Add("only", []byte("payload"))
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected exactly the snapshot in %s, found %d entries", dir, len(entries))
	}
	snap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Has("only") {
		t.Fatal("section lost across save/load")
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := parse([]byte("NOTASNAPxxxxxxxxxxx")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestUnsupportedVersion(t *testing.T) {
	raw := buildSample(t)
	raw[11] = 99 // big-endian format version's low byte
	if _, err := parse(raw); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("err = %v, want ErrUnsupportedVersion", err)
	}
}

func TestTruncated(t *testing.T) {
	raw := buildSample(t)
	for _, cut := range []int{4, 13, len(raw) / 2, len(raw) - 1} {
		if _, err := parse(raw[:cut]); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("cut at %d: err = %v, want corruption", cut, err)
		}
	}
}

func TestBitFlippedPayload(t *testing.T) {
	raw := buildSample(t)
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-10] ^= 0x40 // somewhere inside a payload
	if _, err := parse(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestDuplicateSectionRejected(t *testing.T) {
	var b Builder
	b.Add("dup", []byte("a"))
	b.Add("dup", []byte("b"))
	if err := b.Save(filepath.Join(t.TempDir(), "snap.ganc")); err == nil {
		t.Fatal("duplicate section names must be rejected")
	}
}
