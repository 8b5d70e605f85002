// Package persist implements the versioned binary snapshot container every
// engine snapshot in this library is stored in. A snapshot file is a small
// self-describing archive:
//
//	offset  size  field
//	0       8     magic "GANCSNAP"
//	8       4     format version (uint32, big endian)
//	12      4     section count (uint32, big endian)
//	16      …     section table: per section
//	              2  name length (uint16)
//	              …  name (UTF-8)
//	              8  payload length (uint64)
//	              4  payload CRC-32 (IEEE)
//	…       …     payloads, concatenated in table order
//
// Sections are opaque byte payloads — the facade encodes the dataset, the
// trained base model, the θ preferences, the coverage state and the ingestion
// bookkeeping as separate sections, so a reader can skip or tolerate sections
// it does not know about (forward-compatible additions) while the format
// version gates incompatible layout changes. Every payload is checksummed, so
// a truncated or bit-flipped snapshot fails loudly at load time instead of
// mis-decoding into a plausible-looking model.
//
// Save writes atomically (temp file + rename), so a crash mid-checkpoint
// never leaves a half-written snapshot at the target path. Load reads the
// file once, into one buffer, and every section is a view of it. A section
// whose bulk is numeric arrays stores them as fixed-width columns behind a
// gob envelope (columns.go).
package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Magic identifies a GANC snapshot file. It never changes; the format version
// after it gates layout evolution.
const Magic = "GANCSNAP"

// FormatVersion is the container layout version this build reads and writes.
const FormatVersion = 1

// Limits guarding against nonsense headers in corrupt or hostile files.
const (
	maxSections    = 1 << 10
	maxNameLen     = 1 << 8
	maxSectionSize = 1 << 40
)

// Sentinel errors, matchable with errors.Is. Their text is what an operator
// reads: Load prefixes the path, so a CLI prints the error as it is.
var (
	// ErrBadMagic marks a file that is not a GANC snapshot at all.
	ErrBadMagic = errors.New("persist: file is not a GANC snapshot (bad magic)")
	// ErrUnsupportedVersion marks a snapshot written by an incompatible
	// format version.
	ErrUnsupportedVersion = errors.New("persist: snapshot was written by an incompatible format version")
	// ErrCorrupt marks a snapshot whose structure or checksums do not hold.
	ErrCorrupt = errors.New("persist: snapshot is corrupt (truncated or bit-flipped)")
	// ErrNoSection marks a lookup of a section the snapshot does not contain.
	ErrNoSection = errors.New("persist: snapshot section not found")
)

// Builder accumulates named sections and writes the container. Sections are
// written in Add order, each encoded only when Save streams it into the
// file. The zero value is ready to use.
type Builder struct {
	names    []string
	encoders []func(io.Writer) error
}

// Add appends a raw section. The payload is not copied; callers must not
// mutate it before Save.
func (b *Builder) Add(name string, payload []byte) {
	b.AddFrom(name, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
}

// AddGob appends a section holding the gob encoding of v, taken at Save.
func (b *Builder) AddGob(name string, v interface{}) {
	b.AddFrom(name, func(w io.Writer) error { return gob.NewEncoder(w).Encode(v) })
}

// AddFrom appends a section that encode writes at Save (the model Save
// methods all have the shape func(io.Writer) error). Invalid or duplicate
// names are rejected at Save.
func (b *Builder) AddFrom(name string, encode func(io.Writer) error) {
	b.names = append(b.names, name)
	b.encoders = append(b.encoders, encode)
}

// headerLen is the size of the magic, the format version and the section
// count.
const headerLen = len(Magic) + 4 + 4

// Save writes the container atomically to path (see AtomicWrite). Each
// section is encoded straight into the file through a writer that counts
// its length and checksum, so only one section's encoder works at a time;
// the header and section table, whose size the names alone fix, are written
// back in front of the payloads once every length and checksum is known.
func (b *Builder) Save(path string) error {
	if len(b.names) > maxSections {
		return fmt.Errorf("persist: %d sections exceeds the limit of %d", len(b.names), maxSections)
	}
	seen := make(map[string]struct{}, len(b.names))
	payloadsAt := headerLen
	for _, name := range b.names {
		if name == "" || len(name) > maxNameLen {
			return fmt.Errorf("persist: invalid section name %q", name)
		}
		if _, dup := seen[name]; dup {
			return fmt.Errorf("persist: duplicate section %q", name)
		}
		seen[name] = struct{}{}
		payloadsAt += 2 + len(name) + 8 + 4
	}
	return AtomicWrite(path, func(f *os.File) error {
		if _, err := f.Seek(int64(payloadsAt), io.SeekStart); err != nil {
			return fmt.Errorf("persist: write snapshot: %w", err)
		}
		head := make([]byte, 0, payloadsAt)
		head = append(head, Magic...)
		head = binary.BigEndian.AppendUint32(head, FormatVersion)
		head = binary.BigEndian.AppendUint32(head, uint32(len(b.names)))
		for k, name := range b.names {
			section := sectionWriter{w: f}
			if err := b.encoders[k](&section); err != nil {
				return fmt.Errorf("persist: write section %q: %w", name, err)
			}
			head = binary.BigEndian.AppendUint16(head, uint16(len(name)))
			head = append(head, name...)
			head = binary.BigEndian.AppendUint64(head, section.n)
			head = binary.BigEndian.AppendUint32(head, section.crc)
		}
		if _, err := f.WriteAt(head, 0); err != nil {
			return fmt.Errorf("persist: write snapshot: %w", err)
		}
		return nil
	})
}

// sectionWriter passes a section's bytes to w, counting their length and
// CRC-32 (IEEE) on the way.
type sectionWriter struct {
	w   io.Writer
	n   uint64
	crc uint32
}

func (s *sectionWriter) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	s.n += uint64(n)
	s.crc = crc32.Update(s.crc, crc32.IEEETable, p[:n])
	return n, err
}

// AtomicWrite hands write a temp file in the same directory as path (widened
// from CreateTemp's 0600 to the usual umask-limited 0644), fsyncs it, and
// renames it over path only on success — a crash mid-write never leaves a
// half-written file at path. Shared by the snapshot container and every
// other durable artifact (e.g. the load-benchmark report).
func AtomicWrite(path string, write func(f *os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: create temp file: %w", err)
	}
	tmpPath := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpPath)
	}
	if err := tmp.Chmod(0o644); err != nil {
		cleanup()
		return fmt.Errorf("persist: chmod %s: %w", path, err)
	}
	if err := write(tmp); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("persist: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("persist: close %s: %w", path, err)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("persist: install %s: %w", path, err)
	}
	return nil
}

// Snapshot is a fully read and checksum-verified container. Its sections
// are capacity-clipped views of the one buffer the file was read into.
type Snapshot struct {
	sections map[string][]byte
	order    []string
}

// Load reads the snapshot at path into one buffer, sized by the file's
// Stat, and parses it (see parse): one read of the file, and no copy of a
// section.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: read snapshot %s: %w", path, err)
	}
	snap, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	return snap, nil
}

// parse verifies a container's magic, version, structure and every section
// checksum. The section table is checked against the bytes data holds
// before any payload is touched, so a table claiming more than the file
// holds is ErrCorrupt at once; payloads are sub-slices of data.
func parse(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic) {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the magic", ErrCorrupt, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the header", ErrCorrupt, len(data))
	}
	if version := binary.BigEndian.Uint32(data[len(Magic):]); version != FormatVersion {
		return nil, fmt.Errorf("%w: snapshot has version %d, this build reads version %d",
			ErrUnsupportedVersion, version, FormatVersion)
	}
	count := binary.BigEndian.Uint32(data[len(Magic)+4:])
	if count > maxSections {
		return nil, fmt.Errorf("%w: section count %d exceeds the limit of %d", ErrCorrupt, count, maxSections)
	}
	rest := data[headerLen:]
	take := func(n int, what string) ([]byte, error) {
		if len(rest) < n {
			return nil, fmt.Errorf("%w: section table truncated reading %s", ErrCorrupt, what)
		}
		b := rest[:n:n]
		rest = rest[n:]
		return b, nil
	}

	type entry struct {
		name string
		size uint64
		crc  uint32
	}
	entries := make([]entry, count)
	var total uint64
	for k := range entries {
		b, err := take(2, "a name length")
		if err != nil {
			return nil, err
		}
		nameLen := int(binary.BigEndian.Uint16(b))
		if nameLen == 0 || nameLen > maxNameLen {
			return nil, fmt.Errorf("%w: section name length %d out of range", ErrCorrupt, nameLen)
		}
		if b, err = take(nameLen, "a name"); err != nil {
			return nil, err
		}
		entries[k].name = string(b)
		if b, err = take(8+4, "a section size"); err != nil {
			return nil, err
		}
		entries[k].size, entries[k].crc = binary.BigEndian.Uint64(b), binary.BigEndian.Uint32(b[8:])
		if entries[k].size > maxSectionSize {
			return nil, fmt.Errorf("%w: section %q size %d out of range", ErrCorrupt, entries[k].name, entries[k].size)
		}
		total += entries[k].size // at most maxSections × maxSectionSize: no overflow
	}
	if total > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: the section table claims %d payload bytes, the file holds %d",
			ErrCorrupt, total, len(rest))
	}

	snap := &Snapshot{sections: make(map[string][]byte, count), order: make([]string, 0, count)}
	for _, e := range entries {
		if _, dup := snap.sections[e.name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, e.name)
		}
		payload, _ := take(int(e.size), "") // the total was checked above
		if crc32.ChecksumIEEE(payload) != e.crc {
			return nil, fmt.Errorf("%w: section %q fails its checksum", ErrCorrupt, e.name)
		}
		snap.sections[e.name] = payload
		snap.order = append(snap.order, e.name)
	}
	return snap, nil
}

// Sections lists the section names in file order.
func (s *Snapshot) Sections() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Has reports whether the snapshot contains the named section.
func (s *Snapshot) Has(name string) bool {
	_, ok := s.sections[name]
	return ok
}

// Section returns the named section's payload, or ErrNoSection.
func (s *Snapshot) Section(name string) ([]byte, error) {
	payload, ok := s.sections[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSection, name)
	}
	return payload, nil
}

// Gob decodes the named section's payload into v.
func (s *Snapshot) Gob(name string, v interface{}) error {
	payload, err := s.Section(name)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("%w: section %q: gob decode: %v", ErrCorrupt, name, err)
	}
	return nil
}

// Reader returns an io.Reader over the named section, for reader-style
// decoders (the model Load functions all have the shape func(io.Reader)).
func (s *Snapshot) Reader(name string) (io.Reader, error) {
	payload, err := s.Section(name)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(payload), nil
}
