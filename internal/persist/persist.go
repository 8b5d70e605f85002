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
// never leaves a half-written snapshot at the target path.
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
// written in Add order. The zero value is ready to use.
type Builder struct {
	names    []string
	payloads [][]byte
}

// Add appends a raw section. Adding a duplicate name is rejected at WriteTo
// time. The payload is not copied; callers must not mutate it afterwards.
func (b *Builder) Add(name string, payload []byte) {
	b.names = append(b.names, name)
	b.payloads = append(b.payloads, payload)
}

// AddGob appends a section holding the gob encoding of v.
func (b *Builder) AddGob(name string, v interface{}) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("persist: encode section %q: %w", name, err)
	}
	b.Add(name, buf.Bytes())
	return nil
}

// AddFrom appends a section produced by a writer-style encoder (the model
// Save methods all have the shape func(io.Writer) error).
func (b *Builder) AddFrom(name string, encode func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		return fmt.Errorf("persist: encode section %q: %w", name, err)
	}
	b.Add(name, buf.Bytes())
	return nil
}

// WriteTo writes the complete container to w.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	if len(b.names) > maxSections {
		return 0, fmt.Errorf("persist: %d sections exceeds the limit of %d", len(b.names), maxSections)
	}
	seen := make(map[string]struct{}, len(b.names))
	var table bytes.Buffer
	for k, name := range b.names {
		if name == "" || len(name) > maxNameLen {
			return 0, fmt.Errorf("persist: invalid section name %q", name)
		}
		if _, dup := seen[name]; dup {
			return 0, fmt.Errorf("persist: duplicate section %q", name)
		}
		seen[name] = struct{}{}
		if err := binary.Write(&table, binary.BigEndian, uint16(len(name))); err != nil {
			return 0, err
		}
		table.WriteString(name)
		if err := binary.Write(&table, binary.BigEndian, uint64(len(b.payloads[k]))); err != nil {
			return 0, err
		}
		if err := binary.Write(&table, binary.BigEndian, crc32.ChecksumIEEE(b.payloads[k])); err != nil {
			return 0, err
		}
	}

	var header bytes.Buffer
	header.WriteString(Magic)
	if err := binary.Write(&header, binary.BigEndian, uint32(FormatVersion)); err != nil {
		return 0, err
	}
	if err := binary.Write(&header, binary.BigEndian, uint32(len(b.names))); err != nil {
		return 0, err
	}

	total := int64(0)
	for _, chunk := range [][]byte{header.Bytes(), table.Bytes()} {
		n, err := w.Write(chunk)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	for _, payload := range b.payloads {
		n, err := w.Write(payload)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Save writes the container atomically to path: the bytes land in a temp file
// in the same directory, are fsynced, and are renamed over the target only on
// success.
func (b *Builder) Save(path string) error {
	return AtomicWrite(path, func(w io.Writer) error {
		if _, err := b.WriteTo(w); err != nil {
			return fmt.Errorf("persist: write snapshot: %w", err)
		}
		return nil
	})
}

// AtomicWrite streams write's output into a file at path atomically: the
// bytes land in a temp file in the same directory (widened from CreateTemp's
// 0600 to the usual umask-limited 0644), are fsynced, and are renamed over
// the target only on success — a crash mid-write never leaves a half-written
// file at path. Shared by the snapshot container and every other durable
// artifact (e.g. the load-benchmark report).
func AtomicWrite(path string, write func(w io.Writer) error) error {
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

// Snapshot is a fully read and checksum-verified container.
type Snapshot struct {
	sections map[string][]byte
	order    []string
}

// Read parses a container from r, verifying magic, version, structure and
// every section checksum.
func Read(r io.Reader) (*Snapshot, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err)
	}
	if string(magic[:]) != Magic {
		return nil, ErrBadMagic
	}
	var version, count uint32
	if err := binary.Read(r, binary.BigEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: reading format version: %v", ErrCorrupt, err)
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: snapshot has version %d, this build reads version %d",
			ErrUnsupportedVersion, version, FormatVersion)
	}
	if err := binary.Read(r, binary.BigEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: reading section count: %v", ErrCorrupt, err)
	}
	if count > maxSections {
		return nil, fmt.Errorf("%w: section count %d exceeds the limit of %d", ErrCorrupt, count, maxSections)
	}

	type entry struct {
		name string
		size uint64
		crc  uint32
	}
	entries := make([]entry, count)
	for k := range entries {
		var nameLen uint16
		if err := binary.Read(r, binary.BigEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("%w: reading section table: %v", ErrCorrupt, err)
		}
		if nameLen == 0 || int(nameLen) > maxNameLen {
			return nil, fmt.Errorf("%w: section name length %d out of range", ErrCorrupt, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("%w: reading section name: %v", ErrCorrupt, err)
		}
		entries[k].name = string(name)
		if err := binary.Read(r, binary.BigEndian, &entries[k].size); err != nil {
			return nil, fmt.Errorf("%w: reading section size: %v", ErrCorrupt, err)
		}
		if entries[k].size > maxSectionSize {
			return nil, fmt.Errorf("%w: section %q size %d out of range", ErrCorrupt, entries[k].name, entries[k].size)
		}
		if err := binary.Read(r, binary.BigEndian, &entries[k].crc); err != nil {
			return nil, fmt.Errorf("%w: reading section checksum: %v", ErrCorrupt, err)
		}
	}

	snap := &Snapshot{sections: make(map[string][]byte, count)}
	for _, e := range entries {
		if _, dup := snap.sections[e.name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, e.name)
		}
		// Copy incrementally rather than trusting the declared size with one
		// up-front allocation: a corrupt or hostile header claiming a huge
		// section then fails at EOF after the real bytes, with memory growth
		// bounded by the data actually present.
		var buf bytes.Buffer
		if n, err := io.CopyN(&buf, r, int64(e.size)); err != nil {
			return nil, fmt.Errorf("%w: section %q truncated at byte %d of %d: %v", ErrCorrupt, e.name, n, e.size, err)
		}
		payload := buf.Bytes()
		if crc32.ChecksumIEEE(payload) != e.crc {
			return nil, fmt.Errorf("%w: section %q fails its checksum", ErrCorrupt, e.name)
		}
		snap.sections[e.name] = payload
		snap.order = append(snap.order, e.name)
	}
	return snap, nil
}

// Load reads and verifies the snapshot at path.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: open snapshot %s: %w", path, err)
	}
	defer f.Close()
	snap, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
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
