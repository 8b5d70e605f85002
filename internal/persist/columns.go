package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// Column codec. A section whose bulk is numeric arrays — a factor model's
// rows and biases, the dataset's rating columns — is a gob envelope holding
// its small metadata, followed by the arrays as fixed-width little-endian
// columns, each behind its shape:
//
//	float64 column  [8]n, then n × 8 bytes (IEEE 754 bit patterns)
//	int32 column    [8]n, then n × 4 bytes (two's complement)
//	float64 matrix  [8]rows [8]dims, then rows × dims × 8 bytes, row by row
//
// Shapes are uint64 little endian. A reader checks each shape against the
// bytes left once and converts without reflection, so a column costs its
// bytes; gob's per-element varint coding of the same arrays cost several
// times that and one allocation per row. WriteColumns and ReadColumns are
// the only writer and reader of the layout.

// columnChunk is the size of a ColumnWriter's buffer: the columns reach the
// underlying writer in writes of this size.
const columnChunk = 64 << 10

// ColumnWriter writes columns through one buffer. The first write error
// sticks; later calls do nothing.
type ColumnWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// WriteColumns writes envelope's gob encoding to w, then the columns write
// puts through the ColumnWriter it is handed, and returns the first error.
func WriteColumns(w io.Writer, envelope any, write func(c *ColumnWriter)) error {
	if err := gob.NewEncoder(w).Encode(envelope); err != nil {
		return err
	}
	c := ColumnWriter{w: w, buf: make([]byte, 0, columnChunk)}
	write(&c)
	c.flush()
	return c.err
}

// flush hands the buffered bytes to the underlying writer.
func (c *ColumnWriter) flush() {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// shape writes a column's shape words.
func (c *ColumnWriter) shape(words ...int) {
	if cap(c.buf)-len(c.buf) < 8*len(words) {
		c.flush()
	}
	for _, n := range words {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(n))
	}
}

// values appends v's bit patterns, flushing whenever the buffer fills.
func (c *ColumnWriter) values(v []float64) {
	for len(v) > 0 {
		n := min(len(v), (cap(c.buf)-len(c.buf))/8)
		if n == 0 {
			c.flush()
			continue
		}
		for _, x := range v[:n] {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(x))
		}
		v = v[n:]
	}
}

// Float64s writes v as a float64 column.
func (c *ColumnWriter) Float64s(v []float64) {
	c.shape(len(v))
	c.values(v)
}

// Int32s writes v as an int32 column.
func (c *ColumnWriter) Int32s(v []int32) {
	c.shape(len(v))
	for len(v) > 0 {
		n := min(len(v), (cap(c.buf)-len(c.buf))/4)
		if n == 0 {
			c.flush()
			continue
		}
		for _, x := range v[:n] {
			c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(x))
		}
		v = v[n:]
	}
}

// Matrix writes rows as a float64 matrix. Every row must have the first
// row's length; a ragged matrix fails the write.
func (c *ColumnWriter) Matrix(rows [][]float64) {
	dims := 0
	if len(rows) > 0 {
		dims = len(rows[0])
	}
	for k, row := range rows {
		if len(row) != dims && c.err == nil {
			c.err = fmt.Errorf("persist: matrix row %d has %d values, row 0 has %d", k, len(row), dims)
		}
	}
	c.shape(len(rows), dims)
	for _, row := range rows {
		c.values(row)
	}
}

// ColumnReader reads the columns WriteColumns wrote. The first failure
// sticks: later reads return nil, and Close reports it.
type ColumnReader struct {
	data []byte
	err  error
}

// ReadColumns decodes the gob envelope at the head of data into envelope
// and returns a reader over the bytes after it. A section written before
// its columns existed is an envelope alone, and its reader is empty.
func ReadColumns(data []byte, envelope any) (*ColumnReader, error) {
	r := bytes.NewReader(data)
	// A bytes.Reader is an io.ByteReader, so the decoder reads exactly the
	// envelope's messages and no byte past them.
	if err := gob.NewDecoder(r).Decode(envelope); err != nil {
		return nil, err
	}
	return &ColumnReader{data: data[len(data)-r.Len():]}, nil
}

// fail records the first failure.
func (c *ColumnReader) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// take returns the next n × width bytes, or nil after recording a failure
// when fewer are left. n is checked before it is multiplied, so a hostile
// shape cannot overflow the check.
func (c *ColumnReader) take(n uint64, width int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.data)/width) {
		c.fail("%s claims %d values of %d bytes, %d bytes are left", what, n, width, len(c.data))
		return nil
	}
	b := c.data[:int(n)*width]
	c.data = c.data[len(b):]
	return b
}

// word reads one shape word.
func (c *ColumnReader) word(what string) uint64 {
	b := c.take(1, 8, what+" shape")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// decode fills out from b's bit patterns.
func decode(out []float64, b []byte) {
	for k := range out {
		out[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*k:]))
	}
}

// Float64s reads a float64 column.
func (c *ColumnReader) Float64s() []float64 {
	b := c.take(c.word("float64 column"), 8, "float64 column")
	if b == nil {
		return nil
	}
	out := make([]float64, len(b)/8)
	decode(out, b)
	return out
}

// Int32s reads an int32 column.
func (c *ColumnReader) Int32s() []int32 {
	b := c.take(c.word("int32 column"), 4, "int32 column")
	if b == nil {
		return nil
	}
	out := make([]int32, len(b)/4)
	for k := range out {
		out[k] = int32(binary.LittleEndian.Uint32(b[4*k:]))
	}
	return out
}

// Matrix reads a float64 matrix: rows capacity-clipped views of one backing
// array.
func (c *ColumnReader) Matrix() [][]float64 {
	rows, dims := c.word("matrix"), c.word("matrix")
	if c.err != nil {
		return nil
	}
	if dims == 0 {
		if rows > 0 {
			c.fail("matrix claims %d rows of no values", rows)
		}
		return nil
	}
	if dims > uint64(len(c.data)/8) {
		c.fail("matrix rows claim %d values, %d bytes are left", dims, len(c.data))
		return nil
	}
	b := c.take(rows, 8*int(dims), "matrix")
	if b == nil {
		return nil
	}
	d := int(dims)
	backing := make([]float64, len(b)/8)
	decode(backing, b)
	out := make([][]float64, int(rows))
	for k := range out {
		out[k] = backing[k*d : (k+1)*d : (k+1)*d]
	}
	return out
}

// Close reports the first failure, or ErrCorrupt when bytes are left that
// no column read.
func (c *ColumnReader) Close() error {
	if c.err == nil && len(c.data) > 0 {
		c.fail("%d bytes after the last column", len(c.data))
	}
	return c.err
}
