package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
)

type envelope struct {
	Version int
	Name    string
}

// TestColumnsRoundTrip: columns read back bit for bit behind their
// envelope, across the writer's buffer boundary, with NaN, −0 and the
// extremes intact.
func TestColumnsRoundTrip(t *testing.T) {
	vec := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64, -1.5}
	ids := make([]int32, 3*columnChunk/4+7) // spans several buffer flushes
	for k := range ids {
		ids[k] = int32(k*7919) - 1<<30
	}
	rows := make([][]float64, 1000)
	for k := range rows {
		rows[k] = []float64{float64(k), -float64(k) / 3, 1e300}
	}
	var buf bytes.Buffer
	err := WriteColumns(&buf, &envelope{Version: 3, Name: "m"}, func(c *ColumnWriter) {
		c.Float64s(vec)
		c.Int32s(ids)
		c.Matrix(rows)
		c.Matrix(nil)
		c.Float64s(nil)
	})
	if err != nil {
		t.Fatal(err)
	}

	var env envelope
	r, err := ReadColumns(buf.Bytes(), &env)
	if err != nil {
		t.Fatal(err)
	}
	if env != (envelope{Version: 3, Name: "m"}) {
		t.Fatalf("envelope %+v", env)
	}
	gotVec, gotIDs, gotRows, empty, none := r.Float64s(), r.Int32s(), r.Matrix(), r.Matrix(), r.Float64s()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for k, x := range v {
			out[k] = math.Float64bits(x)
		}
		return out
	}
	if !slices.Equal(bits(gotVec), bits(vec)) || !slices.Equal(gotIDs, ids) {
		t.Fatal("a column changed across the round trip")
	}
	if len(gotRows) != len(rows) || empty != nil || len(none) != 0 {
		t.Fatalf("matrix shapes %d, %v, %v", len(gotRows), empty, none)
	}
	for k := range rows {
		if !slices.Equal(bits(gotRows[k]), bits(rows[k])) || cap(gotRows[k]) != len(rows[k]) {
			t.Fatalf("row %d: %v (cap %d), want %v", k, gotRows[k], cap(gotRows[k]), rows[k])
		}
	}
}

// TestColumnsRefuseBadShapes: a ragged matrix is not written, and a shape
// that claims more than the bytes left, rows of no values, or bytes no
// column reads are ErrCorrupt — without allocating what the shape claims.
func TestColumnsRefuseBadShapes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteColumns(&buf, &envelope{}, func(c *ColumnWriter) { c.Matrix([][]float64{{1, 2}, {3}}) }); err == nil {
		t.Fatal("a ragged matrix was written")
	}

	withColumns := func(words ...uint64) []byte {
		var buf bytes.Buffer
		if err := WriteColumns(&buf, &envelope{Version: 3}, func(*ColumnWriter) {}); err != nil {
			t.Fatal(err)
		}
		for _, w := range words {
			buf.Write(binary.LittleEndian.AppendUint64(nil, w))
		}
		return buf.Bytes()
	}
	for name, tc := range map[string]struct {
		data []byte
		read func(r *ColumnReader)
	}{
		"huge float64 column":  {withColumns(1 << 61), func(r *ColumnReader) { r.Float64s() }},
		"max int32 column":     {withColumns(math.MaxUint64), func(r *ColumnReader) { r.Int32s() }},
		"short float64 column": {withColumns(2, 0), func(r *ColumnReader) { r.Float64s() }},
		"huge matrix":          {withColumns(1<<40, 1<<40), func(r *ColumnReader) { r.Matrix() }},
		"rows of no values":    {withColumns(1<<50, 0), func(r *ColumnReader) { r.Matrix() }},
		"rows past the end":    {withColumns(3, 1, 0, 0), func(r *ColumnReader) { r.Matrix() }},
		"missing shape":        {withColumns(), func(r *ColumnReader) { r.Matrix() }},
		"bytes after the last": {withColumns(1, 0, 9), func(r *ColumnReader) { r.Float64s() }},
		"read after a failure": {withColumns(9), func(r *ColumnReader) { r.Float64s(); r.Int32s() }},
	} {
		r, err := ReadColumns(tc.data, &envelope{})
		if err != nil {
			t.Fatalf("%s: envelope: %v", name, err)
		}
		tc.read(r)
		if err := r.Close(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestTableClaimingMoreThanTheFileIsCorrupt: a CRC-valid table whose sizes
// sum past the file's end fails on the table check, naming both sizes.
func TestTableClaimingMoreThanTheFileIsCorrupt(t *testing.T) {
	var hdr bytes.Buffer
	hdr.WriteString(Magic)
	binary.Write(&hdr, binary.BigEndian, uint32(FormatVersion))
	binary.Write(&hdr, binary.BigEndian, uint32(2))
	for _, size := range []uint64{4, 1 << 39} {
		binary.Write(&hdr, binary.BigEndian, uint16(1))
		hdr.WriteString(string(rune('a' + size%26)))
		binary.Write(&hdr, binary.BigEndian, size)
		binary.Write(&hdr, binary.BigEndian, uint32(0))
	}
	hdr.WriteString("four")
	_, err := parse(hdr.Bytes())
	if !errors.Is(err, ErrCorrupt) || !bytes.Contains([]byte(err.Error()), []byte("claims 549755813892 payload bytes, the file holds 4")) {
		t.Fatalf("err = %v, want the table check's ErrCorrupt", err)
	}
}
