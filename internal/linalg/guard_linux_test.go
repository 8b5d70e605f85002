//go:build linux

package linalg

// The kernels' row ends are masked loads and stores, which must touch nothing
// past a row. Each row here ends where a page the process may not read
// begins, so a load of one element past it faults and stops the test binary.

import (
	"syscall"
	"testing"
	"unsafe"

	"ganc/internal/types"
)

// guarded returns n zeroed elements that end where an unreadable page
// begins; the mapping is released when the test ends.
func guarded[T float32 | float64 | types.ItemID](t *testing.T, n int) []T {
	t.Helper()
	var zero T
	page, size := syscall.Getpagesize(), int(unsafe.Sizeof(zero))
	span := max(1, (n*size+page-1)/page) * page
	mem, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("no mapping for a guard page: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[span:], syscall.PROT_NONE); err != nil {
		t.Skipf("no guard page: %v", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[span-n*size])), n)
}

// headLen is how many values a chunked layout of f factors an item holds for
// n items when the last chunk is not padded: up to the last item's last
// factor.
func headLen(n, f int) int {
	if n == 0 || f == 0 {
		return 0
	}
	lo := (n - 1) / headChunk * headChunk
	return lo*f + (f-1)*headChunk + n - lo
}

// TestKernelsReadNothingPastTheirRows runs every kernel over rows that end at
// an unreadable page, for every length 0–69: the row kernel's vector and
// block, the epilogues' scores and biases, the bound pass's unpadded head and
// rest layouts and tail norms, with and without its lower row, both scans'
// rows and outputs, and the SGD update's two rows.
func TestKernelsReadNothingPastTheirRows(t *testing.T) {
	pb := []float32{0.5, -1, 2, 0.25, 1}
	for n := 0; n < 70; n++ {
		a, b := guarded[float32](t, n), guarded[float32](t, n)
		Dot32x8(a, b)
		dotRows32x8(a, guarded[float32](t, 3*n), []types.ItemID{0, 2, 1}, make([]float32, 3), 3)
		out, bias := guarded[float32](t, n), guarded[float64](t, n)
		AddBase32(out, 0.5)
		AddBaseBias32(out, 0.5, bias)
		upper, lower, kept := guarded[float32](t, n), guarded[float32](t, n), guarded[types.ItemID](t, n)
		OutsideBand(upper, lower, 1, -1, 0, kept)
		GainScan(upper, lower, -1, 0.5, 0.3, 0.25, 0, kept, n%2 == 0)
		SGDUpdate(guarded[float64](t, n), guarded[float64](t, n), 0.5, 0.03, 0.05, n%2 == 0)
		for w := 0; w <= len(pb); w += 2 {
			head, rest := guarded[float32](t, headLen(n, w)), guarded[float32](t, headLen(n, len(pb)-w))
			rho := guarded[float32](t, n)
			headBounds32(upper, lower, head, rest, pb, rho, w, 1.5, 0.25)
			headBounds32(upper, nil, head, rest, pb, rho, w, 1.5, 0.25)
		}
	}
}
