package dataset

import "slices"

// The per-user and per-item indexes are paged: fixed pages of pageSize
// entries behind a page table. A page is written only by the Build or Extend
// that allocated or cloned it, and never once that Dataset is returned, so an
// Extend shares every page its batch does not write and copies only the page
// table and the pages it does — path copying on a paged array (Driscoll,
// Sarnak, Sleator & Tarjan, "Making Data Structures Persistent", 1989).
const (
	pageBits = 6
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

type page[T any] [pageSize]T

// paged is an array of n entries. Entries at or past n in its last page are
// zero.
type paged[T any] struct {
	n     int
	pages []*page[T]
}

// newPaged returns n zero entries in pages of one allocation.
func newPaged[T any](n int) paged[T] {
	block := make([]page[T], (n+pageMask)>>pageBits)
	p := paged[T]{n: n, pages: make([]*page[T], len(block))}
	for k := range block {
		p.pages[k] = &block[k]
	}
	return p
}

func (p paged[T]) at(i int) T { return p.pages[i>>pageBits][i&pageMask] }

// slot returns entry i for writing. Only the Build or Extend that owns the
// page may call it.
func (p paged[T]) slot(i int) *T { return &p.pages[i>>pageBits][i&pageMask] }

// successor returns p grown to n entries: a page table of its own that shares
// every page of p, with zero pages for the growth.
func (p paged[T]) successor(n int) paged[T] {
	pages := make([]*page[T], (n+pageMask)>>pageBits)
	copy(pages, p.pages)
	for k := len(p.pages); k < len(pages); k++ {
		pages[k] = new(page[T])
	}
	return paged[T]{n: n, pages: pages}
}

// cow returns entry i of q, a successor of from, for writing: the first
// write to a page q still shares with from clones it.
func (q paged[T]) cow(from paged[T], i int) *T {
	if k := i >> pageBits; k < len(from.pages) && q.pages[k] == from.pages[k] {
		clone := *from.pages[k]
		q.pages[k] = &clone
	}
	return q.slot(i)
}

// clipAll gives p pages of its own in which every entry is capacity-clipped,
// so no append through p can write into a backing array another dataset
// owns the tail of.
func clipAll[E any](p paged[[]E]) {
	block := make([]page[[]E], len(p.pages))
	for k, pg := range p.pages {
		for j, s := range pg {
			block[k][j] = slices.Clip(s)
		}
		p.pages[k] = &block[k]
	}
}
