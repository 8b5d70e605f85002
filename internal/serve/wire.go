package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"ganc/internal/types"
)

// The 200 of GET /recommend and POST /recommend/batch is assembled from bytes
// that encoding/json wrote once, not encoded per request. RecommendResponse
// and BatchResponse stay the definition of the wire form (and the oracle the
// tests compare against): every fragment below is a json.Marshal of one of
// them, cut at a fixed place.
//
//	GET /recommend      head tail              {"user":…,"items":[…]  ,"model":…,"version":V}\n
//	batch element       head elemTail          {"user":…,"items":[…]  ,"version":V}
//	POST …/batch        batchHead elem,elem… batchClose
//
// A head belongs to a cache entry and is encoded when the list enters the
// cache; the other three are fixed for a generation's life (encodeFrame).
const (
	// headCut is what follows "items" in a RecommendResponse with no model,
	// version 0 and no error; tailCut is what precedes "model" in one with no
	// user and no items.
	headCut    = `,"version":0}`
	tailCut    = `{"user":"","items":null`
	batchClose = "]}\n"
)

// encodeFrame fills the generation's per-response constants.
func (g *generation) encodeFrame() {
	// Marshal cannot fail on these types: strings, ints and slices of them.
	name := g.engine.Name()
	tail, _ := json.Marshal(RecommendResponse{Model: name, Version: g.stamp.version})
	g.tail = append(tail[len(tailCut):], '\n')
	elemTail, _ := json.Marshal(RecommendResponse{Version: g.stamp.version})
	g.elemTail = elemTail[len(tailCut):]
	batchHead, _ := json.Marshal(BatchResponse{Model: name, Version: g.stamp.version, Results: []RecommendResponse{}})
	g.batchHead = batchHead[:len(batchHead)-len("]}")]
}

// encodeHead encodes {"user":<key>,"items":[…] for a list whose identifiers
// newEntry has checked.
func (s *Server) encodeHead(userKey string, set types.TopNSet) []byte {
	items := make([]string, len(set))
	for k, i := range set {
		items[k] = s.train.ItemInterner().Key(int32(i))
	}
	head, _ := json.Marshal(RecommendResponse{User: userKey, Items: items}) // strings only: cannot fail
	return head[:len(head)-len(headCut)]
}

// newEntry builds the cache entry for u's list as the generation stamped at
// computed it, encoding its head. A list naming a user or item outside the
// identifier tables (a broken engine) is refused: nothing could ever render
// it.
func (s *Server) newEntry(u types.UserID, set types.TopNSet, at stamp) (*entry, error) {
	e := &entry{user: u, set: set, stamp: at}
	if len(set) == 0 {
		return e, nil
	}
	if u < 0 || int(u) >= s.train.UserInterner().Len() {
		return nil, fmt.Errorf("serve: list for user %d, outside the %d known users", u, s.train.UserInterner().Len())
	}
	numItems := s.train.ItemInterner().Len()
	for _, i := range set {
		if i < 0 || int(i) >= numItems {
			return nil, fmt.Errorf("serve: list for user %d names item %d, outside the %d known items", u, i, numItems)
		}
	}
	e.head = s.encodeHead(s.train.UserInterner().Key(int32(u)), set)
	return e, nil
}

// appendList appends one served list — e's first n items, then tail (the
// serving generation's tail or elemTail) — and is the only place a 200's
// per-user bytes are put together: a hit and a miss copy the cached head, a
// request whose n cuts the list short encodes a head for the prefix on the
// spot.
func (s *Server) appendList(buf *bytes.Buffer, userKey string, e *entry, n int, tail []byte) {
	if n < len(e.set) {
		buf.Write(s.encodeHead(userKey, e.set[:n]))
	} else {
		buf.Write(e.head)
	}
	buf.Write(tail)
}

// appendElemError appends a batch element that reports a per-user failure
// inline. It is the rare path, so it encodes the wire type directly.
func appendElemError(buf *bytes.Buffer, userKey, msg string) {
	elem, _ := json.Marshal(RecommendResponse{User: userKey, Error: msg}) // strings only: cannot fail
	buf.Write(elem)
}

// bodyPool recycles the buffers read responses are assembled in. A buffer
// that grew past maxPooledBody (a batch of thousands) is dropped instead of
// pinned.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

func getBody() *bytes.Buffer {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// writeBody answers 200 with the assembled body in one Write and recycles the
// buffer.
func writeBody(w http.ResponseWriter, buf *bytes.Buffer) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes()) // as writeJSON: a client that hung up is not the handler's error
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}
