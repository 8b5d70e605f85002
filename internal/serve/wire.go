package serve

import (
	"bytes"
	"encoding/json"
	"errors"
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

// BatchParts is a POST /recommend/batch answer split at its envelope: what
// SplitBatch returns. Model and every element of Results are sub-slices of
// the answer, so they are valid while it is.
type BatchParts struct {
	// Model is the "model" string as the answer wrote it, quotes and escapes
	// included.
	Model   []byte
	Version int
	// Results holds each element's bytes, in the answer's order.
	Results [][]byte
}

// SplitBatch splits an answer to a batch of users users — the envelope
// handleBatch writes — without decoding its lists: json.Valid checks the
// whole body, then one string- and depth-aware pass over the envelope takes
// model, version and the extent of each results element. It refuses what
// decoding the answer into BatchResponse would refuse, and besides: a model
// or version that is missing or null, one of the three keys given twice, a
// key that encoding/json would match to one of them without being spelled as
// they are, a count of elements other than users, and an element that is not
// a JSON object. Other keys are skipped.
func SplitBatch(body []byte, users int) (BatchParts, error) {
	if !json.Valid(body) {
		return BatchParts{}, errors.New("answer is not valid JSON")
	}
	s := envelopeScan{b: body}
	if s.skipSpace() != '{' {
		return BatchParts{}, errors.New("answer is not a JSON object")
	}
	s.pos++
	var p BatchParts
	var seen [len(envelopeKeys)]bool
	for s.skipSpace() != '}' {
		key := s.value()
		s.skipSpace()
		s.pos++ // the ':'
		first := s.skipSpace()
		field, err := envelopeField(key)
		switch {
		case err != nil:
			return BatchParts{}, err
		case field < 0:
			s.value()
		case seen[field]:
			return BatchParts{}, fmt.Errorf("key %s given twice", key)
		case field == keyModel && first != '"':
			return BatchParts{}, fmt.Errorf("model is %s, not a string", truncated(s.value()))
		case field == keyModel:
			p.Model = s.value()
		case field == keyVersion:
			val := s.value()
			// Of valid JSON values, Atoi takes exactly what decoding into an
			// int takes: an integer without fraction or exponent that fits.
			v, err := strconv.Atoi(string(val))
			if err != nil {
				return BatchParts{}, fmt.Errorf("version %s is not an int", truncated(val))
			}
			p.Version = v
		case first != '[':
			return BatchParts{}, fmt.Errorf("results is %s, not an array", truncated(s.value()))
		default:
			p.Results = make([][]byte, 0, users)
			s.pos++
			for s.skipSpace() != ']' {
				el := s.value()
				switch {
				case len(p.Results) == users:
					// Refused before it costs a slice header per element.
					return BatchParts{}, fmt.Errorf("answered more than %d results", users)
				case el[0] != '{':
					return BatchParts{}, fmt.Errorf("result %d is not an object: %s", len(p.Results), truncated(el))
				}
				p.Results = append(p.Results, el)
				if s.skipSpace() == ',' {
					s.pos++
				}
			}
			s.pos++
		}
		if field >= 0 {
			seen[field] = true
		}
		if s.skipSpace() == ',' {
			s.pos++
		}
	}
	for field, name := range envelopeKeys {
		if !seen[field] {
			return BatchParts{}, fmt.Errorf("answer has no %s", name)
		}
	}
	if len(p.Results) != users {
		return BatchParts{}, fmt.Errorf("answered %d results for %d users", len(p.Results), users)
	}
	return p, nil
}

// AppendBatch appends p as the envelope SplitBatch reads, up to the results
// array's closing bracket — {"model":…,"version":V,"results":[…] — and leaves
// the object open for the caller's own keys and its '}'.
func AppendBatch(dst []byte, p BatchParts) []byte {
	dst = append(dst, `{"model":`...)
	dst = append(dst, p.Model...)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, int64(p.Version), 10)
	dst = append(dst, `,"results":[`...)
	for k, el := range p.Results {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, el...)
	}
	return append(dst, ']')
}

// envelopeKeys are BatchResponse's keys, indexed by keyModel, keyVersion and
// keyResults.
var envelopeKeys = [...]string{"model", "version", "results"}

const (
	keyModel = iota
	keyVersion
	keyResults
)

// envelopeField maps an envelope key, quotes included, to its index in
// envelopeKeys, or to -1 for a key BatchResponse does not have. encoding/json
// matches keys after unescaping and under Unicode case folding; a key that
// only matches that way is refused, so that an answer has one reading.
func envelopeField(key []byte) (int, error) {
	name := key[1 : len(key)-1]
	for field, want := range envelopeKeys {
		if string(name) == want {
			return field, nil
		}
	}
	if bytes.IndexByte(name, '\\') >= 0 {
		var unquoted string
		_ = json.Unmarshal(key, &unquoted) // a valid JSON string: cannot fail
		name = []byte(unquoted)
	}
	for _, want := range envelopeKeys {
		if bytes.EqualFold(name, []byte(want)) {
			return 0, fmt.Errorf("key %s stands for %q", truncated(key), want)
		}
	}
	return -1, nil
}

// envelopeScan walks a body json.Valid accepted, so it checks no syntax.
type envelopeScan struct {
	b   []byte
	pos int
}

// skipSpace moves past JSON whitespace and returns the byte it stops at.
func (s *envelopeScan) skipSpace() byte {
	for ; s.pos < len(s.b); s.pos++ {
		switch c := s.b[s.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// value returns the JSON value that starts at pos and moves past it.
func (s *envelopeScan) value() []byte {
	start, depth := s.pos, 0
	for ; s.pos < len(s.b); s.pos++ {
		switch s.b[s.pos] {
		case '"':
			s.skipString()
			if depth == 0 {
				return s.b[start:s.pos]
			}
			s.pos-- // the loop steps past the closing quote
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 { // the end of a number or literal that closes its container
				return s.b[start:s.pos]
			}
			if depth--; depth == 0 {
				s.pos++
				return s.b[start:s.pos]
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return s.b[start:s.pos]
			}
		}
	}
	return s.b[start:]
}

// skipString moves from a string's opening quote to just past its closing one.
func (s *envelopeScan) skipString() {
	for s.pos++; s.pos < len(s.b); s.pos++ {
		switch s.b[s.pos] {
		case '\\':
			s.pos++
		case '"':
			s.pos++
			return
		}
	}
}

// truncated bounds how much of a hostile answer an error message quotes.
func truncated(b []byte) string {
	const limit = 64
	if len(b) > limit {
		return string(b[:limit]) + "…"
	}
	return string(b)
}
