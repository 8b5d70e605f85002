package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"ganc/internal/serve"
)

// The node end of the hop (exchange.go is the calling end): GET /hop, with
// Upgrade: ganc-hop, takes the connection over from net/http, and from then
// on the node reads one request frame at a time, serves it through the same
// handler its HTTP routes are served by — admission, route metrics, the
// request log and the body cap included — and writes the answer frame before
// it reads the next. A node's upgraded connections close with the node.

// hopPath is the route a node upgrades hop connections on; hopProtocol names
// the protocol in the Upgrade header.
const (
	hopPath     = "/hop"
	hopProtocol = "ganc-hop"
)

// Frame bounds: a request frame declaring a longer method, a longer path or a
// larger body — or an empty method or path — closes the connection before
// anything is allocated for it.
const (
	maxMethodLen = 16
	maxPathLen   = 1<<16 - 1
	maxBodyFrame = serve.MaxBodyBytes
)

// hopConns is the set of hop connections a node has upgraded: closed, with
// every connection in it, when the node closes, because net/http's own Close
// does not close a connection it handed over.
type hopConns struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// add records an upgraded connection; false once the set closed.
func (s *hopConns) add(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *hopConns) remove(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// close closes every upgraded connection and refuses further upgrades.
func (s *hopConns) close() {
	s.mu.Lock()
	conns := s.conns
	s.conns, s.closed = nil, true
	s.mu.Unlock()
	for c := range conns {
		c.Close()
	}
}

// upgrade is the GET /hop route: it takes the connection over and serves its
// frames through h. A request that is not a hop upgrade answers 426.
func (s *hopConns) upgrade(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if r.Method != http.MethodGet || !strings.EqualFold(r.Header.Get("Upgrade"), hopProtocol) || !ok {
			writeJSON(w, http.StatusUpgradeRequired, map[string]string{"error": "GET " + hopPath + " needs Upgrade: " + hopProtocol})
			return
		}
		conn, rw, err := hj.Hijack()
		if err != nil {
			return
		}
		if !s.add(conn) {
			conn.Close()
			return
		}
		defer s.remove(conn)
		serveHop(conn, rw.Reader, h)
	})
}

// serveHop answers the upgrade on conn, then serves request frames read from
// br through h until the peer closes, a frame is malformed or a write fails;
// it closes conn when it returns.
func serveHop(conn net.Conn, br *bufio.Reader, h http.Handler) {
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if _, err := bw.WriteString(hopSwitch); err != nil || bw.Flush() != nil {
		return
	}
	fs := &frameServer{br: br, remote: conn.RemoteAddr().String(), reqHeader: make(http.Header), w: frameWriter{header: make(http.Header)}}
	for {
		req, ok := fs.read()
		if !ok {
			return
		}
		fs.w.reset()
		h.ServeHTTP(&fs.w, req)
		if fs.body.left > 0 { // what the handler left unread of the body
			if _, err := io.Copy(io.Discard, &fs.body); err != nil {
				return
			}
		}
		if !fs.w.writeTo(bw) {
			return
		}
	}
}

// frameServer is one hop connection's reading state, reused frame to frame.
type frameServer struct {
	br        *bufio.Reader
	remote    string
	hdr       [reqHeaderLen]byte
	head      []byte
	reqHeader http.Header // frames carry no headers; a handler may still set one
	body      frameBody
	w         frameWriter
}

// read parses the next request frame into a request whose body streams from
// the connection. ok is false at the peer's close and on a frame out of
// bounds, before anything is allocated for it.
func (fs *frameServer) read() (*http.Request, bool) {
	if _, err := io.ReadFull(fs.br, fs.hdr[:]); err != nil {
		return nil, false
	}
	n := binary.BigEndian.Uint32(fs.hdr[0:4])
	m, p := int(fs.hdr[4]), int(binary.BigEndian.Uint16(fs.hdr[5:7]))
	if n > maxBodyFrame || m == 0 || m > maxMethodLen || p == 0 {
		return nil, false
	}
	if cap(fs.head) < m+p {
		fs.head = make([]byte, m+p)
	}
	head := fs.head[:m+p]
	if _, err := io.ReadFull(fs.br, head); err != nil || head[m] != '/' {
		return nil, false
	}
	target := string(head[m:])
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return nil, false
	}
	fs.body.r, fs.body.left = fs.br, int64(n)
	clear(fs.reqHeader)
	req := &http.Request{
		Method:     method(head[:m]),
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     fs.reqHeader,
		Body:       &fs.body,
		RequestURI: target,
		RemoteAddr: fs.remote,
	}
	if n == 0 {
		req.Body = http.NoBody
	}
	req.ContentLength = int64(n)
	return req, true
}

// method returns the method's string, without allocating for the two the
// package sends.
func method(b []byte) string {
	switch string(b) {
	case http.MethodGet:
		return http.MethodGet
	case http.MethodPost:
		return http.MethodPost
	}
	return string(b)
}

// frameBody is a request frame's body: the next left bytes of the connection.
type frameBody struct {
	r    *bufio.Reader
	left int64
}

func (b *frameBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.r.Read(p)
	b.left -= int64(n)
	if err == io.EOF && b.left > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *frameBody) Close() error { return nil }

// frameWriter is the http.ResponseWriter a frame is served into: the status
// and the body, buffered so the answer frame can lead with its length.
// Response headers do not travel.
type frameWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *frameWriter) Header() http.Header { return w.header }

// WriteHeader keeps the first final status; an informational one is dropped.
func (w *frameWriter) WriteHeader(status int) {
	if w.status == 0 && status >= 200 {
		w.status = status
	}
}

func (w *frameWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// reset readies the writer for the next frame. A buffer a large answer grew
// is dropped rather than held for the life of the connection.
func (w *frameWriter) reset() {
	clear(w.header)
	w.status = 0
	if w.body.Cap() > maxDeclaredAlloc {
		w.body = bytes.Buffer{}
	}
	w.body.Reset()
}

// writeTo writes the answer frame and flushes it.
func (w *frameWriter) writeTo(bw *bufio.Writer) bool {
	w.WriteHeader(http.StatusOK)
	var hdr [ansHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(w.body.Len()))
	binary.BigEndian.PutUint16(hdr[4:6], uint16(w.status))
	bw.Write(hdr[:])
	bw.Write(w.body.Bytes())
	return bw.Flush() == nil
}
