package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// One way to reach a node: every call this package makes — the router's shard
// calls, the /health probes of the detector and of a promotion, the ring
// pushes, the stream's chunk pushes and tail pulls — is one exchange over a
// hop: a pool of persistent connections per node, each upgraded once through
// the node's GET /hop (hop.go) and then carrying one length-prefixed request
// frame and its answer frame at a time. The exchange never retries; each
// caller decides, because only the caller knows whether sending the request
// again is safe. DESIGN.md §10.1 has the frame layout.

// Pool and call bounds: a node keeps at most maxIdlePerNode idle connections
// in a hop's pool, and no call outlives callCeiling, whatever its context.
const (
	maxIdlePerNode = 64
	callCeiling    = 30 * time.Second
)

// hopUpgrade is the request that turns a fresh connection into a hop
// connection; the node answers it with hopSwitch before the first frame.
const (
	hopUpgrade = "GET " + hopPath + " HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: " + hopProtocol + "\r\n\r\n"
	hopSwitch  = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + hopProtocol + "\r\n\r\n"
)

// A request frame is reqHeaderLen bytes — the body length (4), the method
// length (1) and the path-and-query length (2), big-endian — then the method,
// the path and query, and the body. An answer frame is ansHeaderLen bytes —
// the body length (4) and the status (2) — then the body.
const (
	reqHeaderLen = 7
	ansHeaderLen = 6
)

// hop is the calling end: the idle connections of every node it has reached,
// and how it opens a new one.
type hop struct {
	dial func(ctx context.Context, network, addr string) (net.Conn, error)

	mu     sync.Mutex
	idle   map[string][]*hopConn
	closed bool
}

// newHop builds a hop over dial (nil: a net.Dialer).
func newHop(dial func(ctx context.Context, network, addr string) (net.Conn, error)) *hop {
	if dial == nil {
		dial = (&net.Dialer{}).DialContext
	}
	return &hop{dial: dial, idle: make(map[string][]*hopConn)}
}

// hopConn is one upgraded connection with its buffers.
type hopConn struct {
	net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	hdr [reqHeaderLen]byte
}

// connectError marks a call that failed before its request frame was written
// — the dial or the upgrade — so the node cannot have seen it.
type connectError struct{ err error }

func (e *connectError) Error() string { return e.err.Error() }
func (e *connectError) Unwrap() error { return e.err }

// dialFailed reports whether a call failed before any request frame reached
// the node: the only failure after which even a write may be sent again.
func dialFailed(err error) bool {
	var ce *connectError
	return errors.As(err, &ce)
}

// maxShardResponse bounds how much of a node's answer a caller will buffer, so
// a hostile or broken node cannot balloon its memory; maxDeclaredAlloc bounds
// how much it allocates on the strength of a declared length alone.
const (
	maxShardResponse = 64 << 20
	maxDeclaredAlloc = 64 << 10
)

// exchange sends one request to the node at addr — a JSON body when body is
// non-nil — as one request frame and returns the answer frame's status and
// body, refused unread when it declares more than limit bytes. It is the one
// writer of request frames. A connection whose call failed, was cancelled or
// timed out is closed (cancelling ctx expires the connection's deadline); one
// whose call completed goes back to the pool. An error from before the
// request frame was written is a connectError (dialFailed), so the caller can
// tell a call the node never saw from one it may have seen.
func exchange(ctx context.Context, h *hop, method, addr, path string, body []byte, limit int64) (status int, payload []byte, err error) {
	if len(method) == 0 || len(method) > maxMethodLen || len(path) == 0 || len(path) > maxPathLen || len(body) > maxBodyFrame {
		return 0, nil, fmt.Errorf("cluster: cannot frame %s %.64s with a %d-byte body", method, path, len(body))
	}
	c, err := h.conn(ctx, addr)
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		if err == nil {
			h.put(addr, c)
			return
		}
		c.Close()
		status, payload = 0, nil
		if ctx.Err() != nil {
			err = fmt.Errorf("%w (%v)", ctx.Err(), err)
		}
	}()
	c.SetDeadline(callDeadline(ctx))
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) })
		defer func() {
			// A cancellation racing the answer leaves the deadline expired:
			// the connection is not reused.
			if !stop() && err == nil {
				err = ctx.Err()
			}
		}()
	}
	hdr := c.hdr[:]
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(body)))
	hdr[4] = byte(len(method))
	binary.BigEndian.PutUint16(hdr[5:7], uint16(len(path)))
	c.bw.Write(hdr)
	c.bw.WriteString(method)
	c.bw.WriteString(path)
	c.bw.Write(body)
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	ans := c.hdr[:ansHeaderLen]
	if _, err := io.ReadFull(c.br, ans); err != nil {
		return 0, nil, fmt.Errorf("reading the answer frame: %w", err)
	}
	n := int64(binary.BigEndian.Uint32(ans[0:4]))
	status = int(binary.BigEndian.Uint16(ans[4:6]))
	switch {
	case status < 200 || status > 599:
		return 0, nil, fmt.Errorf("answer frame carries status %d, outside [200, 599]", status)
	case n > limit:
		return 0, nil, fmt.Errorf("answer frame declares %d bytes, over the %d-byte limit", n, limit)
	}
	if payload, err = readBody(c.br, int(n)); err != nil {
		return 0, nil, fmt.Errorf("reading a %d-byte answer: %w", n, err)
	}
	return status, payload, nil
}

// conn takes the most recently used idle connection to addr that the node
// has not closed meanwhile, or dials and upgrades a new one.
func (h *hop) conn(ctx context.Context, addr string) (*hopConn, error) {
	for {
		h.mu.Lock()
		idle := h.idle[addr]
		if len(idle) == 0 {
			h.mu.Unlock()
			break
		}
		c := idle[len(idle)-1]
		h.idle[addr] = idle[:len(idle)-1]
		h.mu.Unlock()
		if !c.closedWhileIdle() {
			return c, nil
		}
		c.Close()
	}
	conn, err := h.dial(ctx, "tcp", addr)
	if err != nil {
		return nil, &connectError{err}
	}
	c := &hopConn{Conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if err := c.upgrade(ctx, addr); err != nil {
		conn.Close()
		return nil, &connectError{err}
	}
	return c, nil
}

// put returns a connection to the pool, or closes it when the pool is full
// or the hop closed.
func (h *hop) put(addr string, c *hopConn) {
	h.mu.Lock()
	if !h.closed && len(h.idle[addr]) < maxIdlePerNode {
		h.idle[addr] = append(h.idle[addr], c)
		c = nil
	}
	h.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Close closes every idle connection. Calls keep working afterwards, each on
// a connection of its own.
func (h *hop) Close() {
	h.mu.Lock()
	idle := h.idle
	h.idle, h.closed = make(map[string][]*hopConn), true
	h.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.Close()
		}
	}
}

// closedWhileIdle reports whether an idle connection is unusable: anything
// the node sent while no call was waiting — its close, or stray bytes — rules
// it out. The check never blocks (readableWhileIdle).
func (c *hopConn) closedWhileIdle() bool {
	if c.br.Buffered() > 0 {
		return true
	}
	if sc, ok := c.Conn.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			c.SetReadDeadline(time.Time{}) // the last call's may have passed
			return readableWhileIdle(raw)
		}
	}
	// A connection without a descriptor (an in-memory pipe) reports its
	// peer's close before an expired deadline.
	var one [1]byte
	c.SetReadDeadline(time.Unix(1, 0))
	_, err := c.Conn.Read(one[:])
	return !errors.Is(err, os.ErrDeadlineExceeded)
}

// upgrade asks the node to switch the connection to frames and reads the
// answer's status line and headers, bounded in count and length.
func (c *hopConn) upgrade(ctx context.Context, addr string) error {
	c.SetDeadline(callDeadline(ctx))
	if _, err := fmt.Fprintf(c.bw, hopUpgrade, addr); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	for n := 0; ; n++ {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("reading the hop upgrade answer: %w", err)
		}
		switch {
		case n == 0 && !bytes.HasPrefix(line, []byte("HTTP/1.1 101 ")):
			return fmt.Errorf("hop upgrade refused: %q", truncate(bytes.TrimSpace(line)))
		case n > 32:
			return errors.New("hop upgrade answer has too many header lines")
		case len(bytes.TrimSpace(line)) == 0:
			return nil
		}
	}
}

// callDeadline is the context's deadline, capped at callCeiling from now.
func callDeadline(ctx context.Context) time.Time {
	deadline := time.Now().Add(callCeiling)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return deadline
}

// readBody reads exactly n bytes into a buffer that starts at
// min(n, maxDeclaredAlloc), so an honest answer is one allocation and a peer
// that declares more than it sends costs at most maxDeclaredAlloc plus what
// actually arrived.
func readBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, maxDeclaredAlloc))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		k, err := r.Read(buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err != nil && len(buf) < n {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}
