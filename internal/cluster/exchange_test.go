package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// nodeServer is a test node on a real listener: GET /hop upgrades and serves
// frames through h, any other request reaches h as plain HTTP. Close closes
// the upgraded connections too, as a node's Close does.
type nodeServer struct {
	*httptest.Server
	hops *hopConns
}

func newNodeServer(h http.Handler) *nodeServer {
	hops := &hopConns{}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.Handle(hopPath, hops.upgrade(h))
	return &nodeServer{Server: httptest.NewServer(mux), hops: hops}
}

// Close closes the node's hop connections, then its listener.
func (s *nodeServer) Close() {
	s.hops.close()
	s.Server.Close()
}

// addr is the node's host:port.
func (s *nodeServer) addr() string { return strings.TrimPrefix(s.URL, "http://") }

// countingDial is a net.Dialer that counts its dials.
func countingDial(n *atomic.Int32) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		n.Add(1)
		return (&net.Dialer{}).DialContext(ctx, network, addr)
	}
}

// TestHopPoolsConnections: calls to one node reuse one upgraded connection —
// also after the deadline of the call that last used it — and after a burst
// the pool keeps at most maxIdlePerNode of them.
func TestHopPoolsConnections(t *testing.T) {
	var release sync.WaitGroup
	release.Add(1)
	var blocking atomic.Bool
	node := newNodeServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if blocking.Load() {
			release.Wait()
		}
		writeJSON(w, http.StatusOK, map[string]string{"path": r.URL.Path})
	}))
	defer node.Close()
	var dials atomic.Int32
	h := newHop(countingDial(&dials))
	defer h.Close()
	for i := 0; i < 20; i++ {
		if status, _, err := exchange(context.Background(), h, http.MethodGet, node.addr(), "/x?i=1", nil, 1<<20); err != nil || status != http.StatusOK {
			t.Fatalf("call %d answered %d, %v", i, status, err)
		}
	}
	// A connection idle past the deadline of the call that last used it is
	// as good as any.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if _, _, err := exchange(ctx, h, http.MethodGet, node.addr(), "/x", nil, 1<<20); err != nil {
		t.Fatal(err)
	}
	cancel()
	time.Sleep(30 * time.Millisecond)
	if _, _, err := exchange(context.Background(), h, http.MethodGet, node.addr(), "/x", nil, 1<<20); err != nil {
		t.Fatal(err)
	}
	if dials.Load() != 1 {
		t.Fatalf("22 sequential calls dialled %d times, want 1", dials.Load())
	}

	// A burst wider than the pool: every call holds its own connection until
	// all are in flight, then all return.
	const burst = maxIdlePerNode + 16
	blocking.Store(true)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := exchange(context.Background(), h, http.MethodGet, node.addr(), "/x", nil, 1<<20); err != nil {
				t.Error(err)
			}
		}()
	}
	for dials.Load() < burst {
		time.Sleep(time.Millisecond)
	}
	release.Done()
	wg.Wait()
	h.mu.Lock()
	idle := len(h.idle[node.addr()])
	h.mu.Unlock()
	if idle != maxIdlePerNode {
		t.Fatalf("after a burst of %d the pool holds %d connections, want %d", burst, idle, maxIdlePerNode)
	}
}

// TestWriteAfterNodeRestartDialsFresh: a node that closed while its
// connection sat in the pool, and came back on the same address, is reached
// on a fresh connection — so a write goes through instead of failing as one
// the node may have applied.
func TestWriteAfterNodeRestartDialsFresh(t *testing.T) {
	var applied atomic.Int32
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]int32{"applied": applied.Add(1)})
	})
	first := newNodeServer(handler)
	addr := first.addr()
	var dials atomic.Int32
	h := newHop(countingDial(&dials))
	defer h.Close()
	if _, _, err := exchange(context.Background(), h, http.MethodPost, addr, "/ingest", []byte(`{}`), 1<<20); err != nil {
		t.Fatal(err)
	}
	first.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	hops := &hopConns{}
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.Handle(hopPath, hops.upgrade(handler))
	second := &httptest.Server{Listener: ln, Config: &http.Server{Handler: mux}}
	second.Start()
	defer func() { hops.close(); second.Close() }()

	status, _, err := exchange(context.Background(), h, http.MethodPost, addr, "/ingest", []byte(`{}`), 1<<20)
	if err != nil || status != http.StatusOK || applied.Load() != 2 || dials.Load() != 2 {
		t.Fatalf("the write after the restart answered %d, %v, with %d applied over %d dials; want 200, 2 applied, a second dial", status, err, applied.Load(), dials.Load())
	}
}

// TestCancelledCallClosesItsConnection: a call whose context ends mid-answer
// fails, and its connection is closed, not pooled.
func TestCancelledCallClosesItsConnection(t *testing.T) {
	answered := make(chan struct{})
	node := newNodeServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-answered
		writeJSON(w, http.StatusOK, map[string]string{})
	}))
	defer node.Close()
	defer close(answered)
	h := newHop(nil)
	defer h.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := exchange(ctx, h, http.MethodGet, node.addr(), "/slow", nil, 1<<20); err == nil || dialFailed(err) {
		t.Fatalf("a call past its deadline answered %v, want an error the node may have seen", err)
	}
	h.mu.Lock()
	idle := len(h.idle[node.addr()])
	h.mu.Unlock()
	if idle != 0 {
		t.Fatalf("the cancelled call's connection went back to the pool (%d idle)", idle)
	}
}

// TestNodeCloseEndsItsHop: a closed node answers no frame — neither on the
// connection pooled before its Close, nor on a new one, whose upgrade it
// refuses: the call fails as one the node never saw.
func TestNodeCloseEndsItsHop(t *testing.T) {
	n := NewNode(0, 1, &countingBackend{}, nil, func(RingChange) error { return nil })
	ts := httptest.NewServer(n.Mount(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{})
	})))
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	h := newHop(nil)
	defer h.Close()
	if status, _, err := exchange(context.Background(), h, http.MethodGet, addr, "/health", nil, 1<<20); err != nil || status != http.StatusOK {
		t.Fatalf("the live node answered %d, %v", status, err)
	}
	n.Close()
	status, _, err := exchange(context.Background(), h, http.MethodGet, addr, "/health", nil, 1<<20)
	if err == nil || !dialFailed(err) {
		t.Fatalf("the closed node answered %d, %v; want a refused upgrade", status, err)
	}
}
