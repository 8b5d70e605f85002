package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"time"
)

// One way to reach a node: every call this package makes — the router's shard
// calls, the /health probes of the detector and of a promotion, the ring
// pushes, the stream's chunk pushes and tail pulls — is one exchange over a
// client newClient built (the router's, unless RouterConfig.Client injects
// another). The exchange never retries; each caller decides, because only the
// caller knows whether sending the request again is safe.

// newClient is the package's one HTTP client: keep-alive pooling sized for a
// router's fan-out (64 idle connections per host) and a 30 s ceiling on any
// call. Callers bound a call tighter through its context.
func newClient() *http.Client {
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 64
	return &http.Client{Transport: transport, Timeout: 30 * time.Second}
}

// exchange sends one request to the node at addr — a JSON body when body is
// non-nil — and returns the answer's status and its body, read whole up to
// limit bytes (readShardBody). The answer is closed before it returns, so the
// connection goes back to the keep-alive pool. An error is the client's or the
// read's, unwrapped, so the caller can tell a failed dial (dialFailed) from a
// call the node may have seen.
func exchange(ctx context.Context, client *http.Client, method, addr, path string, body []byte, limit int64) (int, []byte, error) {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+addr+path, reader)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	payload, err := readShardBody(resp, limit)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, payload, nil
}

// dialFailed reports whether a call failed before any connection to the node
// existed, so the node cannot have seen the request.
func dialFailed(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// maxShardResponse bounds how much of a shard answer the router will buffer,
// so a hostile or broken shard cannot balloon router memory; maxDeclaredAlloc
// bounds how much it allocates on the strength of a Content-Length alone.
const (
	maxShardResponse = 64 << 20
	maxDeclaredAlloc = 64 << 10
)

// readShardBody reads the whole body, bounded at limit bytes, into a buffer
// that starts at the declared Content-Length, so an honest answer is read
// into one allocation with no regrowth. A node that declares more
// than it sends costs at most maxDeclaredAlloc; past that the buffer grows
// only with bytes that actually arrived.
func readShardBody(resp *http.Response, limit int64) ([]byte, error) {
	size := int64(512)
	if resp.ContentLength > 0 {
		size = min(resp.ContentLength, maxDeclaredAlloc)
	}
	body := io.LimitReader(resp.Body, limit)
	buf := make([]byte, 0, size)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}
