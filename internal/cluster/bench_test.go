package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"ganc/internal/serve"
)

// BenchmarkRouterOverhead measures the price of the extra scatter-gather hop
// on the read paths: the same request issued directly against a shard server
// versus through the router fronting it. For GET /recommend the delta is the
// router's per-request cost (owner lookup, proxy call, passthrough) — the
// overhead every cache hit pays in a cluster, which DESIGN.md §10 weighs
// against the aggregate-cache win. For POST /recommend/batch (20 cached users
// over two shards; direct sends the whole batch to one shard, which knows
// every user) it is the partition, two concurrent sub-batches and the merge
// of their element bytes.
func BenchmarkRouterOverhead(b *testing.B) {
	rt, shards := clusterFixture(b, 2)
	routerTS := routerServer(b, rt)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}

	get := func(b *testing.B, url string) {
		b.Helper()
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d from %s", resp.StatusCode, url)
		}
	}

	users := make([]string, 20)
	for k := range users {
		users[k] = fmt.Sprintf("user-%d", k)
	}
	batch, err := json.Marshal(serve.BatchRequest{Users: users})
	if err != nil {
		b.Fatal(err)
	}
	post := func(b *testing.B, url string) {
		b.Helper()
		resp, err := client.Post(url, "application/json", bytes.NewReader(batch))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d from %s", resp.StatusCode, url)
		}
	}

	b.Run("direct", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			get(b, shards[0].ts.URL+"/recommend?user="+users[n%len(users)])
		}
	})
	b.Run("routed", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			get(b, routerTS.URL+"/recommend?user="+users[n%len(users)])
		}
	})
	b.Run("batch-direct", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			post(b, shards[0].ts.URL+"/recommend/batch")
		}
	})
	b.Run("batch-routed", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			post(b, routerTS.URL+"/recommend/batch")
		}
	})
}
