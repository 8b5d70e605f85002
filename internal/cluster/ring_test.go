package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"testing"
)

// testRing builds a 3-shard ring with loopback-style addresses.
func testRing(t *testing.T) *Ring {
	t.Helper()
	r, err := NewRing(1, 0, []ShardInfo{
		{ID: 0, Addr: "127.0.0.1:9000"},
		{ID: 1, Addr: "127.0.0.1:9001"},
		{ID: 2, Addr: "127.0.0.1:9002"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRingOwnershipDeterministicAndBalanced pins the two properties routing
// correctness rests on: the same key always maps to the same shard (across
// independently built rings), and the key space is spread over all shards
// within consistent-hash tolerance.
func TestRingOwnershipDeterministicAndBalanced(t *testing.T) {
	a, b := testRing(t), testRing(t)
	counts := make([]int, a.NumShards())
	const keys = 30000
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("user-%d", k)
		owner := a.Owner(key)
		if owner < 0 || owner >= a.NumShards() {
			t.Fatalf("key %q routed to out-of-range shard %d", key, owner)
		}
		if again := b.Owner(key); again != owner {
			t.Fatalf("independently built rings disagree on %q: %d vs %d", key, owner, again)
		}
		counts[owner]++
	}
	fair := float64(keys) / float64(len(counts))
	for shard, c := range counts {
		if math.Abs(float64(c)-fair)/fair > 0.35 {
			t.Fatalf("shard %d owns %d of %d keys (fair share %.0f): ring is unbalanced %v", shard, c, keys, fair, counts)
		}
	}
}

// TestRingOwnershipIgnoresAddresses: moving a shard to a new host must not
// reshuffle users — the hash covers shard IDs only.
func TestRingOwnershipIgnoresAddresses(t *testing.T) {
	a := testRing(t)
	moved, err := NewRing(1, 0, []ShardInfo{
		{ID: 0, Addr: "10.0.0.1:80"},
		{ID: 1, Addr: "10.0.0.2:80"},
		{ID: 2, Addr: "10.0.0.3:80"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2000; k++ {
		key := fmt.Sprintf("user-%d", k)
		if a.Owner(key) != moved.Owner(key) {
			t.Fatalf("ownership of %q changed when addresses moved", key)
		}
	}
}

// TestRingConsistentOnGrowth checks the consistent-hashing contract: adding
// a shard relocates roughly 1/(n+1) of the keys, not all of them.
func TestRingConsistentOnGrowth(t *testing.T) {
	three := testRing(t)
	four, err := NewRing(2, 0, []ShardInfo{
		{ID: 0, Addr: "a"}, {ID: 1, Addr: "b"}, {ID: 2, Addr: "c"}, {ID: 3, Addr: "d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 20000
	moved := 0
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("user-%d", k)
		if three.Owner(key) != four.Owner(key) {
			moved++
		}
	}
	// Expect ~25% relocation; a modulo hash would relocate ~75%.
	if frac := float64(moved) / keys; frac > 0.45 {
		t.Fatalf("adding one shard relocated %.0f%% of keys — not consistent hashing", frac*100)
	}
}

// TestOwnerAmongSkipsDeadShards pins the failover lookup: the true owner
// when alive, a live shard otherwise, -1 only when nothing is alive.
func TestOwnerAmongSkipsDeadShards(t *testing.T) {
	r := testRing(t)
	key := "some-user"
	owner := r.Owner(key)
	if got := r.OwnerAmong(key, func(int) bool { return true }); got != owner {
		t.Fatalf("all-alive OwnerAmong %d != Owner %d", got, owner)
	}
	got := r.OwnerAmong(key, func(s int) bool { return s != owner })
	if got == owner || got < 0 || got >= r.NumShards() {
		t.Fatalf("OwnerAmong with dead owner returned %d (owner %d)", got, owner)
	}
	if got := r.OwnerAmong(key, func(int) bool { return false }); got != -1 {
		t.Fatalf("OwnerAmong with no live shards returned %d, want -1", got)
	}
}

// TestRingWireRoundTrip: encode → decode preserves epoch, replicas, shard
// set and — crucially — ownership.
func TestRingWireRoundTrip(t *testing.T) {
	r, err := NewRing(7, 32, []ShardInfo{{ID: 0, Addr: "h1:1"}, {ID: 4, Addr: "h2:2"}, {ID: 9, Addr: ""}})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRing(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch() != 7 || back.Replicas() != 32 || back.NumShards() != 3 {
		t.Fatalf("round-trip lost header: epoch=%d replicas=%d shards=%d", back.Epoch(), back.Replicas(), back.NumShards())
	}
	for i, s := range r.Shards() {
		if got := back.Shard(i); got.ID != s.ID || got.Addr != s.Addr || !slices.Equal(got.Replicas, s.Replicas) {
			t.Fatalf("shard %d round-tripped as %+v, want %+v", i, got, s)
		}
	}
	for k := 0; k < 2000; k++ {
		key := fmt.Sprintf("u%d", k)
		if r.Owner(key) != back.Owner(key) {
			t.Fatalf("ownership of %q changed across the wire", key)
		}
	}
}

// TestDecodeRingTypedErrors pins the failure taxonomy of the wire parser.
func TestDecodeRingTypedErrors(t *testing.T) {
	good := func() []byte { return testRing(t).Encode() }
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrRingCorrupt},
		{"bad magic", []byte("NOTARING????????"), ErrRingMagic},
		{"truncated header", []byte(RingMagic + "xx"), ErrRingCorrupt},
		{"bit flip", func() []byte { d := good(); d[len(d)/2] ^= 0xff; return d }(), ErrRingCorrupt},
		{"truncated tail", func() []byte { d := good(); return d[:len(d)-6] }(), ErrRingCorrupt},
		{"bad version", func() []byte {
			d := good()
			d[11] = 99 // format version low byte
			// Recompute the checksum so the version check is what fires.
			return append(d[:len(d)-4], testRingChecksum(d[:len(d)-4])...)
		}(), ErrRingVersion},
	}
	for _, tc := range cases {
		if _, err := DecodeRing(tc.data); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want errors.Is %v", tc.name, err, tc.want)
		}
	}
}

// testRingChecksum recomputes the trailing CRC for a doctored body.
func testRingChecksum(body []byte) []byte {
	return binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(body))
}

// TestNewRingRejectsBadShardSets pins construction validation.
func TestNewRingRejectsBadShardSets(t *testing.T) {
	if _, err := NewRing(1, 0, nil); !errors.Is(err, ErrBadRing) {
		t.Fatalf("empty shard set: %v", err)
	}
	if _, err := NewRing(1, 0, []ShardInfo{{ID: 0}, {ID: 0}}); !errors.Is(err, ErrBadRing) {
		t.Fatalf("duplicate IDs: %v", err)
	}
	if _, err := NewRing(1, 0, []ShardInfo{{ID: -1}}); !errors.Is(err, ErrBadRing) {
		t.Fatalf("negative ID: %v", err)
	}
	if _, err := NewRing(1, maxReplicas+1, []ShardInfo{{ID: 0}}); !errors.Is(err, ErrBadRing) {
		t.Fatalf("replica overflow: %v", err)
	}
}

// TestParsePeers pins the peer-list grammar and its typed failures.
func TestParsePeers(t *testing.T) {
	shards, err := ParsePeers("h1:8081, h2:8082 ,h3:8083")
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 || shards[1].ID != 1 || shards[1].Addr != "h2:8082" || shards[1].Replicas != nil {
		t.Fatalf("parsed %+v", shards)
	}
	for _, bad := range []string{"", "  ", "h1:1,,h2:2", "h1:1,h1:1"} {
		if _, err := ParsePeers(bad); !errors.Is(err, ErrBadPeers) {
			t.Fatalf("peer list %q: got %v, want ErrBadPeers", bad, err)
		}
	}
}

// TestRingPromoted pins the promotion decision as a pure function of the
// ring and the live replicas' cursors: the freshest live replica wins, a tie
// goes to the earlier replica-list entry, a dead replica never wins whatever
// cursor it once reported, and no live replica is a refusal. The successor
// has epoch + 1, the winner as primary and the dead ex-primary in the
// winner's place in the replica list; shard IDs, virtual nodes, the other
// shards and every key's owner (FuzzRingOwnershipPartition's property, here
// across the two rings) are unchanged, as is the ring it was derived from.
func TestRingPromoted(t *testing.T) {
	ring, err := NewRing(7, 64, []ShardInfo{
		{ID: 0, Addr: "p0", Replicas: []string{"a0"}},
		{ID: 1, Addr: "p1", Replicas: []string{"a", "b", "c"}},
		{ID: 2, Addr: "p2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		shard    int
		cursors  map[string]uint64
		primary  string   // "" = refused
		replicas []string // the promoted shard's replica list afterwards
	}{
		{"freshest-wins", 1, map[string]uint64{"a": 5, "b": 9, "c": 7}, "b", []string{"a", "p1", "c"}},
		{"freshest-is-last", 1, map[string]uint64{"a": 5, "b": 5, "c": 6}, "c", []string{"a", "b", "p1"}},
		{"tie-goes-to-the-earlier-entry", 1, map[string]uint64{"a": 9, "b": 9, "c": 9}, "a", []string{"p1", "b", "c"}},
		{"tie-among-the-live-only", 1, map[string]uint64{"b": 4, "c": 4}, "b", []string{"a", "p1", "c"}},
		{"a-cursor-of-zero-is-live", 1, map[string]uint64{"c": 0}, "c", []string{"a", "b", "p1"}},
		{"strangers-are-ignored", 1, map[string]uint64{"a0": 99, "p1": 99, "a": 1}, "a", []string{"p1", "b", "c"}},
		{"single-replica", 0, map[string]uint64{"a0": 3}, "a0", []string{"p0"}},
		{"no-live-replica", 1, map[string]uint64{}, "", nil},
		{"only-strangers-live", 1, map[string]uint64{"a0": 3}, "", nil},
		{"no-replicas-at-all", 2, map[string]uint64{"a": 1}, "", nil},
		{"shard-out-of-range", 3, map[string]uint64{"a": 1}, "", nil},
		{"negative-shard", -1, map[string]uint64{"a": 1}, "", nil},
	}
	before := ring.Encode()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			next, primary, err := ring.Promoted(tc.shard, tc.cursors)
			if !slices.Equal(ring.Encode(), before) {
				t.Fatal("Promoted changed the ring it was called on")
			}
			if tc.primary == "" {
				if err == nil || next != nil || primary != "" {
					t.Fatalf("promotion with cursors %v answered %q, %v; want a refusal", tc.cursors, primary, err)
				}
				if outOfRange := tc.shard < 0 || tc.shard >= ring.NumShards(); errors.Is(err, ErrBadRing) != outOfRange {
					t.Fatalf("refusal %v, ErrBadRing wanted only for an out-of-range shard", err)
				}
				return
			}
			if err != nil || primary != tc.primary {
				t.Fatalf("promoted %q (%v), want %q", primary, err, tc.primary)
			}
			if next.Epoch() != ring.Epoch()+1 || next.Replicas() != ring.Replicas() || next.NumShards() != ring.NumShards() {
				t.Fatalf("successor at epoch %d, %d vnodes, %d shards; want epoch %d and the rest unchanged",
					next.Epoch(), next.Replicas(), next.NumShards(), ring.Epoch()+1)
			}
			for i, was := range ring.Shards() {
				got := next.Shard(i)
				if i == tc.shard {
					was.Addr, was.Replicas = tc.primary, tc.replicas
				}
				if got.ID != was.ID || got.Addr != was.Addr || !slices.Equal(got.Replicas, was.Replicas) {
					t.Fatalf("shard %d is %+v after the promotion, want %+v", i, got, was)
				}
			}
			for k := 0; k < 2000; k++ {
				key := fmt.Sprintf("user-%d", k)
				if a, b := ring.Owner(key), next.Owner(key); a != b {
					t.Fatalf("promotion moved %q from shard %d to shard %d", key, a, b)
				}
			}
		})
	}
}
