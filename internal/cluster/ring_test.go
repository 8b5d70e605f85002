package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
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

// TestParsePeerTopology pins the peer-list grammar and its typed failures.
func TestParsePeerTopology(t *testing.T) {
	for list, want := range map[string][]ShardInfo{
		"h1:8081, h2:8082 ,h3:8083": {{ID: 0, Addr: "h1:8081"}, {ID: 1, Addr: "h2:8082"}, {ID: 2, Addr: "h3:8083"}},
		"h1:8081+h1:9081, h2:8082 + h2:9082+h2:9083": {
			{ID: 0, Addr: "h1:8081", Replicas: []string{"h1:9081"}},
			{ID: 1, Addr: "h2:8082", Replicas: []string{"h2:9082", "h2:9083"}},
		},
	} {
		shards, err := ParsePeerTopology(list)
		if err != nil {
			t.Fatalf("peer list %q: %v", list, err)
		}
		if !slices.EqualFunc(shards, want, func(a, b ShardInfo) bool {
			return a.ID == b.ID && a.Addr == b.Addr && slices.Equal(a.Replicas, b.Replicas)
		}) {
			t.Fatalf("peer list %q parsed as %+v, want %+v", list, shards, want)
		}
	}
	hosts := make([]string, maxShards+1)
	for k := range hosts {
		hosts[k] = fmt.Sprintf("h%d:1", k)
	}
	tooMany := strings.Join(hosts, ",")
	for _, bad := range []string{"", "  ", "h1:1,,h2:2", "h1:1,h1:1", "h1:1+,h2:2", "h1:1+h2:2,h2:2",
		"h1:1" + strings.Repeat("+r", maxReplicaAddrs+1), strings.Repeat("x", maxAddrLen+1), tooMany} {
		if _, err := ParsePeerTopology(bad); !errors.Is(err, ErrBadPeers) {
			t.Fatalf("peer list %.40q: got %v, want ErrBadPeers", bad, err)
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
	before := ring.Shards()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			next, primary, err := ring.Promoted(tc.shard, tc.cursors)
			if ring.Epoch() != 7 || !slices.EqualFunc(ring.Shards(), before, func(a, b ShardInfo) bool {
				return a.ID == b.ID && a.Addr == b.Addr && slices.Equal(a.Replicas, b.Replicas)
			}) {
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
