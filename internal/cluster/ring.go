// Package cluster implements the sharded serving tier: a consistent-hash
// user-sharding layer and an HTTP scatter-gather router that fronts N shard
// servers (each an ordinary internal/serve server bootstrapped from a
// shard-scoped snapshot).
//
// The unit of partitioning is the user: the paper's GANC framework computes
// every recommendation list from one user's profile against shared item-level
// statistics, so user-partitioned serving needs no cross-shard coordination
// on the read path. The Ring assigns every external user key to exactly one
// shard via a consistent-hash ring with virtual nodes; the Router proxies
// GET /recommend to the owning shard, fans POST /recommend/batch and
// POST /ingest out across owning shards and merges the answers, and
// aggregates /info and /health across the whole cluster.
//
// Hashing is by shard ID only — never by address — so the same (epoch,
// replicas, shard count) triple yields the byte-identical ring everywhere:
// the process that shard-splits a snapshot, every shard and the router all
// agree on ownership without talking to each other. The epoch number
// versions that agreement: any membership change (shard count, replicas)
// must bump the epoch, and mixing epochs in one cluster is a deployment
// error the router surfaces through /info (see DESIGN.md §10).
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Ring limits guarding against nonsense in hostile peer lists and ring
// descriptions.
const (
	maxShards       = 1 << 10
	maxReplicas     = 1 << 10
	maxAddrLen      = 1 << 8
	maxReplicaAddrs = 8
)

// DefaultReplicas is the virtual-node count per shard when a Ring is built
// without an explicit override. 256 vnodes put the per-shard share's
// coefficient of variation around 6%, keeping the worst shard within ~20%
// of fair even on unlucky draws.
const DefaultReplicas = 256

// Sentinel errors for ring construction and peer-list parsing, matchable
// with errors.Is.
var (
	// ErrBadRing marks an invalid ring description (no shards, duplicate
	// shard IDs, out-of-range replica counts).
	ErrBadRing = errors.New("cluster: invalid ring")
	// ErrBadPeers marks a malformed peer list.
	ErrBadPeers = errors.New("cluster: invalid peer list")
)

// ShardInfo describes one shard: its stable identifier (the hashing key) and
// the address its HTTP server answers on. The address is routing metadata
// only — it never enters the hash, so shards can move between hosts without
// changing ownership.
type ShardInfo struct {
	// ID is the shard's stable identifier within the ring.
	ID int `json:"id"`
	// Addr is the shard server's host:port (empty for in-process rings that
	// are resolved by index instead of address). For a replicated shard this
	// is always the current primary — the only node that accepts writes.
	Addr string `json:"addr"`
	// Replicas lists the shard's replica addresses (read-failover targets).
	// Like Addr, they are routing metadata only and never enter the hash;
	// promotion swaps an entry with Addr without moving any user's ownership.
	Replicas []string `json:"replicas,omitempty"`
}

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash  uint64
	shard int // index into shards, not shard ID
}

// Ring is an immutable consistent-hash ring over a fixed shard set. Safe for
// concurrent use.
type Ring struct {
	epoch    uint64
	replicas int
	shards   []ShardInfo
	points   []ringPoint
}

// NewRing builds a ring over the given shards. replicas ≤ 0 selects
// DefaultReplicas. Shard IDs must be unique, non-negative and fit in 32
// bits; the shard order is preserved for index-based lookups.
func NewRing(epoch uint64, replicas int, shards []ShardInfo) (*Ring, error) {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("%w: no shards", ErrBadRing)
	}
	if len(shards) > maxShards {
		return nil, fmt.Errorf("%w: %d shards exceeds the limit of %d", ErrBadRing, len(shards), maxShards)
	}
	if replicas > maxReplicas {
		return nil, fmt.Errorf("%w: %d replicas exceeds the limit of %d", ErrBadRing, replicas, maxReplicas)
	}
	seen := make(map[int]struct{}, len(shards))
	for _, s := range shards {
		if s.ID < 0 || uint64(s.ID) > uint64(^uint32(0)) {
			return nil, fmt.Errorf("%w: shard ID %d out of range", ErrBadRing, s.ID)
		}
		if len(s.Addr) > maxAddrLen {
			return nil, fmt.Errorf("%w: shard %d address exceeds %d bytes", ErrBadRing, s.ID, maxAddrLen)
		}
		if _, dup := seen[s.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate shard ID %d", ErrBadRing, s.ID)
		}
		seen[s.ID] = struct{}{}
		if len(s.Replicas) > maxReplicaAddrs {
			return nil, fmt.Errorf("%w: shard %d lists %d replicas, the limit is %d",
				ErrBadRing, s.ID, len(s.Replicas), maxReplicaAddrs)
		}
		for k, addr := range s.Replicas {
			if addr == "" {
				return nil, fmt.Errorf("%w: shard %d replica %d has an empty address", ErrBadRing, s.ID, k)
			}
			if len(addr) > maxAddrLen {
				return nil, fmt.Errorf("%w: shard %d replica %d address exceeds %d bytes",
					ErrBadRing, s.ID, k, maxAddrLen)
			}
		}
	}
	copied := make([]ShardInfo, len(shards))
	for i, s := range shards {
		copied[i] = s
		copied[i].Replicas = append([]string(nil), s.Replicas...)
	}
	r := &Ring{
		epoch:    epoch,
		replicas: replicas,
		shards:   copied,
		points:   make([]ringPoint, 0, replicas*len(shards)),
	}
	var vnode [20]byte
	for idx, s := range r.shards {
		binary.BigEndian.PutUint64(vnode[4:], uint64(s.ID))
		for rep := 0; rep < replicas; rep++ {
			copy(vnode[:4], "vn|")
			binary.BigEndian.PutUint64(vnode[12:], uint64(rep))
			r.points = append(r.points, ringPoint{hash: hashBytes(vnode[:]), shard: idx})
		}
	}
	// Ties between vnodes of different shards are broken by shard ID so the
	// ring is a pure function of (epoch, replicas, shard IDs).
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		return r.shards[pa.shard].ID < r.shards[pb.shard].ID
	})
	return r, nil
}

// NewUniformRing builds the standard ring over shards 0..n-1 with empty
// addresses and DefaultReplicas — the form for questions of ownership alone,
// which addresses never change.
func NewUniformRing(epoch uint64, n int) (*Ring, error) {
	shards := make([]ShardInfo, n)
	for i := range shards {
		shards[i] = ShardInfo{ID: i}
	}
	return NewRing(epoch, 0, shards)
}

// hashBytes is the ring's hash function: FNV-1a 64 with a splitmix64
// avalanche finalizer. Plain FNV-1a clusters badly on vnode inputs that
// differ only in a trailing counter byte; the finalizer restores full-width
// dispersion. Both stages are fixed arithmetic, so the hash is stable across
// processes and platforms — which the cross-process ownership agreement
// depends on.
func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return mix64(h.Sum64())
}

// hashKey hashes an external user key onto the ring.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (Steele et al.), a fixed bijective
// avalanche over uint64.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e9b5
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Epoch returns the ring's membership epoch.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Replicas returns the virtual-node count per shard.
func (r *Ring) Replicas() int { return r.replicas }

// NumShards returns the shard count.
func (r *Ring) NumShards() int { return len(r.shards) }

// Shards returns a copy of the shard descriptors in ring order.
func (r *Ring) Shards() []ShardInfo {
	out := make([]ShardInfo, len(r.shards))
	for i, s := range r.shards {
		out[i] = s
		out[i].Replicas = append([]string(nil), s.Replicas...)
	}
	return out
}

// Shard returns the descriptor at index i (ring order, not shard ID). The
// Replicas slice is shared with the ring and must be treated as read-only.
func (r *Ring) Shard(i int) ShardInfo { return r.shards[i] }

// ownerIndex finds the ring point owning a hash: the first point clockwise
// from the hash, wrapping at the top.
func (r *Ring) ownerIndex(h uint64) int {
	k := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if k == len(r.points) {
		k = 0
	}
	return k
}

// Owner returns the index (into Shards) of the shard owning the user key.
// Every key maps to exactly one shard, deterministically.
func (r *Ring) Owner(userKey string) int {
	return r.points[r.ownerIndex(hashKey(userKey))].shard
}

// OwnerAmong returns the owning shard index restricted to shards for which
// alive reports true, walking clockwise past dead owners — the failover
// ownership rule for state-free decisions (health summaries, rebalancing
// previews). State-bearing routes must use Owner: a user's profile lives
// only on its true owner. Returns -1 when no shard is alive.
func (r *Ring) OwnerAmong(userKey string, alive func(shard int) bool) int {
	start := r.ownerIndex(hashKey(userKey))
	for k := 0; k < len(r.points); k++ {
		p := r.points[(start+k)%len(r.points)]
		if alive(p.shard) {
			return p.shard
		}
	}
	return -1
}

// Promoted is the promotion decision as a pure successor of the topology
// value: the ring that follows the loss of shard's primary, and the address
// it names the new primary. cursors holds the applied cursor of every live
// replica of the shard by address; an address absent from it is dead. The
// freshest live replica wins — any other choice would discard committed
// events it has already applied — and a tie goes to the earlier entry of the
// shard's replica list. The successor has epoch + 1 and the same shard IDs
// and virtual nodes, so no user changes owner; the dead ex-primary takes the
// winner's place in the replica list, where a later rejoin finds it without
// another ring change.
func (r *Ring) Promoted(shard int, cursors map[string]uint64) (next *Ring, newPrimary string, err error) {
	if shard < 0 || shard >= len(r.shards) {
		return nil, "", fmt.Errorf("%w: shard %d is not in the ring", ErrBadRing, shard)
	}
	shards := r.Shards()
	s := &shards[shard]
	best := -1
	for k, addr := range s.Replicas {
		if seq, live := cursors[addr]; live && (best < 0 || seq > cursors[s.Replicas[best]]) {
			best = k
		}
	}
	if best < 0 {
		return nil, "", fmt.Errorf("cluster: shard %d has no live replica to promote", s.ID)
	}
	s.Addr, s.Replicas[best] = s.Replicas[best], s.Addr
	next, err = NewRing(r.epoch+1, r.replicas, shards)
	return next, s.Addr, err
}

// ParsePeerTopology turns a peer list — the cmd-line form of a shard map —
// into shard descriptors: each comma-separated entry is "primary" or
// "primary+replica1+replica2", e.g. "h1:8081+h1:9081,h2:8082+h2:9082" for a
// two-shard cluster with one replica each. IDs are assigned by position;
// empty entries, oversized addresses, duplicate addresses (across primaries
// and replicas alike) and more entries than a ring holds fail with
// ErrBadPeers.
func ParsePeerTopology(list string) ([]ShardInfo, error) {
	if strings.TrimSpace(list) == "" {
		return nil, fmt.Errorf("%w: empty list", ErrBadPeers)
	}
	parts := strings.Split(list, ",")
	if len(parts) > maxShards {
		return nil, fmt.Errorf("%w: %d entries exceeds the limit of %d shards", ErrBadPeers, len(parts), maxShards)
	}
	shards := make([]ShardInfo, 0, len(parts))
	seen := make(map[string]struct{}, len(parts))
	take := func(entry int, raw string) (string, error) {
		addr := strings.TrimSpace(raw)
		if addr == "" {
			return "", fmt.Errorf("%w: entry %d has an empty address", ErrBadPeers, entry)
		}
		if len(addr) > maxAddrLen {
			return "", fmt.Errorf("%w: entry %d address exceeds %d bytes", ErrBadPeers, entry, maxAddrLen)
		}
		if _, dup := seen[addr]; dup {
			return "", fmt.Errorf("%w: duplicate address %q", ErrBadPeers, addr)
		}
		seen[addr] = struct{}{}
		return addr, nil
	}
	for k, part := range parts {
		nodes := strings.Split(part, "+")
		if len(nodes)-1 > maxReplicaAddrs {
			return nil, fmt.Errorf("%w: entry %d lists %d replicas, the limit is %d",
				ErrBadPeers, k, len(nodes)-1, maxReplicaAddrs)
		}
		primary, err := take(k, nodes[0])
		if err != nil {
			return nil, err
		}
		info := ShardInfo{ID: k, Addr: primary}
		for _, rep := range nodes[1:] {
			addr, err := take(k, rep)
			if err != nil {
				return nil, err
			}
			info.Replicas = append(info.Replicas, addr)
		}
		shards = append(shards, info)
	}
	return shards, nil
}
