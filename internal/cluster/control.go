package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"

	"ganc/internal/serve"
)

// The control plane: how a ring change reaches the nodes. The router is the
// configuration master — the one place a promotion or a reshard (its own
// POST /admin/reshard, or Reshard called in-process) decides the next ring —
// and it reaches nodes only over its hop: every node
// mounts POST /admin/ring and adopts a change only when its epoch is newer
// than the one the node holds (epoch-numbered reconfiguration). DESIGN.md §15
// is the reference.

// RingPath is the route a node takes a ring change on.
const RingPath = "/admin/ring"

// ErrPromotionRefused marks a promotion the router declined: the primary
// still answers, or a reshard is in flight.
var ErrPromotionRefused = errors.New("cluster: promotion refused")

// RingChange is the body of POST /admin/ring: one node's place in a ring.
type RingChange struct {
	// Shard is the node's shard; Epoch and NumShards describe the ring.
	Shard     int    `json:"shard"`
	Epoch     uint64 `json:"epoch"`
	NumShards int    `json:"num_shards"`
	// Primary is set for the shard's primary. Sent to a replica, it promotes
	// the node, which then ships to Replicas and acks a write once the write
	// quorum of its own shard identity holds it — every node of a shard loads
	// the same quorum, so a ring change never carries one.
	Primary  bool     `json:"primary"`
	Replicas []string `json:"replicas"`
}

// ringAnswer is a node's answer to a ring change: the epoch of the ring it
// holds after the call, and the typed refusal on non-200 answers.
type ringAnswer struct {
	Epoch uint64 `json:"epoch"`
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// parseRingChange decodes and validates one ring change. Every failure wraps
// ErrStreamBody (and, for a body over the cap, the reader's
// *http.MaxBytesError).
func parseRingChange(r io.Reader) (*RingChange, error) {
	var c RingChange
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrStreamBody, err)
	}
	switch {
	case c.NumShards < 1 || c.NumShards > maxShards:
		return nil, fmt.Errorf("%w: shard count %d outside [1, %d]", ErrStreamBody, c.NumShards, maxShards)
	case c.Shard < 0 || c.Shard >= c.NumShards:
		return nil, fmt.Errorf("%w: shard %d outside a ring of %d", ErrStreamBody, c.Shard, c.NumShards)
	case len(c.Replicas) > maxReplicaAddrs:
		return nil, fmt.Errorf("%w: %d replicas, the limit is %d", ErrStreamBody, len(c.Replicas), maxReplicaAddrs)
	}
	for k, addr := range c.Replicas {
		if addr == "" || len(addr) > maxAddrLen {
			return nil, fmt.Errorf("%w: replica %d address is empty or exceeds %d bytes", ErrStreamBody, k, maxAddrLen)
		}
	}
	return &c, nil
}

// handleRing serves POST /admin/ring. Refusals are typed: 405/400/413
// ring_body, 409 ring_shard / ring_epoch / ring_role, 500 ring_apply.
func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	err := errStreamMethod
	if r.Method == http.MethodPost {
		var c *RingChange
		if c, err = parseRingChange(http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes)); err == nil {
			err = n.changeRing(c)
		}
	}
	status, ans := http.StatusOK, ringAnswer{Epoch: n.ringEpoch()}
	if err != nil {
		var suffix string
		status, suffix = refusal(err)
		ans.Error, ans.Code = err.Error(), "ring_"+suffix
	}
	writeJSON(w, status, ans)
}

// changeRing adopts a ring change for this node's shard whose epoch is newer
// than the node's — or, so that a retried push is idempotent, the change the
// node already holds. A live primary is never demoted.
func (n *Node) changeRing(c *RingChange) error {
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	cur := n.ring
	same := c.Shard == cur.Shard && c.Epoch == cur.Epoch && c.NumShards == cur.NumShards &&
		c.Primary == cur.Primary && slices.Equal(c.Replicas, cur.Replicas)
	switch {
	case c.Shard != n.shard:
		return fmt.Errorf("%w: change for shard %d reached shard %d", ErrStreamShard, c.Shard, n.shard)
	case same:
		return nil
	case c.Epoch <= cur.Epoch:
		return fmt.Errorf("%w: change at epoch %d, node is at epoch %d", ErrStreamEpoch, c.Epoch, cur.Epoch)
	case !c.Primary && n.Primary():
		return fmt.Errorf("%w: a live primary is not demoted", ErrStreamRole)
	}
	if err := n.adopt(*c); err != nil {
		return err
	}
	n.ring = *c
	return nil
}

// ringEpoch returns the epoch of the last ring change the node adopted.
func (n *Node) ringEpoch() uint64 {
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	return n.ring.Epoch
}

// Promote replaces shard's dead primary with its freshest live replica under
// the next epoch, and returns that epoch. It is the one promotion path:
// Cluster.Promote, the detector's suspicion under AutoFailover and gancd's
// router role all reach it. The steps:
//
//  1. the suspected primary's /health is probed again; an answer (a restart,
//     a false suspicion) refuses the promotion;
//  2. every replica's applied cursor is read with one fresh /health probe, and
//     Ring.Promoted chooses the successor;
//  3. every reachable node is pushed its place in the next ring — the old
//     primary first, the new primary last (it ships and acks under the write
//     quorum of its own shard identity) — and only then is the ring stored.
//
// A refusal stops the pushes before the new primary's: an old primary that
// came back answers first that a live primary is not demoted, so no node
// adopts the change. A failed push leaves the router's ring unchanged, and
// the next epoch the router hands out is above every epoch it pushed, so a
// retry is newer than whatever the first attempt left on the nodes, whichever
// successor it chooses.
func (rt *Router) Promote(shard int) (uint64, error) {
	rt.topo.Lock()
	defer rt.topo.Unlock()
	if rt.reshard.Load() != nil {
		return 0, fmt.Errorf("%w: a reshard is in flight", ErrPromotionRefused)
	}
	ring := rt.Ring()
	if shard < 0 || shard >= ring.NumShards() {
		return 0, fmt.Errorf("%w: shard %d is not in the ring", ErrBadRing, shard)
	}
	old := ring.Shard(shard).Addr
	if _, err := rt.health(old); err == nil {
		return 0, fmt.Errorf("%w: shard %d's primary %s still answers", ErrPromotionRefused, shard, old)
	}
	cursors := make(map[string]uint64)
	for _, addr := range ring.Shard(shard).Replicas {
		if h, err := rt.health(addr); err == nil {
			cursors[addr] = 0
			if h.Replication != nil {
				cursors[addr] = h.Replication.AppliedSeq
			}
		}
	}
	next, addr, err := ring.Promoted(shard, cursors)
	if err == nil {
		next, err = rt.fresh(next)
	}
	if err != nil {
		return 0, err
	}
	pushes := ringPushes(next)
	rank := func(p ringPush) int {
		switch p.addr {
		case old:
			return -1
		case addr:
			return 1
		}
		return 0
	}
	slices.SortStableFunc(pushes, func(a, b ringPush) int { return rank(a) - rank(b) })
	for _, p := range pushes {
		if err := rt.sendRing(p); err != nil && (p.addr == addr || !errors.Is(err, errUnreachable)) {
			return 0, fmt.Errorf("cluster: promoting %s for shard %d: %w", addr, shard, err)
		}
	}
	rt.ring.Store(next)
	return next.Epoch(), nil
}

// fresh returns next, renumbered above the highest epoch the router has
// handed out when it is not already above it: a ring change the router starts
// must be newer than whatever an earlier, failed one left on the nodes.
// Ownership does not depend on the epoch, so the renumbered ring routes every
// user as next does. The caller holds rt.topo.
func (rt *Router) fresh(next *Ring) (*Ring, error) {
	if next.Epoch() > rt.pushed {
		return next, nil
	}
	return NewRing(rt.pushed+1, next.Replicas(), next.Shards())
}

// handleReshard serves the router's POST /admin/reshard?target=N: a live
// reshard of the ring to N shards at the next epoch (Reshard). A shrink
// retires the ring's last shards. A grow names the added shards in add=, in
// -peers syntax, one entry per shard in shard-id order ("a:1,b:2+c:3"), and
// their nodes must already serve. A malformed target or add answers 400, a
// refused or failed reshard 409 with the error, a published one 200 with its
// ReshardStats — and, when a node refused its commit push (the ring is
// published all the same), that refusal in an error field beside them.
func (rt *Router) handleReshard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
		return
	}
	next, err := rt.resized(r.URL.Query().Get("target"), r.URL.Query().Get("add"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	stats, err := rt.Reshard(next)
	switch {
	case stats == nil:
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
	case err != nil:
		writeJSON(w, http.StatusOK, struct {
			*ReshardStats
			Error string `json:"error"`
		}{stats, err.Error()})
	default:
		writeJSON(w, http.StatusOK, stats)
	}
}

// resized builds the ring handleReshard moves to: the current ring's first
// target shards, then the added ones, at the next epoch.
func (rt *Router) resized(target, add string) (*Ring, error) {
	ring := rt.Ring()
	n, err := strconv.Atoi(target)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("%w: missing or malformed ?target=N", ErrBadRing)
	}
	var added []ShardInfo
	if add != "" {
		if added, err = ParsePeerTopology(add); err != nil {
			return nil, err
		}
	}
	if want := max(n-ring.NumShards(), 0); len(added) != want {
		return nil, fmt.Errorf("%w: a reshard from %d to %d shards names %d added shards in add=, got %d",
			ErrBadRing, ring.NumShards(), n, want, len(added))
	}
	infos := ring.Shards()[:min(n, ring.NumShards())]
	for k, s := range added {
		s.ID = ring.NumShards() + k
		infos = append(infos, s)
	}
	return NewRing(ring.Epoch()+1, ring.Replicas(), infos)
}

// promoteSuspect is the detector's suspicion handler under AutoFailover: it
// promotes the shard unless the suspected address is no longer its primary.
// A refused or failed promotion is dropped; the detector fires again in the
// next outage episode, and reads keep failing over meanwhile.
func (rt *Router) promoteSuspect(shard int, addr string) {
	if ring := rt.Ring(); shard < ring.NumShards() && ring.Shard(shard).Addr == addr {
		_, _ = rt.Promote(shard)
	}
}

// health probes one node's /health within the probe timeout.
func (rt *Router) health(addr string) (*serve.HealthResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.probe)
	defer cancel()
	return probeHealth(ctx, rt.hop, addr)
}

// ringPush is one node's place in a ring, addressed to the node.
type ringPush struct {
	addr string
	c    RingChange
}

// ringPushes lists every node of next with its place in it, the primaries
// before the replicas.
func ringPushes(next *Ring) []ringPush {
	var primaries, replicas []ringPush
	for _, s := range next.shards {
		c := RingChange{Shard: s.ID, Epoch: next.Epoch(), NumShards: next.NumShards(), Replicas: s.Replicas}
		for _, addr := range s.Replicas {
			replicas = append(replicas, ringPush{addr, c})
		}
		c.Primary = true
		primaries = append(primaries, ringPush{s.Addr, c})
	}
	return append(primaries, replicas...)
}

// errUnreachable marks a ring push that never got an answer.
var errUnreachable = errors.New("cluster: node unreachable")

// sendRing posts one ring change, once, and reports the node's refusal. It
// raises the highest epoch the router has handed out to the change's epoch
// (an unanswered push may still have landed) and to the epoch the node
// answers it holds. The caller holds rt.topo.
func (rt *Router) sendRing(p ringPush) error {
	rt.pushed = max(rt.pushed, p.c.Epoch)
	body, err := json.Marshal(p.c)
	if err != nil {
		return err
	}
	status, answer, err := exchange(context.Background(), rt.hop, http.MethodPost, p.addr, RingPath, body, 1<<20)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", errUnreachable, p.addr, err)
	}
	var ans ringAnswer
	// An undecodable answer still fails on its status.
	_ = json.Unmarshal(answer, &ans)
	rt.pushed = max(rt.pushed, ans.Epoch)
	if status != http.StatusOK {
		return fmt.Errorf("cluster: node %s refused the ring change to epoch %d: status %d, code %q: %s",
			p.addr, p.c.Epoch, status, ans.Code, ans.Error)
	}
	return nil
}
