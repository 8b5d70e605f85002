package simulate

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TinyConfig is the unit-test universe: big enough for non-degenerate
// streams and caches, small enough to generate in microseconds.
func TinyConfig(seed int64) UniverseConfig {
	return UniverseConfig{Users: 60, Items: 40, Ratings: 900, Seed: seed}
}

// TestUniverseDeterministic is the generator half of the determinism
// acceptance criterion: the same seed must produce the byte-identical
// dataset; a different seed must not.
func TestUniverseDeterministic(t *testing.T) {
	serialize := func(seed int64) []byte {
		u, err := NewUniverse(TinyConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := u.WriteRatings(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := serialize(7), serialize(7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different datasets")
	}
	if bytes.Equal(a, serialize(8)) {
		t.Fatal("different seeds produced the same dataset")
	}
}

// TestEventStreamDeterministic is the stream half of the criterion: the same
// seed yields the byte-identical event sequence (compared in JSON, the WAL's
// wire form).
func TestEventStreamDeterministic(t *testing.T) {
	u, err := NewUniverse(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	serialize := func(seed int64) []byte {
		s := u.EventStream(EventStreamConfig{Seed: seed})
		data, err := json.Marshal(s.NextBatch(500))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := serialize(11), serialize(11)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different event streams")
	}
	if bytes.Equal(a, serialize(12)) {
		t.Fatal("different seeds produced the same event stream")
	}
}

// TestEventStreamInjectsNewUsersAndItems checks the churn knobs: brand-new
// identifiers appear at roughly the configured rates, and known identifiers
// come from the universe.
func TestEventStreamInjectsNewUsersAndItems(t *testing.T) {
	u, err := NewUniverse(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	s := u.EventStream(EventStreamConfig{NewUserRate: 0.2, NewItemRate: 0.1, Seed: 5})
	users := u.Train().UserInterner()
	items := u.Train().ItemInterner()
	newUsers, newItems := 0, 0
	const n = 2000
	for k := 0; k < n; k++ {
		ev := s.Next()
		if _, ok := users.Lookup(ev.User); !ok {
			newUsers++
		}
		if _, ok := items.Lookup(ev.Item); !ok {
			newItems++
		}
		if ev.Value < 1 || ev.Value > 5 {
			t.Fatalf("event value %v outside the rating scale", ev.Value)
		}
	}
	if newUsers == 0 || newItems == 0 {
		t.Fatalf("no churn generated: %d new users, %d new items", newUsers, newItems)
	}
	if got := float64(newUsers) / n; got > 0.3 {
		t.Fatalf("new-user share %.2f far above the configured 0.2", got)
	}
}

// TestRequestStreamSkewAndDeterminism checks that request traffic is hot-user
// skewed (the cache-relevance property) and seed-deterministic.
func TestRequestStreamSkewAndDeterminism(t *testing.T) {
	u, err := NewUniverse(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64) map[string]int {
		r := u.RequestStream(RequestStreamConfig{ZipfExponent: 1.2, Seed: seed})
		counts := make(map[string]int)
		for k := 0; k < 3000; k++ {
			counts[r.NextUser()]++
		}
		return counts
	}
	a := draw(9)
	max := 0
	for _, c := range a {
		if c > max {
			max = c
		}
	}
	uniform := 3000 / u.Train().NumUsers()
	if max < 3*uniform {
		t.Fatalf("hottest user drew %d requests, want ≥ 3× the uniform share %d", max, uniform)
	}
	b := draw(9)
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("same seed produced different request streams (user %s: %d vs %d)", k, v, b[k])
		}
	}
}

// TestComputeStats pins the percentile reduction on a known distribution.
func TestComputeStats(t *testing.T) {
	d := make([]time.Duration, 100)
	for k := range d {
		d[k] = time.Duration(k+1) * time.Millisecond
	}
	s := computeStats(d)
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	if s.P50Ms != 50 || s.P95Ms != 95 || s.P99Ms != 99 || s.MaxMs != 100 {
		t.Fatalf("percentiles p50=%v p95=%v p99=%v max=%v", s.P50Ms, s.P95Ms, s.P99Ms, s.MaxMs)
	}
	if s.MeanMs != 50.5 {
		t.Fatalf("mean %v", s.MeanMs)
	}
	if zero := computeStats(nil); zero.Count != 0 || zero.MaxMs != 0 {
		t.Fatalf("empty stats %+v", zero)
	}
}
