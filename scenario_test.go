//go:build e2e

package ganc

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ganc/internal/simtest"
)

// The tier-2 E2E scenario suite: full system lifecycles — train, snapshot,
// reload, serve under closed-loop load, ingest churn, crash and recover —
// driven by the internal/simulate scenario runner against the real
// Pipeline/Server/Ingestor stack. Build-tagged e2e and run under -race by the
// CI e2e job:
//
//	go test -race -tags e2e -run TestScenario .
//
// Every assertion lives in the runner: warm-start parity (PhaseLoad),
// recovery equivalence against an uninterrupted shadow (PhaseKillAndRecover)
// and error-free serving (PhaseServeUnderLoad, PhaseIngestChurn) all fail the
// scenario with a descriptive error.

// e2eUniverse is the shared tier-2 universe fixture (internal/simtest):
// large enough to exercise real eviction/coalescing behavior but small
// enough for -race throughput.
func e2eUniverse(seed int64) UniverseConfig {
	return simtest.E2E(seed)
}

// e2eSystem is the standard system under test from the shared fixture
// parameters: the cheapest snapshot-compatible pipeline, so scenario time
// goes to lifecycle coverage rather than training.
func e2eSystem() SimSystemConfig {
	return SimSystemConfig{
		Base:  simtest.StandardBase,
		Theta: ParsePreferenceModel(simtest.StandardTheta),
		Seed:  simtest.StandardSeed,
	}
}

// TestScenarioWarmStartParity: train → save → serve under load → reload the
// snapshot → serve again. The runner asserts the reloaded system's batch
// output is byte-identical to the trained one's, and that no request fails
// before or after the swap.
func TestScenarioWarmStartParity(t *testing.T) {
	sc := Scenario{
		Name:     "warm-start-parity",
		Universe: e2eUniverse(11),
		TopN:     10,
		Seed:     23,
		Phases: []ScenarioPhase{
			{Kind: PhaseTrain},
			{Kind: PhaseSave},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8},
			{Kind: PhaseLoad},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8},
		},
	}
	res, err := RunScenario(context.Background(), sc, t.TempDir(), e2eSystem())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Phases[3].ParityChecked {
		t.Fatal("load phase did not assert warm-start parity")
	}
	for _, k := range []int{2, 4} {
		load := res.Phases[k].Load
		if load == nil || load.Requests == 0 {
			t.Fatalf("serve phase %d recorded no load result", k)
		}
		if load.CacheHitRate <= 0 {
			t.Fatalf("serve phase %d saw no cache hits (rate %v)", k, load.CacheHitRate)
		}
	}
}

// TestScenarioKillRecoverEquivalence: the crash-consistency property at
// system level. Events stream through POST /ingest with a WAL and periodic
// checkpoints; the process is killed between checkpoints, restored from the
// last checkpoint and replays the WAL suffix. The runner asserts the
// recovered output is byte-identical to an uninterrupted shadow system that
// absorbed the same events, then serving resumes error-free.
func TestScenarioKillRecoverEquivalence(t *testing.T) {
	sc := Scenario{
		Name:            "kill-and-recover",
		Universe:        e2eUniverse(13),
		TopN:            10,
		CheckpointEvery: 75,
		Seed:            29,
		Phases: []ScenarioPhase{
			{Kind: PhaseTrain},
			{Kind: PhaseSave},
			{Kind: PhaseIngestChurn, Events: 200, EventBatch: 30, Concurrency: 4},
			{Kind: PhaseKillAndRecover},
			{Kind: PhaseServeUnderLoad, Requests: 300, Concurrency: 8},
		},
	}
	res, err := RunScenario(context.Background(), sc, t.TempDir(), e2eSystem())
	if err != nil {
		t.Fatal(err)
	}
	churn, kr := res.Phases[2], res.Phases[3]
	if churn.EventsApplied != 200 {
		t.Fatalf("churn applied %d events, want 200", churn.EventsApplied)
	}
	if churn.ReaderRequests == 0 {
		t.Fatal("no concurrent read traffic during churn")
	}
	if !kr.ParityChecked {
		t.Fatal("kill-and-recover did not assert equivalence")
	}
	// Batches of 30 with cadence 75 checkpoint at 90 and 180 events, leaving
	// a 20-event WAL suffix the recovery must replay.
	if kr.Replayed != 20 {
		t.Fatalf("recovery replayed %d events, want the 20-event WAL suffix", kr.Replayed)
	}
}

// TestScenarioOverloadGracefulDegradation: drive offered load well past the
// admission budget and assert the system degrades gracefully — typed 429s
// with Retry-After, zero 5xx, bounded served-request p99 — while /metrics
// stays scrapeable mid-scenario and parses under the strict text-format
// parser. Once per gate: the token bucket (1 req/s, burst 8) against 300
// closed-loop requests from one client key makes shedding an arithmetic
// certainty; a concurrency cap (what `loadgen -overload` configures by
// default) sheds only requests beyond the ones it holds, and a cap of 1
// against 8 workers sheds on every overlap — writes in the mix block on the
// write-ahead log, so handlers overlap even on one CPU.
func TestScenarioOverloadGracefulDegradation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		admit AdmissionConfig
		mix   LoadMix
	}{
		{"rate-limit", AdmissionConfig{RatePerSec: 1, Burst: 8}, LoadMix{}},
		{"max-concurrent", AdmissionConfig{MaxConcurrent: 1}, LoadMix{Recommend: 80, Batch: 10, Ingest: 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := e2eSystem()
			cfg.Metrics = true
			cfg.Admission = tc.admit
			sc := Scenario{
				Name:     "overload-graceful-degradation",
				Universe: e2eUniverse(19),
				TopN:     10,
				Seed:     37,
				Phases: []ScenarioPhase{
					{Kind: PhaseTrain},
					{Kind: PhaseOverload, Requests: 300, Concurrency: 8, Mix: tc.mix},
				},
			}
			res, err := RunScenario(context.Background(), sc, t.TempDir(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ov := res.Phases[1]
			if ov.Load == nil || ov.Load.Requests == 0 {
				t.Fatal("overload phase recorded no load result")
			}
			if ov.Load.Shed == 0 {
				t.Fatalf("overload shed nothing across %d requests", ov.Load.Requests)
			}
			if ov.Load.Errors != 0 {
				t.Fatalf("overload produced %d hard errors; degradation must be 429s, not 5xx", ov.Load.Errors)
			}
			if !ov.MetricsValidated {
				t.Fatal("mid-scenario /metrics scrape was not validated")
			}
		})
	}
}

// TestScenarioIngestChurnUnderLoad: sustained concurrent ingestion against
// read traffic, twice, with no crash — the no-panic/no-leak property. The
// goroutine census before and after bounds leaks from the serving layer's
// coalescing and the ingestor's swap path.
func TestScenarioIngestChurnUnderLoad(t *testing.T) {
	before := goroutineCensus()
	sc := Scenario{
		Name:            "ingest-churn-under-load",
		Universe:        e2eUniverse(17),
		TopN:            10,
		CheckpointEvery: 0, // WAL only: churn without snapshot pauses
		Seed:            31,
		Phases: []ScenarioPhase{
			{Kind: PhaseTrain},
			{Kind: PhaseSave},
			{Kind: PhaseIngestChurn, Events: 300, EventBatch: 20, Concurrency: 8},
			{Kind: PhaseServeUnderLoad, Requests: 300, Concurrency: 8, Mix: LoadMix{Recommend: 80, Batch: 10, Ingest: 10}},
			{Kind: PhaseIngestChurn, Events: 200, EventBatch: 20, Concurrency: 8},
		},
	}
	res, err := RunScenario(context.Background(), sc, t.TempDir(), e2eSystem())
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res.Phases {
		if pr.ReaderErrors != 0 {
			t.Fatalf("phase %s: %d reader errors", pr.Kind, pr.ReaderErrors)
		}
	}
	serveRes := res.Phases[3].Load
	if serveRes.EndVersion <= serveRes.StartVersion {
		t.Fatalf("ingest traffic never republished the engine (version %d → %d)",
			serveRes.StartVersion, serveRes.EndVersion)
	}
	after := goroutineCensus()
	// Allow slack for runtime helpers, but catch per-request or per-batch
	// goroutine leaks (hundreds of requests ran).
	if after > before+10 {
		t.Fatalf("goroutine census grew from %d to %d: serving leaked", before, after)
	}
}

// goroutineCensus samples the goroutine count after letting transient
// HTTP/test goroutines drain.
func goroutineCensus() int {
	n := runtime.NumGoroutine()
	for k := 0; k < 50; k++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return n
		}
		n = m
	}
	return n
}
