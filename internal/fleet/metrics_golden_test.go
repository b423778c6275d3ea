package fleet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// TestMetricsGolden pins the full /metrics scrape of a scheduler with a
// coordinator attached, byte for byte: every fleet series is driven to
// a distinct non-zero value under a fake clock, including a labelled
// remote-job outcome and per-worker execution counts (one past 1e6, so
// an integer counter can never regress to float formatting).
func TestMetricsGolden(t *testing.T) {
	now := time.Unix(5000, 0)
	clock := func() time.Time { return now }
	sched, err := service.NewScheduler(service.Config{Dir: t.TempDir(), Now: clock, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ttl := 10 * time.Second
	c := NewCoordinator(CoordinatorConfig{Sched: sched, LeaseTTL: ttl, Now: clock})
	sched.SetRemote(c)

	// Three live workers and two dead ones, each with its own
	// execution count; four leases outstanding.
	for _, w := range []struct {
		id    string
		seen  time.Duration
		execs int64
	}{
		{"w3", 0, 2000001},
		{"w1", -time.Second, 71},
		{"w5", -2 * ttl, 72},
		{"w2", -ttl, 73},
		{"w4", -3 * ttl, 74},
	} {
		c.workers[w.id] = &workerState{id: w.id, lastSeen: now.Add(w.seen), executions: w.execs}
	}
	for _, id := range []string{"job-0001", "job-0002", "job-0003", "job-0004"} {
		c.leases[id] = &lease{jobID: id}
	}

	driveFleetMetrics(c)

	var sb strings.Builder
	sched.RenderMetrics(&sb)
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("scrape differs from testdata/metrics.golden (diff it against this render):\n%s", got)
	}
}

// driveFleetMetrics moves every coordinator counter to a distinct
// value through the coordinator's counters.
func driveFleetMetrics(c *Coordinator) {
	for _, ctr := range []struct {
		ctr *service.Counter
		n   int
	}{
		{c.enrolls, 11}, {c.leasesGranted, 12}, {c.leasesExpired, 13},
		{c.heartbeats, 14}, {c.handoffs, 15}, {c.handoffRejects, 16},
		{c.dispatchRetries, 17}, {c.dispatchFailures, 18}, {c.breakerOpens, 19},
	} {
		for i := 0; i < ctr.n; i++ {
			ctr.ctr.Inc()
		}
	}
	for i, label := range []string{"requeued", "done", "failed", "interrupted", "declined"} {
		for k := 0; k < 21+i; k++ {
			c.outcomes.Inc(label)
		}
	}
}
