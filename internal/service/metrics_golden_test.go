package service

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exec"
)

// TestMetricsGolden pins the full /metrics scrape of a scheduler with no
// remote runner, byte for byte: every series this package owns is
// driven to a distinct non-zero value under a fake clock, so a change
// to any family's order, HELP text, label order or number formatting
// shows up as a diff against testdata/metrics.golden.
func TestMetricsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenScrape(t); got != string(want) {
		t.Fatalf("scrape differs from testdata/metrics.golden (diff it against this render):\n%s", got)
	}
}

// goldenScrape renders a scheduler whose every series holds a distinct
// non-zero value.
func goldenScrape(t *testing.T) string {
	t.Helper()
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s := newTestScheduler(t, Config{Now: clock.now})

	// Jobs by state: state i of States() gets i+1 jobs. Finished jobs
	// carry persisted triage segments; running ones report
	// power-schedule progress.
	n := 0
	for i, st := range States() {
		for k := 0; k <= i; k++ {
			n++
			j := &Job{rec: jobRecord{ID: FormatID(n), State: st}}
			if st == StateDone {
				j.rec.Triage = &TriageStats{Received: 10 + k, Novel: 9, Duplicates: 7 + k, Reduced: 2}
			}
			if st == StateRunning {
				j.progress = core.Progress{ScheduleArms: 30 + k, ScheduleEnergy: 1.25 + float64(k)}
			}
			s.jobs[j.rec.ID] = j
			s.order = append(s.order, j.rec.ID)
		}
	}

	driveServiceMetrics(s)

	// Parse cache: capacity 32, 40 distinct seeds, 29 repeats.
	s.parse = corpus.NewParseCacheSize(32)
	seeds := corpus.DefaultPool(40, 9)
	for _, sd := range seeds {
		s.parse.Parse(sd)
	}
	for i := 0; i < 29; i++ {
		s.parse.Parse(seeds[39])
	}

	s.poolStats = func() (exec.Stats, int) {
		return exec.Stats{
			Executions:      410,
			Batches:         80,
			Spawns:          33,
			SpawnsAvoided:   377,
			RecycledByCount: 37,
			RecycledByMem:   38,
			Killed:          39,
			Retries:         41,
			Faults:          42,
		}, 27
	}

	clock.advance(50 * time.Second)
	return renderMetrics(s)
}

// driveServiceMetrics moves every registry counter to a distinct value
// through the scheduler's call-site counters; executions crosses 1e6 so
// an integer counter can never regress to float formatting.
func driveServiceMetrics(s *Scheduler) {
	m := s.metrics
	m.executions.Add(1234000)
	m.executions.Add(567)
	for _, c := range []struct {
		ctr *Counter
		n   int
	}{
		{m.findings, 11}, {m.jobsAccepted, 12}, {m.requeues, 15},
		{m.jobsQuarantined, 16}, {m.planJobs, 17}, {m.planFindings, 18},
		{m.genJobs, 19}, {m.genFindings, 26}, {m.distillRequests, 9},
	} {
		for i := 0; i < c.n; i++ {
			c.ctr.Inc()
		}
	}
	for i, c := range knownFaultClasses {
		for k := 0; k < 20+i; k++ {
			m.faults.Inc(c)
		}
	}
	m.genSeeds.Add(13)
	for i := 0; i < 9; i++ {
		m.distillSubmitted.Add(10 + i)
		m.distillKept.Add(5)
	}
	for _, d := range []float64{0, 1, 1, 2, 3, 7, 7, 12.5, 30, 60, 60, 99, 240, 1e6} {
		m.obvDelta.Observe(d)
	}
}
