package service

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
)

// fakeClock advances only when told, pinning rate/uptime math.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// addJobs registers n jobs in the given state directly on the
// scheduler, so scrape-time gauges see them without running campaigns.
func addJobs(s *Scheduler, st JobState, n int, triage *TriageStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		id := FormatID(len(s.order) + 1)
		s.jobs[id] = &Job{rec: jobRecord{ID: id, State: st, Triage: triage}}
		s.order = append(s.order, id)
		triage = nil
	}
}

func renderMetrics(s *Scheduler) string {
	var sb strings.Builder
	s.RenderMetrics(&sb)
	return sb.String()
}

func wantLine(t *testing.T, out, line string) {
	t.Helper()
	if !strings.Contains(out, line+"\n") {
		t.Errorf("metrics output missing %q\n---\n%s", line, out)
	}
}

func TestMetricsRender(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s := newTestScheduler(t, Config{Now: clock.now})
	m := s.metrics

	m.executions.Add(40)
	m.executions.Add(10)
	m.executions.Add(0) // ignored
	m.findings.Inc()
	m.findings.Inc()
	m.faults.Inc("crash")
	m.faults.Inc("crash")
	m.faults.Inc("timeout")
	m.jobsAccepted.Inc()
	m.genJobs.Inc()
	m.genSeeds.Add(4)
	m.genSeeds.Add(0)  // ignored
	m.genSeeds.Add(-1) // ignored
	m.genFindings.Inc()
	for _, d := range []float64{0, 1, 3, 100, 1e6} {
		m.obvDelta.Observe(d)
	}
	clock.advance(10 * time.Second)

	addJobs(s, StateDone, 2, &TriageStats{Received: 10, Novel: 3, Duplicates: 7})
	addJobs(s, StateRunning, 1, nil)
	out := renderMetrics(s)

	wantLine(t, out, `mopfuzzd_jobs{state="done"} 2`)
	wantLine(t, out, `mopfuzzd_jobs{state="running"} 1`)
	wantLine(t, out, `mopfuzzd_jobs{state="queued"} 0`) // zero states still emitted
	wantLine(t, out, `mopfuzzd_jobs_accepted_total 1`)
	wantLine(t, out, `mopfuzzd_executions_total 50`)
	wantLine(t, out, `mopfuzzd_executions_per_second 5`)
	wantLine(t, out, `mopfuzzd_findings_total 2`)
	wantLine(t, out, `mopfuzzd_generate_jobs_total 1`)
	wantLine(t, out, `mopfuzzd_generate_seeds_total 4`)
	wantLine(t, out, `mopfuzzd_generate_findings_total 1`)
	wantLine(t, out, `mopfuzzd_faults_total{class="crash"} 2`)
	wantLine(t, out, `mopfuzzd_faults_total{class="timeout"} 1`)
	// Every known class appears even at zero, so dashboards can rely on
	// the series existing.
	wantLine(t, out, `mopfuzzd_faults_total{class="miscompile"} 0`)
	wantLine(t, out, `mopfuzzd_faults_total{class="heap-exhausted"} 0`)
	wantLine(t, out, `mopfuzzd_faults_total{class="harness-fault"} 0`)
	// Histogram buckets are cumulative.
	wantLine(t, out, `mopfuzzd_obv_delta_bucket{le="0"} 1`)
	wantLine(t, out, `mopfuzzd_obv_delta_bucket{le="1"} 2`)
	wantLine(t, out, `mopfuzzd_obv_delta_bucket{le="5"} 3`)
	wantLine(t, out, `mopfuzzd_obv_delta_bucket{le="100"} 4`)
	wantLine(t, out, `mopfuzzd_obv_delta_bucket{le="+Inf"} 5`)
	wantLine(t, out, `mopfuzzd_obv_delta_count 5`)
	wantLine(t, out, `mopfuzzd_triage_findings_total 10`)
	wantLine(t, out, `mopfuzzd_triage_signatures_total 3`)
	wantLine(t, out, `mopfuzzd_triage_dedup_hits_total 7`)
	wantLine(t, out, `mopfuzzd_triage_dedup_hit_ratio 0.7`)
	wantLine(t, out, `mopfuzzd_uptime_seconds 10`)
}

func TestRenderExecPool(t *testing.T) {
	s := newTestScheduler(t, Config{})
	st := exec.Stats{
		Executions:      40,
		Batches:         8,
		Spawns:          3,
		SpawnsAvoided:   37,
		RecycledByCount: 2,
		RecycledByMem:   1,
		Killed:          4,
		Retries:         1,
		Faults:          1,
	}
	s.poolStats = func() (exec.Stats, int) { return st, 2 }
	out := renderMetrics(s)
	wantLine(t, out, `mopfuzzd_execpool_children_live 2`)
	wantLine(t, out, `mopfuzzd_execpool_executions_total 40`)
	wantLine(t, out, `mopfuzzd_execpool_batches_total 8`)
	wantLine(t, out, `mopfuzzd_execpool_mean_batch_size 5`)
	wantLine(t, out, `mopfuzzd_execpool_spawns_total 3`)
	wantLine(t, out, `mopfuzzd_execpool_spawns_avoided_total 37`)
	wantLine(t, out, `mopfuzzd_execpool_recycled_total{reason="executions"} 2`)
	wantLine(t, out, `mopfuzzd_execpool_recycled_total{reason="memory"} 1`)
	wantLine(t, out, `mopfuzzd_execpool_killed_total 4`)
	wantLine(t, out, `mopfuzzd_execpool_retries_total 1`)
	wantLine(t, out, `mopfuzzd_execpool_faults_total 1`)

	// Without a pool the series still exist at zero.
	s.poolStats = s.sharedPoolStats
	out = renderMetrics(s)
	wantLine(t, out, `mopfuzzd_execpool_children_live 0`)
	wantLine(t, out, `mopfuzzd_execpool_mean_batch_size 0`)
}

func TestMetricsZeroSafe(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	s := newTestScheduler(t, Config{Now: clock.now})
	// Zero uptime and zero triage volume must not divide by zero.
	out := renderMetrics(s)
	wantLine(t, out, `mopfuzzd_executions_per_second 0`)
	wantLine(t, out, `mopfuzzd_triage_dedup_hit_ratio 0`)
	wantLine(t, out, `mopfuzzd_obv_delta_bucket{le="+Inf"} 0`)
	wantLine(t, out, `mopfuzzd_generate_jobs_total 0`)
	wantLine(t, out, `mopfuzzd_generate_seeds_total 0`)
}

// TestMetricsExposition checks the full render against the text
// exposition format, at zero and with every series live: each family
// has exactly one # HELP and one # TYPE, its samples are contiguous and
// follow its # TYPE, and counter (and histogram count) samples are
// integers.
func TestMetricsExposition(t *testing.T) {
	checkExposition(t, renderMetrics(newTestScheduler(t, Config{})))
	checkExposition(t, goldenScrape(t))
}

func checkExposition(t *testing.T, text string) {
	t.Helper()
	help := map[string]int{}
	typ := map[string]string{}
	cur := "" // family whose sample block is open
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help[f[2]]++
		case strings.HasPrefix(line, "# TYPE "):
			if _, dup := typ[f[2]]; dup {
				t.Errorf("family %s typed twice", f[2])
			}
			typ[f[2]] = f[3]
			cur = f[2]
		default:
			name := line[:strings.IndexAny(line, "{ ")]
			fam, integer := name, false
			switch typ[cur] {
			case "counter":
				integer = true
			case "histogram":
				fam = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
				integer = name != cur+"_sum"
			}
			if fam != cur {
				t.Errorf("sample %q outside its family block (open family %q)", line, cur)
			}
			if _, err := strconv.ParseInt(f[len(f)-1], 10, 64); integer && err != nil {
				t.Errorf("non-integer %s sample %q", typ[cur], line)
			}
		}
	}
	for name := range typ {
		if help[name] != 1 {
			t.Errorf("family %s has %d # HELP lines", name, help[name])
		}
	}
	for name := range help {
		if _, ok := typ[name]; !ok {
			t.Errorf("family %s has # HELP but no # TYPE", name)
		}
	}
}

// TestRegistryConcurrent moves every kind of registry series from
// several goroutines while another scrapes, then checks the totals.
func TestRegistryConcurrent(t *testing.T) {
	r := &Registry{}
	c := r.Counter("c_total", "c")
	v := r.CounterVec("v_total", "v", "k", "a")
	h := r.Histogram("h", "h", []float64{1, 10})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				v.Inc("b")
				h.Observe(float64(i % 20))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Render(&strings.Builder{})
		}
	}()
	wg.Wait()
	<-done
	var sb strings.Builder
	r.Render(&sb)
	out := sb.String()
	wantLine(t, out, `c_total 2000`)
	wantLine(t, out, `v_total{k="a"} 0`)
	wantLine(t, out, `v_total{k="b"} 2000`)
	wantLine(t, out, `h_bucket{le="1"} 200`)
	wantLine(t, out, `h_bucket{le="10"} 1100`)
	wantLine(t, out, `h_bucket{le="+Inf"} 2000`)
	wantLine(t, out, `h_count 2000`)
}

// TestScrapeReadsStateOnce: one scrape reads the pool, the job table
// and the execution counter once, so while jobs and executions move
// under it, every derived family agrees with the families it is
// derived from in the same scrape.
func TestScrapeReadsStateOnce(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s := newTestScheduler(t, Config{Now: clock.now})
	clock.advance(10 * time.Second)
	var poolReads atomic.Int64
	s.poolStats = func() (exec.Stats, int) { poolReads.Add(1); return exec.Stats{}, 0 }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			addJobs(s, StateDone, 1, &TriageStats{Received: 1 + i%3, Duplicates: i % 2})
			s.metrics.executions.Add(7)
		}
	}()
	value := func(out, name string) float64 {
		for _, line := range strings.Split(out, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("no %s sample in scrape", name)
		return 0
	}
	const scrapes = 200
	for i := 0; i < scrapes; i++ {
		out := renderMetrics(s)
		if got, want := value(out, "mopfuzzd_executions_per_second"), value(out, "mopfuzzd_executions_total")/10; got != want {
			t.Fatalf("scrape %d: executions_per_second %g, want executions_total/10 = %g", i, got, want)
		}
		if recv := value(out, "mopfuzzd_triage_findings_total"); recv > 0 {
			if got, want := value(out, "mopfuzzd_triage_dedup_hit_ratio"), value(out, "mopfuzzd_triage_dedup_hits_total")/recv; got != want {
				t.Fatalf("scrape %d: dedup_hit_ratio %g, want dedup_hits/findings = %g", i, got, want)
			}
		}
	}
	close(stop)
	wg.Wait()
	if n := poolReads.Load(); n != scrapes {
		t.Errorf("%d scrapes read the pool stats %d times, want once each", scrapes, n)
	}
}
