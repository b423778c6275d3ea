package service

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/harness"
)

// Registry is the daemon's one metrics registry. Each /metrics family
// is declared once, with its HELP text, type and a way to read its
// samples, and Render writes every family in registration order in the
// Prometheus text exposition format. It is hand-rolled (the daemon
// takes no dependency on a client library) and safe for concurrent
// use: campaign callbacks move counters while /metrics scrapes them.
//
// Integer samples render with %d, so a counter past 1e6 never prints
// as 1e+06; float gauges render with %g.
type Registry struct {
	mu       sync.Mutex // also held across Render, so hook snapshots are scrape-local
	families []family
	hooks    []func()
}

// Kind is a family's Prometheus type.
type Kind string

// The family types the daemon exposes. Histograms are declared only
// through Registry.Histogram.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	kindHistogram Kind = "histogram"
)

// LabelValue is one sample of a one-label family read at scrape time.
type LabelValue struct {
	Label string
	Value int64
}

// sample is one exposition line of a family: the metric-name suffix
// (histogram series), the rendered label set ("" or `{k="v"}`), and
// the value.
type sample struct {
	suffix, labels, value string
}

type family struct {
	name, help string
	kind       Kind
	collect    func() []sample
}

func (r *Registry) register(name, help string, kind Kind, collect func() []sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.name == name {
			panic("service: metrics family " + name + " registered twice")
		}
	}
	r.families = append(r.families, family{name: name, help: help, kind: kind, collect: collect})
}

// OnScrape registers f to run at the start of every Render, before any
// family is collected. A hook reads shared state once into a snapshot
// its families then read, so the families of one scrape agree.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, f)
}

// Render runs the scrape hooks, then writes every family in
// registration order. The payload is built before any of it is
// written, so a slow reader does not hold up other scrapes.
func (r *Registry) Render(w io.Writer) {
	var buf bytes.Buffer
	r.mu.Lock()
	for _, h := range r.hooks {
		h()
	}
	for _, f := range r.families {
		fmt.Fprintf(&buf, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range f.collect() {
			fmt.Fprintf(&buf, "%s%s%s %s\n", f.name, s.suffix, s.labels, s.value)
		}
	}
	r.mu.Unlock()
	w.Write(buf.Bytes())
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

// formatFloat is %g; a bucket bound renders without a trailing ".0"
// (the Prometheus convention: "5", not "5.0").
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func labelSet(label, value string) string { return "{" + label + "=" + strconv.Quote(value) + "}" }

// IntFunc registers an unlabelled integer family read at scrape time.
func (r *Registry) IntFunc(kind Kind, name, help string, f func() int64) {
	r.register(name, help, kind, func() []sample { return []sample{{value: formatInt(f())}} })
}

// GaugeFunc registers a float gauge read at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, help, KindGauge, func() []sample { return []sample{{value: formatFloat(f())}} })
}

// VecFunc registers a one-label integer family read at scrape time;
// samples render in the order f returns them.
func (r *Registry) VecFunc(kind Kind, name, help, label string, f func() []LabelValue) {
	r.register(name, help, kind, func() []sample {
		var out []sample
		for _, lv := range f() {
			out = append(out, sample{labels: labelSet(label, lv.Label), value: formatInt(lv.Value)})
		}
		return out
	})
}

// Counter is an int64 counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; a non-positive n is ignored, so a counter never falls.
func (c *Counter) Add(n int) {
	if n > 0 {
		c.v.Add(int64(n))
	}
}

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.IntFunc(KindCounter, name, help, c.Value)
	return c
}

// CounterVec is a one-label counter. Its preset label values render at
// zero before their first increment; all values render in sorted order.
type CounterVec struct {
	mu   sync.Mutex
	vals map[string]int64
}

// Inc adds one to the series with the given label value.
func (v *CounterVec) Inc(label string) {
	v.mu.Lock()
	v.vals[label]++
	v.mu.Unlock()
}

func (v *CounterVec) values() []LabelValue {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]LabelValue, 0, len(v.vals))
	for k, n := range v.vals {
		out = append(out, LabelValue{k, n})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Label < out[k].Label })
	return out
}

// CounterVec registers a one-label counter with preset label values.
func (r *Registry) CounterVec(name, help, label string, preset ...string) *CounterVec {
	v := &CounterVec{vals: map[string]int64{}}
	for _, p := range preset {
		v.vals[p] = 0
	}
	r.VecFunc(KindCounter, name, help, label, v.values)
	return v
}

// Histogram is a fixed-bucket histogram.
type Histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []int64 // per-bucket (non-cumulative); index len(bounds) is +Inf
	sum    float64
	n      int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.n++
	h.counts[sort.SearchFloat64s(h.bounds, v)]++ // first bound >= v, else +Inf
}

// Histogram registers a histogram over the given ascending upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
	r.register(name, help, kindHistogram, func() []sample {
		h.mu.Lock()
		defer h.mu.Unlock()
		var out []sample
		cum := int64(0)
		for i, c := range h.counts {
			cum += c
			le := "+Inf"
			if i < len(bounds) {
				le = formatFloat(bounds[i])
			}
			out = append(out, sample{suffix: "_bucket", labels: labelSet("le", le), value: formatInt(cum)})
		}
		return append(out, sample{suffix: "_sum", value: formatFloat(h.sum)}, sample{suffix: "_count", value: formatInt(h.n)})
	})
	return h
}

// deltaBuckets are the upper bounds of the OBV-increment histogram —
// Δ(seed OBV, final-mutant OBV) per fuzzed seed, the paper's Figure 3/4
// distribution observed live. Values are behavior-count increments, so
// small integers dominate; the top bucket catches optimization-storm
// mutants.
var deltaBuckets = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250}

// knownFaultClasses fixes the fault-count series emitted even at zero,
// so dashboards and the CI smoke assertions can rely on their presence.
var knownFaultClasses = []string{
	string(harness.FaultCrash),
	string(harness.FaultMiscompile),
	string(harness.FaultTimeout),
	string(harness.FaultHeapExhausted),
	string(harness.FaultHarness),
}

// daemonMetrics are the series the scheduler's call sites move. The
// rest of the daemon's families are read from scheduler state at
// scrape time.
type daemonMetrics struct {
	jobsAccepted, requeues, jobsQuarantined *Counter
	executions, findings                    *Counter
	planJobs, planFindings                  *Counter
	genJobs, genSeeds, genFindings          *Counter
	faults                                  *CounterVec
	obvDelta                                *Histogram

	distillRequests, distillSubmitted, distillKept *Counter
}

// registerMetrics declares every scheduler family on the registry, in
// /metrics order. The registration instant anchors uptime and
// executions/sec.
func (s *Scheduler) registerMetrics(r *Registry) *daemonMetrics {
	m := &daemonMetrics{executions: &Counter{}}
	start := s.cfg.Now()
	var snap scrapeState
	r.OnScrape(func() { snap = s.readScrape(m.executions.Value()) })
	uptime := func() float64 { return snap.now.Sub(start).Seconds() }

	r.VecFunc(KindGauge, "mopfuzzd_jobs", "Jobs by lifecycle state.", "state", func() []LabelValue {
		out := make([]LabelValue, 0, len(snap.states))
		for _, st := range States() {
			out = append(out, LabelValue{string(st), int64(snap.states[st])})
		}
		return out
	})
	m.jobsAccepted = r.Counter("mopfuzzd_jobs_accepted_total", "Job submissions accepted.")
	m.requeues = r.Counter("mopfuzzd_requeues_total", "Jobs re-queued after a lost assignment (lease expiry, worker death).")
	m.jobsQuarantined = r.Counter("mopfuzzd_jobs_quarantined_total", "Job records or checkpoints found corrupt at startup and set aside.")
	r.IntFunc(KindCounter, "mopfuzzd_executions_total", "Target executions across all jobs.", func() int64 { return snap.executions })
	r.GaugeFunc("mopfuzzd_executions_per_second", "Mean execution throughput since daemon start.", func() float64 {
		if up := uptime(); up > 0 {
			return float64(snap.executions) / up
		}
		return 0
	})
	m.findings = r.Counter("mopfuzzd_findings_total", "Finding occurrences streamed by campaigns (pre-dedup).")
	m.planJobs = r.Counter("mopfuzzd_planfuzz_jobs_total", "Accepted jobs with compilation-plan fuzzing enabled.")
	m.planFindings = r.Counter("mopfuzzd_planfuzz_findings_total", "Finding occurrences from the plan-vs-plan differential oracle (pre-dedup).")
	m.genJobs = r.Counter("mopfuzzd_generate_jobs_total", "Accepted jobs with corpus generators enabled.")
	m.genSeeds = r.Counter("mopfuzzd_generate_seeds_total", "Generator emissions refreshed into job pools.")
	m.genFindings = r.Counter("mopfuzzd_generate_findings_total", "Finding occurrences on generator-emitted seeds (pre-dedup).")
	m.faults = r.CounterVec("mopfuzzd_faults_total", "Harness faults by class.", "class", knownFaultClasses...)
	m.obvDelta = r.Histogram("mopfuzzd_obv_delta", "OBV increment per fuzzed seed (Δ seed vs final mutant).", deltaBuckets)

	r.IntFunc(KindCounter, "mopfuzzd_triage_findings_total", "Findings consumed by triage workers.", func() int64 { return int64(snap.triage.Received) })
	r.IntFunc(KindCounter, "mopfuzzd_triage_signatures_total", "Novel root-cause signatures stored.", func() int64 { return int64(snap.triage.Novel) })
	r.IntFunc(KindCounter, "mopfuzzd_triage_dedup_hits_total", "Findings deduplicated against existing signatures.", func() int64 { return int64(snap.triage.Duplicates) })
	r.GaugeFunc("mopfuzzd_triage_dedup_hit_ratio", "Fraction of findings deduplicated.", func() float64 {
		if tr := snap.triage; tr.Received > 0 {
			return float64(tr.Duplicates) / float64(tr.Received)
		}
		return 0
	})
	r.GaugeFunc("mopfuzzd_uptime_seconds", "Seconds since daemon start.", uptime)

	// Corpus intelligence: the daemon-wide parse cache, the distillation
	// endpoint's traffic, and the power schedule over running jobs.
	r.IntFunc(KindCounter, "mopfuzzd_corpus_parsecache_hits_total", "Seed parses served from the shared parse cache.", func() int64 { return snap.parse.Hits })
	r.IntFunc(KindCounter, "mopfuzzd_corpus_parsecache_misses_total", "Seed parses that had to run the parser.", func() int64 { return snap.parse.Misses })
	r.IntFunc(KindCounter, "mopfuzzd_corpus_parsecache_evictions_total", "Cached parses evicted by the size bound.", func() int64 { return snap.parse.Evictions })
	r.IntFunc(KindGauge, "mopfuzzd_corpus_parsecache_size", "Parsed programs currently cached.", func() int64 { return int64(snap.parse.Size) })
	m.distillRequests = r.Counter("mopfuzzd_corpus_distill_requests_total", "Corpus distillation requests served.")
	m.distillSubmitted = r.Counter("mopfuzzd_corpus_distill_seeds_submitted_total", "Seeds submitted to the distillation endpoint.")
	m.distillKept = r.Counter("mopfuzzd_corpus_distill_seeds_kept_total", "Seeds kept by the distillation endpoint.")
	r.IntFunc(KindGauge, "mopfuzzd_corpus_sched_arms", "Power-schedule arms across running jobs.", func() int64 { return int64(snap.arms) })
	r.GaugeFunc("mopfuzzd_corpus_sched_energy", "Total power-schedule energy across running jobs.", func() float64 { return snap.energy })

	// The warm child pool: zeros until a pooled job runs.
	r.IntFunc(KindGauge, "mopfuzzd_execpool_children_live", "Warm minijvm children currently pooled.", func() int64 { return int64(snap.live) })
	r.IntFunc(KindCounter, "mopfuzzd_execpool_executions_total", "Executions served by the pool.", func() int64 { return snap.pool.Executions })
	r.IntFunc(KindCounter, "mopfuzzd_execpool_batches_total", "Serve-mode round trips (N executions each).", func() int64 { return snap.pool.Batches })
	r.GaugeFunc("mopfuzzd_execpool_mean_batch_size", "Mean executions per round trip (>1 means batching amortizes).", func() float64 { return snap.pool.MeanBatch() })
	r.IntFunc(KindCounter, "mopfuzzd_execpool_spawns_total", "Child processes spawned by the pool.", func() int64 { return snap.pool.Spawns })
	r.IntFunc(KindCounter, "mopfuzzd_execpool_spawns_avoided_total", "Executions served without a fresh spawn.", func() int64 { return snap.pool.SpawnsAvoided })
	r.VecFunc(KindCounter, "mopfuzzd_execpool_recycled_total", "Children retired by recycle policy.", "reason", func() []LabelValue {
		st := snap.pool
		return []LabelValue{{"executions", st.RecycledByCount}, {"memory", st.RecycledByMem}}
	})
	r.IntFunc(KindCounter, "mopfuzzd_execpool_killed_total", "Children force-killed (timeouts, failures, drain).", func() int64 { return snap.pool.Killed })
	r.IntFunc(KindCounter, "mopfuzzd_execpool_retries_total", "Batches retried on a fresh child after a marker-less death.", func() int64 { return snap.pool.Retries })
	r.IntFunc(KindCounter, "mopfuzzd_execpool_faults_total", "Pool executions classified as backend faults.", func() int64 { return snap.pool.Faults })
	return m
}

// scrapeState is one scrape's reading of scheduler state: the clock,
// the execution counter, jobs by state, triage stats (persisted
// segments of finished jobs plus live worker counters), the power
// schedule over running jobs, the parse cache and the pool. Every
// family computed from these reads the one snapshot, so the values of
// a scrape agree (dedup_hit_ratio is dedup_hits_total over
// triage_findings_total).
type scrapeState struct {
	now        time.Time
	executions int64
	states     map[JobState]int
	triage     TriageStats
	arms       int
	energy     float64
	parse      corpus.ParseCacheStats
	pool       exec.Stats
	live       int
}

func (s *Scheduler) readScrape(executions int64) scrapeState {
	t := scrapeState{now: s.cfg.Now(), executions: executions, states: map[JobState]int{}, parse: s.parse.Stats()}
	t.pool, t.live = s.poolStats()
	for _, j := range s.JobsInOrder() {
		j.mu.Lock()
		t.states[j.rec.State]++
		if j.rec.Triage != nil {
			t.triage.Received += j.rec.Triage.Received
			t.triage.Novel += j.rec.Triage.Novel
			t.triage.Duplicates += j.rec.Triage.Duplicates
		}
		if j.rec.State == StateRunning {
			t.arms += j.progress.ScheduleArms
			t.energy += j.progress.ScheduleEnergy
		}
		w := j.tworker
		j.mu.Unlock()
		if w != nil {
			t.triage.add(w.Stats())
		}
	}
	return t
}
