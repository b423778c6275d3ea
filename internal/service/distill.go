package service

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exec"
)

// DistillRequest is a POST /corpus/distill body: a seed corpus —
// generated (seed_count/seed, exactly like a job submission) and/or
// user-supplied — plus the distillation knobs. The endpoint scores the
// corpus with one profiling dry-run per seed and returns the minimal
// maximally-diverse subset, without creating a job.
type DistillRequest struct {
	// SeedCount generates that many corpus seeds from Seed; user seeds
	// in Seeds are appended after them. Default 8 when Seeds is empty.
	SeedCount int        `json:"seed_count,omitempty"`
	Seed      int64      `json:"seed,omitempty"` // RNG seed (default 1)
	Seeds     []SeedSpec `json:"seeds,omitempty"`
	// Spread is the minimum pairwise distance a kept seed must add
	// (<= 0 uses corpus.DefaultDistillSpread).
	Spread float64 `json:"spread,omitempty"`
	// MaxKeep caps the subset size (0 = no cap).
	MaxKeep int `json:"max_keep,omitempty"`
	// Backend pins the execution backend for the profiling dry-runs;
	// empty inherits the daemon's default.
	Backend string `json:"backend,omitempty"`
}

// Validate normalizes a distillation request in place, applying the
// same defaults and seed vetting as a job submission.
func (r *DistillRequest) Validate() error {
	if r.SeedCount < 0 {
		return fmt.Errorf("seed_count must be non-negative")
	}
	if r.SeedCount == 0 && len(r.Seeds) == 0 {
		r.SeedCount = 8
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.MaxKeep < 0 {
		return fmt.Errorf("max_keep must be non-negative")
	}
	if !exec.ValidBackend(r.Backend) {
		return fmt.Errorf("unknown backend %q (want %s)", r.Backend, strings.Join(exec.Backends(), " or "))
	}
	for i := range r.Seeds {
		if r.Seeds[i].Name == "" {
			r.Seeds[i].Name = fmt.Sprintf("User%04d", i+1)
		}
		if err := validateSeed(r.Seeds[i]); err != nil {
			return err
		}
	}
	return nil
}

// pool materializes the request's corpus, mirroring JobSpec.pool.
func (r *DistillRequest) pool() []corpus.Seed {
	out := corpus.DefaultPool(r.SeedCount, r.Seed)
	for _, sd := range r.Seeds {
		out = append(out, corpus.Seed{Name: sd.Name, Source: sd.Source})
	}
	return out
}

// Distill serves one distillation request on the daemon's execution
// backend. No score cache is threaded: requests are one-shot, and the
// shared parse cache already absorbs the repeated-submission cost.
func (s *Scheduler) Distill(ctx context.Context, req *DistillRequest) (*corpus.DistillReport, error) {
	executor, err := s.executorFor(JobSpec{Backend: req.Backend})
	if err != nil {
		return nil, err
	}
	_, rep, err := core.DistillSeeds(ctx, req.pool(), executor, "", req.Spread, req.MaxKeep)
	if err != nil {
		return nil, err
	}
	s.metrics.distillRequests.Inc()
	s.metrics.distillSubmitted.Add(rep.Submitted)
	s.metrics.distillKept.Add(rep.Kept)
	s.logf("corpus distill: %d seeds -> %d kept (spread %g)", rep.Submitted, rep.Kept, rep.Spread)
	return rep, nil
}
