package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/triage"
)

// canonicalFinding is the order-stable rendering of a core.Finding:
// bugs by catalog ID, specs by name, programs as source text.
type canonicalFinding struct {
	Bug         string   `json:"bug"`
	Oracle      string   `json:"oracle"`
	Seed        string   `json:"seed"`
	Target      string   `json:"target"`
	AtExecution int      `json:"at_execution"`
	Mutators    []string `json:"mutators"`
	Cursor      int      `json:"cursor"`
	Round       int      `json:"round"`
	ChainLen    int      `json:"chain_len"`
	OBV         []int64  `json:"obv"`
	Divergence  []string `json:"divergence,omitempty"`
	PlanID      string   `json:"plan_id"`
	GeneratorID string   `json:"generator_id"`
	Program     string   `json:"program"`
}

type canonicalFault struct {
	Class   string `json:"class"`
	TaskID  string `json:"task_id"`
	Seed    string `json:"seed"`
	Round   int    `json:"round"`
	Message string `json:"message"`
}

type canonicalEntry struct {
	Key      string `json:"key"`
	Count    int    `json:"count"`
	MinStmts int    `json:"min_stmts"`
	Min      string `json:"min"`
}

type canonicalResult struct {
	Executions         int                `json:"executions"`
	SeedsFuzzed        int                `json:"seeds_fuzzed"`
	FinalDeltas        []string           `json:"final_deltas"`
	SeedErrors         []core.SeedError   `json:"seed_errors"`
	Faults             []canonicalFault   `json:"faults"`
	SkippedQuarantined int                `json:"skipped_quarantined"`
	CheckpointErrors   int                `json:"checkpoint_errors"`
	Interrupted        bool               `json:"interrupted"`
	Findings           []canonicalFinding `json:"findings"`
	Triage             []canonicalEntry   `json:"triage,omitempty"`
}

// digest renders a campaign result, and the triage store it fed when
// there is one, canonically and hashes it. Wall-clock fields (triage
// occurrence times, quarantine paths) are left out; everything else a
// finding, fault or report carries is in.
func digest(res *core.CampaignResult, entries []*triage.Entry) string {
	c := canonicalResult{
		Executions:         res.Executions,
		SeedsFuzzed:        res.SeedsFuzzed,
		SeedErrors:         res.SeedErrors,
		SkippedQuarantined: res.SkippedQuarantined,
		CheckpointErrors:   res.CheckpointErrors,
		Interrupted:        res.Interrupted,
	}
	for _, d := range res.FinalDeltas {
		c.FinalDeltas = append(c.FinalDeltas, strconv.FormatFloat(d, 'g', -1, 64))
	}
	for _, f := range res.Faults {
		c.Faults = append(c.Faults, canonicalFault{Class: string(f.Class), TaskID: f.TaskID, Seed: f.SeedName, Round: f.Round, Message: f.Message})
	}
	for _, f := range res.Findings {
		cf := canonicalFinding{
			Bug: f.Bug.ID, Oracle: f.Oracle, Seed: f.SeedName, Target: f.Target.Name(),
			AtExecution: f.AtExecution, Mutators: f.Mutators, Cursor: f.Cursor, Round: f.Round,
			ChainLen: f.ChainLen, OBV: f.OBV.Slice(), PlanID: f.PlanID, GeneratorID: f.GeneratorID,
		}
		if d := f.Divergence; d != nil {
			cf.Divergence = []string{d.Modal.Name(), d.Divergent.Name(), strconv.Itoa(d.Index), d.ModalPlan, d.DivergentPlan}
		}
		if f.Program != nil {
			cf.Program = lang.Format(f.Program)
		}
		c.Findings = append(c.Findings, cf)
	}
	for _, e := range entries {
		c.Triage = append(c.Triage, canonicalEntry{Key: e.Key, Count: e.Count, MinStmts: e.MinStmts, Min: e.Min})
	}
	data, err := json.Marshal(c)
	if err != nil {
		panic(err) // only plain values above: unreachable
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
