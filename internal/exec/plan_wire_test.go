package exec

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/buginject"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
)

// TestRequestPlanRoundTrip: a compilation plan riding a request must
// survive the JSON wire exactly — the decoded child-side execution is
// byte-identical to running the plan in-process.
func TestRequestPlanRoundTrip(t *testing.T) {
	spec := jvm.Spec{Impl: buginject.HotSpot, Version: 17}
	plan := jit.GeneratePlan(3, jit.PlanFull)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	opt := jvm.Options{ForceCompile: true, Plan: plan}

	p := wireProg(t)
	want, err := jvm.Run(lang.CloneProgram(p), spec, opt)
	if err != nil {
		t.Fatal(err)
	}

	req, err := NewRequest(p, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Request
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Options.Plan == nil || decoded.Options.Plan.Fingerprint() != plan.Fingerprint() {
		t.Fatalf("plan did not survive the wire: %+v", decoded.Options.Plan)
	}
	resp := serveOne(t, req)
	if resp.Error != "" {
		t.Fatalf("in-band error: %s", resp.Error)
	}
	got, err := decodeRun(resp.Result, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan-bearing wire round trip diverged\n got: %+v\nwant: %+v", got, want)
	}
}
