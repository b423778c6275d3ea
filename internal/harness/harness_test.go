package harness

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestPanicContainmentAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	sup, err := New(Config{QuarantineDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	task := Task{
		ID:       "Boom",
		SeedName: "Boom",
		Round:    3,
		Source:   "class Boom {}",
		Run: func(context.Context) (any, error) {
			panic("synthetic substrate panic")
		},
	}
	out := sup.Do(context.Background(), task)
	if out.Fault == nil {
		t.Fatal("panic not contained into a fault")
	}
	if out.Fault.Class != FaultHarness {
		t.Errorf("Class = %s, want %s", out.Fault.Class, FaultHarness)
	}
	if !strings.Contains(out.Fault.Message, "synthetic substrate panic") {
		t.Errorf("Message = %q, want the panic value", out.Fault.Message)
	}
	if out.Fault.Stack == "" {
		t.Error("fault has no stack")
	}
	if out.Fault.QuarantinePath == "" {
		t.Fatal("fault not quarantined")
	}
	data, err := os.ReadFile(out.Fault.QuarantinePath)
	if err != nil {
		t.Fatalf("quarantine artifact unreadable: %v", err)
	}
	var stored Fault
	if err := json.Unmarshal(data, &stored); err != nil {
		t.Fatalf("quarantine artifact not JSON: %v", err)
	}
	if stored.Source != task.Source || stored.Round != 3 {
		t.Errorf("stored fault = %+v, want source and round preserved", stored)
	}

	// A quarantined task is skipped, returning the stored fault.
	out2 := sup.Do(context.Background(), task)
	if !out2.Skipped || out2.Fault == nil || out2.Fault.Class != FaultHarness {
		t.Errorf("second Do = %+v, want skip with stored fault", out2)
	}
}

func TestQuarantineReloadAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	q1, err := OpenQuarantine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := q1.Add(&Fault{Class: FaultHeapExhausted, TaskID: "Test0001#r2", Message: "blew the heap", Source: "class T {}"}); err != nil {
		t.Fatal(err)
	}
	// A second open (a resumed process) sees the same index.
	q2, err := OpenQuarantine(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := q2.Get("Test0001#r2")
	if f == nil {
		t.Fatal("quarantine entry lost across reopen")
	}
	if f.Class != FaultHeapExhausted || f.Source != "class T {}" {
		t.Errorf("reloaded fault = %+v", f)
	}
	if got := q2.IDs(); len(got) != 1 || got[0] != "Test0001#r2" {
		t.Errorf("IDs = %v", got)
	}
}

func TestWatchdogClassifiesHangAsTimeout(t *testing.T) {
	sup, err := New(Config{ExecTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	out := sup.Do(context.Background(), Task{
		ID: "Hang",
		Run: func(ctx context.Context) (any, error) {
			<-ctx.Done() // a fuel-proof hang: only the watchdog can end it
			return nil, ctx.Err()
		},
	})
	if out.Fault == nil || out.Fault.Class != FaultTimeout {
		t.Fatalf("outcome = %+v, want timeout fault", out)
	}
}

func TestWatchdogPreservesResults(t *testing.T) {
	sup, err := New(Config{ExecTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	out := sup.Do(context.Background(), Task{
		ID:  "Quick",
		Run: func(context.Context) (any, error) { return 42, nil },
	})
	if out.Fault != nil || out.Err != nil || out.Value != 42 {
		t.Fatalf("outcome = %+v, want value 42", out)
	}
}

func TestShutdownCancelIsNotATaskFault(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sup, err := New(Config{ExecTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	out := sup.Do(ctx, Task{ID: "T", Run: func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if out.Fault != nil {
		t.Fatalf("shutdown misclassified as fault: %+v", out.Fault)
	}
	if !errors.Is(out.Err, context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled", out.Err)
	}
}

func TestTransientRetryWithBackoff(t *testing.T) {
	errFlaky := errors.New("flaky io")
	var slept []time.Duration
	attempts := 0
	sup, err := New(Config{
		MaxRetries:  3,
		Backoff:     10 * time.Millisecond,
		IsTransient: func(err error) bool { return errors.Is(err, errFlaky) },
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sup.Do(context.Background(), Task{ID: "Flaky", Run: func(context.Context) (any, error) {
		attempts++
		if attempts <= 2 {
			return nil, errFlaky
		}
		return "ok", nil
	}})
	if out.Err != nil || out.Value != "ok" {
		t.Fatalf("outcome = %+v, want success after retries", out)
	}
	if out.Retries != 2 || attempts != 3 {
		t.Errorf("Retries = %d attempts = %d, want 2/3", out.Retries, attempts)
	}
	if len(slept) != 2 || slept[1] != 2*slept[0] {
		t.Errorf("backoff schedule = %v, want doubling", slept)
	}

	// Non-transient errors are not retried.
	attempts = 0
	out = sup.Do(context.Background(), Task{ID: "Hard", Run: func(context.Context) (any, error) {
		attempts++
		return nil, errors.New("permanent")
	}})
	if attempts != 1 || out.Err == nil {
		t.Errorf("permanent error retried %d times", attempts)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	in := &Checkpoint{
		TaskCursor:  17,
		Executions:  912,
		Quarantined: []string{"Test0007"},
		State:       json.RawMessage(`{"final_deltas":[1.5,2.25]}`),
	}
	if err := in.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("atomic write left a temp file behind")
	}
	out, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.TaskCursor != 17 || out.Executions != 912 || len(out.Quarantined) != 1 {
		t.Errorf("loaded = %+v", out)
	}
	var inState, outState map[string]any
	if err := json.Unmarshal(in.State, &inState); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out.State, &outState); err != nil {
		t.Fatalf("state round-trip not JSON: %v", err)
	}
	if len(outState["final_deltas"].([]any)) != 2 {
		t.Errorf("state round-trip lost data: %s", out.State)
	}

	// A wrong version is rejected, not misread.
	raw, _ := os.ReadFile(path)
	bad := strings.Replace(string(raw), `"version": 4`, `"version": 999`, 1)
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("version mismatch accepted")
	}
}

func TestComponentFromStack(t *testing.T) {
	stack := `goroutine 1 [running]:
repro/internal/jit.(*Compiler).Compile(0xc0000b2000)
	/root/repo/internal/jit/pipeline.go:47 +0x1b
repro/internal/vm.(*Machine).tierUp(0xc0000c4000)
	/root/repo/internal/vm/machine.go:305 +0x99`
	if got := ComponentFromStack(stack); got != "jit" {
		t.Errorf("component = %q, want jit (innermost frame wins)", got)
	}
	if got := ComponentFromStack("nothing of ours"); got != "" {
		t.Errorf("component = %q, want empty", got)
	}
}

func TestHsErrReportsCarryFaultContext(t *testing.T) {
	f := &Fault{
		Class: FaultHarness, TaskID: "Boom", Round: 1, Component: "jit",
		Message: "index out of range", Retries: 2, QuarantinePath: "/q/Boom.json",
	}
	rep := f.HsErrReport("openjdk-17")
	for _, want := range []string{"harness-fault", "retries=2", "/q/Boom.json", "openjdk-17"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	base := "# dummy hs_err"
	ann := AnnotateHsErr(base, f.Context())
	if !strings.Contains(ann, "fault class=harness-fault") || !strings.Contains(ann, "retries=2") {
		t.Errorf("annotation missing context: %s", ann)
	}
	if AnnotateHsErr(base, nil) != base {
		t.Error("nil context must leave the report untouched")
	}
}

func TestShutdownContextOnSIGINT(t *testing.T) {
	ctx, stop := ShutdownContext(context.Background())
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("SIGINT did not cancel the shutdown context")
	}
}
