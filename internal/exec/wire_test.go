package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/buginject"
	"repro/internal/coverage"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/profile"
)

const wireSrc = `
class Wire {
  static void main() {
    long t = 0;
    for (int i = 0; i < 400; i += 1) {
      t = t + Wire.work(i);
    }
    print(t);
  }
  static int work(int x) {
    int y = x * 3 + 1;
    if (y > 100) {
      y = y - x;
    }
    return y;
  }
}
`

func wireProg(t *testing.T) *lang.Program {
	t.Helper()
	p, err := lang.Parse(wireSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// serveOne pushes req through a real JSON round trip, exactly what a
// pool child does: one batch frame into ServeStream, one response out.
func serveOne(t *testing.T, req *Request) *Response {
	t.Helper()
	frame, err := json.Marshal(&BatchRequest{Version: WireVersion, Requests: []*Request{req}})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := ServeStream(bytes.NewReader(append(frame, '\n')), &out); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&out)
	var hello ServerHello
	var batch BatchResponse
	if err := dec.Decode(&hello); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&batch); err != nil || len(batch.Responses) != 1 {
		t.Fatalf("batch response: %+v, %v", batch, err)
	}
	return batch.Responses[0]
}

// TestWireRoundTrip pins the tentpole's core invariant: an execution
// that crosses the wire (request encode -> child Run -> response encode
// -> parent decode) reconstructs the exact ExecResult jvm.Run produces
// in-process.
func TestWireRoundTrip(t *testing.T) {
	spec := jvm.Spec{Impl: buginject.HotSpot, Version: 17}
	for _, opt := range []jvm.Options{
		{ForceCompile: true, MaxSteps: 1_000_000},
		{ForceCompile: true, Flags: profile.DefaultFlags()},
		{ForceCompile: true, StructuredOBV: true},
		{PureInterpreter: true},
		{ForceCompile: true, Bugs: []*buginject.Bug{}}, // DisableBugs ablation
		{ForceCompile: true, CompileOnly: "Wire.work"},
	} {
		p := wireProg(t)
		want, err := jvm.Run(lang.CloneProgram(p), spec, opt)
		if err != nil {
			t.Fatal(err)
		}

		req, err := NewRequest(p, spec, opt)
		if err != nil {
			t.Fatal(err)
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
			t.Errorf("opt %+v: wire round trip diverged\n got: %+v\nwant: %+v", opt, got, want)
		}
	}
}

func TestWireCoverageHits(t *testing.T) {
	spec := jvm.Spec{Impl: buginject.HotSpot, Version: 17}
	direct := coverage.NewTracker()
	if _, err := jvm.Run(wireProg(t), spec, jvm.Options{ForceCompile: true, Coverage: direct}); err != nil {
		t.Fatal(err)
	}

	req, err := NewRequest(wireProg(t), spec, jvm.Options{ForceCompile: true, Coverage: coverage.NewTracker()})
	if err != nil {
		t.Fatal(err)
	}
	resp := req.Run()
	if resp.Error != "" {
		t.Fatalf("in-band error: %s", resp.Error)
	}
	if !reflect.DeepEqual(resp.Result.CoverageHits, direct.Names()) {
		t.Errorf("coverage hits diverged: %v vs %v", resp.Result.CoverageHits, direct.Names())
	}
	if len(resp.Result.CoverageHits) == 0 {
		t.Error("expected nonzero coverage")
	}
}

func TestWireProgramErrorInBand(t *testing.T) {
	spec := jvm.Spec{Impl: buginject.HotSpot, Version: 17}
	req := &Request{Spec: spec.Name(), Source: "class Broken {"}
	resp := req.Run()
	if resp.Error == "" || resp.Result != nil {
		t.Fatalf("want in-band parse error, got %+v", resp)
	}
	// The in-process backend must report the identical message, so seed
	// errors are backend-independent.
	_, err := lang.Parse("class Broken {")
	if err == nil || resp.Error != err.Error() {
		t.Errorf("error text diverged: %q vs %v", resp.Error, err)
	}
}

// TestWireVersionMismatch: a child whose hello announces any other wire
// version is a stale binary. Spawning it is a hard error naming the
// remedy — not a fault, not a retry, and never a downgraded dialect.
func TestWireVersionMismatch(t *testing.T) {
	stale := filepath.Join(t.TempDir(), "stale-minijvm")
	script := fmt.Sprintf("#!/bin/sh\necho '{\"version\":%d,\"pid\":'$$'}'\nexec cat >/dev/null\n", WireVersion-1)
	if err := os.WriteFile(stale, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := spawnChild(stale)
	if c != nil || !errors.Is(err, errWireMismatch) || !strings.Contains(err.Error(), "rebuild the binary") {
		t.Fatalf("spawnChild = %v, %v; want a wire-mismatch error naming the remedy", c, err)
	}

	pool := NewPool(PoolConfig{Path: stale})
	defer pool.Close()
	_, err = pool.Execute(context.Background(), wireProg(t), jvm.Reference(), jvm.Options{})
	if !errors.Is(err, errWireMismatch) || harness.AsFault(err) != nil {
		t.Errorf("pool execute on a stale child: %v, want a plain wire-mismatch error", err)
	}
	if st := pool.Stats(); st.Retries != 0 || st.Faults != 0 || st.Spawns != 0 {
		t.Errorf("stats = %+v, want no retries, faults, or accepted spawns", st)
	}
}

func TestWireUnknownInjection(t *testing.T) {
	resp := (&Request{Inject: "zap"}).Run()
	if resp.Error == "" || !strings.Contains(resp.Error, "unknown fault injection") {
		t.Errorf("want injection error, got %+v", resp)
	}
}

type nopHook struct{}

func (nopHook) Observe(*jit.Context, jit.Event) error { return nil }

func TestNewRequestRejectsCompileHook(t *testing.T) {
	_, err := NewRequest(wireProg(t), jvm.Reference(), jvm.Options{CompileHook: nopHook{}})
	if err == nil || !strings.Contains(err.Error(), "CompileHook") {
		t.Errorf("want CompileHook rejection, got %v", err)
	}
}

func TestOBVSliceRoundTrip(t *testing.T) {
	var o profile.OBV
	for i := range o {
		o[i] = int64(i * 7)
	}
	back, err := profile.OBVFromSlice(o.Slice())
	if err != nil {
		t.Fatal(err)
	}
	if back != o {
		t.Errorf("round trip: %v != %v", back, o)
	}
	if _, err := profile.OBVFromSlice(make([]int64, len(o)+1)); err == nil {
		t.Error("want length-mismatch error (taxonomy skew)")
	}
}

func TestFlagSetNamesRoundTrip(t *testing.T) {
	fs := profile.DefaultFlags()
	back := profile.FlagSetFromNames(fs.Names())
	if !reflect.DeepEqual(back, fs) {
		t.Errorf("round trip: %v != %v", back, fs)
	}
	if profile.FlagSetFromNames(nil) != nil {
		t.Error("empty names must decode to nil (preserves Options.Flags nil-ness)")
	}
}
