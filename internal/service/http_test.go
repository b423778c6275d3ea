package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/triage"
)

func getJSON(t *testing.T, client *http.Client, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d; body %s", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decode: %v; body %s", url, err, body)
		}
	}
}

func postJSON(t *testing.T, client *http.Client, url, body string, wantStatus int, out any) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d; body %s", url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: decode: %v; body %s", url, err, data)
		}
	}
}

// TestHTTPAPI walks the whole surface against one live daemon: submit,
// inspect, seed, run to completion, findings (plain, long-poll, SSE),
// metrics, cancellation conflicts, and drain.
func TestHTTPAPI(t *testing.T) {
	sched := newTestScheduler(t, Config{})
	srv := httptest.NewServer(NewServer(sched).Handler())
	defer srv.Close()
	client := srv.Client()

	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	getJSON(t, client, srv.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Draining {
		t.Fatalf("healthz = %+v", health)
	}

	// Rejections before anything is queued.
	postJSON(t, client, srv.URL+"/jobs", `{not json`, http.StatusBadRequest, nil)
	postJSON(t, client, srv.URL+"/jobs", `{"targets":["no-such-jvm"]}`, http.StatusBadRequest, nil)
	postJSON(t, client, srv.URL+"/jobs", `{"bogus_field":1}`, http.StatusBadRequest, nil)
	postJSON(t, client, srv.URL+"/jobs", `{"seeds":[{"source":"class {"}]}`, http.StatusBadRequest, nil)
	getJSON(t, client, srv.URL+"/jobs/job-0001", http.StatusNotFound, nil)

	// Submit a small job; the scheduler is not started yet, so it stays
	// queued while we mutate it.
	var created JobView
	postJSON(t, client, srv.URL+"/jobs", `{"seed_count":2,"budget":60,"seed":3}`, http.StatusCreated, &created)
	if created.ID != "job-0001" || created.State != StateQueued {
		t.Fatalf("created = %+v", created)
	}
	if created.Spec.Iterations != 50 {
		t.Errorf("defaults not applied in response: %+v", created.Spec)
	}

	var updated JobView
	postJSON(t, client, srv.URL+"/jobs/job-0001/seeds",
		`{"seeds":[{"source":"class U { static void main() { print(7); } }"}]}`, http.StatusOK, &updated)
	if len(updated.Spec.Seeds) != 1 || updated.Spec.Seeds[0].Name != "User0001" {
		t.Fatalf("seeds after add = %+v", updated.Spec.Seeds)
	}
	postJSON(t, client, srv.URL+"/jobs/job-0001/seeds", `{"seeds":[{"source":"class {"}]}`, http.StatusBadRequest, nil)
	postJSON(t, client, srv.URL+"/jobs/job-0001/seeds", `{"seeds":[]}`, http.StatusBadRequest, nil)
	postJSON(t, client, srv.URL+"/jobs/job-0404/seeds",
		`{"seeds":[{"source":"class U { static void main() { print(7); } }"}]}`, http.StatusNotFound, nil)

	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	getJSON(t, client, srv.URL+"/jobs", http.StatusOK, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != "job-0001" {
		t.Fatalf("list = %+v", list)
	}

	// Run it. The long-poll subscribes while the job runs and must be
	// released by job events well before its wait expires.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched.Start(ctx)

	pollDone := make(chan error, 1)
	go func() {
		resp, err := client.Get(srv.URL + "/jobs/job-0001/findings?wait=4m")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("long-poll status %d", resp.StatusCode)
			}
		}
		pollDone <- err
	}()

	deadline := time.Now().Add(3 * time.Minute)
	var view JobView
	for {
		getJSON(t, client, srv.URL+"/jobs/job-0001", http.StatusOK, &view)
		if view.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", view.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if view.State != StateDone || view.Result == nil {
		t.Fatalf("job ended %+v", view)
	}

	select {
	case err := <-pollDone:
		if err != nil {
			t.Fatalf("long-poll: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("long-poll did not return after job completion")
	}

	// Seeds are frozen once the job has started.
	postJSON(t, client, srv.URL+"/jobs/job-0001/seeds",
		`{"seeds":[{"source":"class V { static void main() { print(8); } }"}]}`, http.StatusConflict, nil)

	// Findings: the payload is the triage.Report serialization.
	resp, err := client.Get(srv.URL + "/jobs/job-0001/findings")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("findings Content-Type = %q", ct)
	}
	var report triage.Report
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatalf("findings decode: %v", err)
	}
	resp.Body.Close()
	if report.Entries == nil {
		t.Error("findings report has no entries array")
	}

	// SSE on a finished job: a report event, then a terminal state event.
	resp, err = client.Get(srv.URL + "/jobs/job-0001/findings?stream=sse")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE Content-Type = %q", ct)
	}
	sse, err := io.ReadAll(bufio.NewReader(resp.Body))
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sse), "event: report") || !strings.Contains(string(sse), "event: state") {
		t.Errorf("SSE stream missing events:\n%s", sse)
	}
	// Every data frame must be one line of valid JSON (SSE framing).
	for _, line := range strings.Split(string(sse), "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			if !json.Valid([]byte(data)) {
				t.Errorf("SSE data frame is not single-line JSON: %q", line)
			}
		}
	}

	// Metrics: the acceptance-criteria series, with live values.
	mresp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mbody)
	wantLine(t, metrics, `mopfuzzd_jobs{state="done"} 1`)
	wantLine(t, metrics, `mopfuzzd_jobs_accepted_total 1`)
	for _, series := range []string{
		"mopfuzzd_executions_total ",
		"mopfuzzd_executions_per_second ",
		`mopfuzzd_faults_total{class="crash"} `,
		`mopfuzzd_faults_total{class="miscompile"} `,
		`mopfuzzd_faults_total{class="timeout"} `,
		"mopfuzzd_obv_delta_bucket",
		"mopfuzzd_triage_findings_total ",
		"mopfuzzd_triage_dedup_hits_total ",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("metrics missing series %q", series)
		}
	}
	var execs int64
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "mopfuzzd_executions_total ") {
			fmt.Sscanf(line, "mopfuzzd_executions_total %d", &execs)
		}
	}
	if execs < 60 {
		t.Errorf("mopfuzzd_executions_total = %d, want >= budget", execs)
	}

	// Cancel conflicts: terminal job, then unknown job.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/job-0001", nil)
	dresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE terminal job = %d, want 409", dresp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/jobs/job-0404", nil)
	dresp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", dresp.StatusCode)
	}

	// Drain: submissions now bounce with 503.
	cancel()
	sched.Wait()
	postJSON(t, client, srv.URL+"/jobs", `{"budget":60}`, http.StatusServiceUnavailable, nil)
	getJSON(t, client, srv.URL+"/healthz", http.StatusOK, &health)
	if !health.Draining {
		t.Error("healthz does not report draining")
	}
}

// TestRemovedBackendRejected: "subprocess" is no longer a backend, and
// both endpoints that take one refuse it up front with a 400 naming the
// valid choices — not an alias, not a job that fails later.
func TestRemovedBackendRejected(t *testing.T) {
	sched := newTestScheduler(t, Config{})
	srv := httptest.NewServer(NewServer(sched).Handler())
	defer srv.Close()
	for _, path := range []string{"/jobs", "/corpus/distill"} {
		resp, err := srv.Client().Post(srv.URL+path, "application/json",
			strings.NewReader(`{"seed_count":2,"backend":"subprocess"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "want inprocess or pool") {
			t.Errorf("POST %s with backend subprocess = %d %s, want 400 naming the valid backends", path, resp.StatusCode, body)
		}
	}
	if n := len(sched.JobsInOrder()); n != 0 {
		t.Errorf("%d jobs queued for a removed backend", n)
	}
}
