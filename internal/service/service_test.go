package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fogbuster/pkg/atpg"
)

// newTestServer starts an httptest server over a fresh service.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJob submits a job and decodes the accepted status.
func postJob(t *testing.T, base string, req SubmitRequest) JobStatus {
	t.Helper()
	st, code := postJobCode(t, base, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %+v", code, st)
	}
	return st
}

// postJobCode submits a job and returns whatever came back.
func postJobCode(t *testing.T, base string, req SubmitRequest) (JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// getStatus fetches a job's status.
func getStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status returned %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDone polls until the job reaches the done state.
func waitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.State == StateDone {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

// getResult fetches the canonical result document bytes.
func getResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result returned %d: %s", resp.StatusCode, body)
	}
	return body
}

// getStats fetches the cache/scheduler counters.
func getStats(t *testing.T, base string) Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// sseEvent is one parsed server-sent event frame.
type sseEvent struct {
	id    string
	event string
	data  []byte
}

// streamEvents consumes the SSE endpoint until the terminal "done"
// frame (or EOF) and returns every frame seen.
func streamEvents(t *testing.T, base, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var frames []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || len(cur.data) > 0 {
				frames = append(frames, cur)
				if cur.event == "done" {
					return frames
				}
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "id: "):
			cur.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = append(cur.data, line[len("data: "):]...)
		}
	}
	return frames
}

// directRunBytes executes the same run through pkg/atpg directly and
// returns the canonical document the service stores: the result with
// the wall clock zeroed.
func directRunBytes(t *testing.T, name string, cfg atpg.Config) []byte {
	t.Helper()
	c, err := atpg.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := cfg.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	ses, err := atpg.New(c, canon)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ses.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res.Runtime = 0
	var buf bytes.Buffer
	if err := atpg.EncodeJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSubmitStreamResultByteIdentical is the end-to-end acceptance run:
// submit a built-in benchmark, observe the ordered progress stream over
// SSE, and fetch a final document byte-identical to a direct pkg/atpg
// run of the same canonical config.
func TestSubmitStreamResultByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkersPerJob: 4})
	cfg := atpg.Config{Workers: 2, Seed: 42}
	st := postJob(t, ts.URL, SubmitRequest{Benchmark: "s27", Config: cfg})
	if st.CircuitHash == "" || st.Config.Workers != 2 || st.Config.Order != atpg.OrderNatural {
		t.Fatalf("accepted status not canonicalized: %+v", st)
	}

	frames := streamEvents(t, ts.URL, st.ID)
	if len(frames) == 0 || frames[len(frames)-1].event != "done" {
		t.Fatalf("stream did not terminate with done: %d frames", len(frames))
	}
	wantDone := 0
	for _, f := range frames {
		if f.event != string(atpg.EventProgress) {
			continue
		}
		var ev atpg.Event
		if err := json.Unmarshal(f.data, &ev); err != nil {
			t.Fatalf("progress frame does not decode: %v", err)
		}
		wantDone++
		if ev.Done != wantDone {
			t.Fatalf("progress out of order: got %d, want %d", ev.Done, wantDone)
		}
	}
	if wantDone == 0 {
		t.Fatal("no progress events streamed")
	}

	final := waitDone(t, ts.URL, st.ID)
	if final.Err != "" || !final.HasResult || final.Cached {
		t.Fatalf("final status unexpected: %+v", final)
	}
	if final.Done != wantDone || final.Done != final.Total {
		t.Fatalf("final progress %d/%d, streamed %d", final.Done, final.Total, wantDone)
	}
	got := getResult(t, ts.URL, st.ID)
	want := directRunBytes(t, "s27", cfg)
	if !bytes.Equal(got, want) {
		t.Fatalf("service result diverged from direct run:\n%s\nvs\n%s", got, want)
	}
	var res atpg.Result
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	if res.Circuit != "s27" || res.Classified() != len(res.Faults) {
		t.Fatalf("result incoherent: %+v", res)
	}
}

// TestResultCacheReplayByteIdentical: a second identical submission is
// served from the results cache — hit counter moves, the job is marked
// cached, and the bytes are identical to the first response.
func TestResultCacheReplayByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkersPerJob: 4})
	req := SubmitRequest{Benchmark: "s27", Config: atpg.Config{Workers: 2}}

	first := postJob(t, ts.URL, req)
	waitDone(t, ts.URL, first.ID)
	firstBytes := getResult(t, ts.URL, first.ID)

	second := postJob(t, ts.URL, req)
	fin := waitDone(t, ts.URL, second.ID)
	if !fin.Cached {
		t.Fatalf("second identical submission not served from cache: %+v", fin)
	}
	if fin.RuntimeNS == 0 {
		t.Fatal("cached replay lost the original run's wall clock")
	}
	secondBytes := getResult(t, ts.URL, second.ID)
	if !bytes.Equal(firstBytes, secondBytes) {
		t.Fatal("cache replay not byte-identical")
	}
	stats := getStats(t, ts.URL)
	if stats.ResultCache.Hits != 1 {
		t.Fatalf("result cache hits = %d, want 1", stats.ResultCache.Hits)
	}
	// A config spelled differently but canonically equal also hits.
	third := postJob(t, ts.URL, SubmitRequest{Benchmark: "s27", Config: atpg.Config{
		Workers: 2, Algebra: atpg.AlgebraRobust, Order: atpg.OrderNatural,
		LocalBacktracks: 100, SeqBacktracks: 100, MaxFrames: 32,
		ConeSets: atpg.ConeSetsCompressed, // memory/speed only: provably identical result
	}})
	waitDone(t, ts.URL, third.ID)
	if !bytes.Equal(getResult(t, ts.URL, third.ID), firstBytes) {
		t.Fatal("canonically equal config missed the cache or diverged")
	}
	if got := getStats(t, ts.URL).ResultCache.Hits; got != 2 {
		t.Fatalf("result cache hits = %d, want 2", got)
	}
}

// uploadText is a small sequential netlist for the upload tests, spelled
// with syntactic noise that must wash out of the content hash.
const uploadText = `# tiny machine
INPUT(A)
INPUT(B)
OUTPUT(Z)

S = DFF(N1)
N1 = nand( A , S )
Z  = AND(N1, B)
`

// TestConcurrentUploadsShareOneParse: N clients racing the same netlist
// upload coalesce onto a single parse (and thus one shared circuit and
// topology), and every response is byte-identical.
func TestConcurrentUploadsShareOneParse(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkersPerJob: 2, MaxRunningJobs: 4})
	req := SubmitRequest{Bench: uploadText, Name: "tiny", Config: atpg.Config{Workers: 1}}

	const clients = 4
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var first []byte
	for _, id := range ids {
		waitDone(t, ts.URL, id)
		body := getResult(t, ts.URL, id)
		if first == nil {
			first = body
		} else if !bytes.Equal(first, body) {
			t.Fatal("concurrent identical uploads returned different bytes")
		}
	}
	stats := getStats(t, ts.URL)
	if stats.CircuitCache.Parses != 1 {
		t.Fatalf("%d clients caused %d parses, want 1", clients, stats.CircuitCache.Parses)
	}
	if stats.CircuitCache.Hits < clients-1 {
		t.Fatalf("circuit cache hits = %d, want >= %d", stats.CircuitCache.Hits, clients-1)
	}

	// A syntactic variant of the same design aliases onto the cached
	// circuit: one more parse, but the same content hash.
	variant := SubmitRequest{
		Bench:  "INPUT(A)\nINPUT(B)\nOUTPUT(Z)\nS = DFF(N1)\nN1 = NAND(A, S)\nZ = AND(N1, B)\n",
		Name:   "tiny",
		Config: atpg.Config{Workers: 1},
	}
	st := postJob(t, ts.URL, variant)
	if want := getStatus(t, ts.URL, ids[0]).CircuitHash; st.CircuitHash != want {
		t.Fatalf("syntactic variant hashed differently: %s vs %s", st.CircuitHash, want)
	}
	waitDone(t, ts.URL, st.ID)
	if !bytes.Equal(getResult(t, ts.URL, st.ID), first) {
		t.Fatal("variant upload diverged (should have replayed the cached result)")
	}
}

// TestCancelMidRunYieldsCommittedPrefix: DELETE on a running job
// returns a coherent partial result whose classified prefix matches the
// uncancelled run fault for fault.
func TestCancelMidRunYieldsCommittedPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("full s641 reference run in -short mode")
	}
	_, ts := newTestServer(t, Options{MaxWorkersPerJob: 2})
	st := postJob(t, ts.URL, SubmitRequest{Benchmark: "s641", Config: atpg.Config{Workers: 2}})

	// Wait until some progress committed, then cancel.
	deadline := time.Now().Add(time.Minute)
	for {
		cur := getStatus(t, ts.URL, st.ID)
		if cur.Done > 0 || cur.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress within a minute")
		}
		time.Sleep(5 * time.Millisecond)
	}
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE returned %d", delResp.StatusCode)
	}

	fin := waitDone(t, ts.URL, st.ID)
	if !fin.Cancelled {
		// The run outpaced the cancel. The result must then be the
		// complete uncancelled one — the prefix property degenerates to
		// full equality against the reference run.
		t.Log("run finished before the cancel landed; checking full equality")
		if !bytes.Equal(getResult(t, ts.URL, st.ID), directRunBytes(t, "s641", atpg.Config{Workers: 2})) {
			t.Fatal("uncancelled result diverged from the reference run")
		}
		return
	}
	var partial atpg.Result
	if err := json.Unmarshal(getResult(t, ts.URL, st.ID), &partial); err != nil {
		t.Fatal(err)
	}
	if fin.Err != context.Canceled.Error() || partial.Err != context.Canceled {
		t.Fatalf("cancelled job err = %q / %v", fin.Err, partial.Err)
	}
	if partial.Pending == 0 {
		t.Log("run finished before the cancel landed; prefix check degenerates to full equality")
	}

	var full atpg.Result
	if err := json.Unmarshal(directRunBytes(t, "s641", atpg.Config{Workers: 2}), &full); err != nil {
		t.Fatal(err)
	}
	for i, fr := range partial.Faults {
		if fr.Status == atpg.StatusPending {
			continue
		}
		if want := full.Faults[i]; fr.Status != want.Status {
			t.Fatalf("%s: partial says %s, full run says %s", fr.Fault, fr.Status, want.Status)
		}
	}
	// The cancelled partial must never poison the results cache.
	again := postJob(t, ts.URL, SubmitRequest{Benchmark: "s641", Config: atpg.Config{Workers: 2}})
	if fin := waitDone(t, ts.URL, again.ID); fin.Cached {
		t.Fatal("partial result was served from the results cache")
	}
}

// TestDeadlineExpiresJob: a tiny timeout_ms yields a done job carrying
// the deadline error and a coherent (possibly empty) committed prefix.
func TestDeadlineExpiresJob(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkersPerJob: 2})
	st := postJob(t, ts.URL, SubmitRequest{
		Benchmark: "s1238",
		Config:    atpg.Config{Workers: 1},
		TimeoutMS: 30,
	})
	fin := waitDone(t, ts.URL, st.ID)
	if fin.Err != context.DeadlineExceeded.Error() {
		t.Fatalf("err = %q, want deadline exceeded", fin.Err)
	}
	var partial atpg.Result
	if err := json.Unmarshal(getResult(t, ts.URL, st.ID), &partial); err != nil {
		t.Fatal(err)
	}
	if partial.Err != context.DeadlineExceeded {
		t.Fatalf("partial.Err = %v", partial.Err)
	}
	if partial.Pending == 0 {
		t.Fatal("30ms deadline on s1238 classified the whole universe — deadline untested")
	}
}

// TestSSEDisconnectDoesNotCancelJob: dropping the event stream leaves
// the job running to completion.
func TestSSEDisconnectDoesNotCancelJob(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkersPerJob: 2})
	st := postJob(t, ts.URL, SubmitRequest{Benchmark: "s298", Config: atpg.Config{Workers: 1}})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	resp.Body.Read(buf) // ensure the stream is live, then drop it
	cancel()
	resp.Body.Close()

	fin := waitDone(t, ts.URL, st.ID)
	if fin.Err != "" || fin.Cancelled {
		t.Fatalf("client disconnect affected the job: %+v", fin)
	}
	var res atpg.Result
	if err := json.Unmarshal(getResult(t, ts.URL, st.ID), &res); err != nil {
		t.Fatal(err)
	}
	if res.Pending != 0 {
		t.Fatalf("job truncated after disconnect: %d pending", res.Pending)
	}
}

// TestLateSubscriberReplaysFullStream: an SSE subscriber arriving after
// completion replays the complete committed stream, then done.
func TestLateSubscriberReplaysFullStream(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkersPerJob: 2})
	st := postJob(t, ts.URL, SubmitRequest{Benchmark: "s27", Config: atpg.Config{Workers: 1}})
	fin := waitDone(t, ts.URL, st.ID)

	frames := streamEvents(t, ts.URL, st.ID)
	if len(frames) == 0 || frames[len(frames)-1].event != "done" {
		t.Fatal("late subscriber got no terminated stream")
	}
	if got := len(frames) - 1; got != fin.Events {
		t.Fatalf("late replay has %d events, status says %d", got, fin.Events)
	}
}

// TestQueueFullRejects: a single slow runner plus a bounded queue turns
// the next submission into 503.
func TestQueueFullRejects(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxRunningJobs: 1, MaxQueue: 1, MaxWorkersPerJob: 1})
	// One running (slow), one queued, then reject.
	running := postJob(t, ts.URL, SubmitRequest{Benchmark: "s641", Config: atpg.Config{Workers: 1}})
	queued := postJob(t, ts.URL, SubmitRequest{Benchmark: "s27", Config: atpg.Config{Workers: 1}})
	if _, code := postJobCode(t, ts.URL, SubmitRequest{Benchmark: "s27"}); code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission returned %d, want 503", code)
	}
	// Cancel the slow job so cleanup is quick; the queued one completes.
	for _, id := range []string{running.ID, queued.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		waitDone(t, ts.URL, id)
	}
}

// TestAPIErrors pins the failure-shape contract: malformed requests are
// 400s with a JSON error, unknown jobs 404, early results 409.
func TestAPIErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkersPerJob: 1})
	for name, req := range map[string]SubmitRequest{
		"both sources":      {Benchmark: "s27", Bench: uploadText},
		"neither source":    {},
		"unknown benchmark": {Benchmark: "s9999"},
		"malformed netlist": {Bench: "Z = FROB(A)\n"},
		"bad config":        {Benchmark: "s27", Config: atpg.Config{Algebra: "bogus"}},
		"negative timeout":  {Benchmark: "s27", TimeoutMS: -1},
	} {
		if _, code := postJobCode(t, ts.URL, req); code != http.StatusBadRequest {
			t.Errorf("%s: returned %d, want 400", name, code)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job returned %d", resp.StatusCode)
	}

	st := postJob(t, ts.URL, SubmitRequest{Benchmark: "s641", Config: atpg.Config{Workers: 1}})
	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("early result returned %d, want 409", rr.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	waitDone(t, ts.URL, st.ID)
}

// TestRemovedReferenceFieldsRejected: the reference-oracle switches and
// the removed scale-out scheduling knobs are no longer part of the wire
// Config, so a submit body still naming one is a 400 from the strict
// decoder, and the error names the field.
func TestRemovedReferenceFieldsRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkersPerJob: 1})
	for _, field := range []string{"full_eval", "scalar_credit", "scalar_search", "broadcast", "steal"} {
		body := fmt.Sprintf(`{"benchmark":"s27","config":{%q:true}}`, field)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorJSON
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: returned %d, want 400", field, resp.StatusCode)
		}
		if !strings.Contains(e.Error, field) {
			t.Errorf("%s: error %q does not name the field", field, e.Error)
		}
	}
}

// TestHealthzAndBenchmarks smoke the two discovery endpoints.
func TestHealthzAndBenchmarks(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil || hz.Status != "ok" {
		t.Fatalf("healthz = %+v (%v)", hz, err)
	}

	br, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer br.Body.Close()
	var bl struct {
		Benchmarks []BenchmarkEntry `json:"benchmarks"`
		Families   []string         `json:"families"`
	}
	if err := json.NewDecoder(br.Body).Decode(&bl); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, b := range bl.Benchmarks {
		names[b.Name] = true
	}
	for _, want := range []string{"s27", "s1238", "c17"} {
		if !names[want] {
			t.Errorf("benchmark list missing %s", want)
		}
	}
	if len(bl.Families) == 0 {
		t.Error("no parameterized families listed")
	}
}

// TestQueuedCancelFinishesWithoutRunning: DELETE on a queued job
// finishes it immediately with no result and without occupying a
// runner.
func TestQueuedCancelFinishesWithoutRunning(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxRunningJobs: 1, MaxQueue: 4, MaxWorkersPerJob: 1})
	slow := postJob(t, ts.URL, SubmitRequest{Benchmark: "s641", Config: atpg.Config{Workers: 1}})
	queued := postJob(t, ts.URL, SubmitRequest{Benchmark: "s27", Config: atpg.Config{Workers: 1}})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := getStatus(t, ts.URL, queued.ID)
	if fin.State != StateDone || !fin.Cancelled || fin.HasResult {
		t.Fatalf("queued cancel: %+v", fin)
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + queued.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusGone {
		t.Fatalf("result of never-ran job returned %d, want 410", rr.StatusCode)
	}

	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+slow.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitDone(t, ts.URL, slow.ID)
}

// TestEventLogBoundedWindow exercises the drop window directly: a log
// past its limit advances start and reports the gap to a slow reader.
func TestEventLogBoundedWindow(t *testing.T) {
	l := newEventLog(16)
	for i := 0; i < 100; i++ {
		l.append(atpg.Event{Kind: atpg.EventProgress, Done: i + 1, Total: 100})
	}
	l.finish()
	evs, next, dropped, finished, _ := l.from(0)
	if dropped == 0 || !finished {
		t.Fatalf("dropped=%d finished=%v, want gap and finished", dropped, finished)
	}
	if dropped+len(evs) != 100 || next != 100 {
		t.Fatalf("gap %d + window %d != 100 (next %d)", dropped, len(evs), next)
	}
	if last := evs[len(evs)-1]; last.Done != 100 {
		t.Fatalf("window lost the newest event: %+v", last)
	}
	count, done, total := l.progress()
	if count != 100 || done != 100 || total != 100 {
		t.Fatalf("progress = %d %d %d", count, done, total)
	}
}

// TestUploadTooLarge: the body bound turns an oversized netlist into
// 413, not an engine run.
func TestUploadTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxUploadBytes: 512})
	big := SubmitRequest{Bench: strings.Repeat("# padding\n", 200) + uploadText}
	body, _ := json.Marshal(big)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload returned %d, want 413", resp.StatusCode)
	}
}

// TestWorkersClamped: Workers 0 (all CPUs) and beyond-cap requests run
// with exactly the per-job cap, visible in the canonical config.
func TestWorkersClamped(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkersPerJob: 3})
	for _, workers := range []int{0, 64} {
		st := postJob(t, ts.URL, SubmitRequest{Benchmark: "s27", Config: atpg.Config{Workers: workers}})
		if st.Config.Workers != 3 {
			t.Errorf("Workers %d clamped to %d, want 3", workers, st.Config.Workers)
		}
		waitDone(t, ts.URL, st.ID)
	}
	// Negative (force single worker) passes through untouched.
	st := postJob(t, ts.URL, SubmitRequest{Benchmark: "s27", Config: atpg.Config{Workers: -1}})
	if st.Config.Workers != -1 {
		t.Errorf("Workers -1 rewritten to %d", st.Config.Workers)
	}
	waitDone(t, ts.URL, st.ID)
}

var _ = fmt.Sprintf // keep fmt for debugging edits
