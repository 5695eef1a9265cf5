package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"fogbuster/internal/bench"
	"fogbuster/internal/service"
	"fogbuster/pkg/atpg"
)

// The service-mix script: two closed-loop clients, each sending its
// script of ten requests per round. "F:<circuit>" is a fresh job on a
// small built-in circuit under a seed no earlier request used, so it
// misses the result cache and runs the engine; "R:<i>" resends the
// client's request i and must replay its bytes from the cache; "U"
// uploads a syntactic variant of the client's own copy of the s27
// netlist, so every upload parses but only the first runs the engine.
// Every round runs against a fresh server, which makes the rounds
// replicates: the same jobs, the same cache traffic, the same bytes.
//
// The mix fixes the latency classes per round: 6 cache hits (30%),
// 3 s27-size runs (15%), 10 s208 runs (50%) and 1 s386 run (5%). Both the
// median and the 90th percentile therefore fall inside the s208 class,
// never on a class boundary where they would jump between runs, and never
// among the sub-millisecond cache hits, whose latency is host scheduling
// jitter rather than work.
var svcScripts = [][]string{
	{"F:s208", "U", "F:s208", "R:0", "F:s208", "U", "F:s208", "R:2", "F:s208", "F:s386"},
	{"F:s208", "U", "F:s208", "R:0", "F:s208", "U", "F:s208", "R:2", "F:s208", "F:s27"},
}

type svcKind uint8

const (
	svcFresh svcKind = iota
	svcRepeat
	svcUpload
)

// svcRequest is one scripted submission.
type svcRequest struct {
	kind   svcKind
	body   []byte
	req    service.SubmitRequest
	origin int // index of the request a repeat resends, else -1
}

// svcScript builds the requests of one client. The workload seed shapes
// the upload variants; the job seeds are fixed by position, because the
// engine work of a job moves with its Config.Seed (see engineJobs). Every
// job asks for one worker: the two clients' jobs then fill the two cores
// without sharing one, so a job's latency does not depend on whether the
// other client happens to be computing at the same time.
func svcScript(seed int64, client int) ([]svcRequest, error) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	jobSeed := func(pos int) int64 { return int64(client)*100 + int64(pos) + 1 }
	var out []svcRequest
	for pos, step := range svcScripts[client] {
		r := svcRequest{origin: -1}
		kind, arg, _ := strings.Cut(step, ":")
		switch kind {
		case "F":
			r.kind = svcFresh
			r.req = service.SubmitRequest{Benchmark: arg, Config: atpg.Config{Seed: jobSeed(pos), Workers: 1}}
		case "R":
			r.kind = svcRepeat
			if _, err := fmt.Sscan(arg, &r.origin); err != nil || r.origin >= pos {
				return nil, fmt.Errorf("script step %q: bad repeat", step)
			}
			r.req = out[r.origin].req
		case "U":
			r.kind = svcUpload
			r.req = service.SubmitRequest{Bench: variant(bench.S27, rng), Name: fmt.Sprintf("upload-c%d", client),
				Config: atpg.Config{Seed: jobSeed(len(svcScripts[client])), Workers: 1}}
		default:
			return nil, fmt.Errorf("script step %q: unknown kind", step)
		}
		body, err := json.Marshal(r.req)
		if err != nil {
			return nil, err
		}
		r.body = body
		out = append(out, r)
	}
	return out, nil
}

// variant rewrites a .bench netlist without changing the circuit:
// comments, blank lines and the spacing around "=" and "," vary, while
// the definition order, which fixes the node numbering, stays.
func variant(src string, rng *rand.Rand) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# variant %d\n", rng.Int63())
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if rng.Intn(4) == 0 {
			sb.WriteString("\n# spacer\n")
		}
		if rng.Intn(2) == 0 {
			line = strings.ReplaceAll(strings.ReplaceAll(line, " = ", "="), ", ", ",")
		}
		sb.WriteString(line)
		sb.WriteString("\n")
	}
	return sb.String()
}

// svcServer is one in-process atpgd on a loopback port.
type svcServer struct {
	svc  *service.Server
	http *http.Server
	base string
	done chan struct{}
}

func startServer(client *http.Client) (*svcServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &svcServer{svc: service.New(service.Options{}), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.http = &http.Server{Handler: s.svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	resp, err := client.Get(s.base + "/v1/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("healthz returned %d", resp.StatusCode)
	}
	return s, nil
}

// stop shuts the listener, waits for the serve goroutine and every job
// runner to end.
func (s *svcServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		s.http.Close()
	}
	<-s.done
	s.svc.Close()
}

func (s *svcServer) stats(client *http.Client) (service.Stats, error) {
	var st service.Stats
	resp, err := client.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// svcJob is one completed scripted job as the client saw it.
type svcJob struct {
	status          service.JobStatus
	body            []byte
	start, end      time.Time
	submit, result  time.Duration
	latency         time.Duration
	events, dropped int
}

// doJob submits one request, follows its SSE stream to the terminal
// done frame and fetches the result document.
func (s *svcServer) doJob(client *http.Client, r svcRequest) (svcJob, error) {
	j := svcJob{start: time.Now()}
	resp, err := client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return j, err
	}
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		return j, fmt.Errorf("submit refused with %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&j.status)
	resp.Body.Close()
	if err != nil {
		return j, fmt.Errorf("submit: %w", err)
	}
	j.submit = time.Since(j.start)

	resp, err = client.Get(s.base + "/v1/jobs/" + j.status.ID + "/events")
	if err != nil {
		return j, err
	}
	final, err := readSSE(resp.Body, &j)
	resp.Body.Close()
	if err != nil {
		return j, fmt.Errorf("events of %s: %w", j.status.ID, err)
	}
	j.status = final

	t := time.Now()
	resp, err = client.Get(s.base + "/v1/jobs/" + j.status.ID + "/result")
	if err != nil {
		return j, err
	}
	j.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return j, err
	}
	if resp.StatusCode != http.StatusOK {
		return j, fmt.Errorf("result of %s returned %d", j.status.ID, resp.StatusCode)
	}
	j.end = time.Now()
	j.result = j.end.Sub(t)
	j.latency = j.end.Sub(j.start)
	return j, nil
}

// readSSE counts the stream's event frames and returns the status the
// terminal done frame carries.
func readSSE(r io.Reader, j *svcJob) (service.JobStatus, error) {
	var st service.JobStatus
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			j.events++
		case strings.HasPrefix(line, "data: ") && event == "dropped":
			var d struct {
				Dropped int `json:"dropped"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
				return st, err
			}
			j.dropped += d.Dropped
		case strings.HasPrefix(line, "data: ") && event == "done":
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st)
			return st, err
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, errors.New("stream ended without a done frame")
}

// svcRound is one replicate of the script against a fresh server.
type svcRound struct {
	jobs  [][]svcJob
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	stats service.Stats
}

// playRound runs every client's script concurrently, each closed loop.
func playRound(client *http.Client, scripts [][]svcRequest) (svcRound, error) {
	rd := svcRound{jobs: make([][]svcJob, len(scripts))}
	s, err := startServer(client)
	if err != nil {
		return rd, err
	}
	defer s.stop()
	m := startMeter()
	var wg sync.WaitGroup
	errs := make([]error, len(scripts))
	for c := range scripts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, r := range scripts[c] {
				j, err := s.doJob(client, r)
				if err != nil {
					errs[c] = err
					return
				}
				rd.jobs[c] = append(rd.jobs[c], j)
			}
		}(c)
	}
	wg.Wait()
	var ps passStats
	m.stop(&ps)
	rd.wall, rd.cpu, rd.alloc = ps.wall, ps.cpu, ps.alloc
	if err := errors.Join(errs...); err != nil {
		return rd, err
	}
	rd.stats, err = s.stats(client)
	return rd, err
}

// checkRound verifies one round: every job done without error, misses
// and hits where the script puts them, repeats and upload variants
// replaying the first document's bytes, sound results, and the cache
// counters the script implies. It returns the round's pass statistics.
func checkRound(r *report, scripts [][]svcRequest, rd svcRound) passStats {
	ps := passStats{wall: rd.wall, cpu: rd.cpu, alloc: rd.alloc}
	hits, misses := 0, 0
	for c, script := range scripts {
		firstUpload := -1
		for pos, req := range script {
			j := rd.jobs[c][pos]
			ps.jobs++
			ps.jobMS = append(ps.jobMS, ms(j.latency))
			if j.status.State != service.StateDone || j.status.Err != "" || !j.status.HasResult {
				r.fail("client %d job %d: state %s err %q", c, pos, j.status.State, j.status.Err)
				continue
			}
			wantHit := req.kind == svcRepeat || (req.kind == svcUpload && firstUpload >= 0)
			if j.status.Cached != wantHit {
				r.fail("client %d job %d: cached=%v, script expects %v", c, pos, j.status.Cached, wantHit)
			}
			if wantHit {
				hits++
			} else {
				misses++
			}
			switch {
			case req.kind == svcRepeat && !bytes.Equal(j.body, rd.jobs[c][req.origin].body):
				r.fail("client %d job %d: cache hit bytes differ from the original job's", c, pos)
			case req.kind == svcUpload && firstUpload < 0:
				firstUpload = pos
			case req.kind == svcUpload:
				first := rd.jobs[c][firstUpload]
				if j.status.CircuitHash != first.status.CircuitHash || !bytes.Equal(j.body, first.body) {
					r.fail("client %d job %d: upload variant did not alias onto the first upload", c, pos)
				}
			}
			var res atpg.Result
			if err := json.Unmarshal(j.body, &res); err != nil {
				r.fail("client %d job %d: result document: %v", c, pos, err)
				continue
			}
			if err := checkResult(fmt.Sprintf("client %d job %d", c, pos), &res); err != nil {
				r.fail("%v", err)
			}
			ps.classified += res.Classified()
			ps.tested += res.Tested
			ps.resolved += res.Tested + res.Untestable
			ps.patterns += res.Patterns
		}
	}
	rc := rd.stats.ResultCache
	if int(rc.Hits) != hits || int(rc.Misses) != misses {
		r.fail("result cache counted %d hits / %d misses, script implies %d / %d", rc.Hits, rc.Misses, hits, misses)
	}
	return ps
}

// count is the number of jobs in the round.
func (rd svcRound) count() int {
	n := 0
	for _, jobs := range rd.jobs {
		n += len(jobs)
	}
	return n
}

// roundDigest fingerprints every document of a round in script order.
func roundDigest(rd svcRound) string {
	var all bytes.Buffer
	for _, jobs := range rd.jobs {
		for _, j := range jobs {
			all.Write(j.body)
		}
	}
	return digestBytes(all.Bytes())
}

// svcSetup builds the scripts and times server start-up to a healthy
// listener, repeated like the engine set-up.
func svcSetup(client *http.Client, seed int64) ([][]svcRequest, []float64, error) {
	var setup []float64
	var scripts [][]svcRequest
	start := time.Now()
	for len(setup) < 5 || (len(setup) < 50 && time.Since(start) < time.Second) {
		t := time.Now()
		scripts = scripts[:0]
		for c := range svcScripts {
			sc, err := svcScript(seed, c)
			if err != nil {
				return nil, nil, err
			}
			scripts = append(scripts, sc)
		}
		s, err := startServer(client)
		if err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
		s.stop()
	}
	return scripts, setup, nil
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * len(svcScripts), Proxy: nil},
	}
}

// runService is the untraced run of service-mix.
func runService(r *report, seed int64, seconds float64, workers int) error {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	scripts, setup, err := svcSetup(client, seed)
	if err != nil {
		return err
	}
	// At least five rounds, 100 jobs: the fewest that give a 90th
	// percentile with ten jobs beyond it.
	var firstRound *svcRound
	var firstDigest string
	passes, err := measureFor(seconds, 5, func() (passStats, error) {
		rd, err := playRound(client, scripts)
		if err != nil {
			return passStats{}, err
		}
		r.attempted += rd.count()
		ps := checkRound(r, scripts, rd)
		d := roundDigest(rd)
		if firstRound == nil {
			firstRound, firstDigest = &rd, d
		} else if d != firstDigest {
			r.fail("round documents digest %s differs from the first round's %s", d, firstDigest)
		}
		return ps, nil
	})
	if err != nil {
		return err
	}
	st := firstRound.stats
	r.notef("round: jobs=%d result_cache hits=%d misses=%d circuit_cache hits=%d parses=%d digest=%s",
		firstRound.count(), st.ResultCache.Hits, st.ResultCache.Misses, st.CircuitCache.Hits, st.CircuitCache.Parses, firstDigest)
	if err := checkDirect(r, scripts, *firstRound, seed, workers); err != nil {
		return err
	}
	r.endToEnd(setup, passes)
	return nil
}

// checkDirect compares the cache-hit documents with a direct pkg/atpg
// run of the same request (one run per distinct request), and one of
// them, rotating with the seed, with a run on all cores.
func checkDirect(r *report, scripts [][]svcRequest, rd svcRound, seed int64, workers int) error {
	ctx := context.Background()
	done := map[string]bool{}
	n := 0
	for c, script := range scripts {
		for pos, req := range script {
			j := rd.jobs[c][pos]
			key := fmt.Sprintf("%d/%d", c, req.origin)
			if req.kind == svcUpload {
				key = fmt.Sprintf("%d/upload", c)
			}
			if !j.status.Cached || done[key] {
				continue
			}
			done[key] = true
			circ, err := svcCircuit(req.req)
			if err != nil {
				return err
			}
			cfg := j.status.Config
			pr := prepared{job: job{profile: circ.Name(), cfg: cfg}, circ: circ}
			r.attempted++
			o, err := runJob(ctx, pr, cfg, nil)
			if err != nil {
				return err
			}
			if !bytes.Equal(o.doc, j.body) {
				r.fail("client %d job %d: cache-hit bytes differ from a direct pkg/atpg run", c, pos)
			}
			if n == int(uint64(seed)%4) {
				all := cfg
				all.Workers = workers
				r.attempted++
				oa, err := runJob(ctx, pr, all, nil)
				if err != nil {
					return err
				}
				one, full := o.digest(), oa.digest()
				if one != full {
					r.fail("%s: %d-worker digest %s differs from the %d-worker digest %s", circ.Name(), cfg.Workers, one, workers, full)
				}
				r.notef("check: %s digest at %d worker matches %d workers: %v", circ.Name(), cfg.Workers, workers, one == full)
			}
			n++
		}
	}
	r.notef("check: %d distinct cache-hit documents compared byte for byte with direct pkg/atpg runs", n)
	return nil
}

func svcCircuit(req service.SubmitRequest) (*atpg.Circuit, error) {
	if req.Benchmark != "" {
		return atpg.Benchmark(req.Benchmark)
	}
	return atpg.ParseBench(req.Name, req.Bench)
}
