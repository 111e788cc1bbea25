package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rescue/internal/dispatch"
	"rescue/internal/fault"
	"rescue/internal/flows"
	"rescue/internal/netlist"
	"rescue/internal/rtl"
	"rescue/internal/scan"
	"rescue/internal/serve"
	"rescue/internal/sweep"
)

// miniParams selects one mini job: the seed drives its random patterns, so
// every job of a fan-out computes something different.
type miniParams struct {
	Seed int64 `json:"seed"`
}

// miniDesign is the read-only netlist every mini job simulates, built once
// and shared by the in-process workers and the local reference runs, so a
// job's cost is its campaign alone.
var miniDesign = sync.OnceValues(func() (miniFixture, error) {
	d, err := rtl.Build(rtl.Small(), rtl.RescueDesign)
	if err != nil {
		return miniFixture{}, err
	}
	c, err := scan.Insert(d.N, 1)
	if err != nil {
		return miniFixture{}, err
	}
	return miniFixture{chain: c, faults: fault.NewUniverse(d.N).Collapsed[:200]}, nil
})

type miniFixture struct {
	chain  *scan.Chain
	faults []netlist.Fault
}

// miniFlow is the test job kind: one small deterministic fault campaign
// rendered as a text report. The same params give the same bytes on any
// worker or locally, which is what makes a remote result checkable.
func miniFlow(ctx context.Context, rc serve.RunContext, params json.RawMessage) ([]byte, error) {
	var p miniParams
	if len(params) > 0 {
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, err
		}
	}
	fx, err := miniDesign()
	if err != nil {
		return nil, err
	}
	c := fx.chain
	r := rand.New(rand.NewSource(61 + p.Seed))
	var pats []*scan.Pattern
	for w := 0; w < 2; w++ {
		pat := c.NewPattern(64)
		for i := range pat.FFVals {
			pat.FFVals[i] = r.Uint64()
		}
		for i := range pat.PIVals {
			pat.PIVals[i] = r.Uint64()
		}
		pats = append(pats, pat)
	}
	sim := fault.NewSim(c, pats)
	camp := fault.NewCampaign(sim, fault.CampaignConfig{Workers: 2})
	res, st, err := camp.Run(ctx, fx.faults)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "seed=%d\n", p.Seed)
	for i, r := range res {
		fmt.Fprintf(&buf, "%4d %v %d %v\n", i, r.Detected, len(r.Fails), r.FailObs)
	}
	fmt.Fprintf(&buf, "faults=%d detected=%d\n", st.Faults, st.Detected)
	return buf.Bytes(), nil
}

func miniSpec(seed int) serve.Spec {
	params, _ := json.Marshal(miniParams{Seed: int64(seed)})
	return serve.Spec{Kind: "mini", Params: params}
}

// newWorker starts one in-process rescued worker that knows the mini kind.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	kinds := serve.Kinds()
	kinds["mini"] = miniFlow
	srv := serve.New(serve.Config{Kinds: kinds, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func workerURLs(servers ...*httptest.Server) []string {
	urls := make([]string, len(servers))
	for i, s := range servers {
		urls[i] = s.URL
	}
	return urls
}

// localGolden runs jobs mini jobs in this process, in seed order.
func localGolden(t *testing.T, jobs int) []byte {
	t.Helper()
	var out []byte
	for i := 0; i < jobs; i++ {
		b, err := miniFlow(context.Background(), serve.RunContext{Workers: 2}, miniSpec(i).Params)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// fanOut submits one mini job per seed through the pool, all at once, and
// concatenates the outputs in seed order. A job the pool gives up on is
// recomputed locally and counted — the caller-side fallback rescue-sweep
// uses. onDone, when set, runs after every remotely completed job.
func fanOut(t *testing.T, p *dispatch.Pool, jobs int, onDone func()) (out []byte, fallbacks int) {
	t.Helper()
	outs := make([][]byte, jobs)
	var fb atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := miniSpec(i)
			b, err := p.ExecJob(context.Background(), spec)
			if err == nil {
				if onDone != nil {
					onDone()
				}
				outs[i] = b
				return
			}
			fb.Add(1)
			if b, err = miniFlow(context.Background(), serve.RunContext{Workers: 2}, spec.Params); err != nil {
				t.Errorf("local fallback for job %d: %v", i, err)
			}
			outs[i] = b
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return bytes.Join(outs, nil), int(fb.Load())
}

// TestDispatchDeterminism: jobs fanned out across three workers come back
// byte-identical to the same jobs run locally, every one computed remotely.
func TestDispatchDeterminism(t *testing.T) {
	const jobs = 6
	want := localGolden(t, jobs)
	p, err := dispatch.NewPool(dispatch.Config{
		Workers: workerURLs(newWorker(t), newWorker(t), newWorker(t)),
		// No health polling: a /healthz answered late on a loaded machine
		// would retire a live worker and force a fallback.
		HealthEvery: time.Hour,
		Seed:        42,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	got, fallbacks := fanOut(t, p, jobs, nil)
	if !bytes.Equal(got, want) {
		t.Fatal("remote output differs from the local run")
	}
	if fallbacks != 0 {
		t.Fatalf("%d jobs fell back locally, want 0", fallbacks)
	}
	if st := p.Stats(); st.Completed != jobs {
		t.Fatalf("completed %d jobs remotely, want %d", st.Completed, jobs)
	}
}

// TestDispatchChaosKill: a worker killed mid-run — connections dropped and
// listener closed right after the first job completes anywhere — loses its
// queued and running jobs; the pool reassigns them to the survivors and
// the merged output stays byte-identical with no local fallback.
func TestDispatchChaosKill(t *testing.T) {
	// Three jobs per worker on one-slot workers: when the first job
	// completes, the victim still holds at least two.
	const jobs = 9
	want := localGolden(t, jobs)
	servers := []*httptest.Server{newWorker(t), newWorker(t), newWorker(t)}
	p, err := dispatch.NewPool(dispatch.Config{
		Workers:     workerURLs(servers...),
		Seed:        7,
		BackoffBase: 5 * time.Millisecond,
		BackoffCap:  50 * time.Millisecond,
		// No health polling: the failed attempts alone must retire the
		// killed worker, and a slow /healthz must not retire a survivor.
		HealthEvery: time.Hour,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var kill sync.Once
	got, fallbacks := fanOut(t, p, jobs, func() {
		kill.Do(func() {
			servers[0].CloseClientConnections()
			servers[0].Close()
		})
	})
	if !bytes.Equal(got, want) {
		t.Fatal("output after a worker kill differs from the local run")
	}
	if fallbacks != 0 {
		t.Fatalf("%d jobs fell back locally, want 0: two workers survived", fallbacks)
	}
	st := p.Stats()
	if st.Completed != jobs {
		t.Fatalf("completed %d jobs remotely, want %d", st.Completed, jobs)
	}
	if st.Retries == 0 {
		t.Fatal("no job was reassigned after the kill")
	}
}

// TestDispatchAllWorkersDead: with every worker unreachable each job
// errors out of the pool, the caller runs it locally, and the output still
// matches the local run.
func TestDispatchAllWorkersDead(t *testing.T) {
	const jobs = 3
	want := localGolden(t, jobs)

	// A freshly released port: connections are refused, not hung.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()

	p, err := dispatch.NewPool(dispatch.Config{
		Workers:     []string{dead, dead},
		RetryBudget: 1,
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		HealthEvery: time.Hour, // never revive mid-test
		Seed:        1,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	got, fallbacks := fanOut(t, p, jobs, nil)
	if !bytes.Equal(got, want) {
		t.Fatal("all-dead fallback output differs from the local run")
	}
	if st := p.Stats(); st.Completed != 0 {
		t.Fatalf("completed %d jobs on dead workers", st.Completed)
	}
	if fallbacks != jobs {
		t.Fatalf("%d local fallbacks, want %d", fallbacks, jobs)
	}
}

// hungWorker fakes a rescued that accepts jobs and then goes silent: the
// event stream sends headers and nothing else. It reports healthy the
// whole time — only the heartbeat watchdog can catch it. Records whether
// the coordinator cancelled the abandoned job.
type hungWorker struct {
	ts       *httptest.Server
	mu       sync.Mutex
	deleted  []string
	accepted int
}

func newHungWorker(t *testing.T) *hungWorker {
	h := &hungWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		h.mu.Lock()
		h.accepted++
		id := fmt.Sprintf("hung-%d", h.accepted)
		h.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id})
	})
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			h.mu.Lock()
			h.deleted = append(h.deleted, strings.TrimPrefix(r.URL.Path, "/jobs/"))
			h.mu.Unlock()
			w.WriteHeader(http.StatusOK)
			return
		}
		// The event stream: headers, then silence until the client leaves.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		<-r.Context().Done()
	})
	h.ts = httptest.NewServer(mux)
	t.Cleanup(h.ts.Close)
	return h
}

func (h *hungWorker) cancels() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.deleted...)
}

// TestDispatchHungWorker: a worker that accepts a job and never emits an
// event trips the heartbeat watchdog; the pool DELETEs the abandoned job
// (its late result is never read), reassigns it to a live worker, and the
// merged output is still byte-identical.
func TestDispatchHungWorker(t *testing.T) {
	const jobs = 2
	want := localGolden(t, jobs)
	hung := newHungWorker(t)
	live := newWorker(t)

	p, err := dispatch.NewPool(dispatch.Config{
		Workers: []string{hung.ts.URL, live.URL},
		// Long enough that a live worker's queued job never trips it,
		// even under the race detector.
		Heartbeat:   time.Second,
		BackoffBase: time.Millisecond,
		BackoffCap:  10 * time.Millisecond,
		HealthEvery: time.Hour, // the hung worker reports healthy; don't revive it after the watchdog fires
		Seed:        3,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	got, fallbacks := fanOut(t, p, jobs, nil)
	if !bytes.Equal(got, want) {
		t.Fatal("hung-worker run output differs from the local run")
	}
	if fallbacks != 0 {
		t.Fatalf("%d jobs fell back locally, want 0", fallbacks)
	}
	st := p.Stats()
	if st.Completed != jobs {
		t.Fatalf("completed %d jobs remotely, want %d", st.Completed, jobs)
	}
	if st.Retries == 0 {
		t.Fatal("expected at least one retry after the heartbeat timeout")
	}
	if len(hung.cancels()) == 0 {
		t.Fatal("pool never cancelled the abandoned job on the hung worker")
	}
}

// TestDispatchBusyWorker: a 429 from a saturated worker is not a failure —
// the pool waits out Retry-After (plus jitter), keeps the worker in
// rotation, and completes once the queue drains.
func TestDispatchBusyWorker(t *testing.T) {
	want := localGolden(t, 1)

	release := make(chan struct{})
	kinds := serve.Kinds()
	kinds["mini"] = miniFlow
	kinds["block"] = func(ctx context.Context, rc serve.RunContext, _ json.RawMessage) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-release:
			return []byte("released\n"), nil
		}
	}
	srv := serve.New(serve.Config{Kinds: kinds, Workers: 2, QueueCap: 1, Slots: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Saturate: one blocker holds the slot, a second fills the queue; a
	// third submission is shed with the Retry-After the pool must honour.
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"kind":"block"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("blocker %d: HTTP %d", i, resp.StatusCode)
		}
	}
	probe, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"kind":"block"}`))
	if err != nil {
		t.Fatal(err)
	}
	probe.Body.Close()
	retryAfter, err := strconv.Atoi(probe.Header.Get("Retry-After"))
	if probe.StatusCode != http.StatusTooManyRequests || err != nil || retryAfter < 1 {
		t.Fatalf("saturated worker answered HTTP %d, Retry-After %q; want 429 with seconds",
			probe.StatusCode, probe.Header.Get("Retry-After"))
	}

	p, err := dispatch.NewPool(dispatch.Config{
		Workers:     []string{ts.URL},
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  100 * time.Millisecond,
		RetryBudget: 100,
		// No health polling: with one worker, a 429 that marked it down
		// would leave nothing to pick and the job would fall back.
		HealthEvery: time.Hour,
		Seed:        9,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Unblock the queue shortly after dispatch starts hitting 429s.
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()

	start := time.Now()
	got, fallbacks := fanOut(t, p, 1, nil)
	elapsed := time.Since(start)
	if !bytes.Equal(got, want) {
		t.Fatal("busy-worker run output differs from the local run")
	}
	if fallbacks != 0 {
		t.Fatalf("%d fallbacks, want 0: a 429 must not mark the worker down", fallbacks)
	}
	st := p.Stats()
	if st.Completed != 1 {
		t.Fatalf("completed %d jobs remotely, want 1", st.Completed)
	}
	if st.Retries == 0 {
		t.Fatal("expected retries while the worker queue was full")
	}
	if min := time.Duration(retryAfter) * time.Second; elapsed < min {
		t.Fatalf("job finished after %s, before the worker's Retry-After of %s", elapsed, min)
	}
}

// TestDispatchConfigValidation pins the constructor's error cases.
func TestDispatchConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  dispatch.Config
	}{
		{"no workers", dispatch.Config{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := dispatch.NewPool(tc.cfg); err == nil {
				t.Fatal("NewPool accepted a bad config")
			}
		})
	}
}

// TestDispatchExecJobSweep: grid points fanned out to worker daemons as
// single-point sweep jobs merge into a frontier byte-identical to the
// all-local run, with no local fallbacks.
func TestDispatchExecJobSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real small sweep flow locally and on workers")
	}
	spec := sweep.Spec{
		Presets: []string{"paper"},
		Axes:    map[string][]string{"chipkill-scale": {"1", "0.8"}},
		Nodes:   []int{18},
		Small:   true,
		Dies:    40,
		Warmup:  100,
		Commit:  500,
		Workers: 2,
	}
	toNDJSON := func(fr *sweep.Frontier) []byte {
		var buf bytes.Buffer
		if err := fr.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	local, err := sweep.Run(context.Background(), spec, sweep.Options{
		Env: flows.Env{Store: flows.NewStore()}, Concurrency: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := toNDJSON(local)

	w1, w2 := newWorker(t), newWorker(t)
	p, err := dispatch.NewPool(dispatch.Config{
		Workers: workerURLs(w1, w2),
		Seed:    11,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var fallbacks int
	var mu sync.Mutex
	remote, err := sweep.Run(context.Background(), spec, sweep.Options{
		Env:         flows.Env{Store: flows.NewStore()},
		Concurrency: 2,
		Remote: func(ctx context.Context, one sweep.Spec, _ sweep.Point) ([]byte, error) {
			body, err := json.Marshal(one)
			if err != nil {
				return nil, err
			}
			return p.ExecJob(ctx, serve.Spec{Kind: "sweep", Params: body})
		},
		OnPoint: func(ev sweep.PointEvent) {
			if ev.Phase == "fallback" {
				mu.Lock()
				fallbacks++
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := toNDJSON(remote); !bytes.Equal(got, want) {
		t.Fatalf("remote frontier differs from local:\n-- local --\n%s\n-- remote --\n%s", want, got)
	}
	if fallbacks != 0 {
		t.Fatalf("%d points fell back locally, want 0", fallbacks)
	}
	if st := p.Stats(); st.Completed != 2 {
		t.Fatalf("completed %d jobs remotely, want 2", st.Completed)
	}
}
