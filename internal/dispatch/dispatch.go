// Package dispatch runs whole jobs on a pool of rescued workers over HTTP
// and survives the pool misbehaving. ExecJob submits one job spec, follows
// its event stream, and returns the finished job's result bytes. Dead
// workers are detected by connection failure, health polling, and an
// event-stream heartbeat watchdog; their jobs are reassigned to survivors
// under a retry budget with exponential backoff and seeded jitter. A busy
// worker (HTTP 429) is waited out, never marked down. When the pool gives
// up, ExecJob returns an error and the caller runs the job locally — the
// pool never decides what a degraded run means.
//
// Correctness rests on the jobs, not on bookkeeping: a job's result bytes
// depend only on its spec, so a retried or reassigned job returns the same
// bytes wherever it ran, and callers verify what they merge (rescue-sweep
// checks every remote frontier line by content digest). A late result from
// an abandoned worker is never read — its job is cancelled best-effort.
package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rescue/internal/serve"
)

// Config parameterizes a Pool.
type Config struct {
	// Workers is the pool: one rescued base URL each (http://host:port).
	// Required, at least one.
	Workers []string
	// RetryBudget is how many times one job may be re-dispatched after its
	// first attempt fails. 0 = 2*len(Workers).
	RetryBudget int
	// BackoffBase/BackoffCap bound the exponential retry backoff.
	// 0 = 100ms / 2s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Heartbeat is the longest silence tolerated on a job's event stream
	// before the worker is declared hung, the job cancelled, and the job
	// reassigned. 0 = 30s.
	Heartbeat time.Duration
	// HealthEvery is the /healthz polling period that revives recovered
	// workers and retires unreachable ones. 0 = 500ms.
	HealthEvery time.Duration
	// SubmitTimeout bounds one POST /jobs round trip. 0 = 10s.
	SubmitTimeout time.Duration
	// Seed drives retry jitter. Same seed, same decisions.
	Seed int64
	// Logf, when set, receives one line per dispatch event.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() error {
	if len(c.Workers) == 0 {
		return fmt.Errorf("dispatch: need at least one worker URL")
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 2 * len(c.Workers)
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 2 * time.Second
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = 30 * time.Second
	}
	if c.HealthEvery == 0 {
		c.HealthEvery = 500 * time.Millisecond
	}
	if c.SubmitTimeout == 0 {
		c.SubmitTimeout = 10 * time.Second
	}
	return nil
}

// Stats is the pool's observability record.
type Stats struct {
	// Completed counts jobs computed remotely.
	Completed int64
	// Retries counts re-dispatch attempts after a failed one.
	Retries int64
}

// worker is one pool member. down is advisory: the health loop and
// per-dispatch failures flip it, /healthz success revives it.
type worker struct {
	url  string
	down atomic.Bool
}

// Pool dispatches jobs to rescued workers. Create with NewPool, run jobs
// with ExecJob, and Close when done.
type Pool struct {
	cfg     Config
	client  *http.Client
	workers []*worker

	rngMu sync.Mutex
	rng   *rand.Rand

	next atomic.Int64 // round-robin cursor

	completed atomic.Int64
	retries   atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewPool validates cfg and starts the health loop.
func NewPool(cfg Config) (*Pool, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	p := &Pool{
		cfg:    cfg,
		client: &http.Client{},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		stop:   make(chan struct{}),
	}
	for _, u := range cfg.Workers {
		p.workers = append(p.workers, &worker{url: strings.TrimSuffix(u, "/")})
	}
	p.wg.Add(1)
	go p.healthLoop()
	return p, nil
}

// Close stops the health loop. In-flight ExecJob calls are unaffected.
func (p *Pool) Close() {
	close(p.stop)
	p.wg.Wait()
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Completed: p.completed.Load(),
		Retries:   p.retries.Load(),
	}
}

// ExecJob runs one job on the pool and returns its raw result bytes. Each
// attempt goes to the next live worker round-robin; a failed attempt marks
// the worker down (unless it answered 429) and retries on another after a
// backoff, until the retry budget is spent. It is how the sweep fans grid
// points out: each point becomes a single-point sweep job on some worker,
// and the caller verifies the returned frontier line by content digest
// before merging. The returned error means the pool gave up; the sweep
// then runs the point locally.
func (p *Pool) ExecJob(ctx context.Context, spec serve.Spec) ([]byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		w := p.pick()
		if w == nil {
			return nil, fmt.Errorf("dispatch: no live workers for %s job (last error: %v)", spec.Kind, lastErr)
		}
		out, err := p.runJob(ctx, w, body)
		if err == nil {
			p.completed.Add(1)
			return out, nil
		}
		lastErr = err
		busy, retryAfter := asBusy(err)
		if !busy {
			// Anything else — connection refused, mid-stream EOF, heartbeat
			// timeout, job failure — is treated as worker trouble: mark it
			// down (the health loop revives it if /healthz answers) and move
			// the job to a survivor.
			w.down.Store(true)
			p.logf("worker %s suspected down after %s job: %v", w.url, spec.Kind, err)
		}
		if attempt >= p.cfg.RetryBudget {
			return nil, fmt.Errorf("dispatch: %s job exhausted its retry budget (%d attempts): %w",
				spec.Kind, attempt+1, err)
		}
		p.retries.Add(1)
		wait := p.backoff(attempt, retryAfter)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
}

// runJob drives one job attempt on one worker: submit, watch the event
// stream under the heartbeat watchdog, fetch the raw result.
func (p *Pool) runJob(ctx context.Context, w *worker, body []byte) ([]byte, error) {
	id, err := p.submit(ctx, w, body)
	if err != nil {
		return nil, err
	}
	state, err := p.watch(ctx, w, id)
	if err != nil {
		// The worker may still be computing (hung, or just slower than the
		// heartbeat): cancel the job best-effort so a late completion burns
		// no further cycles, and never fetch its result.
		p.cancelJob(w, id)
		return nil, err
	}
	if state != "succeeded" {
		return nil, fmt.Errorf("worker %s: job %s ended %s", w.url, id, state)
	}
	return p.fetchRaw(ctx, w, id)
}

// fetchRaw reads a finished job's result bytes verbatim.
func (p *Pool) fetchRaw(ctx context.Context, w *worker, id string) ([]byte, error) {
	rctx, cancel := context.WithTimeout(ctx, p.cfg.SubmitTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, w.url+"/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("result from %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result from %s: HTTP %d", w.url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// pick returns the next live worker round-robin, or nil when every worker
// is down.
func (p *Pool) pick() *worker {
	n := len(p.workers)
	start := int(p.next.Add(1))
	for i := 0; i < n; i++ {
		w := p.workers[(start+i)%n]
		if !w.down.Load() {
			return w
		}
	}
	return nil
}

// backoff is exponential from the base, capped, plus seeded jitter in
// [0, wait/2] so synchronized retries spread out. A server-provided
// Retry-After raises the floor.
func (p *Pool) backoff(attempt int, retryAfter time.Duration) time.Duration {
	wait := p.cfg.BackoffBase << attempt
	if wait > p.cfg.BackoffCap || wait <= 0 {
		wait = p.cfg.BackoffCap
	}
	if retryAfter > wait {
		wait = retryAfter
	}
	p.rngMu.Lock()
	jitter := time.Duration(p.rng.Int63n(int64(wait)/2 + 1))
	p.rngMu.Unlock()
	return wait + jitter
}

// errBusy marks a 429: the worker is healthy but saturated, so the retry
// neither marks it down nor skips it — it just waits.
type errBusy struct {
	retryAfter time.Duration
}

func (e errBusy) Error() string {
	return fmt.Sprintf("worker queue full (retry after %s)", e.retryAfter)
}

func asBusy(err error) (bool, time.Duration) {
	var b errBusy
	if errors.As(err, &b) {
		return true, b.retryAfter
	}
	return false, 0
}

func (p *Pool) submit(ctx context.Context, w *worker, body []byte) (string, error) {
	sctx, cancel := context.WithTimeout(ctx, p.cfg.SubmitTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, w.url+"/jobs", strings.NewReader(string(body)))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return "", fmt.Errorf("submit to %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var sn struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil || sn.ID == "" {
			return "", fmt.Errorf("submit to %s: bad response: %v", w.url, err)
		}
		return sn.ID, nil
	case http.StatusTooManyRequests:
		after := time.Duration(0)
		if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs > 0 {
			after = time.Duration(secs) * time.Second
		}
		io.Copy(io.Discard, resp.Body)
		return "", errBusy{retryAfter: after}
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("submit to %s: HTTP %d: %s", w.url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
}

// watch follows the job's NDJSON event stream until its done event and
// returns the terminal state. Every streamed line is a heartbeat; silence
// beyond the configured window cancels the stream and fails the attempt —
// the hung-worker detector.
func (p *Pool) watch(ctx context.Context, w *worker, id string) (string, error) {
	wctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	req, err := http.NewRequestWithContext(wctx, http.MethodGet, w.url+"/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return "", fmt.Errorf("events from %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events from %s: HTTP %d", w.url, resp.StatusCode)
	}

	errHeartbeat := fmt.Errorf("worker %s: no event in %s on job %s (hung?)", w.url, p.cfg.Heartbeat, id)
	beat := make(chan struct{}, 1)
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		t := time.NewTimer(p.cfg.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-watchdogDone:
				return
			case <-beat:
				if !t.Stop() {
					<-t.C
				}
				t.Reset(p.cfg.Heartbeat)
			case <-t.C:
				cancel(errHeartbeat)
				return
			}
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	state := ""
	for sc.Scan() {
		select {
		case beat <- struct{}{}:
		default:
		}
		var ev struct {
			Type  string `json:"type"`
			State string `json:"state"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Type == "done" {
			state = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		if cause := context.Cause(wctx); cause != nil && cause != context.Canceled {
			return "", cause
		}
		return "", fmt.Errorf("events from %s: %w", w.url, err)
	}
	if state == "" {
		return "", fmt.Errorf("worker %s: event stream for %s ended without a done event", w.url, id)
	}
	return state, nil
}

// cancelJob best-effort DELETEs an abandoned job so a hung-but-alive
// worker stops burning cores on a job nobody will read. A 409 means the
// job finished in the race window — fine either way; its result stays
// unread.
func (p *Pool) cancelJob(w *worker, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, w.url+"/jobs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := p.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// healthLoop polls every worker's /healthz: a 200 revives a suspected
// worker, anything else retires it until it answers again.
func (p *Pool) healthLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			for _, w := range p.workers {
				up := p.healthy(w)
				was := w.down.Load()
				w.down.Store(!up)
				if was && up {
					p.logf("worker %s back up", w.url)
				}
			}
		}
	}
}

func (p *Pool) healthy(w *worker) bool {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.HealthEvery)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (p *Pool) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}
