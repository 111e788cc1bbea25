package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"rescue/internal/fault"
	"rescue/internal/rtl"
	"rescue/internal/scan"
	"rescue/internal/serve"
)

// miniRunner is a campaign-bearing job kind: fast, byte-deterministic
// across executions, and journaled through the job's checkpoint when the
// server has checkpointing on.
func miniRunner(ctx context.Context, rc serve.RunContext, _ json.RawMessage) ([]byte, error) {
	d, err := rtl.Build(rtl.Small(), rtl.RescueDesign)
	if err != nil {
		return nil, err
	}
	c, err := scan.Insert(d.N, 1)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(61))
	var pats []*scan.Pattern
	for w := 0; w < 2; w++ {
		p := c.NewPattern(64)
		for i := range p.FFVals {
			p.FFVals[i] = r.Uint64()
		}
		for i := range p.PIVals {
			p.PIVals[i] = r.Uint64()
		}
		pats = append(pats, p)
	}
	sim := fault.NewSim(c, pats)
	faults := fault.NewUniverse(d.N).Collapsed[:200]
	camp := fault.NewCampaign(sim, fault.CampaignConfig{Workers: 2})
	res, st, err := camp.RunCheckpoint(ctx, rc.Env.Ck, faults)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for i, r := range res {
		fmt.Fprintf(&buf, "%4d %v %d\n", i, r.Detected, len(r.Fails))
	}
	fmt.Fprintf(&buf, "faults=%d\n", st.Faults)
	return buf.Bytes(), nil
}

func campaignTestKinds() map[string]serve.Runner {
	kinds := testKinds(make(chan struct{}))
	kinds["mini"] = miniRunner
	return kinds
}

// TestServeDeleteTerminal: cancelling a job that already reached a
// terminal state is a 409 conflict — the job exists, its outcome is
// settled — never a 404 and never a silent 200.
func TestServeDeleteTerminal(t *testing.T) {
	s := newTestServer(t, serve.Config{Kinds: campaignTestKinds()})
	sn, _ := s.submit(t, `{"kind":"system"}`)
	s.waitState(t, sn.ID, serve.StateSucceeded, time.Minute)

	req, _ := http.NewRequest(http.MethodDelete, s.ts.URL+"/jobs/"+sn.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE on terminal job: %d, want 409", resp.StatusCode)
	}
	var msg struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg.Error, "succeeded") {
		t.Fatalf("conflict body %q does not name the terminal state", msg.Error)
	}
	// The job is still there, untouched.
	code, b := s.get(t, "/jobs/"+sn.ID)
	if code != http.StatusOK {
		t.Fatalf("GET after refused delete: %d", code)
	}
	var after serve.Snapshot
	if err := json.Unmarshal(b, &after); err != nil {
		t.Fatal(err)
	}
	if after.State != serve.StateSucceeded {
		t.Fatalf("state mutated to %s by refused delete", after.State)
	}
}

// TestServeJournalEndpoint: a job that flushed a checkpoint journal
// exports it over GET /jobs/{id}/journal; jobs without one 404.
func TestServeJournalEndpoint(t *testing.T) {
	kinds := campaignTestKinds()
	// ckfail journals one campaign, flushes, then fails — the deterministic
	// stand-in for a crashed job whose journal a client wants to salvage.
	kinds["ckfail"] = func(ctx context.Context, rc serve.RunContext, raw json.RawMessage) ([]byte, error) {
		if _, err := miniRunner(ctx, rc, raw); err != nil {
			return nil, err
		}
		if rc.Env.Ck != nil {
			if err := rc.Env.Ck.Flush(); err != nil {
				return nil, err
			}
		}
		return nil, fmt.Errorf("synthetic failure after flush")
	}

	s := newTestServer(t, serve.Config{Kinds: kinds, CheckpointDir: t.TempDir(), Workers: 2})
	sn, _ := s.submit(t, `{"kind":"ckfail"}`)
	s.waitState(t, sn.ID, serve.StateFailed, time.Minute)

	code, b := s.get(t, "/jobs/"+sn.ID+"/journal")
	if code != http.StatusOK {
		t.Fatalf("journal fetch: %d %s", code, b)
	}
	if len(b) == 0 || !strings.Contains(string(b), "nFaults") {
		t.Fatalf("journal carries no campaign sections:\n%s", b)
	}

	// A successful campaign job consumes its journal: 404 afterwards.
	ok, _ := s.submit(t, `{"kind":"mini"}`)
	s.waitState(t, ok.ID, serve.StateSucceeded, time.Minute)
	if code, _ := s.get(t, "/jobs/"+ok.ID+"/journal"); code != http.StatusNotFound {
		t.Fatalf("journal of succeeded job: %d, want 404", code)
	}

	// With checkpointing off the route answers 404, not 500.
	s2 := newTestServer(t, serve.Config{Kinds: campaignTestKinds()})
	sn2, _ := s2.submit(t, `{"kind":"system"}`)
	s2.waitState(t, sn2.ID, serve.StateSucceeded, time.Minute)
	if code, _ := s2.get(t, "/jobs/"+sn2.ID+"/journal"); code != http.StatusNotFound {
		t.Fatalf("journal with checkpointing off: %d, want 404", code)
	}
}
