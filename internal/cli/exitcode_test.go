package cli_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildCmds compiles the CLI binaries once into a shared temp dir. Flag
// validation runs before any heavy work in every command, so the error
// paths exercised here return in milliseconds.
func buildCmds(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	bins := make(map[string]string, len(names))
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Dir = "../.." // module root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}
	return bins
}

// TestExitCodes pins the documented exit-code contract across every CLI:
// 0 = success, 1 = runtime failure, 2 = usage error. Usage errors must
// also say "usage error" on stderr so scripts can distinguish them.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCmds(t, "rescue-sim", "rescue-atpg", "rescue-dict", "rescue-isolate", "rescue-diffcheck")

	staleCk := filepath.Join(t.TempDir(), "stale.ck")
	if err := os.WriteFile(staleCk, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []exitCase{
		{"sim negative workers", "rescue-sim", []string{"-workers=-1"}, 2, "usage error"},
		{"atpg negative workers", "rescue-atpg", []string{"-workers=-1"}, 2, "usage error"},
		{"dict negative workers", "rescue-dict", []string{"build", "-workers=-1", "-o", "x.csv"}, 2, "usage error"},
		{"dict missing subcommand", "rescue-dict", []string{"-workers=-1"}, 2, "usage"},
		{"isolate negative workers", "rescue-isolate", []string{"-workers=-1"}, 2, "usage error"},
		{"diffcheck negative workers", "rescue-diffcheck", []string{"-workers=1,-1"}, 2, "usage error"},
		{"atpg resume without checkpoint", "rescue-atpg", []string{"-resume"}, 2, "usage error"},
		{"dict resume without checkpoint", "rescue-dict", []string{"build", "-resume", "-o", "x.csv"}, 2, "usage error"},
		{"isolate resume without checkpoint", "rescue-isolate", []string{"-resume"}, 2, "usage error"},
		{"atpg negative chaos budget", "rescue-atpg", []string{"-chaos-cancel-after=-5"}, 2, "usage error"},
		{"atpg stale checkpoint without resume", "rescue-atpg", []string{"-checkpoint", staleCk}, 1, "already exists"},
		{"diffcheck malformed seed range", "rescue-diffcheck", []string{"-seeds", "bad"}, 2, "usage error"},
		{"diffcheck inverted seed range", "rescue-diffcheck", []string{"-seeds", "5:2"}, 2, "usage error"},
		{"diffcheck non-numeric workers", "rescue-diffcheck", []string{"-workers", "x"}, 2, "usage error"},
		{"diffcheck stray positional args", "rescue-diffcheck", []string{"-seeds", "0:2", "extra"}, 2, "usage error"},
		{"diffcheck unknown flag", "rescue-diffcheck", []string{"-no-such-flag"}, 2, ""},
		{"diffcheck small passing range", "rescue-diffcheck", []string{"-seeds", "0:2", "-workers", "1,2"}, 0, ""},
		{"atpg negative timeout", "rescue-atpg", []string{"-timeout=-1s"}, 2, "usage error"},
		{"dict negative timeout", "rescue-dict", []string{"build", "-timeout=-1s", "-o", "x.csv"}, 2, "usage error"},
		{"isolate negative timeout", "rescue-isolate", []string{"-timeout=-1s"}, 2, "usage error"},
	}
	runCases(t, bins, cases)
}

// TestServeExitCodes pins the daemon's flag validation: rescued must fail
// fast with a usage error before binding a socket.
func TestServeExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCmds(t, "rescued", "rescue-loadgen")

	cases := []exitCase{
		{"rescued negative workers", "rescued", []string{"-workers=-1"}, 2, "usage error"},
		{"rescued zero queue", "rescued", []string{"-queue=0"}, 2, "usage error"},
		{"rescued zero slots", "rescued", []string{"-slots=0"}, 2, "usage error"},
		{"rescued zero drain timeout", "rescued", []string{"-drain-timeout=0s"}, 2, "usage error"},
		{"rescued unknown flag", "rescued", []string{"-no-such-flag"}, 2, ""},
		{"rescued zero tenant weight", "rescued", []string{"-tenant-weights=a=0"}, 2, "usage error"},
		{"rescued malformed tenant weights", "rescued", []string{"-tenant-weights=a"}, 2, "usage error"},
		{"rescued bad tenant name in weights", "rescued", []string{"-tenant-weights=bad name=2"}, 2, "usage error"},
		{"rescued negative tenant queue cap", "rescued", []string{"-tenant-queue-cap=-1"}, 2, "usage error"},
		{"rescued negative per-tenant inflight", "rescued", []string{"-max-inflight-per-tenant=-1"}, 2, "usage error"},
		{"rescued tiny event log cap", "rescued", []string{"-event-log-cap=2"}, 2, "usage error"},
		{"loadgen bad class", "rescue-loadgen", []string{"-class=urgent", "-dry-run"}, 2, "usage error"},
		{"loadgen negative slow readers", "rescue-loadgen", []string{"-slow-readers=-1", "-dry-run"}, 2, "usage error"},
		{"loadgen unknown scenario", "rescue-loadgen", []string{"-scenario=chaos"}, 2, "usage error"},
		{"loadgen scenario without base", "rescue-loadgen", []string{"-scenario=noisy-neighbor"}, 2, "usage error"},
	}
	runCases(t, bins, cases)
}

// TestRescuedTenant429 pins the per-tenant admission contract over a real
// rescued process: with -tenant-queue-cap 1, a tenant that already has a
// job running and one queued gets a 429 with an honest Retry-After on its
// next submission — while a different tenant is still admitted.
func TestRescuedTenant429(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCmds(t, "rescued")

	cmd := exec.Command(bins["rescued"], "-addr", "127.0.0.1:0", "-quiet",
		"-slots", "1", "-queue", "64", "-tenant-queue-cap", "1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatalf("rescued never printed its listen address (scan err: %v)", sc.Err())
	}
	base := "http://" + addr

	submit := func(tenant string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, base+"/jobs",
			strings.NewReader(`{"kind":"table3","params":{"small":true}}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Rescue-Client", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	readID := func(resp *http.Response) string {
		t.Helper()
		var sn struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil || sn.ID == "" {
			t.Fatalf("submit decode: %v (status %d)", err, resp.StatusCode)
		}
		resp.Body.Close()
		return sn.ID
	}

	resp := submit("alpha")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first alpha submit: %d, want 202", resp.StatusCode)
	}
	id := readID(resp)

	// Wait for the first job to occupy the slot, so the tenant's queue
	// cap is measured against queued work only.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var sn struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if sn.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running (state %s)", sn.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp = submit("alpha")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second alpha submit: %d, want 202 (fills the tenant queue)", resp.StatusCode)
	}
	readID(resp)

	resp = submit("alpha")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third alpha submit: %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}

	// The cap is per tenant: a different tenant still gets in.
	resp = submit("beta")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("beta submit: %d, want 202 (caps are per tenant)", resp.StatusCode)
	}
	readID(resp)
}

// TestDeadlineExitCodes pins the -timeout contract added with the fab
// flow: every long-running CLI validates the flag (negative = usage
// error) and exits 124 when the deadline fires. A 1ns deadline is
// already expired by the first context check, so these paths return as
// soon as each command reaches its flow entry point.
func TestDeadlineExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCmds(t, "rescue-sim", "rescue-yat", "rescue-trace", "rescue-verilog", "rescue-fab")
	tmp := t.TempDir()

	cases := []exitCase{
		{"sim negative timeout", "rescue-sim", []string{"-timeout=-1s"}, 2, "usage error"},
		{"yat negative workers", "rescue-yat", []string{"-workers=-1"}, 2, "usage error"},
		{"fab negative workers", "rescue-fab", []string{"-workers=-1"}, 2, "usage error"},
		{"fab resume without checkpoint", "rescue-fab", []string{"-resume"}, 2, "usage error"},
		{"fab zero dies", "rescue-fab", []string{"-dies=0"}, 2, "usage error"},
		{"fab bad node", "rescue-fab", []string{"-node=45"}, 2, "usage error"},
		{"sim deadline", "rescue-sim",
			[]string{"-timeout=1ns", "-bench", "gzip", "-warmup", "100", "-commit", "100"}, 124, "deadline"},
		{"yat deadline", "rescue-yat",
			[]string{"-timeout=1ns", "-bench", "gzip", "-warmup", "10", "-commit", "10"}, 124, "deadline"},
		{"trace record deadline", "rescue-trace",
			[]string{"record", "-timeout=1ns", "-n", "1000", "-o", filepath.Join(tmp, "t.rsct")}, 124, "deadline"},
		{"verilog deadline", "rescue-verilog",
			[]string{"-small", "-timeout=1ns", "-o", filepath.Join(tmp, "t.v")}, 124, "deadline"},
		{"fab deadline", "rescue-fab",
			[]string{"-small", "-timeout=1ns", "-dies", "2"}, 124, "deadline"},
	}
	runCases(t, bins, cases)
}

// TestSweepExitCodes pins rescue-sweep's flag and spec validation (exit 2
// before any grid work) and the deadline path (exit 124). The degraded
// path — exit 3 after remote fallbacks — and the kill/-resume byte-identity
// contract are exercised by scripts/sweep-smoke.sh.
func TestSweepExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCmds(t, "rescue-sweep")

	cases := []exitCase{
		{"sweep negative workers", "rescue-sweep", []string{"-workers=-1"}, 2, "usage error"},
		{"sweep negative timeout", "rescue-sweep", []string{"-timeout=-1s"}, 2, "usage error"},
		{"sweep negative concurrency", "rescue-sweep", []string{"-concurrency=-1"}, 2, "usage error"},
		{"sweep resume without checkpoint", "rescue-sweep", []string{"-resume"}, 2, "usage error"},
		{"sweep negative chaos budget", "rescue-sweep", []string{"-chaos-cancel-after=-5"}, 2, "usage error"},
		{"sweep bad preset", "rescue-sweep", []string{"-preset", "nope"}, 2, "usage error"},
		{"sweep bad axis key", "rescue-sweep", []string{"-axis", "nope=1"}, 2, "usage error"},
		{"sweep malformed axis", "rescue-sweep", []string{"-axis", "chipkill-scale"}, 2, ""},
		{"sweep bad axis value", "rescue-sweep", []string{"-axis", "rob-size=big"}, 2, "usage error"},
		{"sweep bad node", "rescue-sweep", []string{"-node", "45"}, 2, "usage error"},
		{"sweep non-numeric node", "rescue-sweep", []string{"-node", "x"}, 2, "usage error"},
		{"sweep negative dies", "rescue-sweep", []string{"-dies=-1"}, 2, "usage error"},
		{"sweep selfheal out of range", "rescue-sweep", []string{"-selfheal", "0.95"}, 2, "usage error"},
		{"sweep empty dispatch list", "rescue-sweep", []string{"-dispatch", ","}, 2, "usage error"},
		{"sweep unknown flag", "rescue-sweep", []string{"-no-such-flag"}, 2, ""},
		{"sweep deadline", "rescue-sweep",
			[]string{"-small", "-timeout=1ns", "-dies", "2", "-warmup", "100", "-commit", "500", "-quiet"}, 124, "deadline"},
	}
	runCases(t, bins, cases)
}

// TestRescuedDeleteTerminal pins the cancel contract over a real rescued
// process: DELETE on a live job cancels it (200); DELETE on the now
// terminal job is refused with 409 — never a 404, never a silent second
// cancel.
func TestRescuedDeleteTerminal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCmds(t, "rescued")

	cmd := exec.Command(bins["rescued"], "-addr", "127.0.0.1:0", "-quiet")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatalf("rescued never printed its listen address (scan err: %v)", sc.Err())
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"kind":"table3","params":{"small":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	var sn struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil || sn.ID == "" {
		t.Fatalf("submit: %v (status %d)", err, resp.StatusCode)
	}
	resp.Body.Close()

	// First DELETE cancels (200). The job then lands in a terminal state,
	// after which DELETE must answer 409; poll to absorb the transition.
	del := func() int {
		req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+sn.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(); code != http.StatusOK {
		t.Fatalf("first DELETE: %d, want 200", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code := del()
		if code == http.StatusConflict {
			break
		}
		if code != http.StatusOK {
			t.Fatalf("repeat DELETE: %d, want 200 (still settling) or 409 (terminal)", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a terminal state after cancel")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type exitCase struct {
	name     string
	bin      string
	args     []string
	wantExit int
	wantErr  string // substring required on stderr ("" = don't care)
}

func runCases(t *testing.T, bins map[string]string, cases []exitCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bins[tc.bin], tc.args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			exit := 0
			if ee, ok := err.(*exec.ExitError); ok {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("running %s: %v", tc.bin, err)
			}
			if exit != tc.wantExit {
				t.Fatalf("%s %v: exit %d, want %d\nstderr: %s", tc.bin, tc.args, exit, tc.wantExit, stderr.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("%s %v: stderr missing %q:\n%s", tc.bin, tc.args, tc.wantErr, stderr.String())
			}
		})
	}
}
